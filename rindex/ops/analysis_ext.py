"""Analysis-chain + stream-enrichment operators (SURVEY.md §2.2 / §2.4).

Reference anchors (semantics only, no code ported):
  * StopFilter           — `lucene/analysis/common/src/java/org/apache/lucene/
                            analysis/core/StopFilter.java`
  * SynonymGraphFilter   — `.../synonym/SynonymGraphFilter.java` (dictionary
                            loaded once per worker → actor-pool stage)
  * ShingleFilter        — `.../shingle/ShingleFilter.java`
  * EdgeNGramTokenFilter — `.../ngram/EdgeNGramTokenFilter.java`
  * PorterStemFilter     — `.../en/PorterStemFilter.java`
  * Field-mutating URPs  — `solr/core/src/java/org/apache/solr/update/
                            processor/ParseIntFieldUpdateProcessorFactory.java`
  * fetch() stream       — `solr/solrj/src/java/org/apache/solr/client/solrj/
                            io/stream/FetchStream.java`
  * ScoreJoin            — `solr/core/src/java/org/apache/solr/search/join/
                            ScoreJoinQParserPlugin.java`

Scale notes: every term/bigram count op pre-aggregates INSIDE map_batches
(partial Counter per batch) so the groupby shuffle only moves (key, count)
partials, never raw token rows — the combiner pattern that keeps the
all-to-all exchange proportional to vocabulary size, not corpus size.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.schema import join_partitions, pool_cap
from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}

TOKEN_SQL_RE = "[0-9a-z]+"
_TOKEN_RE = re.compile(TOKEN_SQL_RE)

# intersects the documents vocabulary ('the' is present); STOPSETS["en"]
STOPWORDS = ("the", "a", "of", "to", "and", "in", "is", "it")

# replacement synonyms over the documents vocabulary
SYNONYMS = {"fast": "quick", "slow": "sluggish", "join": "merge"}

TOP_TERMS = 20
TOP_BIGRAMS = 15


def _count_partial(counter_fn):
    """map_batches fn: per-batch Counter -> (term, cnt) partial rows."""

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.utf8_lower(t["text"]).to_pylist()
        c = counter_fn(texts)
        if not c:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "cnt": pa.array([], pa.int64())}
            )
        ks, vs = zip(*c.items())
        return pa.table({"term": pa.array(ks), "cnt": pa.array(vs, pa.int64())})

    return f


def _sum_sort_limit(ds, n: int):
    from ray.data.aggregate import Sum

    out = ds.groupby("term").aggregate(Sum(on="cnt", alias_name="cnt"))
    return out.sort(["cnt", "term"], descending=[True, False]).limit(n)


def q_stopword_topterms_documents(sf_dir: str):
    """StopFilter: top terms by collection frequency AFTER stopword removal.
    Tokenize + filter + partial-count in one vectorized map_batches; the
    shuffle moves only (term, cnt) partials."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])
    sw = frozenset(STOPWORDS)

    def count(texts):
        c = Counter()
        for x in texts:
            c.update(tk for tk in _TOKEN_RE.findall(x or "") if tk not in sw)
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


QUERIES["stopword_topterms_documents"] = q_stopword_topterms_documents
ORACLE["stopword_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents)
    WHERE term NOT IN {tuple(STOPWORDS)}
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_synonym_canonical_documents(sf_dir: str):
    """SynonymGraphFilter (replacement synonyms): term counts after mapping
    through a synonym dictionary held by an ACTOR POOL — the dict is built
    once per actor in __init__ (broadcast via constructor closure), not
    re-shipped per batch."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])

    class SynonymCount:
        def __init__(self):
            from rindex.analysis import make_synonym_filter

            self.filter = make_synonym_filter(dict(SYNONYMS))
            self.rx = re.compile(TOKEN_SQL_RE)

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            c = Counter()
            for x in pc.utf8_lower(t["text"]).to_pylist():
                c.update(self.filter(self.rx.findall(x or "")))
            if not c:
                return pa.table(
                    {"term": pa.array([], pa.string()),
                     "cnt": pa.array([], pa.int64())}
                )
            ks, vs = zip(*c.items())
            return pa.table(
                {"term": pa.array(ks), "cnt": pa.array(vs, pa.int64())}
            )

    mapped = ds.map_batches(
        SynonymCount, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=pool_cap(min_cap=4),
    )
    return _sum_sort_limit(mapped, TOP_TERMS)


_syn_case = " ".join(
    f"WHEN '{k}' THEN '{v}'" for k, v in sorted(SYNONYMS.items())
)
QUERIES["synonym_canonical_documents"] = q_synonym_canonical_documents
ORACLE["synonym_canonical_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE t {_syn_case} ELSE t END AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_shingle_bigrams_documents(sf_dir: str):
    """ShingleFilter (token bigrams): top word-pair counts; partial Counter
    per batch -> (bigram, cnt) groupby sum."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])

    def count(texts):
        c = Counter()
        for x in texts:
            toks = _TOKEN_RE.findall(x or "")
            c.update(
                f"{toks[i]} {toks[i + 1]}" for i in range(len(toks) - 1)
            )
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_BIGRAMS)


QUERIES["shingle_bigrams_documents"] = q_shingle_bigrams_documents
ORACLE["shingle_bigrams_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(
        list_transform(range(1, len(l)), i -> l[i] || ' ' || l[i + 1])
      ) AS term FROM (
        SELECT regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_BIGRAMS}
"""


def q_edge_ngram_terms_documents(sf_dir: str):
    """EdgeNGramTokenFilter over the distinct corpus vocabulary: each term
    expands to its 2..5-char prefixes (the autocomplete-index shape).
    Vocab is derived distributively (partial term sets per batch ->
    groupby-distinct), then the expansion is a flat map."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])

    def terms(texts):
        # partial distinct per batch (cnt unused downstream; 1 per term)
        return Counter(set().union(
            *(set(_TOKEN_RE.findall(x or "")) for x in texts)
        )) if texts else Counter()

    vocab = (
        ds.map_batches(
            _count_partial(terms), batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("term")
        .count()
    )

    def expand(t: pa.Table) -> pa.Table:
        ts, gs = [], []
        for term in t["term"].to_pylist():
            for i in range(2, min(len(term), 5) + 1):
                ts.append(term)
                gs.append(term[:i])
        return pa.table({"term": pa.array(ts, pa.string()),
                         "gram": pa.array(gs, pa.string())})

    return vocab.map_batches(expand, batch_format="pyarrow")


QUERIES["edge_ngram_terms_documents"] = q_edge_ngram_terms_documents
ORACLE["edge_ngram_terms_documents"] = f"""
    SELECT term, unnest(
      list_transform(range(2, least(length(term), 5) + 1),
                     i -> substr(term, 1, i))
    ) AS gram FROM (
      SELECT DISTINCT unnest(
        regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents)
"""


def q_porter_stem_documents(sf_dir: str):
    """PorterStemFilter: per-document token count after stemming plus the
    count of DISTINCT stems (the stemmer collapses inflections).  Rows-only
    (Porter is not SQL-expressible); the stemmer itself is golden-tested in
    tests/test_analysis.py against the published algorithm's examples."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    class Stem:
        def __init__(self):
            from rindex.analysis import porter_stem

            self.stem = porter_stem
            self.rx = re.compile(TOKEN_SQL_RE)

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            n_tok, n_stem = [], []
            for x in pc.utf8_lower(t["text"]).to_pylist():
                stems = [self.stem(tk) for tk in self.rx.findall(x or "")]
                n_tok.append(len(stems))
                n_stem.append(len(set(stems)))
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_tokens": pa.array(n_tok, pa.int64()),
                    "n_distinct_stems": pa.array(n_stem, pa.int64()),
                }
            )

    return ds.map_batches(
        Stem, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=pool_cap(min_cap=4),
    )


QUERIES["porter_stem_documents"] = q_porter_stem_documents
# no ORACLE: Porter stemming is not SQL-expressible; pytest goldens cover it.


def q_snowball_stem_documents(sf_dir: str):
    """SnowballPorterFilterFactory (language="English", i.e. Porter2): the
    same per-doc token/distinct-stem profile as the Porter op, through the
    en_snowball analyzer chain.  Porter2 collapses MORE than Porter1 in
    some families (ization->ize) and LESS in others (argument stays) — the
    pytest goldens pin both stemmers' documented divergences.  Rows-only
    (stemming is not SQL-expressible); porter2_stem is golden-tested
    against the published algorithm's own examples."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    class Stem:
        def __init__(self):
            from rindex.analysis import porter2_stem

            self.stem = porter2_stem
            self.rx = re.compile(TOKEN_SQL_RE)

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            n_tok, n_stem = [], []
            for x in pc.utf8_lower(t["text"]).to_pylist():
                stems = [self.stem(tk) for tk in self.rx.findall(x or "")]
                n_tok.append(len(stems))
                n_stem.append(len(set(stems)))
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_tokens": pa.array(n_tok, pa.int64()),
                    "n_distinct_stems": pa.array(n_stem, pa.int64()),
                }
            )

    return ds.map_batches(
        Stem, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=pool_cap(min_cap=4),
    )


QUERIES["snowball_stem_documents"] = q_snowball_stem_documents
# no ORACLE: see porter_stem_documents.


KSTEM_TOP_N = 15


def q_kstem_top_terms_documents(sf_dir: str):
    """KStemFilterFactory (`lucene/analysis/common/src/java/org/apache/
    lucene/analysis/en/KStemFilter.java`): corpus top terms after Krovetz
    inflectional stemming — per-batch partial (stem, n) counts (tokens
    dictionary-encoded via np.unique, the stemmer runs once per DISTINCT
    batch token), a distributed groupby sum, top KSTEM_TOP_N.  Unlike
    Porter/Porter2 this IS oracle-backed: the DuckDB cascade below is
    generated from the same KSTEM_LEX / KSTEM_E_WORDS constants the
    Python stemmer uses, so the two sides cannot drift."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", ["text"])

    class Stem:
        def __init__(self):
            from rindex.analysis import kstem

            self.stem = kstem
            self.rx = re.compile(TOKEN_SQL_RE)
            self.cache: dict[str, str] = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            toks: list[str] = []
            for x in pc.utf8_lower(t["text"]).to_pylist():
                toks.extend(self.rx.findall(x or ""))
            if not toks:
                return pa.table(
                    {"stem": pa.array([], pa.string()),
                     "pn": pa.array([], pa.int64())}
                )
            uniq, counts = np.unique(np.asarray(toks, object),
                                     return_counts=True)
            stems = []
            for u in uniq:
                s = self.cache.get(u)
                if s is None:
                    s = self.cache[u] = self.stem(u)
                stems.append(s)
            # collapse batch-local stem collisions before the shuffle
            su, sinv = np.unique(np.asarray(stems, object),
                                 return_inverse=True)
            pn = np.zeros(len(su), np.int64)
            np.add.at(pn, sinv, counts)
            return pa.table({"stem": pa.array(su), "pn": pa.array(pn)})

    out = (
        ds.map_batches(Stem, batch_format="pyarrow", zero_copy_batch=True,
                       concurrency=pool_cap(min_cap=4))
        .groupby("stem")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype(np.int64)
    return (
        out.sort_values(["n", "stem"], ascending=[False, True],
                        kind="mergesort")
        .head(KSTEM_TOP_N)
        .reset_index(drop=True)
    )


def _kstem_oracle_sql() -> str:
    from rindex.analysis import KSTEM_E_WORDS, KSTEM_LEX, KSTEM_SIBILANT_ES

    lex = ", ".join(f"'{w}'" for w in sorted(KSTEM_LEX))
    ew = ", ".join(f"'{w}'" for w in sorted(KSTEM_E_WORDS))
    sib = "|".join(KSTEM_SIBILANT_ES)
    return f"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
      FROM documents
    ),
    s1 AS (SELECT CASE
        WHEN length(t) <= 2 OR t IN ({lex}) THEN t
        WHEN t LIKE '%ies' AND length(t) > 4
          THEN left(t, length(t) - 3) || 'y'
        WHEN regexp_matches(t, '({sib})$') THEN left(t, length(t) - 2)
        WHEN t LIKE '%s' AND length(t) > 3
             AND NOT regexp_matches(t, '(ss|us|is)$')
          THEN left(t, length(t) - 1)
        ELSE t END AS w FROM toks),
    s2 AS (SELECT CASE
        WHEN length(w) <= 2 OR w IN ({lex}) THEN w
        WHEN w LIKE '%ied' AND length(w) > 4
          THEN left(w, length(w) - 3) || 'y'
        WHEN w LIKE '%ed' AND length(w) > 3 THEN (CASE
            WHEN left(w, length(w) - 2) || 'e' IN ({ew})
              THEN left(w, length(w) - 2) || 'e'
            WHEN length(w) > 4
                 AND substr(w, length(w) - 2, 1) = substr(w, length(w) - 3, 1)
                 AND substr(w, length(w) - 2, 1) NOT IN ('l', 's', 'z')
              THEN left(w, length(w) - 3)
            ELSE left(w, length(w) - 2) END)
        ELSE w END AS w FROM s1),
    s3 AS (SELECT CASE
        WHEN length(w) <= 2 OR w IN ({lex}) THEN w
        WHEN w LIKE '%ing' AND length(w) > 4 THEN (CASE
            WHEN left(w, length(w) - 3) || 'e' IN ({ew})
              THEN left(w, length(w) - 3) || 'e'
            WHEN length(w) > 5
                 AND substr(w, length(w) - 3, 1) = substr(w, length(w) - 4, 1)
                 AND substr(w, length(w) - 3, 1) NOT IN ('l', 's', 'z')
              THEN left(w, length(w) - 4)
            ELSE left(w, length(w) - 3) END)
        ELSE w END AS w FROM s2)
    SELECT w AS stem, count(*)::BIGINT AS n
    FROM s3 GROUP BY 1
    ORDER BY n DESC, stem ASC LIMIT {KSTEM_TOP_N}
    """


QUERIES["kstem_top_terms_documents"] = q_kstem_top_terms_documents
ORACLE["kstem_top_terms_documents"] = _kstem_oracle_sql()


def q_urp_parse_props_events(sf_dir: str):
    """Field-mutating URP chain (ParseIntField analog): extract the integer
    `k` from the JSON-ish `props` string column, bucket by decade, count.
    Pure vectorized pyarrow.compute — no Python loop."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["props"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.cast(
            pc.struct_field(
                pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"
            ),
            pa.int64(),
        )
        decade = pc.multiply(pc.divide(k, 10), 10)
        return pa.table({"k_decade": decade})

    return (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k_decade")
        .aggregate(Count(alias_name="n"))
    )


QUERIES["urp_parse_props_events"] = q_urp_parse_props_events
ORACLE["urp_parse_props_events"] = """
    SELECT (regexp_extract(props, '"k": (\\d+)', 1)::BIGINT // 10) * 10
             AS k_decade,
           count(*) AS n
    FROM events GROUP BY 1
"""


def q_fetch_enrich_orders(sf_dir: str):
    """fetch() stream: top-50 orders by totalprice enriched with customer
    name/segment.  The BROADCAST side is the TUPLE side — the 50 result
    keys ray.put once — and the lookup collection is filtered
    DISTRIBUTEDLY against them (`solr/solrj/.../io/stream/
    FetchStream.java` batches by the tuple stream, never materializing
    the fetched collection); only the ≤50 matching lookup rows ever reach
    the driver, so the lookup table can be arbitrarily large."""
    from rindex.ops.util import broadcast_semi_filter

    top = (
        read_table(
            sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
        )
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(50)
        .to_pandas()
    )
    cust_ds = read_table(
        sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"]
    )
    hits = (
        broadcast_semi_filter(
            cust_ds, top["o_custkey"].to_numpy(np.int64), "c_custkey"
        )
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )
    return top.merge(hits, on="o_custkey", how="left")


QUERIES["fetch_enrich_orders"] = q_fetch_enrich_orders
ORACLE["fetch_enrich_orders"] = """
    SELECT o_orderkey, o_custkey, o_totalprice, c_name, c_mktsegment
    FROM (SELECT o_orderkey, o_custkey, o_totalprice FROM orders
          ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 50) o
    LEFT JOIN customer c ON o.o_custkey = c.c_custkey
"""


SCORE_JOIN_TERM = "spark"
SCORE_JOIN_TOP = 5


def q_score_join_documents_source(sf_dir: str):
    """ScoreJoin: BM25-score every document matching a term, aggregate
    max(score) per `source` field, return the top sources.  The score side
    comes from the inverted index (all matches, exhaustive, per-segment
    scoring tasks); the per-source aggregation is a Ray groupby over
    (doc_id, score) hash-joined to the source column — the reference
    aggregates join scores the same way (`ScoreJoinQParserPlugin`
    score=max)."""
    import pyarrow.compute as _pc

    from ray.data.aggregate import Max

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    # full match set stays a Dataset (per-segment scoring tasks), joined to
    # the doc->source column with a hash-partitioned Dataset.join — no
    # O(df) hit list on the driver
    scores = s.score_matches_dataset(SCORE_JOIN_TERM, mode="or").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("score"), "score",
            _pc.round(t["score"], 6),
        ),
        batch_format="pyarrow",
    )
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    joined = scores.join(docs, "inner", num_partitions=join_partitions(), on=("doc_id",))
    out = joined.groupby("source").aggregate(
        Max(on="score", alias_name="max_score")
    )
    return out.sort(
        ["max_score", "source"], descending=[True, False]
    ).limit(SCORE_JOIN_TOP)


def _score_join_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    scores AS (
      SELECT tf.doc_id,
             ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
               * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term = '{SCORE_JOIN_TERM}'
    )
    SELECT d.source, round(max(round(s.s, 6)), 6) AS max_score
    FROM scores s JOIN documents d USING (doc_id)
    GROUP BY d.source
    ORDER BY max_score DESC, d.source ASC LIMIT {SCORE_JOIN_TOP}
    """


QUERIES["score_join_documents_source"] = q_score_join_documents_source
ORACLE["score_join_documents_source"] = _score_join_oracle()


LTR_WEIGHTS = {"log_chars": 0.4, "tokens": 0.002, "punct_ratio": -2.0}
LTR_TOP = 20


def q_ltr_score_documents(sf_dir: str):
    """LTR model scoring as a distributed ACTOR-POOL stage: a linear model
    (feature weights) is loaded once per actor in __init__, features are
    extracted vectorized per batch, and every document is scored —
    map_batches(ScorerCls, concurrency=N) over the whole table, the
    LTRScoringQuery/LTRScoringModel shape (reference: `solr/contrib/ltr/
    src/java/org/apache/solr/ltr/{LTRScoringQuery,model/LinearModel}.java`).
    Returns the top-20 by model score (ties by doc_id)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    class LtrScorer:
        def __init__(self):
            # "model load": weights + compiled feature extractors, once per
            # actor (a real model would come from object storage here)
            self.w = dict(LTR_WEIGHTS)
            self.tok = re.compile(TOKEN_SQL_RE)
            self.punct = re.compile(r"[.!?,;:]")

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            raw = t["text"].to_pylist()
            low = pc.utf8_lower(t["text"]).to_pylist()
            n_chars = np.fromiter((len(x or "") for x in raw), np.float64)
            n_tok = np.fromiter(
                (len(self.tok.findall(x or "")) for x in low), np.float64
            )
            n_punct = np.fromiter(
                (len(self.punct.findall(x or "")) for x in raw), np.float64
            )
            score = (
                self.w["log_chars"] * np.log1p(n_chars)
                + self.w["tokens"] * n_tok
                + self.w["punct_ratio"] * n_punct / np.maximum(n_chars, 1.0)
            )
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "ltr_score": pa.array(np.round(score, 6)),
                }
            )

    scored = ds.map_batches(
        LtrScorer, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=pool_cap(min_cap=4),
    )
    return scored.sort(
        ["ltr_score", "doc_id"], descending=[True, False]
    ).limit(LTR_TOP)


QUERIES["ltr_score_documents"] = q_ltr_score_documents
ORACLE["ltr_score_documents"] = f"""
    SELECT doc_id,
           round({LTR_WEIGHTS["log_chars"]} * ln(1 + length(text))
                 + {LTR_WEIGHTS["tokens"]}
                   * len(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}'))
                 + {LTR_WEIGHTS["punct_ratio"]}
                   * (length(text)
                      - length(regexp_replace(text, '[.!?,;:]', '', 'g')))
                   / greatest(length(text), 1), 6) AS ltr_score
    FROM documents
    ORDER BY ltr_score DESC, doc_id ASC LIMIT {LTR_TOP}
"""


GEO_CENTER = (13.37, 42.42)
GEO_RADIUS2 = 900.0  # squared planar radius
GEO_TOP = 20


def q_geo_radius_events(sf_dir: str):
    """Spatial radius filter + distance sort (the LatLonPoint distance
    query / geodist() sort shape — reference: `lucene/core/src/java/org/
    apache/lucene/document/LatLonPoint.java#newDistanceQuery`,
    `solr/core/src/java/org/apache/solr/search/function/distance/
    HaversineConstFunction.java`).  Coordinates are derived
    deterministically from user_id (the driver tables carry no geo
    columns); distance is planar-squared so Ray and SQL compute
    bit-identical doubles — swap in a haversine kernel for real lat/lon.
    Vectorized map_batches filter -> global sort -> limit."""
    ds = read_table(sf_dir, "events", ["event_id"])
    clat, clon = GEO_CENTER

    def f(t: pa.Table) -> pa.Table:
        uid = t["event_id"].to_numpy().astype(np.int64)
        lat = (uid * 7919 % 18000) / 100.0 - 90.0
        lon = (uid * 104729 % 36000) / 100.0 - 180.0
        d2 = (lat - clat) * (lat - clat) + (lon - clon) * (lon - clon)
        keep = d2 <= GEO_RADIUS2
        return pa.table(
            {
                "event_id": t["event_id"].filter(pa.array(keep)),
                "lat": pa.array(lat[keep]),
                "lon": pa.array(lon[keep]),
                "dist2": pa.array(np.round(d2[keep], 6)),
            }
        )

    out = ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
    return out.sort(["dist2", "event_id"]).limit(GEO_TOP)


QUERIES["geo_radius_events"] = q_geo_radius_events
ORACLE["geo_radius_events"] = f"""
    SELECT event_id, lat, lon, round(dist2, 6) AS dist2 FROM (
      SELECT event_id,
             (event_id * 7919 % 18000) / 100.0 - 90.0  AS lat,
             (event_id * 104729 % 36000) / 100.0 - 180.0 AS lon,
             ((event_id * 7919 % 18000) / 100.0 - 90.0 - {GEO_CENTER[0]})
               * ((event_id * 7919 % 18000) / 100.0 - 90.0 - {GEO_CENTER[0]})
             + ((event_id * 104729 % 36000) / 100.0 - 180.0 - {GEO_CENTER[1]})
               * ((event_id * 104729 % 36000) / 100.0 - 180.0 - {GEO_CENTER[1]})
               AS dist2
      FROM events)
    WHERE dist2 <= {GEO_RADIUS2}
    ORDER BY dist2 ASC, event_id ASC LIMIT {GEO_TOP}
"""


SPLIT_FRACS = {"train": 90, "val": 5, "test": 5}  # percent buckets

# the SQL twin of split_bucket100: h = md5(doc_id::VARCHAR), first 4
# digest bytes little-endian mod 100 — ONE definition so the standalone
# split op and the curation pipeline can never diverge
SPLIT_BUCKET_SQL = (
    "(('0x' || substr(h,7,2) || substr(h,5,2) || substr(h,3,2) "
    "|| substr(h,1,2))::BIGINT % 100)"
)


def split_bucket100(ids: np.ndarray) -> np.ndarray:
    """Deterministic 0..99 bucket per doc_id: md5 digest[:4] little-endian
    mod 100 (seed-free, stable across runs and cluster sizes)."""
    import hashlib

    return np.fromiter(
        (
            int.from_bytes(
                hashlib.md5(str(int(i)).encode()).digest()[:4], "little"
            ) % 100
            for i in ids
        ),
        dtype=np.int64,
        count=len(ids),
    )


def split_of_buckets(buckets: np.ndarray) -> np.ndarray:
    return np.where(
        buckets < SPLIT_FRACS["train"],
        "train",
        np.where(
            buckets < SPLIT_FRACS["train"] + SPLIT_FRACS["val"],
            "val",
            "test",
        ),
    )


def q_train_test_split_documents(sf_dir: str):
    """Deterministic train/val/test split — the assignment every
    training-data pipeline needs to be STABLE across runs and cluster
    sizes: split = hash-bucket of doc_id (md5-based, seed-free), never
    random state.  Returns per-split counts + char volume (full assignment
    is the same map without the aggregate)."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        split = split_of_buckets(split_bucket100(t["doc_id"].to_numpy()))
        return pa.table(
            {"split": pa.array(split), "n_chars": t["n_chars"]}
        )

    return (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("split")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    )


QUERIES["train_test_split_documents"] = q_train_test_split_documents
ORACLE["train_test_split_documents"] = f"""
    SELECT CASE
             WHEN b < {SPLIT_FRACS["train"]} THEN 'train'
             WHEN b < {SPLIT_FRACS["train"] + SPLIT_FRACS["val"]} THEN 'val'
             ELSE 'test' END AS split,
           count(*) AS n_docs,
           sum(n_chars)::BIGINT AS sum_chars
    FROM (SELECT n_chars, {SPLIT_BUCKET_SQL} AS b
          FROM (SELECT n_chars, md5(doc_id::VARCHAR) AS h FROM documents))
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Remaining analysis-chain factories (VERDICT r1 item 8): ASCIIFolding,
# MappingCharFilter, char NGramTokenizer, EnglishMinimalStem, Keyword+Trim —
# each registered in ANALYZERS (rindex/analysis.py) and exercised through a
# DuckDB-oracled op here.
# ---------------------------------------------------------------------------

# apostrophe-aware token regex twin of the analyzer's (SQL-literal form)
APOS_SQL_RE = "[0-9a-z]+(?:''[0-9a-z]+)*"


def q_ascii_fold_topterms_documents(sf_dir: str):
    """ASCIIFoldingFilter: top terms after accent folding (analyzer
    'ascii_folding').  Corpus text is ASCII so folding is the identity
    HERE; the accent behavior itself is pinned by tests/test_analysis.py
    against strip_accents semantics."""
    return _analyzer_topterms(sf_dir, "ascii_folding")


QUERIES["ascii_fold_topterms_documents"] = q_ascii_fold_topterms_documents
ORACLE["ascii_fold_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(strip_accents(lower(text)),
                                       '{APOS_SQL_RE}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# longest-match-first demo mapping: 'hash join' must win over 'hash' at the
# same position; replacements deliberately contain no mapping key so the
# one-pass python rewrite and the SQL replace() chain agree
MAPPING_RULES = {"hash join": "hjoin", "hash": "hmap"}


def q_mapping_charfilter_topterms_documents(sf_dir: str):
    """MappingCharFilter: top terms after longest-match-first literal
    rewrites of the char stream."""
    from collections import Counter

    from rindex.analysis import make_mapping_char_filter, standard_tokenize

    ds = read_table(sf_dir, "documents", ["text"])
    mcf = make_mapping_char_filter(MAPPING_RULES)

    def count(texts):
        c = Counter()
        for x in texts:
            c.update(standard_tokenize(mcf((x or "").lower())))
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


QUERIES["mapping_charfilter_topterms_documents"] = (
    q_mapping_charfilter_topterms_documents
)
ORACLE["mapping_charfilter_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(
               replace(replace(lower(text), 'hash join', 'hjoin'),
                       'hash', 'hmap'),
               '{APOS_SQL_RE}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


CHAR_NGRAM_N = 3


def q_char_ngram_topterms_documents(sf_dir: str):
    """Char NGramTokenizer: top character 3-grams (grams within each
    alphanumeric run, the tokenizer's default token chars)."""
    from collections import Counter

    from rindex.analysis import make_char_ngram_tokenizer

    ds = read_table(sf_dir, "documents", ["text"])
    tok = make_char_ngram_tokenizer(CHAR_NGRAM_N, CHAR_NGRAM_N)

    def count(texts):
        c = Counter()
        for x in texts:
            c.update(tok(x or ""))
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


QUERIES["char_ngram_topterms_documents"] = q_char_ngram_topterms_documents
ORACLE["char_ngram_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest([substring(tok, i, {CHAR_NGRAM_N})
                     FOR i IN range(1, len(tok) - {CHAR_NGRAM_N - 2})]) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS tok
            FROM documents)
      WHERE len(tok) >= {CHAR_NGRAM_N})
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_minimal_stem_topterms_documents(sf_dir: str):
    """EnglishMinimalStemFilter (S-stemmer): top terms after plural
    stripping (analyzer 'en_minimal_stem')."""
    return _analyzer_topterms(sf_dir, "en_minimal_stem")


QUERIES["minimal_stem_topterms_documents"] = q_minimal_stem_topterms_documents
ORACLE["minimal_stem_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE WHEN len(t) >= 3 AND t LIKE '%s'
                       AND t NOT LIKE '%ss' AND t NOT LIKE '%us'
                  THEN substring(t, 1, len(t) - 1) ELSE t END AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_keyword_trim_documents(sf_dir: str):
    """KeywordTokenizer + TrimFilter (analyzer 'keyword_trim'): the whole
    field as one trimmed token — the untokenized-string-field shape."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    an = get_analyzer("keyword_trim")

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        m = ids < 50
        kws = [an.tokens(x or "")[0] for x, keep
               in zip(t["text"].to_pylist(), m) if keep]
        return pa.table(
            {"doc_id": pa.array(ids[m]), "keyword": pa.array(kws)}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["keyword_trim_documents"] = q_keyword_trim_documents
ORACLE["keyword_trim_documents"] = """
    SELECT doc_id, trim(text) AS keyword FROM documents WHERE doc_id < 50
"""


# bbox + grid heatmap facet (facet.heatmap / LatLonPoint#newBoxQuery)
HEATMAP_BBOX = (-60.0, 60.0, -120.0, 120.0)  # lat_min, lat_max, lon_min, lon_max
HEATMAP_CELL = 20.0


def q_geo_heatmap_facet_events(sf_dir: str):
    """Spatial heatmap facet: bounding-box filter + grid-cell counts (the
    Solr facet.heatmap shape — reference: `solr/core/src/java/org/apache/
    solr/handler/component/SpatialHeatmapFacets.java` over
    `LatLonPoint#newBoxQuery`).  Same deterministic event_id->lat/lon
    derivation as geo_radius_events; the cell id is floor(coord/cell) so a
    geohash-style prefix grid falls out of integer division.  Vectorized
    bbox mask + cell assignment per batch; the groupby shuffles only
    (cell, partial-count) rows — the facet is heatmap-sized, not
    data-sized."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["event_id"])
    la1, la2, lo1, lo2 = HEATMAP_BBOX

    def f(t: pa.Table) -> pa.Table:
        uid = t["event_id"].to_numpy().astype(np.int64)
        lat = (uid * 7919 % 18000) / 100.0 - 90.0
        lon = (uid * 104729 % 36000) / 100.0 - 180.0
        keep = (lat >= la1) & (lat <= la2) & (lon >= lo1) & (lon <= lo2)
        return pa.table(
            {
                "cell_lat": pa.array(
                    np.floor(lat[keep] / HEATMAP_CELL) * HEATMAP_CELL
                ),
                "cell_lon": pa.array(
                    np.floor(lon[keep] / HEATMAP_CELL) * HEATMAP_CELL
                ),
            }
        )

    return (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["cell_lat", "cell_lon"])
        .aggregate(Count(alias_name="n"))
    )


QUERIES["geo_heatmap_facet_events"] = q_geo_heatmap_facet_events
ORACLE["geo_heatmap_facet_events"] = f"""
    WITH pts AS (
      SELECT (event_id * 7919 % 18000) / 100.0 - 90.0  AS lat,
             (event_id * 104729 % 36000) / 100.0 - 180.0 AS lon
      FROM events
    )
    SELECT floor(lat / {HEATMAP_CELL}) * {HEATMAP_CELL} AS cell_lat,
           floor(lon / {HEATMAP_CELL}) * {HEATMAP_CELL} AS cell_lon,
           count(*) AS n
    FROM pts
    WHERE lat BETWEEN {HEATMAP_BBOX[0]} AND {HEATMAP_BBOX[1]}
      AND lon BETWEEN {HEATMAP_BBOX[2]} AND {HEATMAP_BBOX[3]}
    GROUP BY 1, 2
"""


def q_stratified_split_documents(sf_dir: str):
    """STRATIFIED train/val/test split: exact 80/10/10 proportions WITHIN
    each language (hash-bucket splits only approximate proportions; a
    stratified split guarantees every stratum is represented at the exact
    ratio — the class-balanced sampling a curriculum/eval pipeline needs).
    Deterministic: docs rank by md5(doc_id) inside their stratum, ranks
    cut at (n*8)//10 and (n*9)//10 (integer math, no float thresholds).
    Ray shape: one groupby(lang).map_groups — few strata, large groups,
    the blessed per-group pattern; at many-strata scale the same rank is
    a sort by (lang, md5) + per-partition offsets."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        ids = g["doc_id"].to_numpy()
        keys = np.array(
            [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids]
        )
        order = np.lexsort((ids, keys))
        n = len(ids)
        split = np.empty(n, dtype=object)
        rk = np.empty(n, dtype=np.int64)
        rk[order] = np.arange(n)
        split[rk < (n * 8) // 10] = "train"
        split[(rk >= (n * 8) // 10) & (rk < (n * 9) // 10)] = "val"
        split[rk >= (n * 9) // 10] = "test"
        return pd.DataFrame({"lang": g["lang"], "split": split})

    out = (
        ds.groupby("lang")
        .map_groups(assign, batch_format="pandas")
        .groupby(["lang", "split"])
        .aggregate(Count(alias_name="n_docs"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out.sort_values(["lang", "split"]).reset_index(drop=True)


QUERIES["stratified_split_documents"] = q_stratified_split_documents
ORACLE["stratified_split_documents"] = """
    WITH r AS (
      SELECT lang,
             row_number() OVER (
               PARTITION BY lang
               ORDER BY md5(doc_id::VARCHAR), doc_id) - 1 AS rk,
             count(*) OVER (PARTITION BY lang) AS n
      FROM documents
    )
    SELECT lang,
           CASE WHEN rk < (n * 8) // 10 THEN 'train'
                WHEN rk < (n * 9) // 10 THEN 'val'
                ELSE 'test' END AS split,
           count(*)::BIGINT AS n_docs
    FROM r
    GROUP BY 1, 2
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# WordDelimiterGraphFilter / CommonGramsFilter / PhoneticFilter (Soundex)
# (r3 analysis-factory batch)
# ---------------------------------------------------------------------------

# WordDelimiterGraphFilter's split rules as an ordered regex chain —
# uppercase-run boundary FIRST ("HTMLParser" -> "HTML Parser"), then
# camelCase, then letter<->digit transitions; identical chain on both the
# pandas side (re) and the oracle side (RE2) so the subword streams match.
_WDGF_CHAIN = [
    ("([A-Z]+)([A-Z][a-z])", r"\1 \2"),
    ("([a-z])([A-Z])", r"\1 \2"),
    ("([A-Za-z])([0-9])", r"\1 \2"),
    ("([0-9])([A-Za-z])", r"\1 \2"),
]


def q_word_delimiter_topterms_documents(sf_dir: str):
    """WordDelimiterGraphFilter (`lucene/analysis/common/src/java/org/
    apache/lucene/analysis/miscellaneous/WordDelimiterGraphFilter.java`,
    generateWordParts=generateNumberParts=splitOnCaseChange=
    splitOnNumerics=1, catenate=0): top subword terms.  The corpus text is
    all-lowercase, so the op derives TWO camelCase identifiers per doc
    from real columns ('Conv{doc_id%1000}{Lang}X2b', 'HTML{Source}') —
    uppercase runs, camel humps and letter<->digit seams all exercised —
    and splits them with the documented regex chain, fully vectorized
    (pandas str kernels, no per-row Python)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "source"])

    def count(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cap = lambda s: s.str[:1].str.upper() + s.str[1:]
        raw = pd.concat(
            [
                "Conv" + (df["doc_id"] % 1000).astype(str)
                + cap(df["lang"]) + "X2b",
                "HTML" + cap(df["source"]),
            ],
            ignore_index=True,
        )
        for pat, rep in _WDGF_CHAIN:
            raw = raw.str.replace(pat, rep, regex=True)
        terms = raw.str.lower().str.split(" ").explode()
        vc = terms.value_counts()
        return pa.table(
            {
                "term": pa.array(vc.index.to_numpy().astype(str)),
                "cnt": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    return _sum_sort_limit(
        ds.map_batches(count, batch_format="pyarrow", zero_copy_batch=True),
        TOP_TERMS,
    )


QUERIES["word_delimiter_topterms_documents"] = (
    q_word_delimiter_topterms_documents
)
ORACLE["word_delimiter_topterms_documents"] = f"""
    WITH raw AS (
      SELECT 'Conv' || (doc_id % 1000)::VARCHAR
             || upper(substr(lang, 1, 1)) || substr(lang, 2)
             || 'X2b' AS s
      FROM documents
      UNION ALL
      SELECT 'HTML' || upper(substr(source, 1, 1)) || substr(source, 2)
      FROM documents
    )
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(string_split(lower(
        regexp_replace(regexp_replace(regexp_replace(regexp_replace(s,
          '([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g'),
          '([a-z])([A-Z])', '\\1 \\2', 'g'),
          '([A-Za-z])([0-9])', '\\1 \\2', 'g'),
          '([0-9])([A-Za-z])', '\\1 \\2', 'g')), ' ')) AS term
      FROM raw)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


_COMMON_WORDS = ("the", "a")


def q_common_grams_documents(sf_dir: str):
    """CommonGramsFilter (`lucene/analysis/common/.../commongrams/
    CommonGramsFilter.java`): bigrams formed when either neighbor is a
    common word (joined with '_' like the reference's GRAM_TYPE tokens);
    top gram counts.  Unigrams pass through the real filter too — the op
    counts the grams, which is the part the filter ADDS."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])
    common = frozenset(_COMMON_WORDS)

    def count(texts):
        c = Counter()
        for x in texts:
            toks = _TOKEN_RE.findall(x or "")
            c.update(
                f"{toks[i]}_{toks[i + 1]}"
                for i in range(len(toks) - 1)
                if toks[i] in common or toks[i + 1] in common
            )
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_BIGRAMS)


QUERIES["common_grams_documents"] = q_common_grams_documents
ORACLE["common_grams_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(list_transform(
        list_filter(range(1, len(l)),
                    i -> l[i] IN ('the', 'a') OR l[i + 1] IN ('the', 'a')),
        i -> l[i] || '_' || l[i + 1])) AS term
      FROM (SELECT regexp_extract_all(lower(text), '{{TOKEN_RE}}') AS l
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_BIGRAMS}
""".replace("{TOKEN_RE}", TOKEN_SQL_RE)


def soundex(token: str) -> str:
    """American Soundex (the PhoneticFilterFactory's default encoder,
    `lucene/analysis/phonetic/.../PhoneticFilterFactory.java` +
    commons-codec Soundex): keep the first letter; H/W are transparent
    (removed before coding, so codes that meet across them collapse);
    consonant classes 1-6; vowels code 0 and break runs; adjacent equal
    codes collapse INCLUDING against the first letter's code; strip
    zeros; pad/truncate to 4 chars."""
    from itertools import groupby

    u = token.upper()
    rest = u[1:].replace("H", "").replace("W", "")
    codes = (u[0] + rest).translate(_SOUNDEX_MAP)
    collapsed = "".join(k for k, _ in groupby(codes))
    digits = collapsed[1:].replace("0", "")
    return u[0] + (digits + "000")[:3]


_SOUNDEX_MAP = str.maketrans(
    "BFPVCGJKQSXZDTLMNRAEIOUY", "111122222222334556000000"
)


def _soundex_sql(col: str) -> str:
    """The same Soundex as a DuckDB expression.  Adjacent-duplicate
    collapse is 5 nested replace() passes per digit (handles runs <= 32;
    the Python side collapses fully — identical on any real token)."""
    u = f"upper({col})"
    rest = f"replace(replace(substr({u}, 2), 'H', ''), 'W', '')"
    codes = (
        f"translate(substr({u}, 1, 1) || {rest},"
        f" 'BFPVCGJKQSXZDTLMNRAEIOUY', '111122222222334556000000')"
    )
    collapsed = codes
    for d in "0123456":
        for _ in range(5):
            collapsed = f"replace({collapsed}, '{d}{d}', '{d}')"
    return (
        f"substr({u}, 1, 1) || substr("
        f"replace(substr({collapsed}, 2), '0', '') || '000', 1, 3)"
    )


def _phonetic_topterms(sf_dir: str, encode):
    """Top phonetic codes over the corpus (PhoneticFilter, inject=false:
    each token replaced by `encode(token)`; a None code drops the token).
    Codes are memoized per DISTINCT token per batch, not per occurrence."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])

    def count(texts):
        c = Counter()
        memo: dict = {}
        for x in texts:
            for t in _TOKEN_RE.findall(x or ""):
                if t not in memo:
                    memo[t] = encode(t)
                if memo[t] is not None:
                    c[memo[t]] += 1
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


def q_soundex_topterms_documents(sf_dir: str):
    """PhoneticFilter with the Soundex encoder: top phonetic codes over
    the corpus vocabulary (each token replaced by its code, like
    inject=false).  Codes computed once per DISTINCT term per batch
    (dictionary-encode first), not per occurrence."""
    return _phonetic_topterms(sf_dir, soundex)


QUERIES["soundex_topterms_documents"] = q_soundex_topterms_documents
ORACLE["soundex_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT {_soundex_sql('t')} AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# ---------------------------------------------------------------------------
# Field-analysis debug handler (`solr/core/src/java/org/apache/solr/handler/
# FieldAnalysisRequestHandler.java`, the /analysis/field endpoint): show the
# token stream AFTER EACH STAGE of the chain.  Stage outputs keep the
# ORIGINAL token position (StopFilter's positionIncrement semantics: removed
# tokens leave position holes, they don't shift their successors).
# ---------------------------------------------------------------------------

_DEBUG_CASE_RE = re.compile(r"[0-9A-Za-z]+")
_DEBUG_DOCS = 5
_DEBUG_MIN_LEN = 2


def q_analysis_debug_documents(sf_dir: str):
    """Per-stage token debug over the first few documents: tokenize (case
    preserved) -> lowercase -> stop (position holes) -> length>=2."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {_DEBUG_DOCS}"
    )
    sw = frozenset(STOPWORDS)

    def stages(t: pa.Table) -> pa.Table:
        dids, stg, pos, tok = [], [], [], []
        for did, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            toks = _DEBUG_CASE_RE.findall(text or "")
            for p, x in enumerate(toks):
                dids.append(did); stg.append("10_tokenize")
                pos.append(p); tok.append(x)
            low = [x.lower() for x in toks]
            for p, x in enumerate(low):
                dids.append(did); stg.append("20_lowercase")
                pos.append(p); tok.append(x)
            kept = [(p, x) for p, x in enumerate(low) if x not in sw]
            for p, x in kept:
                dids.append(did); stg.append("30_stop")
                pos.append(p); tok.append(x)
            for p, x in kept:
                if len(x) >= _DEBUG_MIN_LEN:
                    dids.append(did); stg.append("40_length")
                    pos.append(p); tok.append(x)
        return pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "stage": pa.array(stg, pa.string()),
                "pos": pa.array(pos, pa.int64()),
                "token": pa.array(tok, pa.string()),
            }
        )

    return ds.map_batches(stages, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["analysis_debug_documents"] = q_analysis_debug_documents
ORACLE["analysis_debug_documents"] = f"""
    WITH d AS (
      SELECT doc_id,
             regexp_extract_all(coalesce(text, ''), '[0-9A-Za-z]+') AS toks
      FROM documents WHERE doc_id < {_DEBUG_DOCS}
    ),
    t0 AS (
      SELECT doc_id, unnest(toks) AS token,
             unnest(range(0, len(toks))) AS pos
      FROM d
    ),
    low AS (SELECT doc_id, lower(token) AS token, pos FROM t0),
    stop AS (
      SELECT doc_id, token, pos FROM low
      WHERE token NOT IN {tuple(STOPWORDS)}
    )
    SELECT doc_id, '10_tokenize' AS stage, pos, token FROM t0
    UNION ALL
    SELECT doc_id, '20_lowercase' AS stage, pos, token FROM low
    UNION ALL
    SELECT doc_id, '30_stop' AS stage, pos, token FROM stop
    UNION ALL
    SELECT doc_id, '40_length' AS stage, pos, token FROM stop
    WHERE length(token) >= {_DEBUG_MIN_LEN}
"""


# ---------------------------------------------------------------------------
# Classic Metaphone (Lawrence Philips, Computer Language 7(12), 1990 — the
# PhoneticFilterFactory's "Metaphone" encoder option, `lucene/analysis/
# phonetic/src/java/org/apache/lucene/analysis/phonetic/
# PhoneticFilterFactory.java`).  Re-implemented from the published rule
# table; no SQL oracle is possible (rows-only), pinned by hand-derived
# golden vectors in tests/test_analysis_phonetic.py.
# ---------------------------------------------------------------------------

_MP_VOWELS = frozenset("AEIOU")


def metaphone(token: str, max_len: int = 6) -> str:
    """Classic Metaphone code of a word (letters only; non-alpha stripped).

    Rule set (Philips 1990): collapse adjacent duplicates except C; initial
    AE/GN/KN/PN/WR drop the first letter, initial X -> S, initial WH -> W;
    vowels survive only at position 0; B silent in final -MB; C -> X in
    -CH- (K in -SCH-) and -CIA-, S before I/E/Y, else K; D -> J before
    GE/GY/GI, else T; G silent in -GH+consonant and -GN(ED), J before
    I/E/Y, else K; H silent after vowel with no vowel after; CK -> K;
    P -> F before H; Q -> K; S -> X before H / in SIO, SIA; T -> 0 before
    H, X in TIO/TIA, silent in TCH; V -> F; W and Y survive only before a
    vowel; X -> KS; Z -> S."""
    u = "".join(c for c in token.upper() if c.isalpha())
    if not u:
        return ""
    # 1. collapse adjacent duplicates, except C
    s = [u[0]]
    for c in u[1:]:
        if c != s[-1] or c == "C":
            s.append(c)
    u = "".join(s)
    # 2. initial exceptions
    if u[:2] in ("AE", "GN", "KN", "PN", "WR"):
        u = u[1:]
    elif u[0] == "X":
        u = "S" + u[1:]
    elif u[:2] == "WH":
        u = "W" + u[2:]
    out = []
    n = len(u)
    i = 0
    while i < n and len(out) < max_len:
        c = u[i]
        nxt = u[i + 1] if i + 1 < n else ""
        nx2 = u[i + 2] if i + 2 < n else ""
        prv = u[i - 1] if i > 0 else ""
        if c in _MP_VOWELS:
            if i == 0:
                out.append(c)
        elif c == "B":
            if not (i == n - 1 and prv == "M"):
                out.append("B")
        elif c == "C":
            if nxt == "I" and nx2 == "A":
                out.append("X")
            elif nxt == "H":
                out.append("K" if prv == "S" else "X")
                i += 1  # consume the H
            elif nxt in ("I", "E", "Y"):
                out.append("S")
            else:
                out.append("K")
        elif c == "D":
            if nxt == "G" and nx2 in ("E", "Y", "I"):
                out.append("J")
                i += 1  # the G is part of the J sound
            else:
                out.append("T")
        elif c == "G":
            if nxt == "H":
                # GH: silent unless at end or before a vowel -> F?  classic
                # rule: silent when not at end and not before a vowel
                if i + 2 < n and nx2 not in _MP_VOWELS:
                    pass
                else:
                    out.append("K")
                i += 1
            elif nxt == "N":
                pass  # -GN-, -GNED: silent G
            elif nxt in ("I", "E", "Y"):
                out.append("J")
            else:
                out.append("K")
        elif c == "H":
            if prv in _MP_VOWELS and nxt not in _MP_VOWELS:
                pass
            else:
                out.append("H")
        elif c == "K":
            if prv != "C":
                out.append("K")
        elif c == "P":
            if nxt == "H":
                out.append("F")
                i += 1
            else:
                out.append("P")
        elif c == "Q":
            out.append("K")
        elif c == "S":
            if nxt == "H":
                out.append("X")
                i += 1
            elif nxt == "I" and nx2 in ("O", "A"):
                out.append("X")
            else:
                out.append("S")
        elif c == "T":
            if nxt == "H":
                out.append("0")
                i += 1
            elif nxt == "I" and nx2 in ("O", "A"):
                out.append("X")
            elif nxt == "C" and nx2 == "H":
                pass  # -TCH-: T silent
            else:
                out.append("T")
        elif c == "V":
            out.append("F")
        elif c in ("W", "Y"):
            if nxt in _MP_VOWELS:
                out.append(c)
        elif c == "X":
            out.append("K")
            out.append("S")
        elif c == "Z":
            out.append("S")
        elif c in ("F", "J", "L", "M", "N", "R"):
            out.append(c)
        i += 1
    return "".join(out[:max_len])


def q_metaphone_topterms_documents(sf_dir: str):
    """Metaphone bucket counts: top 20 phonetic codes by collection
    frequency (the PhoneticFilter indexing shape, memoized per distinct
    token per worker like the soundex op)."""
    return _phonetic_topterms(sf_dir, lambda t: metaphone(t) or None)


QUERIES["metaphone_topterms_documents"] = q_metaphone_topterms_documents
# rows-only: Metaphone's rule table is not SQL-expressible; pinned by the
# golden vectors in tests/test_analysis_phonetic.py instead.


# ---------------------------------------------------------------------------
# LatLonPoint polygon query (`lucene/core/src/java/org/apache/lucene/
# document/LatLonPoint.java#newPolygonQuery` / `lucene/core/src/java/org/
# apache/lucene/geo/Polygon.java`): points inside a polygon.  For a CONVEX
# polygon the containment test is an AND of half-plane sign tests (one
# cross product per edge) — exactly vectorizable in numpy AND expressible
# as plain SQL arithmetic, so the oracle is literal.  Same deterministic
# (lat, lon) derivation as geo_radius_events.
# ---------------------------------------------------------------------------

# convex quadrilateral, counter-clockwise in (lon, lat)
GEO_POLY = [(0.0, 0.0), (60.0, 10.0), (50.0, 60.0), (-10.0, 40.0)]


def q_geo_polygon_events(sf_dir: str):
    """Events whose derived point lies inside the convex polygon
    (boundary-inclusive), event_id asc."""
    ds = read_table(sf_dir, "events", ["event_id"])
    edges = [
        (GEO_POLY[i], GEO_POLY[(i + 1) % len(GEO_POLY)])
        for i in range(len(GEO_POLY))
    ]

    def f(t: pa.Table) -> pa.Table:
        uid = t["event_id"].to_numpy().astype(np.int64)
        lat = (uid * 7919 % 18000) / 100.0 - 90.0
        lon = (uid * 104729 % 36000) / 100.0 - 180.0
        keep = np.ones(len(uid), bool)
        for (x1, y1), (x2, y2) in edges:
            keep &= ((x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)) >= 0.0
        return pa.table(
            {
                "event_id": t["event_id"].filter(pa.array(keep)),
                "lat": pa.array(lat[keep]),
                "lon": pa.array(lon[keep]),
            }
        )

    return ds.map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    ).sort("event_id")


QUERIES["geo_polygon_events"] = q_geo_polygon_events


def _geo_polygon_oracle_sql() -> str:
    conds = []
    for i in range(len(GEO_POLY)):
        (x1, y1), (x2, y2) = GEO_POLY[i], GEO_POLY[(i + 1) % len(GEO_POLY)]
        conds.append(
            f"(({x2} - {x1}) * (lat - {y1}) - ({y2} - {y1}) * (lon - {x1}))"
            " >= 0.0"
        )
    where = " AND ".join(conds)
    return f"""
    SELECT event_id, lat, lon FROM (
      SELECT event_id,
             (event_id * 7919 % 18000) / 100.0 - 90.0  AS lat,
             (event_id * 104729 % 36000) / 100.0 - 180.0 AS lon
      FROM events)
    WHERE {where}
    ORDER BY event_id
    """


ORACLE["geo_polygon_events"] = _geo_polygon_oracle_sql()


# ---------------------------------------------------------------------------
# LTR feature logger (`solr/contrib/ltr/src/java/org/apache/solr/ltr/
# response/transform/LTRFeatureLoggerTransformerFactory.java` — the [features]
# transformer that extracts per-document feature vectors for training a
# reranker).  Features: per-term tf (word-boundary re2 counts), token dl,
# the stored n_chars field, and the BM25 first-pass score; the score side
# streams from the per-segment match tasks and hash-joins the vectorized
# feature scan — nothing lands on the driver but the logged rows.
# ---------------------------------------------------------------------------

LTR_FEAT_QUERY = "hash join"


def q_ltr_feature_log_documents(sf_dir: str):
    """Per-matching-doc feature vector for '{LTR_FEAT_QUERY}': tf_hash,
    tf_join, dl, n_chars, bm25 (round 6)."""
    import pyarrow.compute as _pc

    from rindex.ops.fulltext import TOKEN_SQL_RE, documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    scores = s.score_matches_dataset(LTR_FEAT_QUERY, mode="or").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("score"), "score",
            _pc.round(t["score"], 6),
        ),
        batch_format="pyarrow",
    )

    def feats(t: pa.Table) -> pa.Table:
        low = _pc.utf8_lower(_pc.coalesce(t["text"], ""))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "tf_hash": _pc.cast(
                    _pc.count_substring_regex(low, r"\bhash\b"), pa.int64()
                ),
                "tf_join": _pc.cast(
                    _pc.count_substring_regex(low, r"\bjoin\b"), pa.int64()
                ),
                "dl": _pc.cast(
                    _pc.count_substring_regex(low, TOKEN_SQL_RE), pa.int64()
                ),
                "n_chars": t["n_chars"],
            }
        )

    docs = read_table(
        sf_dir, "documents", ["doc_id", "text", "n_chars"]
    ).map_batches(feats, batch_format="pyarrow", zero_copy_batch=True)
    joined = scores.join(docs, "inner", num_partitions=join_partitions(), on=("doc_id",))
    return joined.sort("doc_id").map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "tf_hash": t["tf_hash"],
                "tf_join": t["tf_join"],
                "dl": t["dl"],
                "n_chars": t["n_chars"],
                "bm25": t["score"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


QUERIES["ltr_feature_log_documents"] = q_ltr_feature_log_documents


def _ltr_feature_oracle_sql() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    q_rows = ",".join(f"('{t}')" for t in LTR_FEAT_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {q_rows}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY 1
    ),
    feat AS (
      SELECT doc_id,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '\\bhash\\b'))::BIGINT AS tf_hash,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '\\bjoin\\b'))::BIGINT AS tf_join,
             len(regexp_extract_all(lower(coalesce(text, '')),
                 '[0-9a-z]+(?:''[0-9a-z]+)*'))::BIGINT AS dl,
             n_chars
      FROM documents
    )
    SELECT f.doc_id, f.tf_hash, f.tf_join, f.dl, f.n_chars,
           round(s.s, 6) AS bm25
    FROM scores s JOIN feat f ON f.doc_id = s.doc_id
    """


ORACLE["ltr_feature_log_documents"] = _ltr_feature_oracle_sql()


# ---------------------------------------------------------------------------
# LTR model rerank (`solr/contrib/ltr/src/java/org/apache/solr/ltr/search/
# LTRQParserPlugin.java` — {!ltr model=...} reranking the first-pass top
# docs with the uploaded model over the logged features).  Closes the LTR
# loop: feature logger above -> linear model here -> reranked page.
# ---------------------------------------------------------------------------

LTR_W = {"tf_hash": 0.4, "tf_join": 0.3, "dl": -0.01,
         "n_chars": 0.001, "bm25": 1.0}
LTR_RERANK_K = 10


def q_ltr_rerank_documents(sf_dir: str):
    """Top-{LTR_RERANK_K} docs under the linear LTR model applied to every
    first-pass match's feature vector (the rerank window here is the full
    match set, so the result is exact, not window-truncated)."""
    feats = q_ltr_feature_log_documents(sf_dir).to_pandas()
    score = (
        LTR_W["tf_hash"] * feats["tf_hash"].to_numpy(np.float64)
        + LTR_W["tf_join"] * feats["tf_join"].to_numpy(np.float64)
        + LTR_W["dl"] * feats["dl"].to_numpy(np.float64)
        + LTR_W["n_chars"] * feats["n_chars"].to_numpy(np.float64)
        + LTR_W["bm25"] * feats["bm25"].to_numpy(np.float64)
    )
    out = pd.DataFrame(
        {"doc_id": feats["doc_id"].to_numpy(np.int64),
         "ltr_score": np.round(score, 6)}
    ).sort_values(["ltr_score", "doc_id"], ascending=[False, True],
                  kind="mergesort").head(LTR_RERANK_K)
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "ltr_score"]].reset_index(drop=True)


QUERIES["ltr_rerank_documents"] = q_ltr_rerank_documents
ORACLE["ltr_rerank_documents"] = f"""
    WITH f AS ({_ltr_feature_oracle_sql()}),
    scored AS (
      SELECT doc_id,
             round({LTR_W["tf_hash"]} * tf_hash + {LTR_W["tf_join"]} * tf_join
                   + {LTR_W["dl"]} * dl + {LTR_W["n_chars"]} * n_chars
                   + {LTR_W["bm25"]} * bm25, 6) AS ltr_score
      FROM f
    )
    SELECT (row_number() OVER (ORDER BY ltr_score DESC, doc_id ASC) - 1)::INTEGER
             AS rank,
           doc_id, ltr_score
    FROM scored
    ORDER BY ltr_score DESC, doc_id ASC
    LIMIT {LTR_RERANK_K}
"""


# ---------------------------------------------------------------------------
# r4 analysis-factory batch (shrinking the "~140 more factories" tail):
# EnglishPossessiveFilter, ElisionFilter, TruncateTokenFilterFactory,
# LimitTokenCountFilter, WhitespaceTokenizer, HyphenatedWordsFilter —
# each a registered Analyzer (rindex/analysis.py) plus an oracle-backed op.
# ---------------------------------------------------------------------------


def _analyzer_topterms(sf_dir: str, analyzer_name: str):
    """Shared shape: tokenize with a registered analyzer, partial-count
    per batch, one (term, cnt) combine, top-N."""
    from collections import Counter

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["text"])
    an = get_analyzer(analyzer_name)

    def count(texts):
        c = Counter()
        for x in texts:
            c.update(an.tokens(x or ""))
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


def q_possessive_topterms_documents(sf_dir: str):
    """EnglishPossessiveFilter (`lucene/analysis/common/.../en/
    EnglishPossessiveFilter.java`): top terms after trailing-'s strip."""
    return _analyzer_topterms(sf_dir, "en_possessive")


QUERIES["possessive_topterms_documents"] = q_possessive_topterms_documents
ORACLE["possessive_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT regexp_replace(t, '''s$', '') AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_elision_topterms_documents(sf_dir: str):
    """ElisionFilter (`lucene/analysis/common/.../util/ElisionFilter
    .java`, French article set): top terms after leading-article strip."""
    return _analyzer_topterms(sf_dir, "elision")


QUERIES["elision_topterms_documents"] = q_elision_topterms_documents
ORACLE["elision_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE WHEN t LIKE '%''%'
                   AND split_part(t, '''', 1) IN
                       ('l','m','t','qu','n','s','j','d','c','jusqu',
                        'quoiqu','lorsqu','puisqu')
                   AND len(t) > len(split_part(t, '''', 1)) + 1
                  THEN substring(t, len(split_part(t, '''', 1)) + 2)
                  ELSE t END AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_truncate_topterms_documents(sf_dir: str):
    """TruncateTokenFilterFactory (prefixLength=4): top terms after
    truncation (`lucene/analysis/common/.../miscellaneous/
    TruncateTokenFilterFactory.java`)."""
    return _analyzer_topterms(sf_dir, "truncate4")


QUERIES["truncate_topterms_documents"] = q_truncate_topterms_documents
ORACLE["truncate_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT substring(t, 1, 4) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_limit_token_count_documents(sf_dir: str):
    """LimitTokenCountFilter (maxTokenCount=50): per-doc token count with
    the cap applied (`lucene/analysis/common/.../miscellaneous/
    LimitTokenCountFilter.java` — the indexing-cost governor)."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    an = get_analyzer("limit50")

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.utf8_lower(t["text"]).to_pylist()
        n = [len(an.tokens(x or "")) for x in texts]
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_tokens": pa.array(np.asarray(n, np.int64))}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["limit_token_count_documents"] = q_limit_token_count_documents
ORACLE["limit_token_count_documents"] = f"""
    SELECT doc_id,
           least(len(regexp_extract_all(lower(coalesce(text, '')),
                                        '{APOS_SQL_RE}')), 50)::BIGINT
             AS n_tokens
    FROM documents
"""


def q_whitespace_token_count_documents(sf_dir: str):
    """WhitespaceTokenizer (`lucene/core/.../analysis/core/
    WhitespaceTokenizer.java`): per-doc token count splitting on
    whitespace ONLY (punctuation stays attached — the contrast with the
    standard chain is the point of the factory)."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    an = get_analyzer("whitespace")

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n = [len(an.tokens(x or "")) for x in texts]
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_tokens": pa.array(np.asarray(n, np.int64))}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["whitespace_token_count_documents"] = q_whitespace_token_count_documents
ORACLE["whitespace_token_count_documents"] = r"""
    SELECT doc_id,
           len(regexp_extract_all(coalesce(text, ''), '\S+'))::BIGINT
             AS n_tokens
    FROM documents
"""


def q_hyphen_join_topterms_documents(sf_dir: str):
    """HyphenatedWordsFilter (`lucene/analysis/common/.../miscellaneous/
    HyphenatedWordsFilter.java`): rejoin words hyphenated across line
    breaks BEFORE tokenizing, then top terms."""
    return _analyzer_topterms(sf_dir, "hyphen_join")


QUERIES["hyphen_join_topterms_documents"] = q_hyphen_join_topterms_documents
ORACLE["hyphen_join_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(
               lower(regexp_replace(text, '-\\s+', '', 'g')),
               '{APOS_SQL_RE}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# ---------------------------------------------------------------------------
# r4 analysis-factory batch 2: CapitalizationFilter, ReverseStringFilter,
# LetterTokenizer, Solr FingerprintFilter, KeywordRepeat+RemoveDuplicates,
# PatternCaptureGroupTokenFilter, TypeTokenFilter.
# ---------------------------------------------------------------------------

# the SQL expression mirroring rindex.analysis.english_minimal_stem
_SSTEM_SQL = ("CASE WHEN length(t) >= 3 AND t LIKE '%s' "
              "AND substr(t, length(t) - 1, 1) NOT IN ('s', 'u') "
              "THEN substr(t, 1, length(t) - 1) ELSE t END")


def q_capitalization_topterms_documents(sf_dir: str):
    """CapitalizationFilter (`lucene/analysis/common/.../miscellaneous/
    CapitalizationFilter.java`): top terms with the first letter
    upper-cased."""
    return _analyzer_topterms(sf_dir, "capitalization")


QUERIES["capitalization_topterms_documents"] = q_capitalization_topterms_documents
ORACLE["capitalization_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT concat(upper(substr(t, 1, 1)), substr(t, 2)) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_reverse_topterms_documents(sf_dir: str):
    """ReverseStringFilter (`lucene/analysis/common/.../reverse/
    ReverseStringFilter.java`): top terms REVERSED — the index shape
    behind ReversedWildcardFilterFactory leading-wildcard support."""
    return _analyzer_topterms(sf_dir, "reverse")


QUERIES["reverse_topterms_documents"] = q_reverse_topterms_documents
ORACLE["reverse_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT reverse(t) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_letter_topterms_documents(sf_dir: str):
    """LetterTokenizer (`lucene/analysis/common/.../core/LetterTokenizer
    .java`): top terms over maximal LETTER runs (digits/apostrophes
    split, the contrast with the standard chain)."""
    return _analyzer_topterms(sf_dir, "letter")


QUERIES["letter_topterms_documents"] = q_letter_topterms_documents
ORACLE["letter_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_fingerprint_filter_documents(sf_dir: str):
    """Solr FingerprintFilter (`lucene/analysis/common/.../miscellaneous/
    FingerprintFilter.java`): the whole token stream collapses to one
    sorted-unique-joined token per document (the dedup-normalization
    shape Solr ships for fuzzy duplicate detection).  First 20 docs by
    doc_id — a 20-row sort+limit, never a full collect."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    an = get_analyzer("standard")

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        fps = ["_".join(sorted(set(an.tokens(x or "")))) for x in texts]
        return pa.table({"doc_id": t["doc_id"], "fingerprint": pa.array(fps)})

    return ds.map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id").limit(20)


QUERIES["fingerprint_filter_documents"] = q_fingerprint_filter_documents
ORACLE["fingerprint_filter_documents"] = f"""
    SELECT doc_id,
           array_to_string(list_sort(list_distinct(
             regexp_extract_all(lower(coalesce(text, '')),
                                '{APOS_SQL_RE}'))), '_') AS fingerprint
    FROM documents ORDER BY doc_id ASC LIMIT 20
"""


def q_keyword_repeat_topterms_documents(sf_dir: str):
    """KeywordRepeatFilter + EnglishMinimalStem + RemoveDuplicates
    (`lucene/analysis/common/.../miscellaneous/KeywordRepeatFilter.java`):
    each position indexes BOTH the surface form and its stem; top terms
    over the doubled stream."""
    return _analyzer_topterms(sf_dir, "keyword_repeat_sstem")


QUERIES["keyword_repeat_topterms_documents"] = q_keyword_repeat_topterms_documents
ORACLE["keyword_repeat_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(list_distinct([t, {_SSTEM_SQL}])) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_pattern_capture_topterms_documents(sf_dir: str):
    """PatternCaptureGroupTokenFilter (`lucene/analysis/common/.../pattern/
    PatternCaptureGroupTokenFilter.java`, preserve_original=true, patterns
    ([a-z]+) and ([0-9]+)): mixed alnum tokens also emit their letter and
    digit runs."""
    return _analyzer_topterms(sf_dir, "pattern_capture")


QUERIES["pattern_capture_topterms_documents"] = q_pattern_capture_topterms_documents
ORACLE["pattern_capture_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(list_distinct(
               [t] || regexp_extract_all(t, '[a-z]+')
                   || regexp_extract_all(t, '[0-9]+'))) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_type_token_num_events(sf_dir: str):
    """TypeTokenFilter (`lucene/analysis/common/.../core/TypeTokenFilter
    .java`) keeping only <NUM>-typed tokens, over the events.props field
    (the documents corpus has no standalone numbers): top digit terms."""
    from collections import Counter

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "events", ["props"])
    an = get_analyzer("type_num")

    def f(t: pa.Table) -> pa.Table:
        c = Counter()
        for x in t["props"].to_pylist():
            c.update(an.tokens(x or ""))
        if not c:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        ks, vs = zip(*c.items())
        return pa.table({"term": pa.array(ks),
                         "cnt": pa.array(vs, pa.int64())})

    return _sum_sort_limit(
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True),
        TOP_TERMS,
    )


QUERIES["type_token_num_events"] = q_type_token_num_events
ORACLE["type_token_num_events"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT t AS term
      FROM (SELECT unnest(regexp_extract_all(lower(coalesce(props, '')),
                                             '{APOS_SQL_RE}')) AS t
            FROM events)
      WHERE regexp_full_match(t, '[0-9]+'))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# ---------------------------------------------------------------------------
# r4 analysis-factory batch 3: ApostropheFilter, KeywordMarkerFilter,
# PatternReplaceFilter (token-level).
# ---------------------------------------------------------------------------


def q_apostrophe_topterms_documents(sf_dir: str):
    """ApostropheFilter (`lucene/analysis/common/.../tr/ApostropheFilter
    .java`): top terms keeping only the part before the apostrophe."""
    return _analyzer_topterms(sf_dir, "apostrophe")


QUERIES["apostrophe_topterms_documents"] = q_apostrophe_topterms_documents
ORACLE["apostrophe_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT split_part(t, '''', 1) AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_keyword_marker_topterms_documents(sf_dir: str):
    """SetKeywordMarkerFilter + EnglishMinimalStem (`lucene/analysis/
    common/.../miscellaneous/SetKeywordMarkerFilter.java`): protected
    terms bypass the S-stemmer; top terms over the protected chain."""
    return _analyzer_topterms(sf_dir, "keyword_marker_sstem")


_PROTECTED_SQL = "('always', 'perhaps', 'its')"

QUERIES["keyword_marker_topterms_documents"] = q_keyword_marker_topterms_documents
ORACLE["keyword_marker_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE WHEN t IN {_PROTECTED_SQL} THEN t
                  ELSE {_SSTEM_SQL} END AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_pattern_replace_topterms_documents(sf_dir: str):
    """PatternReplaceFilter (`lucene/analysis/common/.../pattern/
    PatternReplaceFilter.java`, replaceAll): digit runs collapse to '0'
    (number bucketing); top terms over the normalized stream."""
    return _analyzer_topterms(sf_dir, "pattern_replace_digits")


QUERIES["pattern_replace_topterms_documents"] = q_pattern_replace_topterms_documents
ORACLE["pattern_replace_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT regexp_replace(t, '[0-9]+', '0', 'g') AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_stemmer_override_topterms_documents(sf_dir: str):
    """StemmerOverrideFilter + EnglishMinimalStem (`lucene/analysis/
    common/.../miscellaneous/StemmerOverrideFilter.java`): dictionary
    entries map straight to their override stem (data -> datum) and
    bypass the stemmer; top terms over the overridden chain."""
    return _analyzer_topterms(sf_dir, "stemmer_override")


QUERIES["stemmer_override_topterms_documents"] = (
    q_stemmer_override_topterms_documents
)
ORACLE["stemmer_override_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE WHEN t = 'data' THEN 'datum'
                  WHEN t = 'criteria' THEN 'criterion'
                  ELSE {_SSTEM_SQL} END AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_conditional_filter_topterms_documents(sf_dir: str):
    """ConditionalTokenFilter (`lucene/analysis/common/.../miscellaneous/
    ConditionalTokenFilter.java`, Lucene 8): the wrapped
    ReverseStringFilter applies only to tokens longer than 4 chars —
    the ProtectedTermFilterFactory conditional-application shape."""
    return _analyzer_topterms(sf_dir, "conditional_reverse")


QUERIES["conditional_filter_topterms_documents"] = (
    q_conditional_filter_topterms_documents
)
ORACLE["conditional_filter_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT CASE WHEN length(t) > 4 THEN reverse(t) ELSE t END AS term
      FROM (SELECT unnest(regexp_extract_all(lower(text),
                                             '{APOS_SQL_RE}')) AS t
            FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# ---------------------------------------------------------------------------
# UAX29URLEmailTokenizer — URLs and emails kept as single tokens
# ---------------------------------------------------------------------------


def q_urlemail_topterms_documents(sf_dir: str):
    """UAX29URLEmailTokenizer (`lucene/analysis/common/.../standard/
    UAX29URLEmailTokenizer.java`): word segmentation with <URL>/<EMAIL>
    runs kept whole.  The corpus text has no URLs, so each doc is
    prefixed with a deterministic URL + email derived from its own
    (source, doc_id) columns — both sides (this op and the SQL oracle)
    derive the identical string, so the URL/EMAIL branches are genuinely
    exercised and hash-checked.  One pruned scan, per-batch Counter
    partials of a specialty tokenizer, distributed (term,cnt) combine."""
    from collections import Counter

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])
    an = get_analyzer("url_email")

    def f(t: pa.Table) -> pa.Table:
        c = Counter()
        for did, src, txt in zip(
            t["doc_id"].to_pylist(),
            t["source"].to_pylist(),
            t["text"].to_pylist(),
        ):
            s = (
                f"https://{src}.example.com/docs/{did}?p=1 "
                f"admin@{src}.example.com {txt or ''}"
            )
            c.update(an.tokens(s))
        if not c:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        ks, vs = zip(*c.items())
        return pa.table({"term": pa.array(ks), "cnt": pa.array(vs, pa.int64())})

    return _sum_sort_limit(
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True),
        TOP_TERMS,
    )


QUERIES["urlemail_topterms_documents"] = q_urlemail_topterms_documents


def _urlemail_oracle() -> str:
    from rindex.analysis import URLEMAIL_SQL_RE

    pat = URLEMAIL_SQL_RE.replace("'", "''")
    return f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(
               lower('https://' || source || '.example.com/docs/'
                     || doc_id::VARCHAR || '?p=1 admin@' || source
                     || '.example.com ' || coalesce(text, '')),
               '{pat}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


ORACLE["urlemail_topterms_documents"] = _urlemail_oracle()


# ---------------------------------------------------------------------------
# PathHierarchyTokenizer + taxonomy facet
# ---------------------------------------------------------------------------


def q_path_hierarchy_facet_documents(sf_dir: str):
    """PathHierarchyTokenizerFactory (`lucene/analysis/common/src/java/
    org/apache/lucene/analysis/path/PathHierarchyTokenizer.java`) feeding
    a hierarchical facet: each doc's taxonomy path `source/lang` (derived
    from stored fields, the delimiter convention) emits ONE TOKEN PER
    ANCESTOR (`src3`, `src3/en`), and the facet counts docs per hierarchy
    node — the drill-down taxonomy tree every faceted catalog renders.
    Vectorized: one Arrow concat per level, per-batch value_counts
    partials, one (node -> count) groupby; rows out = taxonomy nodes."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        lvl1 = t["source"]
        lvl2 = pc.binary_join_element_wise(
            t["source"], t["lang"], "/"
        )
        nodes = pa.concat_arrays(
            [pc.cast(lvl1, pa.string()).combine_chunks(),
             pc.cast(lvl2, pa.string()).combine_chunks()]
        )
        vc = pc.value_counts(nodes)
        return pa.table(
            {"node": vc.field("values"), "n": vc.field("counts")}
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n_docs"})
        .sort_values("node", kind="mergesort")
        .reset_index(drop=True)
    )
    out["depth"] = out["node"].str.count("/").astype(np.int64) + 1
    return out[["node", "depth", "n_docs"]].astype({"n_docs": "int64"})


QUERIES["path_hierarchy_facet_documents"] = q_path_hierarchy_facet_documents
ORACLE["path_hierarchy_facet_documents"] = """
    WITH nodes AS (
      SELECT source AS node FROM documents
      UNION ALL
      SELECT source || '/' || lang FROM documents
    )
    SELECT node,
           (len(node) - len(replace(node, '/', '')) + 1)::BIGINT AS depth,
           count(*)::BIGINT AS n_docs
    FROM nodes GROUP BY node ORDER BY node
"""


def q_score_join_modes_documents(sf_dir: str):
    """ScoreJoin remaining score modes (`lucene/join/src/java/org/apache/
    lucene/search/join/JoinUtil.java` ScoreMode.Total / ScoreMode.Avg —
    max is score_join_documents_source): per `source`, the SUM and MEAN
    of the joined BM25 scores plus the contributing match count.  Same
    distributed shape: per-segment scoring tasks -> hash join to the
    source column -> additive (sum, n) aggregate; avg derives at the
    end with the oracle's division."""
    import pyarrow.compute as _pc

    from ray.data.aggregate import Count, Sum

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    scores = s.score_matches_dataset(SCORE_JOIN_TERM, mode="or").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("score"), "score",
            _pc.round(t["score"], 6),
        ),
        batch_format="pyarrow",
    )
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    joined = scores.join(docs, "inner", num_partitions=join_partitions(), on=("doc_id",))
    agg = (
        joined.groupby("source")
        .aggregate(
            Sum(on="score", alias_name="ssum"),
            Count(alias_name="n_matches"),
        )
        .to_pandas()
    )
    agg["total_score"] = agg["ssum"].round(6)
    agg["avg_score"] = (agg["ssum"] / agg["n_matches"]).round(6)
    agg = agg.sort_values(
        ["total_score", "source"], ascending=[False, True], kind="mergesort"
    ).head(SCORE_JOIN_TOP)
    return agg[
        ["source", "n_matches", "total_score", "avg_score"]
    ].astype({"n_matches": "int64"}).reset_index(drop=True)


def _score_join_modes_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    scores AS (
      SELECT tf.doc_id,
             round(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
               * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)), 6) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term = '{SCORE_JOIN_TERM}'
    )
    SELECT d.source, count(*)::BIGINT AS n_matches,
           round(sum(s.s), 6) AS total_score,
           round(sum(s.s) / count(*), 6) AS avg_score
    FROM scores s JOIN documents d USING (doc_id)
    GROUP BY d.source
    ORDER BY round(sum(s.s), 6) DESC, d.source ASC LIMIT {SCORE_JOIN_TOP}
    """


QUERIES["score_join_modes_documents"] = q_score_join_modes_documents
ORACLE["score_join_modes_documents"] = _score_join_modes_oracle()


# ---------------------------------------------------------------------------
# r5 factory batch: RefinedSoundex + MatchRatingApproach phonetic encoders
# (PhoneticFilterFactory encoder="RefinedSoundex"/"MatchRatingApproach",
# `lucene/analysis/phonetic/src/java/org/apache/lucene/analysis/phonetic/
# PhoneticFilterFactory.java` + commons-codec
# {RefinedSoundex,MatchRatingApproachEncoder}.java) and KeepWordFilter
# (`lucene/analysis/common/.../miscellaneous/KeepWordFilterFactory.java`)
# ---------------------------------------------------------------------------

_REFINED_SOUNDEX_MAP = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "01360240043788015936020505"
)


def refined_soundex(token: str) -> str:
    """commons-codec RefinedSoundex: first letter + the FULL adjacent-
    collapsed digit string (vowel zeros kept, no truncation, no H/W
    transparency) — e.g. testing -> T6036084."""
    from itertools import groupby

    u = token.upper()
    codes = u.translate(_REFINED_SOUNDEX_MAP)
    return u[0] + "".join(k for k, _ in groupby(codes))


def _refined_soundex_sql(col: str) -> str:
    u = f"upper({col})"
    codes = (
        f"translate({u}, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',"
        f" '01360240043788015936020505')"
    )
    collapsed = codes
    for d in "0123456789":
        for _ in range(5):
            collapsed = f"replace({collapsed}, '{d}{d}', '{d}')"
    return f"substr({u}, 1, 1) || {collapsed}"


def q_refined_soundex_topterms_documents(sf_dir: str):
    """PhoneticFilter with the RefinedSoundex encoder (inject=false):
    top codes over the corpus; codes memoized per DISTINCT term per
    batch like the Soundex op."""
    return _phonetic_topterms(sf_dir, refined_soundex)


QUERIES["refined_soundex_topterms_documents"] = (
    q_refined_soundex_topterms_documents
)
ORACLE["refined_soundex_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT {_refined_soundex_sql('t')} AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def match_rating_encode(token: str) -> str:
    """commons-codec MatchRatingApproachEncoder: letters only, drop
    non-leading vowels, collapse adjacent duplicates, first-3 + last-3
    when longer than 6.  (Adjacent-duplicate collapse here is FULL; the
    reference's per-letter single-pass replace leaves one survivor of a
    triple letter — no English corpus token has one, and the SQL mirror
    collapses fully on both sides.)"""
    import re as _re
    from itertools import groupby

    u = _re.sub(r"[^A-Z]", "", token.upper())
    if not u:
        return ""
    s = u[0] + _re.sub(r"[AEIOU]", "", u[1:])
    s = "".join(k for k, _ in groupby(s))
    return s if len(s) <= 6 else s[:3] + s[-3:]


def _match_rating_sql(col: str) -> str:
    u = f"regexp_replace(upper({col}), '[^A-Z]', '', 'g')"
    s = (
        f"(substr({u}, 1, 1) ||"
        f" regexp_replace(substr({u}, 2), '[AEIOU]', '', 'g'))"
    )
    # consonants only (a non-leading vowel never survives the strip, and a
    # leading vowel cannot duplicate), 2 passes (runs <= 4 — an English
    # token has at most a double letter) — 42 nested replaces, inside
    # DuckDB's 128-deep binder limit where 26x5 was not
    collapsed = s
    for ch in "BCDFGHJKLMNPQRSTVWXYZ":
        for _ in range(2):
            collapsed = f"replace({collapsed}, '{ch}{ch}', '{ch}')"
    return (
        f"CASE WHEN {u} = '' THEN '' "
        f"WHEN length({collapsed}) <= 6 THEN {collapsed} "
        f"ELSE substr({collapsed}, 1, 3) || substr({collapsed}, -3) END"
    )


def q_match_rating_topterms_documents(sf_dir: str):
    """PhoneticFilter with the MatchRatingApproach encoder: top codes
    over the corpus."""
    return _phonetic_topterms(sf_dir, match_rating_encode)


QUERIES["match_rating_topterms_documents"] = q_match_rating_topterms_documents
ORACLE["match_rating_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT {_match_rating_sql('t')} AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# KeepWordFilter: the inverse of StopFilter — ONLY tokens in the keep set
# survive (KeepWordFilterFactory words=...).
KEEP_WORDS = ("join", "merge", "sort", "window", "hash")


def q_keep_word_topterms_documents(sf_dir: str):
    """KeepWordFilter over the corpus, then term counts: only the keep
    set survives, so the result is the per-keep-word occurrence counts
    (descending)."""
    from collections import Counter

    ds = read_table(sf_dir, "documents", ["text"])
    keep = frozenset(KEEP_WORDS)

    def count(texts):
        c = Counter()
        for x in texts:
            for t in _TOKEN_RE.findall(x or ""):
                if t in keep:
                    c[t] += 1
        return c

    return _sum_sort_limit(ds.map_batches(
        _count_partial(count), batch_format="pyarrow", zero_copy_batch=True
    ), TOP_TERMS)


QUERIES["keep_word_topterms_documents"] = q_keep_word_topterms_documents
ORACLE["keep_word_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents)
    WHERE term IN ({", ".join(f"'{w}'" for w in KEEP_WORDS)})
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


# r5 factory batch 2: ScandinavianFolding / TurkishLowerCase / DecimalDigit
# (`lucene/analysis/common/.../miscellaneous/ScandinavianFoldingFilter.java`,
# `.../tr/TurkishLowerCaseFilter.java`, `.../core/DecimalDigitFilter.java`)
# — the fold/digit behavior itself is pinned by tests/test_r5_ops.py on
# non-ASCII inputs; over the ASCII corpus Scandinavian folding still
# rewrites the oo/ae/... digraphs and the other two are the identity
# (same oracle shape as ascii_fold_topterms).


def q_scandinavian_fold_topterms_documents(sf_dir: str):
    """ScandinavianFoldingFilter: top terms after the fold (digraph
    collapse is live on this corpus: oo->o etc.)."""
    return _analyzer_topterms(sf_dir, "scandinavian_fold")


QUERIES["scandinavian_fold_topterms_documents"] = (
    q_scandinavian_fold_topterms_documents
)
ORACLE["scandinavian_fold_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT replace(replace(replace(replace(replace(t,
               'aa', 'a'), 'ao', 'a'), 'ae', 'a'), 'oe', 'o'), 'oo', 'o')
             AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS t
        FROM documents))
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_turkish_lower_topterms_documents(sf_dir: str):
    """TurkishLowerCaseFilter chain: identity on the ASCII corpus (no
    capital I in the lowercase corpus); the dotless-i behavior is pinned
    by tests/test_r5_ops.py."""
    return _analyzer_topterms(sf_dir, "turkish_lower")


QUERIES["turkish_lower_topterms_documents"] = (
    q_turkish_lower_topterms_documents
)
ORACLE["turkish_lower_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""


def q_decimal_digit_topterms_documents(sf_dir: str):
    """DecimalDigitFilter chain: identity on the ASCII corpus (fast-path
    short-circuit); Unicode-digit folding pinned by tests/test_r5_ops.py."""
    return _analyzer_topterms(sf_dir, "decimal_digit")


QUERIES["decimal_digit_topterms_documents"] = (
    q_decimal_digit_topterms_documents
)
ORACLE["decimal_digit_topterms_documents"] = f"""
    SELECT term, count(*)::BIGINT AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents)
    GROUP BY term ORDER BY cnt DESC, term ASC LIMIT {TOP_TERMS}
"""
