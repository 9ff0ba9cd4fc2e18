"""MultiTermQuery family (fuzzy + wildcard term expansion against the
index's term dictionary) and the QueryElevationComponent.

Reference surfaces:
- FuzzyQuery: `lucene/core/src/java/org/apache/lucene/search/
  FuzzyQuery.java` + `FuzzyTermsEnum.java` — expand the query term to all
  dictionary terms within maxEdits=2, capped at maxExpansions=50 highest-df
  terms, each expanded term boosted by 1 - ed/min(|term|,|query|)
  (FuzzyTermsEnum's BoostAttribute), combined disjunctively.  The FST +
  Levenshtein-automaton walk becomes a columnar dictionary scan: one task
  per segment's term-sorted postings.parquet (columns=[term,df] — the
  dictionary columns only, row bodies never read), vectorized banded DP
  over the length-pruned candidate array.
- WildcardQuery under CONSTANT_SCORE_REWRITE: `lucene/core/src/java/org/
  apache/lucene/search/WildcardQuery.java` + `MultiTermQuery.java` — the
  matching doc SET with a constant score, no per-term scoring.
- QueryElevationComponent: `solr/core/src/java/org/apache/solr/handler/
  component/QueryElevationComponent.java` — editorially pinned doc ids
  occupy the top ranks in elevation-file order; organic results follow
  with the elevated ids excluded.

Scoring notes (documented divergences): Lucene's default fuzzy rewrite is
TopTermsBLENDEDFreqScoringRewrite (max-df blending); here each expanded
term is scored as boost * BM25(term) and combined with DisjunctionMax
(tie=0) — deterministic and SQL-expressible, same top-k shape.  Edit
distance is plain Levenshtein, i.e. Lucene's `FuzzyQuery(...,
transpositions=false)` constructor mode — the DEFAULT Lucene mode counts
a transposition as ONE edit (Damerau), which DuckDB's levenshtein() (the
oracle) cannot express; a transposed-adjacent term therefore costs 2
edits on both sides instead of Lucene-default 1.

Scale note: fuzzy spawns one per-segment scoring pass PER EXPANDED TERM
(bounded by maxExpansions=50); at high expansion counts these fold into
one per-segment DisjunctionMax task, exactly Lucene's per-leaf scorer —
same kernels, fewer tasks.  Wildcard needs no scores at all, so it runs
ONE OR-query match-set pipeline over all expanded terms.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.ops.analysis_ext import TOKEN_SQL_RE
from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}

FUZZY_TERM = "scon"       # -> scan (ed 1), slow (ed 2) in the driver corpus
FUZZY_MAX_EDITS = 2       # Lucene FuzzyQuery default
FUZZY_MAX_EXPANSIONS = 50 # Lucene maxExpansions default
FUZZY_K = 10

WILD_PATTERN = "s?a*"     # -> scan, spark, small, ...
WILD_LIMIT = 100

ELEV_QUERY = "hash join"
ELEV_IDS = (123, 7)       # elevation-file order: pinned to ranks 0, 1
ELEV_K = 10


def _levenshtein_vec(q: str, terms: np.ndarray) -> np.ndarray:
    """Vectorized edit distance of `q` against a 1-D array of strings:
    full DP, outer loops over |q| x max_len (tiny), inner ops whole-array.
    The candidate array is length-pruned by the caller, so max_len is
    |q| + maxEdits."""
    if len(terms) == 0:
        return np.zeros(0, dtype=np.int64)
    terms = terms.astype(str)
    lens = np.char.str_len(terms)
    L = int(lens.max())
    # (n, L) char-code matrix, 0-padded
    buf = np.zeros((len(terms), L), dtype=np.uint32)
    for i, t in enumerate(terms):  # cheap: only builds codes once
        buf[i, : len(t)] = np.frombuffer(t.encode("utf-32-le"), np.uint32)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (len(terms), 1))
    for qi, qc in enumerate(q, 1):
        cur = np.empty_like(prev)
        cur[:, 0] = qi
        ne = (buf != ord(qc)).astype(np.int64)
        for j in range(1, L + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + ne[:, j - 1],
            )
        prev = cur
    return prev[np.arange(len(terms)), lens]


def _expand_terms(sf_dir: str, match_fn, label: str) -> pd.DataFrame:
    """Distributed dictionary expansion: one task per segment dictionary
    (term-sorted postings.parquet, columns=[term, df] — blob column never
    read), `match_fn(term_array) -> (mask, extra_df)` vectorized per task,
    then a tiny df-sum groupby over the union of matches."""
    import ray.data as rd

    from ray.data.aggregate import Sum

    from rindex.ops.fulltext import documents_index
    from rindex.segments import read_manifest, seg_dir

    idx = documents_index(sf_dir)
    man = read_manifest(idx)
    paths = [
        os.path.join(seg_dir(idx, s["seg_id"], int(s.get("gen", 0))),
                     "postings.parquet")
        for s in man["segments"]
    ]
    ds = rd.read_parquet(paths, columns=["term", "df"])

    def scan(t: pa.Table) -> pa.Table:
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        mask, extra = match_fn(terms)
        # explicit string type: a batch with ZERO matches would otherwise
        # emit a null-typed 'term' column and schema-mismatched blocks
        out = {
            "term": pa.array(terms[mask].tolist(), pa.string()),
            "df": pa.array(t["df"].to_numpy()[mask], pa.int64()),
        }
        if extra is not None:
            out["ed"] = pa.array(extra[mask], pa.int64())
        return pa.table(out)

    hits = ds.map_batches(scan, batch_format="pyarrow")
    aggs = [Sum("df", alias_name="df")]
    from ray.data.aggregate import Min

    if label == "fuzzy" or label.startswith("flt_"):
        aggs.append(Min("ed", alias_name="ed"))
    return hits.groupby("term").aggregate(*aggs).to_pandas()


def q_fuzzy_search_documents(sf_dir: str):
    """FuzzyQuery('scon', maxEdits=2): dictionary expansion -> top-50-df
    cap -> DisjunctionMax over boost*BM25 per expanded term -> top-10.
    The per-term full match sets stay distributed (score_matches_dataset,
    one task per segment); the boost scale + dismax + top-k run as Dataset
    map_batches / groupby-max / sort-limit."""
    from ray.data.aggregate import Max

    import pyarrow.compute as pc

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    qlen = len(FUZZY_TERM)

    def match(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lens = np.char.str_len(terms.astype(str))
        cand = np.abs(lens - qlen) <= FUZZY_MAX_EDITS
        ed = np.full(len(terms), FUZZY_MAX_EDITS + 1, dtype=np.int64)
        ed[cand] = _levenshtein_vec(FUZZY_TERM, terms[cand])
        return ed <= FUZZY_MAX_EDITS, ed

    exp = _expand_terms(sf_dir, match, "fuzzy")
    # maxExpansions cap: keep the highest-df terms (Lucene's priority
    # queue), term-asc tiebreak for determinism
    exp = exp.sort_values(["df", "term"], ascending=[False, True],
                          kind="mergesort").head(FUZZY_MAX_EXPANSIONS)

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    parts = []
    for term, ed in zip(exp["term"], exp["ed"]):
        boost = 1.0 - float(ed) / min(len(term), qlen)
        scores = s.score_matches_dataset(term, mode="or")
        parts.append(
            scores.map_batches(
                lambda t, b=boost: t.set_column(
                    t.schema.get_field_index("score"), "score",
                    pc.multiply(t["score"], pa.scalar(b, pa.float64())),
                ),
                batch_format="pyarrow",
            )
        )
    if not parts:
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    top = (
        ds.groupby("doc_id")
        .aggregate(Max("score", alias_name="score"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("score"), "score",
                pc.round(t["score"], 6),
            ),
            batch_format="pyarrow",
        )
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(FUZZY_K)
        .to_pandas()
    )
    top.insert(0, "rank", np.arange(len(top), dtype=np.int64))
    return top[["rank", "doc_id", "score"]]


QUERIES["fuzzy_search_documents"] = q_fuzzy_search_documents


def _fuzzy_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    fuzzy AS (
      SELECT term, df, levenshtein(term, '{FUZZY_TERM}') AS ed
      FROM df
      WHERE levenshtein(term, '{FUZZY_TERM}') <= {FUZZY_MAX_EDITS}
      ORDER BY df DESC, term ASC LIMIT {FUZZY_MAX_EXPANSIONS}
    ),
    scored AS (
      SELECT tf.doc_id,
             max((1.0 - fz.ed / least(len(fz.term), {len(FUZZY_TERM)})::DOUBLE)
                 * ln(1.0 + (n_docs - fz.df + 0.5) / (fz.df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM fuzzy fz
      JOIN tf ON tf.term = fz.term
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    ranked AS (
      SELECT doc_id, round(s, 6) AS score,
             row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC) - 1
               AS rank
      FROM scored
    )
    SELECT rank, doc_id, score FROM ranked WHERE rank < {FUZZY_K}
    """


ORACLE["fuzzy_search_documents"] = _fuzzy_oracle()


def q_wildcard_search_documents(sf_dir: str):
    """WildcardQuery('s?a*') under CONSTANT_SCORE_REWRITE: the distinct
    matching doc set with score 1.0, doc_id-asc, first 100.  Expansion is
    the same distributed dictionary scan (fnmatch translated to an
    anchored re2 regex, vectorized via Arrow match_substring_regex); the
    doc set comes from one posting-fetch task per expanded term with the
    ids deduped by a distributed groupby."""
    import pyarrow.compute as pc

    import re as _re

    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    rx = "^" + "".join(
        ".*" if c == "*" else "." if c == "?" else _re.escape(c)
        for c in WILD_PATTERN
    ) + "$"

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        m = pc.match_substring_regex(
            pa.array(terms.tolist(), pa.string()), rx
        ).to_numpy(zero_copy_only=False)
        return m, None

    exp = _expand_terms(sf_dir, match, "wildcard")
    if not len(exp):
        return pd.DataFrame({"doc_id": [], "score": []})
    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    # constant score needs only the MATCH SET: one OR-query pipeline over
    # ALL expanded terms (scores discarded), not one pass per term
    ds = s.score_matches_dataset(" ".join(sorted(exp["term"])), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(WILD_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


QUERIES["wildcard_search_documents"] = q_wildcard_search_documents
_wild_like = WILD_PATTERN.replace("*", "%").replace("?", "_")
ORACLE["wildcard_search_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text),
                    '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    )
    SELECT doc_id, 1.0 AS score
    FROM (SELECT DISTINCT doc_id FROM toks WHERE term LIKE '{_wild_like}')
    ORDER BY doc_id LIMIT {WILD_LIMIT}
"""


def q_query_elevation_documents(sf_dir: str):
    """QueryElevationComponent: ELEV_IDS pinned to the top ranks in
    elevation-file order (forceElevation semantics — pinned even when the
    doc scores zero for the query), organic BM25 results follow with the
    pinned ids excluded.  score = the doc's organic BM25 OR-score for the
    query (0.0 for a non-matching pinned doc), elevated flag marks the
    pinned rows — the [elevated] transformer."""
    import pyarrow.compute as pc

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    hits = s.search(ELEV_QUERY, k=ELEV_K + len(ELEV_IDS), mode="or")
    organic = [
        (doc_id, round(score, 6))
        for _r, doc_id, score in hits
        if doc_id not in ELEV_IDS
    ][:ELEV_K - len(ELEV_IDS)] if ELEV_K > len(ELEV_IDS) else []
    # pinned scores come from the FULL distributed match set, not the
    # top-k window — a pinned doc ranked below k still shows its real score
    pin_tbl = (
        s.score_matches_dataset(ELEV_QUERY, mode="or")
        .map_batches(
            lambda t: t.filter(
                pc.is_in(t["doc_id"], pa.array(list(ELEV_IDS), pa.int64()))
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    by_id = dict(
        zip(pin_tbl["doc_id"], np.round(pin_tbl["score"].to_numpy(), 6))
    )
    rows = [
        (d, float(by_id.get(d, 0.0)), True) for d in ELEV_IDS
    ] + [(d, sc, False) for d, sc in organic]
    out = pd.DataFrame(rows, columns=["doc_id", "score", "elevated"])
    out.insert(0, "rank", np.arange(len(out), dtype=np.int64))
    return out


QUERIES["query_elevation_documents"] = q_query_elevation_documents


def _elevation_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    elev_vals = ", ".join(
        f"({r}, {d})" for r, d in enumerate(ELEV_IDS)
    )
    qterms = ", ".join(f"('{t}')" for t in ELEV_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {qterms}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q JOIN tf USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    elev(erank, doc_id) AS (VALUES {elev_vals}),
    pinned AS (
      SELECT e.erank::BIGINT AS rank, e.doc_id::BIGINT AS doc_id,
             coalesce(round(s.s, 6), 0.0) AS score, TRUE AS elevated
      FROM elev e LEFT JOIN scores s USING (doc_id)
    ),
    organic AS (
      -- rank on the RAW sum (the engine orders by unrounded score);
      -- round only for display
      SELECT {len(ELEV_IDS)} - 1 +
               row_number() OVER (ORDER BY s DESC, doc_id ASC) AS rank,
             doc_id, round(s, 6) AS score, FALSE AS elevated
      FROM scores
      WHERE doc_id NOT IN (SELECT doc_id FROM elev)
    )
    SELECT rank, doc_id, score, elevated FROM pinned
    UNION ALL
    SELECT rank, doc_id, score, elevated FROM organic
    WHERE rank < {ELEV_K}
    """


ORACLE["query_elevation_documents"] = _elevation_oracle()


TERMS_SET = ("fast", "merge", "vector")
TERMS_LIMIT = 100


def q_terms_set_filter_documents(sf_dir: str):
    """TermInSetQuery / the {!terms f=text} query parser
    (`lucene/core/src/java/org/apache/lucene/search/TermInSetQuery.java`,
    `solr/core/.../search/TermsQParserPlugin.java`): constant-score doc
    set matching ANY of the listed terms — no dictionary expansion pass
    at all (the terms are given), ONE OR-query match-set pipeline over
    the index with scores discarded, doc_id-asc first 100."""
    import pandas as pd

    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    ds = s.score_matches_dataset(" ".join(TERMS_SET), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(TERMS_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


QUERIES["terms_set_filter_documents"] = q_terms_set_filter_documents
ORACLE["terms_set_filter_documents"] = """
    SELECT doc_id, 1.0 AS score
    FROM documents
    WHERE {conds}
    ORDER BY doc_id LIMIT {lim}
""".format(
    conds=" OR ".join(
        "list_contains(regexp_extract_all(lower(text), '"
        + TOKEN_SQL_RE + "'), '" + t + "')"
        for t in TERMS_SET
    ),
    lim=TERMS_LIMIT,
)


# ---------------------------------------------------------------------------
# RegexpQuery (`lucene/core/src/java/org/apache/lucene/search/
# RegexpQuery.java`): regex term expansion under CONSTANT_SCORE_REWRITE.
# Lucene compiles the regex to an automaton intersected with the terms FST;
# the Ray shape is the same distributed dictionary scan the wildcard op
# uses — an anchored RE2 match per segment-dictionary batch (DuckDB is
# also RE2, so the oracle shares the pattern verbatim).
# ---------------------------------------------------------------------------

REGEXP_PATTERN = "s(ort|can|tream)"
REGEXP_LIMIT = 100


def q_regexp_search_documents(sf_dir: str):
    """RegexpQuery('{REGEXP_PATTERN}'): distinct docs containing any
    dictionary term fully matching the regex, constant score 1.0,
    doc_id-asc, first {REGEXP_LIMIT}.  Expansion scans ONLY the (term, df)
    dictionary columns per segment; the doc set is one OR-query match-set
    pipeline over the expanded terms (scores discarded), deduped by a
    distributed groupby."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    rx = "^(?:" + REGEXP_PATTERN + ")$"

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        m = pc.match_substring_regex(
            pa.array(terms.tolist(), pa.string()), rx
        ).to_numpy(zero_copy_only=False)
        return m, None

    exp = _expand_terms(sf_dir, match, "regexp")
    if not len(exp):
        return pd.DataFrame({"doc_id": [], "score": []})
    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    ds = s.score_matches_dataset(" ".join(sorted(exp["term"])), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(REGEXP_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


QUERIES["regexp_search_documents"] = q_regexp_search_documents
ORACLE["regexp_search_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text),
                    '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    )
    SELECT doc_id, 1.0 AS score
    FROM (SELECT DISTINCT doc_id FROM toks
          WHERE regexp_full_match(term, '{REGEXP_PATTERN}'))
    ORDER BY doc_id LIMIT {REGEXP_LIMIT}
"""


# ---------------------------------------------------------------------------
# ComplexPhraseQuery — wildcard term inside a phrase
# ---------------------------------------------------------------------------

CPX_FIRST = "fast"
CPX_PREFIX = "s"  # phrase: "fast s*"


def q_complex_phrase_documents(sf_dir: str):
    """ComplexPhraseQParser (`solr/core/src/java/org/apache/solr/search/
    ComplexPhraseQParserPlugin.java` wrapping `lucene/queryparser/src/java/
    org/apache/lucene/queryparser/complexPhrase/ComplexPhraseQueryParser
    .java`): a phrase whose second position is a wildcard — "fast s*" —
    rewritten to spanNear([fast, spanOr(<dictionary terms matching s*>)],
    slop=0, inOrder).

    Engine shape: the wildcard expands with the SAME distributed
    dictionary scan as WildcardQuery (term+df columns only), then one
    positional pass: flat (doc, pos) arrays for the literal term and for
    the union of expansions, matched with a single membership probe on
    the composite doc*stride+pos key (`_followed_by`) — per-doc match
    counts are the complex-phrase frequency.  No per-row Python; the
    expansion set rides each positional task as a tiny in-task set."""
    import pyarrow.compute as pc

    from rindex.ops.lucene8 import _followed_by_counts

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        m = pc.starts_with(
            pa.array(terms.tolist(), pa.string()), CPX_PREFIX
        ).to_numpy(zero_copy_only=False)
        return m, None

    exp = sorted(_expand_terms(sf_dir, match, "complex_phrase")["term"])
    if not exp:
        return pd.DataFrame({"doc_id": [], "phrase_freq": []})
    return _followed_by_counts(sf_dir, [CPX_FIRST], exp, "phrase_freq")


QUERIES["complex_phrase_documents"] = q_complex_phrase_documents
ORACLE["complex_phrase_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l)),
               i -> l[i] = '{CPX_FIRST}'
                    AND l[i + 1] LIKE '{CPX_PREFIX}%'))::BIGINT
             AS phrase_freq
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l)),
              i -> l[i] = '{CPX_FIRST}'
                   AND l[i + 1] LIKE '{CPX_PREFIX}%')) > 0
    ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# TermRangeQuery — lexicographic term-dictionary range (`lucene/core/src/
# java/org/apache/lucene/search/TermRangeQuery.java`, constant-score
# rewrite).  Same distributed dictionary expansion as wildcard/fuzzy: the
# range mask is one vectorized comparison per segment dictionary, the doc
# set one OR match pipeline over the expanded terms.
# ---------------------------------------------------------------------------

TERM_RANGE_LO, TERM_RANGE_HI = "sc", "sp"   # [lo, hi)
TERM_RANGE_LIMIT = 100


def q_term_range_search_documents(sf_dir: str):
    """Docs containing any dictionary term in ['sc', 'sp') — constant
    score 1.0, doc-asc, first 100 (TermRangeQuery under
    CONSTANT_SCORE_REWRITE)."""
    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        t = terms.astype(str)
        return (t >= TERM_RANGE_LO) & (t < TERM_RANGE_HI), None

    exp = _expand_terms(sf_dir, match, "term_range")
    if not len(exp):
        return pd.DataFrame({"doc_id": [], "score": []})
    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    ds = s.score_matches_dataset(" ".join(sorted(exp["term"])), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(TERM_RANGE_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


QUERIES["term_range_search_documents"] = q_term_range_search_documents
ORACLE["term_range_search_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text),
                    '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    )
    SELECT doc_id, 1.0 AS score
    FROM (SELECT DISTINCT doc_id FROM toks
          WHERE term >= '{TERM_RANGE_LO}' AND term < '{TERM_RANGE_HI}')
    ORDER BY doc_id LIMIT {TERM_RANGE_LIMIT}
"""


# ---------------------------------------------------------------------------
# FuzzyLikeThisQuery — multi-word fuzzy expansion with idf-ranked variants
# ---------------------------------------------------------------------------

FLT_TEXT = "serch windoow scann"  # three misspelled source words
FLT_MAX_EDITS = 2
FLT_MAX_NUM_TERMS = 8   # global variant cap across ALL source words
FLT_K = 10


def q_fuzzy_like_this_documents(sf_dir: str):
    """FuzzyLikeThisQuery (`lucene/sandbox/src/java/org/apache/lucene/
    search/FuzzyLikeThisQuery.java`): each source word expands to fuzzy
    dictionary variants, every variant is scored
    sv = (1 - ed/min(len)) * idf and only the top maxNumTerms variants
    survive GLOBALLY (the reference's cross-term ScoreTermQueue); the
    final query is the OR of the surviving terms, each contributing
    sv * BM25(term, doc) (boosted-SHOULD sum).

    Scale shape: one distributed dictionary scan per source word
    (term+df columns only), the variant table is maxNumTerms rows by
    construction, and per-variant match sets stay distributed
    (score_matches_dataset task per segment) into a groupby-sum."""
    import pyarrow.compute as pc

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    cands = []
    for w in FLT_TEXT.split():
        qlen = len(w)

        def match(terms: np.ndarray, w=w, qlen=qlen):
            lens = np.char.str_len(terms.astype(str))
            cand = np.abs(lens - qlen) <= FLT_MAX_EDITS
            ed = np.full(len(terms), FLT_MAX_EDITS + 1, dtype=np.int64)
            ed[cand] = _levenshtein_vec(w, terms[cand])
            return ed <= FLT_MAX_EDITS, ed

        exp = _expand_terms(sf_dir, match, f"flt_{w}")
        if not len(exp):
            continue
        exp["src_len"] = qlen
        cands.append(exp)
    if not cands:
        return pd.DataFrame({"rank": [], "doc_id": [], "score": []})
    cand = pd.concat(cands, ignore_index=True)

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    n_docs = float(s.n_docs)
    sim = 1.0 - cand["ed"].to_numpy(np.float64) / np.minimum(
        cand["term"].str.len().to_numpy(np.float64),
        cand["src_len"].to_numpy(np.float64),
    )
    idf = np.log(
        1.0 + (n_docs - cand["df"].to_numpy(np.float64) + 0.5)
        / (cand["df"].to_numpy(np.float64) + 0.5)
    )
    cand["sv"] = sim * idf
    # a variant reachable from two source words keeps its best score
    cand = (
        cand.groupby("term", as_index=False)["sv"].max()
        .sort_values(["sv", "term"], ascending=[False, True],
                     kind="mergesort")
        .head(FLT_MAX_NUM_TERMS)
    )
    from ray.data.aggregate import Sum

    parts = []
    for term, sv in zip(cand["term"], cand["sv"]):
        scores = s.score_matches_dataset(term, mode="or")
        parts.append(
            scores.map_batches(
                lambda t, b=float(sv): t.set_column(
                    t.schema.get_field_index("score"), "score",
                    pc.multiply(t["score"], pa.scalar(b, pa.float64())),
                ),
                batch_format="pyarrow",
            )
        )
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    top = (
        ds.groupby("doc_id")
        .aggregate(Sum("score", alias_name="score"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("score"), "score",
                pc.round(t["score"], 6),
            ),
            batch_format="pyarrow",
        )
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(FLT_K)
        .to_pandas()
    )
    top.insert(0, "rank", np.arange(len(top), dtype=np.int64))
    return top[["rank", "doc_id", "score"]]


QUERIES["fuzzy_like_this_documents"] = q_fuzzy_like_this_documents


def _flt_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    words = ", ".join(
        f"('{w}', {len(w)})" for w in FLT_TEXT.split()
    )
    return f"""
    WITH {_bm25_ctes()},
    src(w, wlen) AS (VALUES {words}),
    cand AS (
      SELECT d.term, d.df, levenshtein(d.term, s.w) AS ed, s.wlen
      FROM df d CROSS JOIN src s
      WHERE levenshtein(d.term, s.w) <= {FLT_MAX_EDITS}
    ),
    sv AS (
      SELECT term,
             max((1.0 - ed / least(len(term), wlen)::DOUBLE)
                 * ln(1.0 + ((SELECT n_docs FROM stats) - df + 0.5)
                            / (df + 0.5))) AS sv
      FROM cand GROUP BY term
    ),
    kept AS (SELECT * FROM sv ORDER BY sv DESC, term ASC
             LIMIT {FLT_MAX_NUM_TERMS}),
    scored AS (
      SELECT tf.doc_id,
             sum(k.sv
                 * ln(1.0 + (n_docs - df.df + 0.5) / (df.df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM kept k
      JOIN tf ON tf.term = k.term
      JOIN df ON df.term = k.term
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    ranked AS (
      SELECT doc_id, round(s, 6) AS score,
             row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC) - 1
               AS rank
      FROM scored
    )
    SELECT rank, doc_id, score FROM ranked WHERE rank < {FLT_K}
    """


ORACLE["fuzzy_like_this_documents"] = _flt_oracle()


# ---------------------------------------------------------------------------
# SimpleQueryParser — the never-throwing end-user syntax
# ---------------------------------------------------------------------------

SIMPLE_QUERY = 's* + (hash | merge) + -window + "table scan"'
SIMPLE_K = 10


def q_simple_query_parser_documents(sf_dir: str):
    """SimpleQueryParser end-to-end (`lucene/queryparser/src/java/org/
    apache/lucene/queryparser/simple/SimpleQueryParser.java`): one query
    exercising the whole surface — a prefix clause `s*` (dictionary-
    expanded, CONSTANT_SCORE_REWRITE: flat 1.0), an OR group of scored
    terms, a NOT clause, and an exact phrase scored with PhraseWeight
    stats (tf = phrase freq, df = phrase-match count), all ANDed.  The
    prefix expansion is the same distributed dictionary scan every
    multi-term query here uses; match + scoring run in
    IndexSearcher.search_boolean's dense per-segment kernel."""
    import pyarrow.compute as pc

    from rindex.ops.fulltext import documents_index_pos
    from rindex.search import IndexSearcher, parse_simple_query

    def expand(kind, payload):
        assert kind == "prefix", kind

        def match(terms: np.ndarray):
            m = pc.starts_with(
                pa.array(terms.tolist(), pa.string()), pattern=payload
            ).to_numpy(zero_copy_only=False)
            return m, None

        exp = _expand_terms(sf_dir, match, "simple_prefix")
        return sorted(exp["term"]) if len(exp) else []

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    tree = parse_simple_query(SIMPLE_QUERY, expand=expand)
    hits = s.search_boolean(tree, k=SIMPLE_K + 16)
    out = pd.DataFrame(hits, columns=["_r", "doc_id", "score"])
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        .head(SIMPLE_K)
        .reset_index(drop=True)
    )
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "score"]]


def _simple_query_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    flags AS (
      SELECT doc_id,
             bool_or(term LIKE 's%') AS f_pre,
             bool_or(term = 'hash') AS f_hash,
             bool_or(term = 'merge') AS f_merge,
             bool_or(term = 'window') AS f_window
      FROM tf GROUP BY doc_id
    ),
    pf AS (
      SELECT doc_id,
             len(list_filter(range(1, len(l)),
                             i -> l[i] = 'table'
                              AND l[i + 1] = 'scan'))::BIGINT AS phrase_freq
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents)
    ),
    pmatch AS (SELECT * FROM pf WHERE phrase_freq > 0),
    pstats AS (SELECT count(*)::DOUBLE AS df_p FROM pmatch),
    sel AS (
      SELECT f.doc_id FROM flags f JOIN pmatch USING (doc_id)
      WHERE f_pre AND (f_hash OR f_merge) AND NOT f_window
    ),
    term_scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE term IN ('hash', 'merge')
      GROUP BY tf.doc_id
    ),
    scored AS (
      SELECT sel.doc_id,
             coalesce(ts.s, 0)
             + 1.0
             + ln(1.0 + (st.n_docs - p.df_p + 0.5) / (p.df_p + 0.5))
               * pm.phrase_freq
               / (pm.phrase_freq
                  + {K1} * (1.0 - {B} + {B} * lo.ldl / st.avgdl)) AS s
      FROM sel
      LEFT JOIN term_scores ts USING (doc_id)
      JOIN pmatch pm USING (doc_id)
      JOIN lossy lo USING (doc_id)
      CROSS JOIN stats st CROSS JOIN pstats p
    ),
    ranked AS (
      SELECT doc_id, round(s, 6) AS s,
             (row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scored
    )
    SELECT rank, doc_id, s AS score FROM ranked WHERE rank < {SIMPLE_K}
    """


QUERIES["simple_query_parser_documents"] = q_simple_query_parser_documents
ORACLE["simple_query_parser_documents"] = _simple_query_oracle()


# ---------------------------------------------------------------------------
# GraphTermsQParser — terms filter that drops high-docFreq terms
# ---------------------------------------------------------------------------

GT_TERMS = ("dup", "window", "query")
GT_MAX_DF_PCT = 0.5  # drop terms with df > 50% of the corpus
GT_LIMIT = 200


def q_graph_terms_filter_documents(sf_dir: str):
    """GraphTermsQParser ({!graphTerms f=text maxDocFreqPct=50}dup,window,
    query — `solr/core/src/java/org/apache/solr/search/
    GraphTermsQParserPlugin.java`): a terms filter that silently DROPS
    terms whose docFreq exceeds the cap (the graph-traversal frontier
    guard against hot-node blowup), then matches any surviving term,
    constant score.  df screening is a driver-side per-term stat lookup
    (tiny); the surviving-term match set stays distributed (one posting
    task per segment, distinct doc ids via groupby)."""
    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    df = s.global_df(list(GT_TERMS))
    cap = GT_MAX_DF_PCT * s.n_docs
    keep = sorted(t for t in GT_TERMS if 0 < df[t] <= cap)
    if not keep:
        return pd.DataFrame({"doc_id": [], "score": []})
    ds = s.score_matches_dataset(" ".join(keep), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(GT_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


def _graph_terms_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes

    terms_sql = ", ".join(f"'{t}'" for t in GT_TERMS)
    return f"""
    WITH {_bm25_ctes()},
    kept AS (
      SELECT term FROM df CROSS JOIN stats
      WHERE term IN ({terms_sql}) AND df <= {GT_MAX_DF_PCT} * n_docs
    )
    SELECT DISTINCT tf.doc_id, 1.0 AS score
    FROM tf JOIN kept USING (term)
    ORDER BY tf.doc_id LIMIT {GT_LIMIT}
    """


QUERIES["graph_terms_filter_documents"] = q_graph_terms_filter_documents
ORACLE["graph_terms_filter_documents"] = _graph_terms_oracle()
