"""Lucene-8-era query/index features: FunctionRangeQuery (frange),
PayloadScoreQuery, FeatureField rank features, ReversedWildcard leading
wildcards, and index-time sorting with early-terminating top-k.

Reference surfaces:
- frange QParser: `solr/core/src/java/org/apache/solr/search/
  FunctionRangeQParserPlugin.java` + `FunctionRangeQuery.java` — filter
  docs by a function-query value range.
- PayloadScoreQuery: `lucene/queries/src/java/org/apache/lucene/queries/
  payloads/PayloadScoreQuery.java` + Solr's `{!payload_score}` —
  aggregate per-occurrence payloads at matching positions.
- FeatureField: `lucene/core/src/java/org/apache/lucene/document/
  FeatureField.java` (Lucene 8's static-rank channel) — a per-doc feature
  combined into the score through a saturation function
  `S(f) = f / (f + pivot)`.
- ReversedWildcardFilterFactory: `solr/core/src/java/org/apache/solr/
  analysis/ReversedWildcardFilterFactory.java` — leading wildcards served
  as PREFIX scans over a reversed term dictionary instead of a full
  dictionary regex scan.
- Index sorting + early termination: `lucene/core/src/java/org/apache/
  lucene/index/IndexWriterConfig.java#setIndexSort` +
  `search/TopFieldCollector.java` (canEarlyTerminate) — segments sorted by
  the query sort let each leaf collector stop after k docs.

Scale notes: frange is ONE pruned-column scan with a vectorized Arrow
expression per batch.  Payload scoring reads ONLY the queried term's
positional postings (never the corpus) and reduces runs with
np.add.reduceat.  The rank-feature op keeps the full match set distributed
(score tasks per segment) and joins the feature column with a
hash-partitioned Dataset.join — no corpus-sized broadcast.  The reversed
dictionary is a PERSISTED artifact (fingerprint-keyed like the ANN
layouts), sorted by reversed term so parquet row-group stats prune the
prefix probe; building it is one dictionary-columns-only pass.  The
index-sort layout sorts each segment file internally by the sort key with
small row groups; the top-k query reads row groups SEQUENTIALLY per file
and stops at k rows (Lucene's per-leaf early termination), so IO per
segment is ceil(k / rows_per_rg) row groups regardless of segment size.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rindex.schema import join_partitions
from rindex.ops.analysis_ext import TOKEN_SQL_RE
from rindex.ops.util import cache_dir, read_table

QUERIES: dict = {}
ORACLE: dict = {}


# ---------------------------------------------------------------------------
# frange — FunctionRangeQuery
# ---------------------------------------------------------------------------

FRANGE_L, FRANGE_U = 0.70, 0.80  # recip(n_chars,1,1000,1000) in [l, u]


def q_frange_filter_documents(sf_dir: str):
    """{!frange l=0.70 u=0.80}recip(n_chars,1,1000,1000): docs whose
    function value 1000/(n_chars+1000) lies in [l, u] (both ends included,
    Solr's default incl=true), returning doc_id + the function value.
    ONE pruned scan; the function and range test are Arrow kernels."""

    def f(t: pa.Table) -> pa.Table:
        fval = pc.divide(1000.0, pc.add(pc.cast(t["n_chars"], pa.float64()),
                                        1000.0))
        keep = pc.and_(pc.greater_equal(fval, FRANGE_L),
                       pc.less_equal(fval, FRANGE_U))
        return pa.table(
            {"doc_id": pc.filter(t["doc_id"], keep),
             "fval": pc.round(pc.filter(fval, keep), 6)}
        )

    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["frange_filter_documents"] = q_frange_filter_documents
ORACLE["frange_filter_documents"] = f"""
    SELECT doc_id, round(1000.0 / (n_chars + 1000.0), 6) AS fval
    FROM documents
    WHERE 1000.0 / (n_chars + 1000.0) BETWEEN {FRANGE_L} AND {FRANGE_U}
"""


# ---------------------------------------------------------------------------
# PayloadScoreQuery — payload = 1/(1+position), func=sum
# ---------------------------------------------------------------------------

PAYLOAD_TERM = "spark"


def q_payload_score_documents(sf_dir: str):
    """PayloadScoreQuery({!payload_score f=text v=spark func=sum}):
    index-time payload at each position p is 1/(1+p) (a position-decay
    payload assigned by the indexing chain — DelimitedPayload with a
    derived weight); the query sums payloads over the term's occurrences
    per doc.  Reads ONLY the term's positional postings; per-doc run
    sums via ONE np.add.reduceat over the concatenated position array."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    got = r.positions_for([PAYLOAD_TERM])[PAYLOAD_TERM]
    rows = []
    if got is not None:
        docs, tfs, pos = got[:3]
        payload = 1.0 / (1.0 + np.asarray(pos, dtype=np.float64))
        sums = np.add.reduceat(payload, np.cumsum(tfs) - tfs)
        rows = live_id_rows(r, docs, [round(float(v), 6) for v in sums])
    return pd.DataFrame(
        {"doc_id": [r[0] for r in rows],
         "payload_score": pd.array([r[1] for r in rows], dtype="float64")}
    )


QUERIES["payload_score_documents"] = q_payload_score_documents
# generate_subscripts is 1-based: ord = pos + 1, payload = 1/(1+pos) = 1/ord
ORACLE["payload_score_documents"] = f"""
    WITH toks AS (
      SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS ord
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents)
    )
    SELECT doc_id, round(sum(1.0 / ord), 6) AS payload_score
    FROM toks WHERE term = '{PAYLOAD_TERM}'
    GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# FeatureField — BM25 + w * saturation(feature)
# ---------------------------------------------------------------------------

FEATURE_QUERY = "hash join"
FEATURE_PIVOT = 6.0
FEATURE_WEIGHT = 2.0
FEATURE_K = 10


def q_rank_feature_topk_documents(sf_dir: str):
    """FeatureField static-rank scoring: final = BM25(q) + w * f/(f+pivot)
    with f = ln(1+n_chars) (the doc's stored rank feature).  The full OR
    match set stays distributed (per-segment score tasks); the feature
    column joins in via a hash-partitioned Dataset.join on doc_id (pruned
    2-column read of the feature side — no corpus broadcast); top-k is a
    small sort on the combined score."""
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    matches = s.score_matches_dataset(FEATURE_QUERY, mode="or")
    feats = read_table(sf_dir, "documents", ["doc_id", "n_chars"])
    joined = matches.join(
        feats, "inner", num_partitions=join_partitions(), on=("doc_id",)
    )

    def combine(t: pa.Table) -> pa.Table:
        f = pc.ln(pc.add(pc.cast(t["n_chars"], pa.float64()), 1.0))
        sat = pc.divide(f, pc.add(f, FEATURE_PIVOT))
        total = pc.add(t["score"], pc.multiply(sat, FEATURE_WEIGHT))
        return pa.table(
            {"doc_id": t["doc_id"], "rf_score": pc.round(total, 6)}
        )

    out = (
        joined.map_batches(combine, batch_format="pyarrow")
        .sort(["rf_score", "doc_id"], descending=[True, False])
        .limit(FEATURE_K)
        .to_pandas()
    )
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "rf_score"]]


def _rank_feature_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    terms = FEATURE_QUERY.split()
    tlist = ",".join(f"('{t}')" for t in dict.fromkeys(terms))
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {tlist}),
    bm25 AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q JOIN tf USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    combined AS (
      SELECT b.doc_id,
             round(b.s + {FEATURE_WEIGHT} *
                   (ln(1.0 + d.n_chars) /
                    (ln(1.0 + d.n_chars) + {FEATURE_PIVOT})), 6) AS rf_score
      FROM bm25 b JOIN documents d USING (doc_id)
      WHERE b.s > 0
    )
    SELECT (row_number() OVER (ORDER BY rf_score DESC, doc_id ASC)
            - 1)::INTEGER AS rank, doc_id, rf_score
    FROM combined
    ORDER BY rf_score DESC, doc_id ASC LIMIT {FEATURE_K}
    """


QUERIES["rank_feature_topk_documents"] = q_rank_feature_topk_documents
ORACLE["rank_feature_topk_documents"] = _rank_feature_oracle()


# ---------------------------------------------------------------------------
# ReversedWildcard — leading wildcard as a reversed-dictionary prefix scan
# ---------------------------------------------------------------------------

LEADING_SUFFIX = "er"   # *er -> customer, filter, order
LEADING_LIMIT = 100


def _reversed_dict_path(sf_dir: str) -> str:
    """Build (once, manifest-fingerprint-keyed) the reversed term
    dictionary: distinct index terms reversed, SORTED by the reversed
    form, written with small row groups so a prefix probe prunes via
    row-group stats — the persisted analog of indexing reversed tokens."""
    import hashlib
    import json

    from rindex.ops.fulltext import documents_index
    from rindex.segments import read_manifest, seg_dir

    idx = documents_index(sf_dir)
    man = read_manifest(idx)
    fp = hashlib.md5(json.dumps(
        [(s["seg_id"], int(s.get("gen", 0))) for s in man["segments"]]
    ).encode()).hexdigest()[:12]
    out_dir = cache_dir(sf_dir, "revdict") + f"-{fp}"
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker):
        return out_dir
    import ray.data as rd

    paths = [
        os.path.join(seg_dir(idx, s["seg_id"], int(s.get("gen", 0))),
                     "postings.parquet")
        for s in man["segments"]
    ]
    from ray.data.aggregate import Count

    ds = rd.read_parquet(paths, columns=["term"])

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({"rterm": pc.utf8_reverse(t["term"]),
                         "term": t["term"]})

    tbl = (
        ds.groupby("term")  # distinct across segments (partial+final agg)
        .aggregate(Count(alias_name="_n"))
        .map_batches(rev, batch_format="pyarrow")
        .sort("rterm")
        .to_pandas()[["rterm", "term"]]
    )
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.Table.from_pandas(tbl, preserve_index=False),
        os.path.join(out_dir, "revdict.parquet"),
        row_group_size=4096,
    )
    with open(marker, "w") as fh:
        fh.write(fp)
    return out_dir


def q_leading_wildcard_documents(sf_dir: str):
    """ReversedWildcardFilter leading wildcard '*{suffix}': the reversed
    dictionary turns the suffix into the PREFIX '{xiffus}' — a sorted
    range probe ([p, p + chr(0x10FFFF)]) that parquet row-group stats
    prune, never a full-dictionary regex scan.  Matched terms feed the
    same constant-score OR match-set pipeline as WildcardQuery."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    rev_dir = _reversed_dict_path(sf_dir)
    pref = LEADING_SUFFIX[::-1]
    hi = pref + chr(0x10FFFF)
    probe = rd.read_parquet(
        os.path.join(rev_dir, "revdict.parquet"),
        filter=(pc.field("rterm") >= pref) & (pc.field("rterm") < hi),
    )
    terms = sorted(probe.to_pandas()["term"].tolist())
    if not terms:
        return pd.DataFrame({"doc_id": [], "score": []})
    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    ds = s.score_matches_dataset(" ".join(terms), mode="or")
    out = (
        ds.groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .sort("doc_id")
        .limit(LEADING_LIMIT)
        .to_pandas()
    )
    out["score"] = 1.0
    return out[["doc_id", "score"]]


QUERIES["leading_wildcard_documents"] = q_leading_wildcard_documents
ORACLE["leading_wildcard_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents
    )
    SELECT doc_id, 1.0 AS score
    FROM (SELECT DISTINCT doc_id FROM toks
          WHERE term LIKE '%{LEADING_SUFFIX}')
    ORDER BY doc_id LIMIT {LEADING_LIMIT}
"""


# ---------------------------------------------------------------------------
# Index sorting + early-terminating top-k
# ---------------------------------------------------------------------------

SORT_K = 50
SORT_RG = 4096  # rows per row group in the sorted layout
SORT_SEGMENTS = 8


def _sorted_layout_path(sf_dir: str) -> str:
    """Build (once) the index-sorted events layout: {SORT_SEGMENTS} segment
    files, each internally sorted by (ts, event_id) with {SORT_RG}-row row
    groups — IndexWriterConfig.setIndexSort's on-disk shape.  Segment
    assignment is hash(event_id) % n (doc-partitioned, like the text
    index), sort holds WITHIN a segment, so per-leaf early termination
    applies independently per file."""
    out_dir = cache_dir(sf_dir, "sorted-events")
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker):
        return out_dir

    ds = read_table(sf_dir, "events", ["event_id", "ts"])

    def assign(t: pa.Table) -> pa.Table:
        seg = pc.cast(
            pc.bit_wise_and(t["event_id"], SORT_SEGMENTS - 1), pa.int32()
        )
        return t.append_column("seg", seg)

    tmp = out_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)

    def write_seg(df: pd.DataFrame) -> pd.DataFrame:
        seg = int(df["seg"].iloc[0])
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        pq.write_table(
            pa.Table.from_pandas(df[["event_id", "ts"]],
                                 preserve_index=False),
            os.path.join(tmp, f"seg{seg}.parquet"),
            row_group_size=SORT_RG,
        )
        return pd.DataFrame({"seg": [seg], "rows": [len(df)]})

    (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("seg")
        .map_groups(write_seg, batch_format="pandas")
        .materialize()
    )
    if os.path.exists(out_dir):  # stale partial build: replace atomically
        import shutil

        shutil.rmtree(out_dir)
    os.replace(tmp, out_dir)
    with open(marker, "w") as fh:
        fh.write("ok")
    return out_dir


def sorted_topk_events(sf_dir: str, k: int = SORT_K):
    """Early-terminating top-k by the index sort key: per segment file,
    read row groups IN ORDER and stop once k rows are in hand (reads
    ceil(k / SORT_RG) row groups per segment — 1 for the defaults —
    regardless of segment size), then one tiny merge of n_seg * k rows.
    Returns (DataFrame, rgs_read, rgs_total) so tests can assert the IO
    pruning."""
    import ray

    layout = _sorted_layout_path(sf_dir)
    files = sorted(
        os.path.join(layout, f) for f in os.listdir(layout)
        if f.endswith(".parquet")
    )

    @ray.remote
    def head_k(path: str, k: int):
        pf = pq.ParquetFile(path)
        parts, got, rgs = [], 0, 0
        for rg in range(pf.num_row_groups):
            t = pf.read_row_group(rg, columns=["event_id", "ts"])
            parts.append(t)
            got += t.num_rows
            rgs += 1
            if got >= k:
                break  # early termination: segment is index-sorted
        return pa.concat_tables(parts).slice(0, k), rgs, pf.num_row_groups

    outs = ray.get([head_k.remote(p, k) for p in files])
    merged = pa.concat_tables([o[0] for o in outs]).to_pandas()
    merged = merged.sort_values(["ts", "event_id"], kind="mergesort").head(k)
    return merged.reset_index(drop=True), sum(o[1] for o in outs), sum(
        o[2] for o in outs
    )


def q_index_sort_topk_events(sf_dir: str):
    """TopFieldCollector with canEarlyTerminate over the index-sorted
    layout: oldest {SORT_K} events by (ts, event_id)."""
    df, _rgs_read, _rgs_total = sorted_topk_events(sf_dir)
    return df


QUERIES["index_sort_topk_events"] = q_index_sort_topk_events
ORACLE["index_sort_topk_events"] = f"""
    SELECT event_id, ts FROM events
    ORDER BY ts, event_id LIMIT {SORT_K}
"""


# ---------------------------------------------------------------------------
# r4 query-type batch: MultiPhraseQuery, SpanMultiTermQueryWrapper,
# FieldExistsQuery, IndexOrDocValuesQuery.
# ---------------------------------------------------------------------------

MPQ_ALTS, MPQ_NEXT = ("hash", "merge"), "join"


def _flat_doc_pos(posts: dict, term_list) -> tuple[np.ndarray, np.ndarray]:
    """Flatten positional postings for a term set into aligned
    (doc, position) int64 arrays (the spanOr union shape)."""
    ds, ps = [], []
    for t in term_list:
        row = posts.get(t)
        if row is None:
            continue
        docs, tfs, pos, _ = row
        ds.append(np.repeat(docs.astype(np.int64), tfs))
        ps.append(pos.astype(np.int64))
    if not ds:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(ds), np.concatenate(ps)


def _followed_by(posts: dict, first, nxt, offsets=(1,)):
    """(doc, position) of every occurrence of a `first` term with an
    occurrence of a `nxt` term `off` positions later, for some `off` in
    `offsets` — the ExactPhraseMatcher / ordered spanNear check, one
    membership probe per offset on composite doc*stride+pos keys."""
    ad, ap = _flat_doc_pos(posts, first)
    bd, bp = _flat_doc_pos(posts, nxt)
    if not len(ad) or not len(bd):
        return ad[:0], ap[:0]
    stride = np.int64(max(int(ap.max()), int(bp.max())) + max(offsets) + 2)
    have = bd * stride + bp
    hit = np.zeros(len(ad), dtype=bool)
    for off in offsets:
        hit |= np.isin(ad * stride + ap + off, have)
    return ad[hit], ap[hit]


def _followed_by_counts(sf_dir: str, first, nxt, col: str, offsets=(1,)):
    """(doc_id, `col`) over the positional documents index: per live doc,
    how many `first`-term occurrences `_followed_by` a `nxt` term."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    posts = r.positions_for(list(first) + list(nxt))
    d, _ = _followed_by(posts, first, nxt, offsets)
    rows = live_id_rows(r, *np.unique(d, return_counts=True))
    out = pd.DataFrame(rows, columns=["doc_id", col])
    out[col] = out[col].astype("int64")
    return out


def q_multi_phrase_documents(sf_dir: str):
    """MultiPhraseQuery (`lucene/core/src/java/org/apache/lucene/search/
    MultiPhraseQuery.java`): a phrase whose first slot admits MULTIPLE
    terms — ("hash"|"merge") immediately followed by "join" — the query
    QueryParser emits for multi-term synonyms at a phrase position.

    Engine shape: the slot's term positions UNION into one flat (doc,
    pos) array (spanOr), then ONE membership probe against the next
    slot's flat positions on a composite doc*stride+pos key — the
    ExactPhraseMatcher adjacency check, fully vectorized (`_followed_by`)."""
    return _followed_by_counts(sf_dir, MPQ_ALTS, [MPQ_NEXT], "phrase_freq")


QUERIES["multi_phrase_documents"] = q_multi_phrase_documents
ORACLE["multi_phrase_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l)),
               i -> (l[i] = '{MPQ_ALTS[0]}' OR l[i] = '{MPQ_ALTS[1]}')
                    AND l[i + 1] = '{MPQ_NEXT}'))::BIGINT AS phrase_freq
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l)),
              i -> (l[i] = '{MPQ_ALTS[0]}' OR l[i] = '{MPQ_ALTS[1]}')
                   AND l[i + 1] = '{MPQ_NEXT}')) > 0
    ORDER BY doc_id
"""


SMTQ_FIRST, SMTQ_PREFIX, SMTQ_SLOP = "spark", "jo", 3


def q_span_multiterm_wrapper_documents(sf_dir: str):
    """SpanMultiTermQueryWrapper (`lucene/core/src/java/org/apache/lucene/
    search/spans/SpanMultiTermQueryWrapper.java`): an ordered SpanNear of
    a literal and a WRAPPED PrefixQuery with nonzero slop —
    spanNear([spark, spanOr(jo*)], slop=3, inOrder).  The contrast with
    the slop=0 ComplexPhrase op is the position WINDOW: each offset
    1..slop+1 is one vectorized membership probe, OR-ed —
    never a per-position Python scan.  The prefix expands with the same
    distributed dictionary scan as WildcardQuery."""
    from rindex.ops.multiterm import _expand_terms

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        m = pc.starts_with(
            pa.array(terms.tolist(), pa.string()), SMTQ_PREFIX
        ).to_numpy(zero_copy_only=False)
        return m, None

    exp = sorted(_expand_terms(sf_dir, match, "span_multiterm")["term"])
    if not exp:
        return pd.DataFrame({"doc_id": [], "n_matches": []})
    return _followed_by_counts(
        sf_dir, [SMTQ_FIRST], exp, "n_matches", range(1, SMTQ_SLOP + 2)
    )


QUERIES["span_multiterm_wrapper_documents"] = q_span_multiterm_wrapper_documents
ORACLE["span_multiterm_wrapper_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l) + 1),
               i -> l[i] = '{SMTQ_FIRST}'
                    AND len(list_filter(
                          range(i + 1, least(i + {SMTQ_SLOP + 1}, len(l)) + 1),
                          j -> l[j] LIKE '{SMTQ_PREFIX}%')) > 0))::BIGINT
             AS n_matches
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l) + 1),
              i -> l[i] = '{SMTQ_FIRST}'
                   AND len(list_filter(
                         range(i + 1, least(i + {SMTQ_SLOP + 1}, len(l)) + 1),
                         j -> l[j] LIKE '{SMTQ_PREFIX}%')) > 0)) > 0
    ORDER BY doc_id
"""


def q_field_exists_events(sf_dir: str):
    """FieldExistsQuery (8.x DocValuesFieldExistsQuery, `lucene/core/src/
    java/org/apache/lucene/search/DocValuesFieldExistsQuery.java`): count
    docs per event_type where a DERIVED sparse field exists — the
    two-digit `k` parsed from props (single-digit rows have no value, the
    URP-parsed-field gap).  One scan, vectorized existence mask, count
    partials shuffled."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["event_type", "props"])

    def f(t: pa.Table) -> pa.Table:
        exists = pc.cast(
            pc.match_substring_regex(t["props"], r'"k": \d\d(\D|$)'),
            pa.int64(),
        )
        return pa.table({"event_type": t["event_type"], "e": exists})

    agg = ds.map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("event_type").aggregate(Sum(on="e", alias_name="n_exists"))
    return agg.sort("event_type")


QUERIES["field_exists_events"] = q_field_exists_events
ORACLE["field_exists_events"] = r"""
    SELECT event_type,
           sum(CASE WHEN regexp_matches(props, '"k": \d\d(\D|$)')
                    THEN 1 ELSE 0 END)::BIGINT AS n_exists
    FROM events GROUP BY event_type ORDER BY event_type
"""


IODV_LO, IODV_HI = 400000.0, 450000.0
# fraction of row groups the range must prune for the points path to win
IODV_PRUNE_MIN = 0.5


def iodv_plan(sf_dir: str, lo: float, hi: float) -> str:
    """The IndexOrDocValuesQuery cost model (`lucene/core/src/java/org/
    apache/lucene/search/IndexOrDocValuesQuery.java`): choose the POINTS
    path (row-group-pruned filtered read — the BKD tree analog) when the
    range prunes most row groups, else the DOCVALUES path (verify inside
    the already-running column scan).  Decided from parquet row-group
    stats only — no data read."""
    f = pq.ParquetFile(os.path.join(sf_dir, "orders.parquet"))
    n = f.metadata.num_row_groups
    pruned = 0
    for i in range(n):
        st = f.metadata.row_group(i).column(
            f.schema_arrow.get_field_index("o_totalprice")
        ).statistics
        if st is not None and (st.max < lo or st.min > hi):
            pruned += 1
    return "points" if n and pruned / n >= IODV_PRUNE_MIN else "docvalues"


def iodv_range_rollup(sf_dir: str, lo: float, hi: float, path: str):
    """Both execution paths produce IDENTICAL results (the
    IndexOrDocValuesQuery contract); the planner only changes IO shape."""
    import ray.data

    from ray.data.aggregate import Count, Sum

    if path == "points":
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderpriority", "o_totalprice"],
            filter=(pc.field("o_totalprice") >= lo)
            & (pc.field("o_totalprice") <= hi),
        )
    else:
        ds = read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        ds = ds.map_batches(
            lambda t: t.filter(
                pc.and_(pc.greater_equal(t["o_totalprice"], lo),
                        pc.less_equal(t["o_totalprice"], hi))
            ),
            batch_format="pyarrow", zero_copy_batch=True,
        )
    agg = ds.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_orders"),
        Sum(on="o_totalprice", alias_name="sum_price"),
    )
    out = agg.sort("o_orderpriority").to_pandas()
    out["sum_price"] = out["sum_price"].round(4)
    return out.reset_index(drop=True)


def q_index_or_docvalues_orders(sf_dir: str):
    """IndexOrDocValuesQuery: a totalprice range rollup whose execution
    path (points vs docvalues) is chosen by the row-group-stats cost
    model; pytest pins byte-identity of the two paths and the planner's
    narrow-vs-wide choices."""
    return iodv_range_rollup(
        sf_dir, IODV_LO, IODV_HI, iodv_plan(sf_dir, IODV_LO, IODV_HI)
    )


QUERIES["index_or_docvalues_orders"] = q_index_or_docvalues_orders
ORACLE["index_or_docvalues_orders"] = f"""
    SELECT o_orderpriority, count(*) AS n_orders,
           round(sum(o_totalprice), 4) AS sum_price
    FROM orders
    WHERE o_totalprice BETWEEN {IODV_LO} AND {IODV_HI}
    GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# PhraseWildcardQuery — exact phrase with a multi-term (wildcard) slot
# ---------------------------------------------------------------------------

PWQ_PREFIX, PWQ_NEXT = "fa", "scan"


def q_phrase_wildcard_documents(sf_dir: str):
    """PhraseWildcardQuery (`lucene/sandbox/src/java/org/apache/lucene/
    search/PhraseWildcardQuery.java`, Lucene 8.4 sandbox): an EXACT
    (slop=0) phrase whose first slot is a wildcard — "fa* scan" — the
    sandbox class that expands each multi-term slot against the segment
    dictionary and matches like a MultiPhraseQuery.  Contrast with the
    slop-window SpanMultiTermQueryWrapper op above: here adjacency is a
    single offset, so ONE composite-key probe decides the match.  The
    prefix expands with the same distributed dictionary scan as
    WildcardQuery; output is (doc_id, phrase_freq)."""
    from rindex.ops.multiterm import _expand_terms

    def match(terms: np.ndarray) -> tuple[np.ndarray, None]:
        m = pc.starts_with(
            pa.array(terms.tolist(), pa.string()), PWQ_PREFIX
        ).to_numpy(zero_copy_only=False)
        return m, None

    exp = sorted(_expand_terms(sf_dir, match, "phrase_wildcard")["term"])
    if not exp:
        return pd.DataFrame({"doc_id": [], "phrase_freq": []})
    return _followed_by_counts(sf_dir, exp, [PWQ_NEXT], "phrase_freq")


QUERIES["phrase_wildcard_documents"] = q_phrase_wildcard_documents
ORACLE["phrase_wildcard_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l)),
               i -> l[i] LIKE '{PWQ_PREFIX}%'
                    AND l[i + 1] = '{PWQ_NEXT}'))::BIGINT AS phrase_freq
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l)),
              i -> l[i] LIKE '{PWQ_PREFIX}%'
                   AND l[i + 1] = '{PWQ_NEXT}')) > 0
    ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# CoveringQuery — match docs covering >= minimumNumberMatch(doc) clauses
# ---------------------------------------------------------------------------

CQ_TERMS = ("hash", "join", "spark", "filter")
CQ_MIN_EN, CQ_MIN_OTHER = 3, 2  # per-doc LongValuesSource on the lang field


def q_covering_query_lang_documents(sf_dir: str):
    """CoveringQuery (`lucene/core/src/java/org/apache/lucene/search/
    CoveringQuery.java`): N term clauses plus a PER-DOC minimum-match
    count supplied by a LongValuesSource — here a stored-FIELD function
    (the sibling covering_query_documents derives its threshold from
    doc_id arithmetic and sums BM25 clause scores; this variant reads a
    stored field and reports clause counts via a pure postings probe)
    (lang='en' docs must cover 3 of the 4 clauses, others 2, the
    "longer/common-language docs need more evidence" shape).  Unlike
    BooleanQuery#setMinimumNumberShouldMatch the threshold varies by doc.

    Engine shape: ONE postings probe for the clause terms (never the
    corpus); presence arrays concatenate into a count of distinct
    matching clauses per doc; the per-doc threshold comes from the
    reader's stored-field filter (`docs_matching("lang", "en")`)."""
    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index(sf_dir)).reader()
    posts = r.postings_for(list(CQ_TERMS))
    present = [
        np.unique(r.decoded(t, posts[t])[0])
        for t in CQ_TERMS if posts[t] is not None
    ]
    docs, n_match = np.unique(
        np.concatenate([np.zeros(0, np.int64), *present]), return_counts=True
    )
    need = np.where(np.isin(docs, r.docs_matching("lang", "en")),
                    CQ_MIN_EN, CQ_MIN_OTHER)
    keep = n_match >= need
    rows = live_id_rows(r, docs[keep], n_match[keep], need[keep])
    out = pd.DataFrame(rows, columns=["doc_id", "n_matched", "min_required"])
    for c in ("n_matched", "min_required"):
        out[c] = out[c].astype("int64")
    return out


QUERIES["covering_query_lang_documents"] = q_covering_query_lang_documents
ORACLE["covering_query_lang_documents"] = f"""
    WITH cov AS (
      SELECT doc_id,
             count(DISTINCT term)::BIGINT AS n_matched,
             any_value(CASE WHEN lang = 'en' THEN {CQ_MIN_EN}
                            ELSE {CQ_MIN_OTHER} END)::BIGINT AS min_required
      FROM (SELECT doc_id, lang,
                   unnest(regexp_extract_all(lower(text),
                                             '{TOKEN_SQL_RE}')) AS term
            FROM documents)
      WHERE term IN ('{CQ_TERMS[0]}', '{CQ_TERMS[1]}',
                     '{CQ_TERMS[2]}', '{CQ_TERMS[3]}')
      GROUP BY doc_id
    )
    SELECT doc_id, n_matched, min_required
    FROM cov WHERE n_matched >= min_required
    ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# SpanPayloadCheckQuery — payload-gated span matching
# ---------------------------------------------------------------------------

PC_A, PC_B = "hash", "join"
PC_MIN_PAYLOAD = 0.05  # 1/(1+p) >= 0.05  <=>  'hash' position p <= 19


def q_payload_check_documents(sf_dir: str):
    """SpanPayloadCheckQuery (`lucene/queries/src/java/org/apache/lucene/
    queries/payloads/SpanPayloadCheckQuery.java`): an ordered span
    'hash join' matches ONLY where the payload at the span's first
    position passes the check — here the index-time position-decay
    payload 1/(1+p) (the payload_score convention) must be
    >= {PC_MIN_PAYLOAD}, i.e. the span must start early in the doc.
    Vectorized kernel: both terms' positional postings only, (doc, pos)
    pairs packed into int64 keys, one np.isin for the adjacency test
    (`_followed_by`), payload gate applied on the first-term positions;
    counts per doc via np.unique."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    d, p = _followed_by(r.positions_for([PC_A, PC_B]), [PC_A], [PC_B])
    early = 1.0 / (1.0 + p.astype(np.float64)) >= PC_MIN_PAYLOAD
    rows = live_id_rows(r, *np.unique(d[early], return_counts=True))
    return pd.DataFrame(
        {
            "doc_id": [r[0] for r in rows],
            "n_spans": pd.array([r[1] for r in rows], dtype="int64"),
        }
    )


QUERIES["payload_check_documents"] = q_payload_check_documents
# 1-based subscript i corresponds to 0-based position p = i-1, so the
# payload at the span start is 1/(1+p) = 1/i
ORACLE["payload_check_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l)),
               i -> l[i] = '{PC_A}' AND l[i + 1] = '{PC_B}'
                AND 1.0 / i >= {PC_MIN_PAYLOAD}))::BIGINT AS n_spans
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l)),
              i -> l[i] = '{PC_A}' AND l[i + 1] = '{PC_B}'
               AND 1.0 / i >= {PC_MIN_PAYLOAD})) > 0
    ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# CurrencyFieldType — rate-table conversion + range query in target currency
# ---------------------------------------------------------------------------

# 7-currency rate table (the exchange-rate file CurrencyFieldType loads);
# currency of an order derives deterministically from its key.
CUR_RATES = (1.0, 0.9, 1.1, 0.8, 1.25, 0.95, 1.05)
CUR_LO, CUR_HI = 150_000.0, 160_000.0
CUR_TOP = 50


def q_currency_range_orders(sf_dir: str):
    """CurrencyFieldType range query (`solr/core/src/java/org/apache/solr/
    schema/CurrencyFieldType.java` + CurrencyValue): each order's price
    converts through a per-currency rate table (currency id =
    o_orderkey % 7 — the deterministic-derivation convention), then a
    range filter [lo, hi) applies IN THE TARGET CURRENCY and the top-k
    by converted value returns.  The rate table is a handful of floats
    (broadcast by closure capture — tiny constant, not data); the scan
    is one pruned-column vectorized pass, filter-then-top-k so only
    in-range rows reach the sort."""
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    rates = np.asarray(CUR_RATES, dtype=np.float64)

    def conv(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        v = t["o_totalprice"].to_numpy().astype(np.float64)
        cur = (k % len(CUR_RATES)).astype(np.int64)
        c = v * rates[cur]
        m = (c >= CUR_LO) & (c < CUR_HI)
        return pa.table(
            {
                "o_orderkey": pa.array(k[m]),
                "cur_id": pa.array(cur[m]),
                "converted": pa.array(np.round(c[m], 4)),
            }
        )

    out = (
        ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["converted", "o_orderkey"], descending=[True, False])
        .limit(CUR_TOP)
        .to_pandas()
    )
    return out


QUERIES["currency_range_orders"] = q_currency_range_orders
ORACLE["currency_range_orders"] = f"""
    WITH conv AS (
      SELECT o_orderkey,
             o_orderkey % {len(CUR_RATES)} AS cur_id,
             o_totalprice::DOUBLE
               * ([{", ".join(str(r) for r in CUR_RATES)}])
                 [(o_orderkey % {len(CUR_RATES)}) + 1] AS c
      FROM orders
    )
    SELECT o_orderkey, cur_id, round(c, 4) AS converted
    FROM conv WHERE c >= {CUR_LO} AND c < {CUR_HI}
    ORDER BY converted DESC, o_orderkey ASC LIMIT {CUR_TOP}
"""


# ---------------------------------------------------------------------------
# FeatureField log / sigmoid scoring functions
# ---------------------------------------------------------------------------

FF_W = 1.5
FF_SIG_PIVOT, FF_SIG_EXP = 4.0, 2.0
FF_FN_K = 10


def q_rank_feature_functions_documents(sf_dir: str):
    """FeatureField's OTHER scoring functions (`lucene/core/src/java/org/
    apache/lucene/document/FeatureField.java#newLogQuery/newSigmoidQuery`
    — saturation is covered by rank_feature_topk): for the same match
    set and feature f = ln(1+n_chars),
        log:     w * ln(1 + f)
        sigmoid: w * f^a / (f^a + pivot^a)
    Both computed in the same distributed join + vectorized combine as
    the saturation op, top-k by the log-scored total with the sigmoid
    score carried per hit."""
    import pyarrow.compute as pc

    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    matches = s.score_matches_dataset(FEATURE_QUERY, mode="or")
    feats = read_table(sf_dir, "documents", ["doc_id", "n_chars"])
    joined = matches.join(feats, "inner", num_partitions=join_partitions(), on=("doc_id",))

    def combine(t: pa.Table) -> pa.Table:
        f = pc.ln(pc.add(pc.cast(t["n_chars"], pa.float64()), 1.0))
        logq = pc.add(t["score"], pc.multiply(pc.ln(pc.add(f, 1.0)), FF_W))
        fa = pc.power(f, FF_SIG_EXP)
        sig = pc.add(
            t["score"],
            pc.multiply(
                pc.divide(fa, pc.add(fa, FF_SIG_PIVOT ** FF_SIG_EXP)),
                FF_W,
            ),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "log_score": pc.round(logq, 6),
                "sigmoid_score": pc.round(sig, 6),
            }
        )

    out = (
        joined.map_batches(combine, batch_format="pyarrow")
        .sort(["log_score", "doc_id"], descending=[True, False])
        .limit(FF_FN_K)
        .to_pandas()
    )
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "log_score", "sigmoid_score"]]


def _rank_feature_fn_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    tlist = ",".join(
        f"('{t}')" for t in dict.fromkeys(FEATURE_QUERY.split())
    )
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {tlist}),
    bm25 AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf JOIN q USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    feat AS (
      SELECT doc_id, ln(1.0 + n_chars::DOUBLE) AS f FROM documents
    ),
    scored AS (
      SELECT b.doc_id,
             round(b.s + {FF_W} * ln(1.0 + f.f), 6) AS log_score,
             round(b.s + {FF_W} * (pow(f.f, {FF_SIG_EXP})
                   / (pow(f.f, {FF_SIG_EXP})
                      + {FF_SIG_PIVOT ** FF_SIG_EXP})), 6) AS sigmoid_score
      FROM bm25 b JOIN feat f USING (doc_id)
    ),
    ranked AS (
      SELECT doc_id, log_score, sigmoid_score,
             (row_number() OVER (ORDER BY log_score DESC, doc_id ASC) - 1)
               ::INTEGER AS rank
      FROM scored
    )
    SELECT rank, doc_id, log_score, sigmoid_score
    FROM ranked WHERE rank < {FF_FN_K}
    """


QUERIES["rank_feature_functions_documents"] = q_rank_feature_functions_documents
ORACLE["rank_feature_functions_documents"] = _rank_feature_fn_oracle()


# ---------------------------------------------------------------------------
# DateRangeField — document-held ranges intersecting a query window
# ---------------------------------------------------------------------------

DR_W_START = "2024-01-15 00:00:00"
DR_W_END = "2024-01-18 00:00:00"
DR_TOP = 20
_US_PER_DAY = 86_400_000_000


def q_date_range_field_events(sf_dir: str):
    """DateRangeField Intersects query (`lucene/spatial-extras/src/java/
    org/apache/lucene/spatial/prefix/NumberRangePrefixTreeStrategy.java` /
    Solr DateRangeField): each event HOLDS a range [ts, ts + dur) with
    dur = (event_id % 7 + 1) days (deterministic derivation); the query
    returns ranges intersecting a fixed window, top-{DR_TOP} by overlap
    length.  All arithmetic is exact int64 epoch-microseconds on both
    sides; the scan is one pruned-column vectorized pass with the window
    filter applied in-batch (top-k over survivors only)."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_id", "ts"])
    w0 = np.datetime64(DR_W_START.replace(" ", "T"), "us").astype(np.int64)
    w1 = np.datetime64(DR_W_END.replace(" ", "T"), "us").astype(np.int64)

    def overlap(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        start = t["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        dur = (eid % 7 + 1) * _US_PER_DAY
        end = start + dur
        ov = np.minimum(end, w1) - np.maximum(start, w0)
        m = ov > 0
        return pa.table(
            {
                "event_id": pa.array(eid[m]),
                "dur_days": pa.array((eid[m] % 7 + 1).astype(np.int64)),
                "overlap_us": pa.array(ov[m].astype(np.int64)),
            }
        )

    out = (
        ds.map_batches(overlap, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["overlap_us", "event_id"], descending=[True, False])
        .limit(DR_TOP)
        .to_pandas()
    )
    return out[["event_id", "dur_days", "overlap_us"]]


QUERIES["date_range_field_events"] = q_date_range_field_events
ORACLE["date_range_field_events"] = f"""
    WITH r AS (
      SELECT event_id,
             (event_id % 7 + 1)::BIGINT AS dur_days,
             epoch_us(ts) AS s,
             epoch_us(ts) + (event_id % 7 + 1) * {_US_PER_DAY} AS e
      FROM events
    ),
    ov AS (
      SELECT event_id, dur_days,
             least(e, epoch_us(TIMESTAMP '{DR_W_END}'))
             - greatest(s, epoch_us(TIMESTAMP '{DR_W_START}')) AS overlap_us
      FROM r
    )
    SELECT event_id, dur_days, overlap_us
    FROM ov WHERE overlap_us > 0
    ORDER BY overlap_us DESC, event_id ASC LIMIT {DR_TOP}
"""
