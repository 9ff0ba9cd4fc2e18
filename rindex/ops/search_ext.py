"""Extended search-side operators (SURVEY.md §2.3/§2.4/§2.5): block join,
graph traversal, suggester, spellcheck, HyperLogLog, significantTerms.

Each op's docstring cites the reference operator it re-expresses; all are
Ray-Data-native (map_batches partial + small final reduce, broadcast small
sides, no driver-side row loops over big data).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.schema import pool_cap
from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}


# ---------------------------------------------------------------------------
# Block join (parent/child) — ToParentBlockJoinQuery
# ---------------------------------------------------------------------------

def q_block_join_orders_lineitem(sf_dir: str):
    """Parent/child block join: parents (orders) matched through a child
    (lineitem) predicate, child scores aggregated to the parent with the
    `max` ScoreMode (reference: `lucene/join/src/java/org/apache/lucene/
    search/join/ToParentBlockJoinQuery.java` + ScoreJoinQParserPlugin
    score=max).  Ray shape: child-side filter + partial groupby-max per
    batch, then one small groupby — the parent table is never shuffled."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_extendedprice"]
    )
    hits = li.filter(expr="l_quantity > 45")
    agg = hits.groupby("l_orderkey").aggregate(Max("l_extendedprice"))
    df = agg.to_pandas().rename(
        columns={"max(l_extendedprice)": "best_child_price", "l_orderkey": "o_orderkey"}
    )
    df["best_child_price"] = df["best_child_price"].round(2)
    return df.sort_values("o_orderkey").reset_index(drop=True)


QUERIES["block_join_orders_lineitem"] = q_block_join_orders_lineitem
ORACLE["block_join_orders_lineitem"] = """
    SELECT l_orderkey AS o_orderkey,
           round(max(l_extendedprice), 2) AS best_child_price
    FROM lineitem WHERE l_quantity > 45
    GROUP BY l_orderkey
"""


# ---------------------------------------------------------------------------
# Graph traversal — gatherNodes / GraphQuery BFS frontier expansion
# ---------------------------------------------------------------------------

def q_graph_gather_orders_of_nation(sf_dir: str):
    """2-hop graph walk: nation 'NATION_3' -> its customers -> their orders
    (reference: `solr/solrj/src/java/org/apache/solr/client/solrj/io/graph/
    GatherNodesStream.java`; each hop is a frontier expansion = semi-join,
    the frontier is broadcast because it is small — the reference ships the
    frontier in the join query the same way)."""
    import ray

    nat = read_table(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    keys = nat.loc[nat["n_name"] == "NATION_3", "n_nationkey"]
    frontier0 = ray.put(set(int(k) for k in keys))

    def hop1(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["c_nationkey"].isin(ray.get(frontier0))
        return batch.loc[keep, ["c_custkey"]]

    custs = (
        read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(hop1, batch_format="pandas")
        .to_pandas()
    )
    if custs.empty:  # dead frontier -> empty result, stable schema
        return pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64")})
    frontier1 = ray.put(set(custs["c_custkey"].astype(int)))

    def hop2(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["o_custkey"].isin(ray.get(frontier1))
        return batch.loc[keep, ["o_orderkey"]]

    orders = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(hop2, batch_format="pandas")
        .to_pandas()
    )
    out = orders.drop_duplicates().sort_values("o_orderkey").reset_index(drop=True)
    return out


QUERIES["graph_gather_orders_of_nation"] = q_graph_gather_orders_of_nation
ORACLE["graph_gather_orders_of_nation"] = """
    SELECT DISTINCT o.o_orderkey
    FROM nation n
    JOIN customer c ON c.c_nationkey = n.n_nationkey
    JOIN orders o ON o.o_custkey = c.c_custkey
    WHERE n.n_name = 'NATION_3'
"""


# ---------------------------------------------------------------------------
# shortestPath — iterative BFS levels over a co-occurrence graph
# ---------------------------------------------------------------------------

SP_MAX_HOPS = 3


def q_shortest_path_users(sf_dir: str):
    """shortestPath() analog (reference: `solr/solrj/src/java/org/apache/
    solr/client/solrj/io/graph/ShortestPathStream.java` — iterative BFS,
    one 'join the frontier against the edge index' round per hop): BFS
    DISTANCES from the minimum user_id to every user within 3 hops of the
    user co-occurrence graph (edge = two users sharing >= 1 (event_type,
    hour) bucket — hour granularity gives the corpus real multi-hop
    structure; day collapses it to a near-clique).

    Scale shape: the edge table is built DISTRIBUTED with the dedup
    module's coarse-bucketed pair expansion (_pair_counts — pairs
    pre-counted per task, deduped by a native groupby; nothing
    corpus-sized on the driver) and materialized once; each BFS round is
    one map_batches over the edge Dataset with the (small) frontier set
    broadcast via ray.put — the reference ships the frontier in the join
    query the same way.  At 10^12 edges the frontier broadcast becomes a
    hash join of the frontier Dataset against the node-partitioned edge
    table; the round structure is identical."""
    import ray

    import pyarrow.compute as pc

    from rindex.ops.dedup import _pair_counts

    ev = read_table(sf_dir, "events", ["user_id", "event_type", "ts"])

    # bucket key = hours-since-epoch << 32 | stable 32-bit hash of the
    # type string (a per-batch dictionary code would NOT be stable across
    # batches); the "doc_id" column name is what _pair_counts expects for
    # the node id
    def add_key(t: pa.Table) -> pa.Table:
        import hashlib as _h

        us = pc.cast(
            pc.floor_temporal(t["ts"], unit="hour"), pa.int64()
        ).to_numpy()
        hours = us // 3_600_000_000  # timestamp[us] -> hour ordinal
        # md5 once per DISTINCT type (a handful), gathered by dictionary
        # code — not one hash call per row
        enc = pc.dictionary_encode(t["event_type"]).combine_chunks()
        dict_hash = np.array(
            [
                int.from_bytes(_h.md5(s.encode()).digest()[:4], "little")
                for s in enc.dictionary.to_pylist()
            ],
            dtype=np.int64,
        )
        codes = dict_hash[enc.indices.to_numpy()]
        key = (hours << np.int64(32)) | codes
        return pa.table(
            {
                "doc_id": t["user_id"],
                "bucket": pa.array(key),
            }
        )

    pairs = _pair_counts(
        ev.map_batches(add_key, batch_format="pyarrow"), "bucket"
    ).materialize()

    from ray.data.aggregate import Min

    src = int(
        read_table(sf_dir, "events", ["user_id"]).aggregate(Min("user_id"))[
            "min(user_id)"
        ]
    )

    dist = {src: 0}
    frontier = np.array([src], dtype=np.int64)
    for hop in range(1, SP_MAX_HOPS + 1):
        fref = ray.put(np.sort(frontier))

        def neighbors(t: pa.Table, _fref=fref) -> pa.Table:
            f = ray.get(_fref)
            pk = t["pk"].to_numpy()
            a = pk >> 32
            b = pk & 0xFFFFFFFF
            fa = np.isin(a, f)
            fb = np.isin(b, f)
            out = np.unique(np.concatenate([b[fa], a[fb]]))
            return pa.table({"user_id": pa.array(out, pa.int64())})

        reached = (
            pairs.map_batches(neighbors, batch_format="pyarrow")
            .groupby("user_id")
            .count()
            .to_pandas()["user_id"]
            .to_numpy()
        )
        frontier = np.array(
            [int(u) for u in reached if int(u) not in dist], dtype=np.int64
        )
        if len(frontier) == 0:
            break
        for u in frontier:
            dist[int(u)] = hop
    out = pd.DataFrame(
        sorted(dist.items()), columns=["user_id", "dist"]
    ).astype({"user_id": np.int64, "dist": np.int64})
    return out


QUERIES["shortest_path_users"] = q_shortest_path_users
ORACLE["shortest_path_users"] = f"""
    WITH ev AS (
      SELECT DISTINCT user_id, event_type, date_trunc('hour', ts) AS d
      FROM events
    ),
    edges AS (
      SELECT DISTINCT a.user_id AS ua, b.user_id AS ub
      FROM ev a JOIN ev b
        ON a.event_type = b.event_type AND a.d = b.d
       AND a.user_id < b.user_id
    ),
    und AS (
      SELECT ua, ub FROM edges UNION ALL SELECT ub AS ua, ua AS ub FROM edges
    ),
    d0 AS (SELECT min(user_id) AS user_id FROM events),
    d1 AS (
      SELECT DISTINCT e.ub AS user_id FROM und e JOIN d0 ON e.ua = d0.user_id
      WHERE e.ub NOT IN (SELECT user_id FROM d0)
    ),
    d2 AS (
      SELECT DISTINCT e.ub AS user_id FROM und e JOIN d1 ON e.ua = d1.user_id
      WHERE e.ub NOT IN (SELECT user_id FROM d0)
        AND e.ub NOT IN (SELECT user_id FROM d1)
    ),
    d3 AS (
      SELECT DISTINCT e.ub AS user_id FROM und e JOIN d2 ON e.ua = d2.user_id
      WHERE e.ub NOT IN (SELECT user_id FROM d0)
        AND e.ub NOT IN (SELECT user_id FROM d1)
        AND e.ub NOT IN (SELECT user_id FROM d2)
    )
    SELECT user_id, 0::BIGINT AS dist FROM d0
    UNION ALL SELECT user_id, 1 FROM d1
    UNION ALL SELECT user_id, 2 FROM d2
    UNION ALL SELECT user_id, 3 FROM d3
    ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Suggester — AnalyzingSuggester / FreeTextSuggester over the term dict
# ---------------------------------------------------------------------------

def _global_term_dfs(idx: str, prefix: str | None = None) -> dict[str, int]:
    """term -> global df summed over every live segment of the manifest
    (shared by the suggester and spellchecker — one definition so a change
    to segment/generation semantics cannot silently diverge them)."""
    import pyarrow.parquet as pq

    from rindex.segments import read_manifest, seg_dir

    man = read_manifest(idx)
    acc: dict[str, int] = {}
    for m in man["segments"]:
        p = os.path.join(
            seg_dir(idx, m["seg_id"], m.get("gen", 0)), "postings.parquet"
        )
        filters = (
            [("term", ">=", prefix), ("term", "<", prefix + "\uffff")]
            if prefix
            else None
        )
        t = pq.read_table(p, columns=["term", "df"], filters=filters)
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            acc[term] = acc.get(term, 0) + int(df)
    return acc


def q_suggest_prefix_documents(sf_dir: str):
    """Prefix completion from the INDEX term dictionary ranked by global df
    (reference: `lucene/suggest/src/java/org/apache/lucene/search/suggest/
    analyzing/AnalyzingSuggester.java` — weight-ordered FST completion).
    Served by the RESIDENT SuggesterActor (rindex/suggester.py): the
    segment-dictionary scan runs once in the actor's __init__ (the FST
    build), this lookup is a binary-searched range + top-k — the high-QPS
    autocomplete pattern; repeated suggest/spellcheck queries in one
    session share the build."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    hits = ray.get(sa.suggest_prefix.remote("s", 10))
    return pd.DataFrame(hits, columns=["suggestion", "weight"]).astype(
        {"weight": np.int64}
    )


QUERIES["suggest_prefix_documents"] = q_suggest_prefix_documents
ORACLE["suggest_prefix_documents"] = """
    SELECT term AS suggestion, count(DISTINCT doc_id)::BIGINT AS weight
    FROM (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    )
    WHERE term LIKE 's%'
    GROUP BY term
    ORDER BY weight DESC, suggestion ASC
    LIMIT 10
"""


# ---------------------------------------------------------------------------
# Spellcheck — DirectSpellChecker (edit distance over the term dict)
# ---------------------------------------------------------------------------

SPELL_INPUTS = ["spakr", "joni", "windw", "stremm"]


def _best_correction(word: str, acc: dict) -> tuple | None:
    """Correction from a term->df dict; the selection rule itself lives in
    rindex.suggester.rank_correction (ONE definition for the dict path,
    the resident-actor path, and collation)."""
    from rindex.suggester import rank_correction

    terms = np.array(list(acc))
    dfs = np.fromiter((acc[t] for t in terms), np.int64, len(terms))
    return rank_correction(word, terms, dfs)


def q_spellcheck_documents(sf_dir: str):
    """Spelling correction from the index term dictionary: candidate with
    min edit distance (<=2), ties by higher df then term order (reference:
    `lucene/suggest/src/java/org/apache/lucene/search/spell/
    DirectSpellChecker.java` — candidates from the term dict, ranked by
    distance then docFreq).  Served by the resident SuggesterActor: the
    dictionary aggregate builds once per session in the actor, each
    correction is a length-pruned vectorized DP against the in-RAM
    vocab."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    found = ray.get([sa.correct.remote(w) for w in SPELL_INPUTS])
    rows = [
        (w, *best) for w, best in zip(SPELL_INPUTS, found) if best is not None
    ]
    return pd.DataFrame(
        rows, columns=["input", "correction", "distance", "weight"]
    )


QUERIES["spellcheck_documents"] = q_spellcheck_documents
_spell_values = ",".join(f"('{w}')" for w in SPELL_INPUTS)
ORACLE["spellcheck_documents"] = f"""
    WITH dict AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS weight
      FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
        FROM documents
      ) GROUP BY term
    ),
    inputs(input) AS (VALUES {_spell_values}),
    cand AS (
      SELECT input, term AS correction,
             levenshtein(input, term)::BIGINT AS distance, weight,
             row_number() OVER (
               PARTITION BY input
               ORDER BY levenshtein(input, term) ASC, weight DESC, term ASC
             ) AS rn
      FROM inputs CROSS JOIN dict
      WHERE levenshtein(input, term) <= 2
    )
    SELECT input, correction, distance, weight FROM cand WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# HyperLogLog — approx distinct, mergeable across blocks (HLLAgg / hll/HLL)
# ---------------------------------------------------------------------------

HLL_P = 12  # 4096 registers, ~1.6% standard error


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hll_registers(values: np.ndarray, p: int = HLL_P) -> np.ndarray:
    """Vectorized register computation for one batch of int64 values."""
    h = _splitmix64(values.astype(np.uint64))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # rho = leading zeros of `rest` + 1, vectorized via float64 exponent
    lz = np.full(len(rest), 64 - p, dtype=np.int64)
    nz = rest != 0
    exp = np.frexp(rest[nz].astype(np.float64))[1]
    lz[nz] = np.minimum(64 - exp, 64 - p)
    rho = (lz + 1).astype(np.uint8)
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)  # linear counting small-range correction
    return float(e)


def q_hll_distinct_users(sf_dir: str):
    """Approximate distinct users per event_type via HyperLogLog sketches:
    one register set per (type, block) computed vectorized in map_batches,
    merged by elementwise max in a small final reduce (reference:
    `solr/core/src/java/org/apache/solr/search/facet/HLLAgg.java` +
    `solr/core/src/java/org/apache/solr/util/hll/HLL.java` — the same
    partial-sketch-then-union shape Solr uses across shards).  Approximate
    but DETERMINISTIC (seedless splitmix64, associative register max), so
    the SQL oracle below re-derives the sketch bit-for-bit; pytest
    additionally asserts <5%% error vs exact distinct."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in batch.groupby("event_type"):
            regs = _hll_registers(g["user_id"].to_numpy())
            rows.append((et, regs.tobytes()))
        return pd.DataFrame(rows, columns=["event_type", "regs"])

    ev = read_table(sf_dir, "events", ["event_type", "user_id"])
    parts = ev.map_batches(partial, batch_format="pandas").to_pandas()
    out = []
    for et, g in parts.groupby("event_type"):
        merged = np.zeros(1 << HLL_P, dtype=np.uint8)
        for blob in g["regs"]:
            merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
        out.append((et, int(round(_hll_estimate(merged)))))
    return pd.DataFrame(out, columns=["event_type", "approx_users"]).sort_values(
        "event_type"
    ).reset_index(drop=True)


QUERIES["hll_distinct_users"] = q_hll_distinct_users


def _sql_wrap_mul(a_expr: str, b_const: int) -> str:
    """SQL for (a * b_const) mod 2^64 without HUGEINT overflow: split the
    constant into 32-bit halves (a*bh mod 2^32 carries into the high word)."""
    bh, bl = b_const >> 32, b_const & 0xFFFFFFFF
    return (
        f"(((({a_expr})::HUGEINT * {bh}) % 4294967296) * 4294967296"
        f" + ({a_expr})::HUGEINT * {bl}) % 18446744073709551616"
    )


# Exact oracle: the sketch is a deterministic function — splitmix64 is pure
# 64-bit wrap arithmetic (reproduced with HUGEINT split-multiply), the
# register index/rho are bit slices (rho's leading-zero count via
# length(bin(x)) — integer string op, no float log2 edge cases), register
# max/merge is associative so the SQL global max equals the Ray
# partial-then-max-merge, and the estimate formula is copied verbatim.
# Absent registers contribute 2^0 = 1 to the denominator and count as
# `zeros` for the linear-counting small-range correction.
_HLL_M = 1 << HLL_P
ORACLE["hll_distinct_users"] = f"""
    WITH v AS (
      SELECT DISTINCT event_type, user_id::UBIGINT AS x0 FROM events),
    s1 AS (SELECT event_type,
                  ((x0::HUGEINT + {0x9E3779B97F4A7C15})
                   % 18446744073709551616)::UBIGINT AS x1 FROM v),
    s2 AS (SELECT event_type,
                  ({_sql_wrap_mul('xor(x1, x1 >> 30)', 0xBF58476D1CE4E5B9)})::UBIGINT AS x2
           FROM s1),
    s3 AS (SELECT event_type,
                  ({_sql_wrap_mul('xor(x2, x2 >> 27)', 0x94D049BB133111EB)})::UBIGINT AS x3
           FROM s2),
    h AS (SELECT event_type, xor(x3, x3 >> 31) AS h FROM s3),
    r AS (SELECT event_type, (h >> {64 - HLL_P})::BIGINT AS idx,
                 least(64 - length(bin(
                     (((h::HUGEINT * {1 << HLL_P}) % 18446744073709551616)::UBIGINT
                      | {(1 << HLL_P) - 1}::UBIGINT))), {64 - HLL_P}) + 1 AS rho
          FROM h),
    regs AS (SELECT event_type, idx, max(rho) AS rho
             FROM r GROUP BY event_type, idx),
    agg AS (SELECT event_type,
                   sum(power(2.0, -rho)) + ({_HLL_M} - count(*)) AS denom,
                   {_HLL_M} - count(*) AS zeros
            FROM regs GROUP BY event_type),
    est AS (SELECT event_type,
                   (0.7213 / (1 + 1.079 / {_HLL_M}.0))
                     * {_HLL_M}.0 * {_HLL_M}.0 / denom AS e,
                   zeros
            FROM agg)
    SELECT event_type,
           (CASE WHEN e <= 2.5 * {_HLL_M} AND zeros > 0
                 THEN round({_HLL_M}.0 * ln({_HLL_M}.0 / zeros))
                 ELSE round(e) END)::BIGINT AS approx_users
    FROM est ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# significantTerms — foreground vs background term relatedness
# ---------------------------------------------------------------------------

SIG_FG_SOURCES = ("src0", "src1")
SIG_MIN_DF = 3


def q_significant_terms_documents(sf_dir: str):
    """Terms over-represented in a foreground doc set vs the corpus
    (reference: `solr/solrj/.../io/stream/SignificantTermsStream.java` +
    `solr/core/src/java/org/apache/solr/search/facet/RelatednessAgg.java`;
    score here = fg_rate log-ratio, computed identically in SQL).  Two
    distributed groupby-count passes (per-term doc counts fg + bg) and a
    tiny driver-side score/sort."""
    import pyarrow.compute as pc

    from rindex.analysis import get_analyzer

    analyzer = get_analyzer()

    def term_docs(batch: pa.Table) -> pd.DataFrame:
        rows = []
        fg_set = set(SIG_FG_SOURCES)
        for text, src in zip(
            pc.utf8_lower(batch["text"]).to_pylist(),
            batch["source"].to_pylist(),
        ):
            fg = src in fg_set
            for term in set(analyzer.tokens(text or "")):
                rows.append((term, 1 if fg else 0))
        return pd.DataFrame(rows, columns=["term", "is_fg"])

    from ray.data.aggregate import Count, Sum

    docs = read_table(sf_dir, "documents", ["doc_id", "text", "source"])
    counts = (
        docs.map_batches(term_docs, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Count(), Sum("is_fg"))
        .to_pandas()
        .rename(columns={"count()": "df_bg", "sum(is_fg)": "df_fg"})
    )
    n_bg = docs.count()
    n_fg = (
        read_table(sf_dir, "documents", ["source"])
        .filter(expr=f"source in {list(SIG_FG_SOURCES)}")
        .count()
    )
    c = counts[counts["df_fg"] >= SIG_MIN_DF].copy()
    c["score"] = (
        (c["df_fg"] / n_fg) / (c["df_bg"] / n_bg)
    ).apply(lambda x: round(float(np.log(x)), 6))
    c = c.sort_values(["score", "term"], ascending=[False, True]).head(10)
    c["df_fg"] = c["df_fg"].astype(np.int64)
    c["df_bg"] = c["df_bg"].astype(np.int64)
    return c[["term", "df_fg", "df_bg", "score"]].reset_index(drop=True)


QUERIES["significant_terms_documents"] = q_significant_terms_documents
_fg_list = ",".join(f"'{s}'" for s in SIG_FG_SOURCES)
ORACLE["significant_terms_documents"] = f"""
    WITH td AS (
      SELECT DISTINCT doc_id, source,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    ),
    counts AS (
      SELECT term,
             count(*)::BIGINT AS df_bg,
             sum(CASE WHEN source IN ({_fg_list}) THEN 1 ELSE 0 END)::BIGINT AS df_fg
      FROM td GROUP BY term
    ),
    sizes AS (
      SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_bg,
             (SELECT count(*) FROM documents
              WHERE source IN ({_fg_list}))::DOUBLE AS n_fg
    )
    SELECT term, df_fg, df_bg,
           round(ln((df_fg / n_fg) / (df_bg / n_bg)), 6) AS score
    FROM counts CROSS JOIN sizes
    WHERE df_fg >= {SIG_MIN_DF}
    ORDER BY score DESC, term ASC
    LIMIT 10
"""


# ---------------------------------------------------------------------------
# TermsComponent — distributed term enumeration from the index
# ---------------------------------------------------------------------------

TERMS_PREFIX = "s"
TERMS_MINCOUNT = 5
TERMS_LIMIT = 5


def q_terms_enum_documents(sf_dir: str):
    """TermsComponent (terms.prefix + terms.mincount + terms.limit,
    terms.sort=count; reference: `solr/core/src/java/org/apache/solr/
    handler/component/TermsComponent.java`): enumerate the index's term
    dictionary for a prefix, summing per-segment df/ttf.

    Scale shape: postings.parquet is TERM-SORTED per segment, so the
    prefix becomes a parquet range predicate ([p, p+1) on the term column)
    and row-group min/max stats prune everything outside the prefix range —
    the read touches O(matching terms) of each dictionary, never the
    postings blobs (columns= projects term/df/ttf only).  One task per
    segment file, then a tiny groupby over |prefix-terms| rows."""
    import ray.data as rd
    import pyarrow.compute as pc
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
    hi = TERMS_PREFIX[:-1] + chr(ord(TERMS_PREFIX[-1]) + 1)
    ds = rd.read_parquet(
        paths,
        columns=["term", "df", "ttf"],
        filter=(pc.field("term") >= TERMS_PREFIX) & (pc.field("term") < hi),
    )
    agg = (
        ds.groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
        .to_pandas()
    )
    agg = agg[agg["df"] >= TERMS_MINCOUNT]
    agg = agg.sort_values(["df", "term"], ascending=[False, True],
                          kind="mergesort").head(TERMS_LIMIT)
    agg = agg.reset_index(drop=True)
    agg["rank"] = np.arange(len(agg), dtype=np.int32)
    agg["df"] = agg["df"].astype(np.int64)
    agg["ttf"] = agg["ttf"].astype(np.int64)
    return agg[["rank", "term", "df", "ttf"]]


QUERIES["terms_enum_documents"] = q_terms_enum_documents
ORACLE["terms_enum_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    ),
    stats AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS ttf
      FROM toks
      WHERE term LIKE '{TERMS_PREFIX}%'
      GROUP BY 1
    )
    SELECT (row_number() OVER (ORDER BY df DESC, term ASC) - 1)::INTEGER AS rank,
           term, df, ttf
    FROM stats WHERE df >= {TERMS_MINCOUNT}
    ORDER BY rank LIMIT {TERMS_LIMIT}
"""


# ---------------------------------------------------------------------------
# TermVectorComponent — per-doc term vectors for a query's top docs
# ---------------------------------------------------------------------------

TV_QUERY = "hash join"
TV_TOP = 3


def q_termvectors_documents(sf_dir: str):
    """TermVectorComponent (tv.tf/tv.df/tv.tf_idf; reference: `solr/core/
    src/java/org/apache/solr/handler/component/TermVectorComponent.java`):
    for the top-3 BM25 docs of a query, the full per-doc term vector with
    tf, global df, and Solr's tf-idf = tf/df.

    The doc set is O(k) (a search result), so re-tokenizing the k stored
    texts is driver-cheap at any corpus scale; df comes from the index's
    term dictionary (global_df sums per-segment stats, no corpus scan)."""
    from rindex.analysis import get_analyzer
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    # rounded-rank discipline (see bm25_topk): choose the doc SET on
    # 6dp-rounded scores with doc_id-asc ties so float summation order
    # can't flip the k boundary between engine and oracle
    hits = searcher.search(TV_QUERY, k=TV_TOP + 16, mode="or")
    ranked = sorted(
        ((round(float(score), 6), int(doc_id))
         for _rank, doc_id, score in hits),
        key=lambda x: (-x[0], x[1]),
    )
    doc_ids = sorted(d for _s, d in ranked[:TV_TOP])

    import pyarrow.parquet as pq

    # k stored docs via predicate pushdown (docs are doc_id-sorted in the
    # source parquet, so min/max row-group stats prune the read)
    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", doc_ids)],
    ).to_pandas()
    analyzer = get_analyzer("standard")
    rows = []
    all_terms = set()
    per_doc_tf = {}
    for _, r in tbl.iterrows():
        toks = analyzer.tokens(r["text"])
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        per_doc_tf[int(r["doc_id"])] = tf
        all_terms.update(tf)
    df_map = searcher.global_df(sorted(all_terms))
    for d in doc_ids:
        for t, f in sorted(per_doc_tf[d].items()):
            rows.append(
                (d, t, f, df_map[t], round(f / df_map[t], 6))
            )
    return pd.DataFrame(
        rows, columns=["doc_id", "term", "tf", "df", "tfidf"]
    ).astype({"doc_id": np.int64, "tf": np.int64, "df": np.int64})


QUERIES["termvectors_documents"] = q_termvectors_documents


def _termvectors_oracle_sql() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    tv_terms = ",".join(f"('{t}')" for t in TV_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    qt(term) AS (VALUES {tv_terms}),
    topdocs AS (
      SELECT tf.doc_id
      FROM qt
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
      ORDER BY round(sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                   * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))), 6)
                   DESC,
               tf.doc_id ASC
      LIMIT {TV_TOP}
    )
    SELECT t.doc_id, t.term, t.tf::BIGINT AS tf, df.df::BIGINT AS df,
           round(t.tf / df.df, 6) AS tfidf
    FROM tf t
    JOIN df USING (term)
    JOIN topdocs USING (doc_id)
    """


ORACLE["termvectors_documents"] = _termvectors_oracle_sql()


# ---------------------------------------------------------------------------
# terms.regex / scoreNodes() / spellcheck collation
# ---------------------------------------------------------------------------

TERMS_RE = "a."         # partial-match semantics (Solr terms.regex)
TERMS_RE_MINCOUNT = 5
TERMS_RE_LIMIT = 8


def q_terms_regex_documents(sf_dir: str):
    """TermsComponent terms.regex (`solr/core/src/java/org/apache/solr/
    handler/component/TermsComponent.java`): enumerate dictionary terms
    matching a regex.  Unlike terms.prefix there is no range predicate to
    prune row groups with, so this is the full-dictionary-scan shape —
    but still only the (term, df, ttf) dictionary COLUMNS of each segment
    (the postings blob column is never projected), one task per segment,
    Arrow re2 kernel per batch, then a tiny groupby over matches."""
    import ray.data as rd
    import pyarrow.compute as pc
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
    ds = rd.read_parquet(paths, columns=["term", "df", "ttf"])

    def match(t: pa.Table) -> pa.Table:
        keep = pc.match_substring_regex(t["term"], TERMS_RE)
        return t.filter(keep)

    agg = (
        ds.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
        .to_pandas()
    )
    agg = agg[agg["df"] >= TERMS_RE_MINCOUNT]
    agg = agg.sort_values(["df", "term"], ascending=[False, True],
                          kind="mergesort").head(TERMS_RE_LIMIT)
    agg = agg.reset_index(drop=True)
    agg["rank"] = np.arange(len(agg), dtype=np.int32)
    agg["df"] = agg["df"].astype(np.int64)
    agg["ttf"] = agg["ttf"].astype(np.int64)
    return agg[["rank", "term", "df", "ttf"]]


QUERIES["terms_regex_documents"] = q_terms_regex_documents
ORACLE["terms_regex_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    ),
    stats AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS ttf
      FROM toks
      WHERE regexp_matches(term, '{TERMS_RE}')
      GROUP BY 1
    ),
    ranked AS (
      SELECT (row_number() OVER (ORDER BY df DESC, term ASC) - 1)::INTEGER AS rank,
             term, df, ttf
      FROM stats WHERE df >= {TERMS_RE_MINCOUNT}
    )
    SELECT rank, term, df, ttf FROM ranked WHERE rank < {TERMS_RE_LIMIT}
"""


SCORE_NODES_SEED_MOD = 10
SCORE_NODES_SEED_REM = 3


def q_score_nodes_events(sf_dir: str):
    """scoreNodes() (`solr/solrj/src/java/org/apache/solr/client/solrj/io/
    graph/ScoreNodesStream.java`): tf-idf-score the nodes of a graph
    gather so globally-common nodes stop dominating recommendations.
    Gather: seed users (user_id % 10 == 3) -> their events' event_type
    nodes; count = gathered-edge count per node (ScoreNodes' count(*)),
    docFreq = the node's GLOBAL frequency, numDocs = total events.
    nodeScore = count * ln((numDocs + 1) / (docFreq + 1)).

    ONE distributed scan computes both the gathered counts and the global
    frequencies as combiner partials (per-batch value_counts), shuffled as
    tiny (event_type, n_all, n_seed) rows — the reference issues a second
    terms request for docFreqs; here the same pass carries both."""
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", ["user_id", "event_type"])

    def partials(t: pa.Table) -> pa.Table:
        et = t["event_type"].combine_chunks()
        codes = et.dictionary_encode()
        idx = codes.indices.to_numpy()
        vals = codes.dictionary.to_pylist()
        uid = t["user_id"].to_numpy()
        seed = uid % SCORE_NODES_SEED_MOD == SCORE_NODES_SEED_REM
        n_all = np.bincount(idx, minlength=len(vals))
        n_seed = np.bincount(idx[seed], minlength=len(vals))
        return pa.table(
            {
                "event_type": pa.array(vals, pa.string()),
                "n_all": pa.array(n_all.astype(np.int64)),
                "n_seed": pa.array(n_seed.astype(np.int64)),
            }
        )

    agg = (
        ev.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(Sum("n_all", alias_name="n_all"),
                   Sum("n_seed", alias_name="n_seed"))
        .to_pandas()
    )
    n_docs = int(agg["n_all"].sum())
    agg = agg[agg["n_seed"] > 0].copy()
    agg["node_score"] = (
        agg["n_seed"].to_numpy(np.float64)
        * np.log((n_docs + 1.0) / (agg["n_all"].to_numpy(np.float64) + 1.0))
    ).round(6)
    agg = agg.rename(columns={"n_seed": "count", "n_all": "doc_freq"})
    agg["count"] = agg["count"].astype(np.int64)
    agg["doc_freq"] = agg["doc_freq"].astype(np.int64)
    return (
        agg[["event_type", "count", "doc_freq", "node_score"]]
        .sort_values(["node_score", "event_type"], ascending=[False, True])
        .reset_index(drop=True)
    )


QUERIES["score_nodes_events"] = q_score_nodes_events
ORACLE["score_nodes_events"] = f"""
    WITH stats AS (
      SELECT event_type,
             count(*) FILTER (user_id % {SCORE_NODES_SEED_MOD}
                              = {SCORE_NODES_SEED_REM})::BIGINT AS count,
             count(*)::BIGINT AS doc_freq
      FROM events
      GROUP BY event_type
    )
    SELECT event_type, count, doc_freq,
           round(count * ln(((SELECT count(*) FROM events) + 1.0)
                            / (doc_freq + 1.0)), 6) AS node_score
    FROM stats
    WHERE count > 0
    ORDER BY node_score DESC, event_type ASC
"""


COLLATE_INPUT = ["spakr", "joni"]   # -> "spark join"


def q_spellcheck_collate_documents(sf_dir: str):
    """Spellcheck collation (spellcheck.collate —
    `solr/core/src/java/org/apache/solr/spelling/SpellCheckCollator.java`):
    correct every word of the query from the term dictionary (min edit
    distance <= 2, ties df-desc then term), assemble the collated query,
    and verify it by counting the docs matching ALL corrected terms (the
    collator re-issues the rewritten query the same way).  Corrections
    come from the resident SuggesterActor (shared build with spellcheck /
    suggest); the hit count is a distributed scan with the corrected
    terms broadcast."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    corrections = []
    for w, best in zip(
        COLLATE_INPUT, ray.get([sa.correct.remote(w) for w in COLLATE_INPUT])
    ):
        if best is None:
            raise ValueError(f"no correction within 2 edits for {w!r}")
        corrections.append(best[0])

    import re as _re

    import pyarrow.compute as pc

    from rindex.analysis import get_analyzer

    # boundary-anchored Arrow re2 match per corrected term (vectorized).
    # [^0-9a-z'] under-matches around a BARE apostrophe (the analyzer
    # treats ' as a word char only BETWEEN alphanumerics, re2 has no
    # lookaround to express that), so apostrophe-bearing docs — rare —
    # take the exact analyzer path instead of the regex fast path.
    pats = [
        rf"(^|[^0-9a-z']){_re.escape(term)}($|[^0-9a-z'])"
        for term in corrections
    ]
    tokens_of = get_analyzer("standard").tokens
    need = set(corrections)

    def count_hits(t: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(pc.coalesce(t["text"].combine_chunks(), ""))
        mask = np.ones(len(txt), dtype=bool)
        for p in pats:
            mask &= pc.match_substring_regex(txt, p).to_numpy(
                zero_copy_only=False
            )
        apos = pc.match_substring(txt, "'").to_numpy(zero_copy_only=False)
        if apos.any():
            vals = txt.to_pylist()
            for i in np.flatnonzero(apos):
                mask[i] = need.issubset(tokens_of(vals[i]))
        return pa.table({"hits": pa.array([int(mask.sum())], pa.int64())})

    ds = read_table(sf_dir, "documents", ["text"])
    total = int(
        ds.map_batches(count_hits, batch_format="pyarrow")
        .to_pandas()["hits"].sum()
    )
    return pd.DataFrame(
        {
            "input": [" ".join(COLLATE_INPUT)],
            "collation": [" ".join(corrections)],
            "hits": np.array([total], dtype=np.int64),
        }
    )


QUERIES["spellcheck_collate_documents"] = q_spellcheck_collate_documents
_collate_values = ",".join(
    f"({i}, '{w}')" for i, w in enumerate(COLLATE_INPUT)
)
ORACLE["spellcheck_collate_documents"] = f"""
    WITH dict AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS weight
      FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
        FROM documents
      ) GROUP BY term
    ),
    inputs(pos, word) AS (VALUES {_collate_values}),
    corr AS (
      SELECT pos, word, correction FROM (
        SELECT pos, word, term AS correction,
               row_number() OVER (
                 PARTITION BY pos
                 ORDER BY levenshtein(word, term) ASC, weight DESC, term ASC
               ) AS rn
        FROM inputs CROSS JOIN dict
        WHERE levenshtein(word, term) <= 2
      ) WHERE rn = 1
    ),
    docs AS (
      SELECT doc_id,
             list_distinct(regexp_extract_all(lower(text),
                           '[0-9a-z]+(?:''[0-9a-z]+)*')) AS l
      FROM documents
    ),
    matched AS (
      SELECT d.doc_id
      FROM docs d JOIN corr c ON list_contains(d.l, c.correction)
      GROUP BY d.doc_id
      HAVING count(DISTINCT c.correction) = (SELECT count(*) FROM corr)
    )
    SELECT (SELECT string_agg(word, ' ' ORDER BY pos) FROM inputs) AS input,
           (SELECT string_agg(correction, ' ' ORDER BY pos) FROM corr)
             AS collation,
           (SELECT count(*) FROM matched)::BIGINT AS hits
"""


INFIX_SUB = "ar"
INFIX_LIMIT = 8


def q_suggest_infix_documents(sf_dir: str):
    """Infix completion (AnalyzingInfixSuggester —
    `lucene/suggest/src/java/org/apache/lucene/search/suggest/analyzing/
    AnalyzingInfixSuggester.java`: suggestions matching the query ANYWHERE
    in the term, not just the prefix, weight-ordered).  Infix cannot
    range-prune a sorted dictionary, so the resident SuggesterActor keeps
    a char-TRIGRAM inverted index over the vocab (the reference's n-gram
    sidecar): lookup = trigram postings intersect -> substring verify ->
    top-k, all in actor RAM; the per-segment dictionary scan runs once as
    the actor's build."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    hits = ray.get(sa.suggest_infix.remote(INFIX_SUB, INFIX_LIMIT))
    return pd.DataFrame(hits, columns=["suggestion", "weight"]).astype(
        {"weight": np.int64}
    )


QUERIES["suggest_infix_documents"] = q_suggest_infix_documents
ORACLE["suggest_infix_documents"] = f"""
    SELECT term AS suggestion, count(DISTINCT doc_id)::BIGINT AS weight
    FROM (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    )
    WHERE contains(term, '{INFIX_SUB}')
    GROUP BY term
    ORDER BY weight DESC, suggestion ASC
    LIMIT {INFIX_LIMIT}
"""


# ---------------------------------------------------------------------------
# FuzzySuggester — typo-tolerant completion (`lucene/suggest/src/java/org/
# apache/lucene/search/suggest/analyzing/FuzzySuggester.java`): intersect
# the query's Levenshtein automaton with the FST, i.e. complete any term
# one of whose PREFIXES is within maxEdits of the query.  Served by the
# resident SuggesterActor; the lookup is one binary-searched first-char
# range (nonFuzzyPrefix=1) + a vectorized prefix-edit DP.
# ---------------------------------------------------------------------------

FUZZY_INPUTS = ["strem", "filtr"]
FUZZY_K = 10


def q_fuzzy_suggest_documents(sf_dir: str):
    """Typo-tolerant completion: terms with SOME prefix within edit
    distance 1 of the query (first char fixed), weight-ordered."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    refs = [sa.suggest_fuzzy.remote(w, FUZZY_K, 1) for w in FUZZY_INPUTS]
    frames = []
    for w, hits in zip(FUZZY_INPUTS, ray.get(refs)):
        df = pd.DataFrame(hits, columns=["suggestion", "weight", "dist"])
        df.insert(0, "word", w)
        frames.append(df)
    out = pd.concat(frames, ignore_index=True)
    return out.astype({"weight": np.int64, "dist": np.int64})


QUERIES["fuzzy_suggest_documents"] = q_fuzzy_suggest_documents
ORACLE["fuzzy_suggest_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
      FROM documents
    ),
    dict AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS weight
      FROM toks GROUP BY term
    ),
    q(word) AS (VALUES {",".join(f"('{w}')" for w in FUZZY_INPUTS)}),
    pe AS (
      SELECT q.word, d.term, d.weight,
             (SELECT min(levenshtein(q.word, substr(d.term, 1, j)))
              FROM unnest(range(0, length(d.term) + 1)) AS t(j)) AS dist
      FROM q JOIN dict d ON substr(d.term, 1, 1) = substr(q.word, 1, 1)
    ),
    ranked AS (
      SELECT word, term AS suggestion, weight, dist::BIGINT AS dist,
             row_number() OVER (PARTITION BY word
                                ORDER BY weight DESC, term ASC) AS rn
      FROM pe WHERE dist <= 1
    )
    SELECT word, suggestion, weight, dist FROM ranked WHERE rn <= {FUZZY_K}
"""


# ---------------------------------------------------------------------------
# Luke handler analog (`solr/core/src/java/org/apache/solr/handler/admin/
# LukeRequestHandler.java` — /admin/luke reports per-field stats straight
# from the INDEX: docs-with-value, distinct terms/values, plus totals).
# Served from index artifacts only, never the source table: stored-field
# stats stream from the per-segment docs.parquet files (a distributed
# read over the segment set — at 100 TB that's the same sharded scan the
# engine writes), term stats from the dictionary columns (small side by
# design; postings blobs never projected).
# ---------------------------------------------------------------------------

def q_luke_index_documents(sf_dir: str):
    """Per-field index stats: docs-with-value + distinct value/term
    counts for the indexed text field and each stored field."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import dictionary_stats
    from rindex.segments import read_manifest, seg_dir

    idx = documents_index(sf_dir)
    man = read_manifest(idx)
    sdirs = [
        seg_dir(idx, m["seg_id"], m.get("gen", 0)) for m in man["segments"]
    ]
    # text field: distinct terms across segment dictionaries (the ONE
    # shared dictionary reader — columns only, small side)
    terms = dictionary_stats(idx, [])["term"]
    n_docs = int(man["totals"]["doc_count"])
    rows = [("text", n_docs, int(len(terms)))]
    # stored fields: one distributed scan of the segment doc stores
    docs_files = [os.path.join(d, "docs.parquet") for d in sdirs]
    for field in ("lang", "source"):
        ds = rd.read_parquet(docs_files, columns=[field])
        withv = int(
            ds.map_batches(
                lambda t, f=field: pa.table(
                    {"nv": pa.array([t.num_rows - t[f].null_count], pa.int64())}
                ),
                batch_format="pyarrow", zero_copy_batch=True,
            ).to_pandas()["nv"].sum()
        )
        nd = len(
            ds.groupby(field).aggregate(Count(alias_name="_c")).to_pandas()
        )
        rows.append((field, int(withv), int(nd)))
    return pd.DataFrame(rows, columns=["field", "n_docs", "n_distinct"])


QUERIES["luke_index_documents"] = q_luke_index_documents


def _luke_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    )
    SELECT 'text' AS field, (SELECT count(*) FROM documents) AS n_docs,
           (SELECT count(DISTINCT term) FROM toks) AS n_distinct
    UNION ALL
    SELECT 'lang', count(lang), count(DISTINCT lang) FROM documents
    UNION ALL
    SELECT 'source', count(source), count(DISTINCT source) FROM documents
    ORDER BY field
    """


ORACLE["luke_index_documents"] = _luke_oracle_sql()


# ---------------------------------------------------------------------------
# FreeTextSuggester — the n-gram language-model suggester
# (`lucene/suggest/src/java/org/apache/lucene/search/suggest/analyzing/
# FreeTextSuggester.java`: suggests the next word from an ngram LM with
# Jelinek-Mercer-style backoff; Lucene builds the LM from the analyzed
# corpus).  Engine shape: ONE corpus pass emits per-batch bigram partial
# counts RESTRICTED to the query context word (the vectorized shift-and-
# mask — no per-token Python), a tiny groupby sums them, and the unigram
# denominator comes from the index dictionary's ttf.  Score = bigram
# count / context ttf (the conditional MLE the reference's top level
# uses), rounded before ranking, count-desc/token-asc ties.
# ---------------------------------------------------------------------------

FREETEXT_CONTEXT = "hash"
FREETEXT_TOP = 8


def q_freetext_suggest_documents(sf_dir: str):
    """Next-word suggestions after FREETEXT_CONTEXT: (suggestion, n,
    score) — top-FREETEXT_TOP bigram continuations."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer
    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import dictionary_stats

    # context unigram ttf from the index dictionary (the LM denominator)
    d = dictionary_stats(documents_index(sf_dir), ["ttf"])
    row = d.loc[d["term"] == FREETEXT_CONTEXT, "ttf"]
    ctx_ttf = int(row.iloc[0]) if len(row) else 0

    ds = read_table(sf_dir, "documents", ["text"])

    def partials(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter(
            (len(x) for x in toks_per), np.int64, count=len(toks_per)
        )
        flat = np.array(
            [tok for lst in toks_per for tok in lst], dtype=object
        )
        if not len(flat):
            return pa.table({"suggestion": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        # bigrams never cross doc boundaries: position of each doc's LAST
        # token is excluded from the context mask
        ends = np.cumsum(lens) - 1
        is_ctx = flat == FREETEXT_CONTEXT
        is_ctx[ends[lens > 0]] = is_ctx[ends[lens > 0]] & False
        nxt = flat[1:][is_ctx[:-1]]
        if not len(nxt):
            return pa.table({"suggestion": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        vals, counts = np.unique(nxt.astype(str), return_counts=True)
        return pa.table(
            {"suggestion": pa.array(vals, pa.string()),
             "c": pa.array(counts.astype(np.int64))}
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("suggestion")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    agg["n"] = agg["n"].astype(np.int64)
    agg["score"] = np.round(
        agg["n"].to_numpy(np.float64) / float(ctx_ttf), 6
    )
    agg = agg.sort_values(["n", "suggestion"], ascending=[False, True],
                          kind="mergesort").head(FREETEXT_TOP)
    return agg[["suggestion", "n", "score"]].reset_index(drop=True)


QUERIES["freetext_suggest_documents"] = q_freetext_suggest_documents


def _freetext_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(regexp_extract_all(lower(coalesce(text,
                    '')), '{TOKEN_SQL_RE}')) + 1)) AS i,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    big AS (
      SELECT doc_id, i, term,
             lead(term) OVER (PARTITION BY doc_id ORDER BY i) AS nxt
      FROM toks
    ),
    ctxttf AS (
      SELECT count(*)::DOUBLE AS t FROM toks
      WHERE term = '{FREETEXT_CONTEXT}'
    ),
    cand AS (
      SELECT nxt AS suggestion, count(*)::BIGINT AS n
      FROM big WHERE term = '{FREETEXT_CONTEXT}' AND nxt IS NOT NULL
      GROUP BY 1
    )
    SELECT suggestion, n, round(n / ctxttf.t, 6) AS score
    FROM cand CROSS JOIN ctxttf
    ORDER BY n DESC, suggestion ASC
    LIMIT {FREETEXT_TOP}
    """


ORACLE["freetext_suggest_documents"] = _freetext_oracle_sql()


# ---------------------------------------------------------------------------
# Collocation extraction — PMI-ranked bigrams (Church & Hanks 1990,
# "Word Association Norms, Mutual Information, and Lexicography"; the
# ShingleFilter gives the bigrams, PMI ranks them).  One corpus pass
# emits per-batch bigram partials (doc boundaries excluded by the same
# shift-and-mask as the FreeText suggester) plus the reserved total-
# bigram row; unigram probabilities come from the index dictionary's
# ttf.  PMI = ln((c_ab / T_bi) / ((c_a / T_uni) * (c_b / T_uni))),
# identical trees both sides, rounded before ranking, bigram-asc ties.
# ---------------------------------------------------------------------------

COLLOC_MIN_N = 25
COLLOC_TOP = 10


def q_collocations_documents(sf_dir: str):
    """Top-COLLOC_TOP bigrams by PMI with count >= COLLOC_MIN_N:
    (bigram, n, pmi)."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer
    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import dictionary_stats

    d = dictionary_stats(documents_index(sf_dir), ["ttf"])
    uni = dict(zip(d["term"], d["ttf"].astype(int)))
    t_uni = float(d["ttf"].sum())

    ds = read_table(sf_dir, "documents", ["text"])

    def partials(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter(
            (len(x) for x in toks_per), np.int64, count=len(toks_per)
        )
        flat = np.array(
            [tok for lst in toks_per for tok in lst], dtype=object
        )
        t_bi = int(np.maximum(lens - 1, 0).sum())
        if len(flat) < 2:
            return pa.table(
                {"bigram": pa.array(["\tT_BI"], pa.string()),
                 "c": pa.array([t_bi], pa.int64())}
            )
        ends = np.cumsum(lens) - 1
        left_ok = np.ones(len(flat), bool)
        left_ok[ends[lens > 0]] = False  # bigrams never cross docs
        a = flat[:-1][left_ok[:-1]]
        b = flat[1:][left_ok[:-1]]
        pairs = np.char.add(np.char.add(a.astype(str), " "), b.astype(str))
        vals, counts = np.unique(pairs, return_counts=True)
        return pa.table(
            {"bigram": pa.array(
                np.concatenate([vals, ["\tT_BI"]]), pa.string()),
             "c": pa.array(np.concatenate(
                 [counts, [t_bi]]).astype(np.int64))}
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    t_bi = float(agg.loc[agg["bigram"] == "\tT_BI", "n"].iloc[0])
    agg = agg[agg["bigram"] != "\tT_BI"]
    agg = agg[agg["n"] >= COLLOC_MIN_N].copy()
    parts = agg["bigram"].str.split(" ", n=1, expand=True)
    ca = parts[0].map(uni).to_numpy(np.float64)
    cb = parts[1].map(uni).to_numpy(np.float64)
    n = agg["n"].to_numpy(np.float64)
    agg["pmi"] = np.round(
        np.log((n / t_bi) / ((ca / t_uni) * (cb / t_uni))), 6
    )
    agg["n"] = agg["n"].astype(np.int64)
    agg = agg.sort_values(["pmi", "bigram"], ascending=[False, True],
                          kind="mergesort").head(COLLOC_TOP)
    return agg[["bigram", "n", "pmi"]].reset_index(drop=True)


QUERIES["collocations_documents"] = q_collocations_documents


def _collocations_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(regexp_extract_all(lower(coalesce(text,
                    '')), '{TOKEN_SQL_RE}')) + 1)) AS i,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    uni AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY 1),
    tot AS (SELECT sum(c) AS t_uni FROM uni),
    big AS (
      SELECT term AS a,
             lead(term) OVER (PARTITION BY doc_id ORDER BY i) AS b
      FROM toks
    ),
    bc AS (
      SELECT a || ' ' || b AS bigram, a, b, count(*)::BIGINT AS n
      FROM big WHERE b IS NOT NULL
      GROUP BY 1, 2, 3
    ),
    tbi AS (SELECT sum(n)::DOUBLE AS t_bi FROM bc),
    scored AS (
      SELECT bigram, n,
             round(ln((n / t_bi)
                      / ((ua.c / t_uni) * (ub.c / t_uni))), 6) AS pmi
      FROM bc
      JOIN uni ua ON ua.term = bc.a
      JOIN uni ub ON ub.term = bc.b
      CROSS JOIN tot CROSS JOIN tbi
      WHERE n >= {COLLOC_MIN_N}
    )
    SELECT bigram, n, pmi FROM scored
    ORDER BY pmi DESC, bigram ASC
    LIMIT {COLLOC_TOP}
    """


ORACLE["collocations_documents"] = _collocations_oracle_sql()


# ---------------------------------------------------------------------------
# TextRank keyword extraction (Mihalcea & Tarau 2004): PageRank over the
# term co-occurrence graph — nodes = terms, undirected edges = adjacent-
# bigram counts, damping 0.85, TEXTRANK_ITERS power-iteration rounds from
# the uniform vector.  Engine shape: edge weights are the SAME
# distributed bigram partials as the collocation op; the graph is
# vocabulary-sized (the bounded small side), so iteration runs on the
# driver exactly like the IVF/ BPE trainers.  The oracle unrolls every
# round in SQL (the dedup_clusters label-propagation discipline), scores
# round once at the end.
# ---------------------------------------------------------------------------

TEXTRANK_ITERS = 4
TEXTRANK_D = 0.85
TEXTRANK_TOP = 10


def q_textrank_keywords_documents(sf_dir: str):
    """Top-TEXTRANK_TOP terms by TextRank score: (term, score)."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["text"])

    def partials(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter(
            (len(x) for x in toks_per), np.int64, count=len(toks_per)
        )
        flat = np.array(
            [tok for lst in toks_per for tok in lst], dtype=object
        )
        if len(flat) < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        ends = np.cumsum(lens) - 1
        left_ok = np.ones(len(flat), bool)
        left_ok[ends[lens > 0]] = False
        a = flat[:-1][left_ok[:-1]]
        b = flat[1:][left_ok[:-1]]
        pairs = np.char.add(np.char.add(a.astype(str), " "), b.astype(str))
        vals, counts = np.unique(pairs, return_counts=True)
        return pa.table(
            {"bigram": pa.array(vals, pa.string()),
             "c": pa.array(counts.astype(np.int64))}
        )

    bc = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    parts = bc["bigram"].str.split(" ", n=1, expand=True)
    a = parts[0].to_numpy(object)
    b = parts[1].to_numpy(object)
    w = bc["n"].to_numpy(np.float64)
    nodes = sorted(set(a) | set(b))
    pos = {t: i for i, t in enumerate(nodes)}
    n = len(nodes)
    ai = np.array([pos[x] for x in a])
    bi = np.array([pos[x] for x in b])
    # undirected: each bigram contributes weight both ways
    W = np.zeros((n, n))
    np.add.at(W, (bi, ai), w)
    np.add.at(W, (ai, bi), w)
    outw = W.sum(axis=0)  # column sums = each src node's total out-weight
    p = np.full(n, 1.0 / n)
    for _ in range(TEXTRANK_ITERS):
        p = (1.0 - TEXTRANK_D) / n + TEXTRANK_D * (W @ (p / outw))
    out = pd.DataFrame({"term": nodes, "score": np.round(p, 6)})
    return out.sort_values(["score", "term"], ascending=[False, True],
                           kind="mergesort").head(TEXTRANK_TOP) \
              .reset_index(drop=True)


QUERIES["textrank_keywords_documents"] = q_textrank_keywords_documents


def _textrank_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    d, it = TEXTRANK_D, TEXTRANK_ITERS
    rounds = []
    for r in range(it):
        rounds.append(f"""
    p{r + 1} AS (
      SELECT n.term,
             (1.0 - {d}) / st.n_nodes
             + {d} * coalesce(sum(p{r}.p * e.w / o.ow), 0.0) AS p
      FROM nodes n
      CROSS JOIN st
      LEFT JOIN edges e ON e.dst = n.term
      LEFT JOIN p{r} ON p{r}.term = e.src
      LEFT JOIN outw o ON o.src = e.src
      GROUP BY n.term, st.n_nodes
    )""")
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(regexp_extract_all(lower(coalesce(text,
                    '')), '{TOKEN_SQL_RE}')) + 1)) AS i,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    big AS (
      SELECT term AS a,
             lead(term) OVER (PARTITION BY doc_id ORDER BY i) AS b
      FROM toks
    ),
    bc AS (
      SELECT a, b, count(*)::DOUBLE AS n FROM big
      WHERE b IS NOT NULL GROUP BY 1, 2
    ),
    edges AS (
      SELECT a AS src, b AS dst, sum(n) AS w FROM (
        SELECT a, b, n FROM bc
        UNION ALL
        SELECT b AS a, a AS b, n FROM bc)
      GROUP BY 1, 2
    ),
    nodes AS (SELECT DISTINCT src AS term FROM edges),
    st AS (SELECT count(*)::DOUBLE AS n_nodes FROM nodes),
    outw AS (SELECT src, sum(w) AS ow FROM edges GROUP BY 1),
    p0 AS (SELECT term, 1.0 / st.n_nodes AS p FROM nodes, st),
    {",".join(rounds)}
    SELECT term, round(p, 6) AS score FROM p{it}
    ORDER BY score DESC, term ASC
    LIMIT {TEXTRANK_TOP}
    """


ORACLE["textrank_keywords_documents"] = _textrank_oracle_sql()


# ---------------------------------------------------------------------------
# Zipf rank-frequency fit — the vocabulary diagnostic (Zipf 1949; a
# healthy natural-language corpus shows ln(freq) ~ a - s*ln(rank) with
# s near 1, and tokenizer/dedup bugs bend the curve).  Served ENTIRELY
# from the index dictionary (ttf via the shared dictionary_stats reader
# — no corpus pass at all); OLS in closed form with oracle-identical
# expression trees.
# ---------------------------------------------------------------------------

ZIPF_TOP = 30


def q_zipf_fit_documents(sf_dir: str):
    """OLS fit of ln(ttf) against ln(rank) over the top-ZIPF_TOP terms:
    one row (n_terms, slope, intercept, r2)."""
    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import dictionary_stats

    d = dictionary_stats(documents_index(sf_dir), ["ttf"])
    d = d.sort_values(["ttf", "term"], ascending=[False, True],
                      kind="mergesort").head(ZIPF_TOP)
    n = float(len(d))
    x = np.log(np.arange(1, len(d) + 1, dtype=np.float64))
    y = np.log(d["ttf"].to_numpy(np.float64))
    sx, sy = x.sum(), y.sum()
    sxx, sxy, syy = (x * x).sum(), (x * y).sum(), (y * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    r2 = ((n * sxy - sx * sy) ** 2
          / ((n * sxx - sx * sx) * (n * syy - sy * sy)))
    return pd.DataFrame(
        {"n_terms": np.array([int(n)], np.int64),
         "slope": [round(float(slope), 6)],
         "intercept": [round(float(intercept), 6)],
         "r2": [round(float(r2), 6)]}
    )


QUERIES["zipf_fit_documents"] = q_zipf_fit_documents


def _zipf_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    ttf AS (SELECT term, count(*)::BIGINT AS c FROM toks GROUP BY 1),
    ranked AS (
      SELECT ln(row_number() OVER (ORDER BY c DESC, term ASC)::DOUBLE)
               AS x,
             ln(c::DOUBLE) AS y
      FROM ttf
      QUALIFY row_number() OVER (ORDER BY c DESC, term ASC) <= {ZIPF_TOP}
    ),
    m AS (
      SELECT count(*)::DOUBLE AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy, sum(y * y) AS syy
      FROM ranked
    )
    SELECT n::BIGINT AS n_terms,
           round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
           round((sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx)
                 / n, 6) AS intercept,
           round(((n * sxy - sx * sy) * (n * sxy - sx * sy))
                 / ((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS r2
    FROM m
    """


ORACLE["zipf_fit_documents"] = _zipf_oracle_sql()


# ---------------------------------------------------------------------------
# Text tagger (`solr/core/src/java/org/apache/solr/handler/tagger/
# TaggerRequestHandler.java` — the SolrTextTagger contract: find all
# occurrences of dictionary phrases in raw text).  The dictionary is the
# stateful small side (compiled once per actor in __init__); per batch the
# counting is ONE Arrow re2 kernel per phrase over the whole column — no
# Python row loops.
# ---------------------------------------------------------------------------

TAG_PHRASES = [
    "hash join", "merge join", "sort merge", "fast scan", "big table",
]


def q_text_tagger_documents(sf_dir: str):
    """Per-doc counts of each dictionary phrase (word-boundary matches,
    non-overlapping) — long-form (doc_id, phrase, n) rows for n > 0."""
    from rindex.ops.util import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    class Tagger:
        def __init__(self):
            self.pats = [
                (p, r"\b" + p.replace(" ", r"\s+") + r"\b")
                for p in TAG_PHRASES
            ]

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            low = pc.utf8_lower(pc.coalesce(t["text"], ""))
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            out_id, out_p, out_n = [], [], []
            for phrase, pat in self.pats:
                n = pc.count_substring_regex(low, pat).to_numpy(
                    zero_copy_only=False
                )
                m = n > 0
                out_id.append(ids[m])
                out_p.append(np.full(int(m.sum()), phrase, object))
                out_n.append(n[m].astype(np.int64))
            return pa.table(
                {
                    "doc_id": pa.array(
                        np.concatenate(out_id) if out_id else [], pa.int64()
                    ),
                    "phrase": pa.array(
                        np.concatenate(out_p) if out_p else [], pa.string()
                    ),
                    "n": pa.array(
                        np.concatenate(out_n) if out_n else [], pa.int64()
                    ),
                }
            )

    return ds.map_batches(
        Tagger, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=pool_cap(min_cap=4),
    )


QUERIES["text_tagger_documents"] = q_text_tagger_documents
ORACLE["text_tagger_documents"] = f"""
    SELECT doc_id, phrase, n FROM (
      SELECT doc_id, p.phrase,
             len(regexp_extract_all(
                 lower(coalesce(text, '')),
                 '\\b' || replace(p.phrase, ' ', '\\s+') || '\\b'))::BIGINT
               AS n
      FROM documents
      CROSS JOIN (VALUES {",".join(f"('{p}')" for p in TAG_PHRASES)})
        p(phrase)
    ) WHERE n > 0
"""


# ---------------------------------------------------------------------------
# spellcheck.extendedResults — the FULL suggestion list per input word
# (`solr/core/src/java/org/apache/solr/handler/component/
# SpellCheckComponent.java` extendedResults=true: every candidate with its
# frequency, not just the winner), served by the same resident suggester.
# ---------------------------------------------------------------------------

SPELL_EXT_K = 5
# the base inputs plus one with MULTIPLE in-distance candidates
# ('ast' -> fast d1, a d2, agg d2 ...) so the (distance, df, term)
# tie-break actually bites
SPELL_EXT_INPUTS = SPELL_INPUTS + ["ast"]
_spell_ext_values = ",".join(f"('{w}')" for w in SPELL_EXT_INPUTS)


def q_spellcheck_extended_documents(sf_dir: str):
    """Top-{SPELL_EXT_K} correction candidates per misspelled input
    (distance asc, df desc, term asc) with per-candidate frequency."""
    import ray

    from rindex.ops.fulltext import documents_index
    from rindex.suggester import get_suggester

    sa = get_suggester(documents_index(sf_dir))
    lists = ray.get(
        [sa.correct_topk.remote(w, SPELL_EXT_K) for w in SPELL_EXT_INPUTS]
    )
    rows = []
    for w, cands in zip(SPELL_EXT_INPUTS, lists):
        for rank, (term, dist, weight) in enumerate(cands):
            rows.append((w, np.int32(rank), term, dist, weight))
    out = pd.DataFrame(
        rows, columns=["input", "rank", "suggestion", "distance", "weight"]
    )
    return out.astype(
        {"rank": np.int32, "distance": np.int64, "weight": np.int64}
    )


QUERIES["spellcheck_extended_documents"] = q_spellcheck_extended_documents
ORACLE["spellcheck_extended_documents"] = f"""
    WITH dict AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS weight
      FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
        FROM documents
      ) GROUP BY term
    ),
    inputs(input) AS (VALUES {_spell_ext_values}),
    cand AS (
      SELECT input, term AS suggestion,
             levenshtein(input, term)::BIGINT AS distance, weight,
             (row_number() OVER (
               PARTITION BY input
               ORDER BY levenshtein(input, term) ASC, weight DESC, term ASC
             ) - 1)::INTEGER AS rank
      FROM inputs CROSS JOIN dict
      WHERE levenshtein(input, term) <= 2
    )
    SELECT input, rank, suggestion, distance, weight
    FROM cand WHERE rank < {SPELL_EXT_K}
"""


# ---------------------------------------------------------------------------
# PhrasesIdentificationComponent — Solr 8 phrase detection in query text
# ---------------------------------------------------------------------------

PHRASES_QUERY = "fast hash join merge"
PHRASES_MAX_LEN = 3


def q_phrases_identify_documents(sf_dir: str):
    """PhrasesIdentificationComponent (`solr/core/src/java/org/apache/
    solr/handler/component/PhrasesIdentificationComponent.java`, Solr 8):
    score every contiguous sub-phrase (2..maxLen words) of the query
    string by corpus statistics to find which word runs are "real"
    phrases.  Solr scores from shingle-field ttf/df vs the component
    terms; our score is the same shape: phrase_ttf / min(term_ttf) — how
    often the words co-occur adjacently relative to the rarest word's
    total occurrences.

    Engine: each candidate phrase is a chain of adjacency intersections
    over the SAME flat composite (doc*stride+pos) key arrays the span
    family uses (`_flat_doc_pos`) — O(candidates x postings of the
    query's 4 terms), never a corpus scan.  Term ttfs are the terms'
    position counts (tf sums)."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.lucene8 import _flat_doc_pos
    from rindex.search import IndexSearcher

    words = PHRASES_QUERY.split()
    cands = [
        tuple(words[i:i + n])
        for n in range(2, PHRASES_MAX_LEN + 1)
        for i in range(len(words) - n + 1)
    ]
    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    posts = r.positions_for(words)
    flat = {w: _flat_doc_pos(posts, [w]) for w in words}
    term_ttf = {w: len(p) for w, (_, p) in flat.items()}
    stride = max((int(p.max()) + 2 for _, p in flat.values() if len(p)),
                 default=1)
    keys = {w: np.sort(d * stride + p) for w, (d, p) in flat.items()}
    rows = []
    for c in cands:
        cur = keys[c[0]]
        for w in c[1:]:
            if not len(cur):
                break
            cur = np.intersect1d(cur + 1, keys[w])
        denom = min(term_ttf[w] for w in c)
        score = round(len(cur) / denom, 6) if denom else 0.0
        rows.append((" ".join(c), len(cur), score))
    out = pd.DataFrame(rows, columns=["phrase", "phrase_ttf", "score"])
    out["phrase_ttf"] = out["phrase_ttf"].astype("int64")
    return out.sort_values(
        ["score", "phrase"], ascending=[False, True]
    ).reset_index(drop=True)


QUERIES["phrases_identify_documents"] = q_phrases_identify_documents


def _phrases_oracle() -> str:
    from rindex.ops.analysis_ext import TOKEN_SQL_RE

    words = PHRASES_QUERY.split()
    cands = [
        words[i:i + n]
        for n in range(2, PHRASES_MAX_LEN + 1)
        for i in range(len(words) - n + 1)
    ]
    parts = []
    for c in cands:
        cond = " AND ".join(
            f"l[i + {j}] = '{w}'" for j, w in enumerate(c)
        )
        terms = ", ".join(f"'{w}'" for w in c)
        parts.append(f"""
      SELECT '{" ".join(c)}' AS phrase,
             (SELECT coalesce(sum(len(list_filter(
                       range(1, len(l) - {len(c) - 1} + 1),
                       i -> {cond}))), 0)
              FROM toks)::BIGINT AS phrase_ttf,
             (SELECT min(cnt) FROM tttf WHERE term IN ({terms})) AS denom
        """)
    union = " UNION ALL ".join(parts)
    return f"""
    WITH toks AS (
      SELECT regexp_extract_all(lower(coalesce(text, '')),
                                '{TOKEN_SQL_RE}') AS l
      FROM documents),
    tttf AS (
      SELECT t AS term, count(*)::BIGINT AS cnt
      FROM (SELECT unnest(l) AS t FROM toks) GROUP BY t)
    SELECT phrase, phrase_ttf,
           CASE WHEN denom > 0
                THEN round(phrase_ttf / denom::DOUBLE, 6)
                ELSE 0.0 END AS score
    FROM ({union})
    ORDER BY score DESC, phrase ASC
"""


ORACLE["phrases_identify_documents"] = _phrases_oracle()


# ---------------------------------------------------------------------------
# WordBreakSpellChecker — split/join suggestions from index frequencies
# ---------------------------------------------------------------------------

WB_BREAK_INPUTS = ("hashjoin", "fastscan", "columnsort")
WB_COMBINE_QUERY = "hash join fast scan"
WB_MIN_PART_LEN = 2   # minBreakWordLength: both split parts >= 2 chars
WB_MIN_FREQ = 1


def word_break_suggest(
    index_dir: str,
    break_inputs: tuple[str, ...] = WB_BREAK_INPUTS,
    combine_query: str = WB_COMBINE_QUERY,
    min_part_len: int = WB_MIN_PART_LEN,
    min_freq: int = WB_MIN_FREQ,
) -> pd.DataFrame:
    """WordBreakSpellChecker (`lucene/suggest/src/java/org/apache/lucene/
    search/spell/WordBreakSpellChecker.java`): suggestWordBreaks splits an
    out-of-vocabulary run-together term at every point where BOTH parts
    are dictionary words (maxChanges=1), ranked by the weaker part's
    docFreq (the reference's freq-of-least-frequent ranking);
    suggestWordCombinations joins each adjacent query-word pair whose
    concatenation is itself a dictionary word.

    Engine shape: the candidate strings (O(len) splits per input + one
    combination per adjacent pair) are enumerated driver-side — dozens of
    strings by construction — and their dfs come from ONE pruned
    per-segment postings metadata probe (global_df); no dictionary scan,
    no corpus read."""
    from rindex.search import IndexSearcher

    splits = []  # (input, left, right)
    for w in break_inputs:
        for i in range(min_part_len, len(w) - min_part_len + 1):
            splits.append((w, w[:i], w[i:]))
    words = combine_query.split()
    combos = [(a, b, a + b) for a, b in zip(words, words[1:])]

    probe = sorted(
        {p for _, l, r in splits for p in (l, r)}
        | {c for _, _, c in combos}
    )
    s = IndexSearcher(index_dir)
    df = s.global_df(probe)

    rows = []
    for w, l, r in splits:
        f = min(df.get(l, 0), df.get(r, 0))
        if f >= min_freq:
            rows.append(("break", w, f"{l} {r}", f))
    for a, b, c in combos:
        f = df.get(c, 0)
        if f >= min_freq:
            rows.append(("combine", f"{a} {b}", c, f))
    out = pd.DataFrame(
        rows, columns=["mode", "input", "suggestion", "freq"]
    )
    out["freq"] = out["freq"].astype("int64")
    return out.sort_values(
        ["mode", "input", "freq", "suggestion"],
        ascending=[True, True, False, True],
    ).reset_index(drop=True)


def q_word_break_spell_documents(sf_dir: str):
    """See :func:`word_break_suggest`; runs it over the shared documents
    index (combine mode is exercised on a compound-bearing corpus in
    tests/test_word_break.py — the synthetic sf vocabulary has no
    run-together compounds, so only break mode fires here)."""
    from rindex.ops.fulltext import documents_index

    return word_break_suggest(documents_index(sf_dir))


QUERIES["word_break_spell_documents"] = q_word_break_spell_documents


def _word_break_oracle() -> str:
    from rindex.ops.analysis_ext import TOKEN_SQL_RE

    splits, combos = [], []
    for w in WB_BREAK_INPUTS:
        for i in range(WB_MIN_PART_LEN, len(w) - WB_MIN_PART_LEN + 1):
            splits.append(f"('{w}', '{w[:i]}', '{w[i:]}')")
    words = WB_COMBINE_QUERY.split()
    for a, b in zip(words, words[1:]):
        combos.append(f"('{a} {b}', '{a}{b}')")
    return f"""
    WITH df AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS df
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(text),
                                             '{TOKEN_SQL_RE}')) AS term
            FROM documents)
      GROUP BY term
    ),
    sp(input, l, r) AS (VALUES {",".join(splits)}),
    cb(input, joined) AS (VALUES {",".join(combos)}),
    breaks AS (
      SELECT 'break' AS mode, sp.input,
             sp.l || ' ' || sp.r AS suggestion,
             least(dl.df, dr.df) AS freq
      FROM sp JOIN df dl ON dl.term = sp.l
              JOIN df dr ON dr.term = sp.r
      WHERE least(dl.df, dr.df) >= {WB_MIN_FREQ}
    ),
    combines AS (
      SELECT 'combine' AS mode, cb.input, cb.joined AS suggestion, d.df
             AS freq
      FROM cb JOIN df d ON d.term = cb.joined
      WHERE d.df >= {WB_MIN_FREQ}
    )
    SELECT mode, input, suggestion, freq
    FROM (SELECT * FROM breaks UNION ALL SELECT * FROM combines)
    ORDER BY mode, input, freq DESC, suggestion
"""


ORACLE["word_break_spell_documents"] = _word_break_oracle()


TERMS_REGEX = "^[a-z]*a[a-z]+$"  # terms containing 'a' (not the bare 'a')


def q_terms_regex_documents(sf_dir: str):
    """TermsComponent terms.regex mode (`solr/core/src/java/org/apache/
    solr/handler/component/TermsComponent.java` REGEXP flag): enumerate
    dictionary terms matching a regex with summed per-segment df/ttf,
    sort=count desc.  Unlike the prefix mode (which becomes a parquet
    range predicate), a regex cannot prune the dictionary — the scan
    reads every segment's term/df/ttf columns (still never the postings
    blobs), the documented cost of regex enumeration; the re2 match runs
    vectorized per batch."""
    import ray.data as rd
    import pyarrow.compute as pc
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
    ds = rd.read_parquet(paths, columns=["term", "df", "ttf"])

    def scan(t: pa.Table) -> pa.Table:
        m = pc.match_substring_regex(t["term"], TERMS_REGEX)
        return t.filter(m)

    out = (
        ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
        .to_pandas()
        .sort_values(["df", "term"], ascending=[False, True],
                     kind="mergesort")
        .reset_index(drop=True)
    )
    return out[["term", "df", "ttf"]]


QUERIES["terms_regex_documents"] = q_terms_regex_documents


def _terms_regex_oracle() -> str:
    from rindex.ops.analysis_ext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id, unnest(regexp_extract_all(lower(text),
                                               '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    st AS (
      SELECT term, count(DISTINCT doc_id)::BIGINT AS df,
             count(*)::BIGINT AS ttf
      FROM toks WHERE regexp_matches(term, '{TERMS_REGEX}')
      GROUP BY term
    )
    SELECT term, df, ttf FROM st ORDER BY df DESC, term ASC
    """


ORACLE["terms_regex_documents"] = _terms_regex_oracle()


# ---------------------------------------------------------------------------
# ContextQuery — context-filtered completion
# ---------------------------------------------------------------------------

CTX_SOURCE = "src3"
CTX_PREFIX = "s"
CTX_LIMIT = 10


def q_suggest_context_documents(sf_dir: str):
    """ContextQuery completion (`lucene/suggest/src/java/org/apache/
    lucene/search/suggest/document/ContextQuery.java`): suggestions for a
    prefix restricted to one CONTEXT — weights count only docs whose
    `source` matches (the reference stores the context in the suggester
    FST at build time; here the context-aware build is one distributed
    tokenize scan producing (term, context) df partials, the per-context
    analog of the dictionary build).  Lookup = prefix + context filter +
    weight-ordered top-k over the tiny aggregated table."""
    from rindex.ops.analysis_ext import _TOKEN_RE

    ds = read_table(sf_dir, "documents", ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        terms, srcs = [], []
        for x, src in zip(t["text"].to_pylist(), t["source"].to_pylist()):
            # DISTINCT terms per doc: suggester weights are docfreqs
            for tk in set(_TOKEN_RE.findall((x or "").lower())):
                if tk.startswith(CTX_PREFIX):
                    terms.append(tk)
                    srcs.append(src)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "source": pa.array(srcs, pa.string()),
            }
        )

    from ray.data.aggregate import Count

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["term", "source"])
        .aggregate(Count(alias_name="weight"))
        .to_pandas()
    )
    hits = agg[agg["source"] == CTX_SOURCE].sort_values(
        ["weight", "term"], ascending=[False, True], kind="mergesort"
    ).head(CTX_LIMIT)
    return (
        hits[["term", "weight"]]
        .rename(columns={"term": "suggestion"})
        .astype({"weight": np.int64})
        .reset_index(drop=True)
    )


QUERIES["suggest_context_documents"] = q_suggest_context_documents
ORACLE["suggest_context_documents"] = f"""
    SELECT term AS suggestion, count(*)::BIGINT AS weight
    FROM (
      SELECT DISTINCT doc_id, term FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text),
                                         '[0-9a-z]+(?:''[0-9a-z]+)*')) AS term
        FROM documents WHERE source = '{CTX_SOURCE}')
    ) t JOIN documents d USING (doc_id)
    WHERE term LIKE '{CTX_PREFIX}%'
    GROUP BY term ORDER BY weight DESC, suggestion ASC LIMIT {CTX_LIMIT}
"""
