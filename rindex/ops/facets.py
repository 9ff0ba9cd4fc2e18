"""Facet-module depth: pivot facets, JSON-Facet-API nested subfacets with
stat-sorted buckets, and query facets (SURVEY.md §2.5).

Reference surfaces:
- facet.pivot (hierarchical field pivots): `solr/core/src/java/org/apache/
  solr/handler/component/PivotFacetProcessor.java`
- JSON Facet API nested facets with `sort` on a stat and per-bucket
  sub-aggregates: `solr/core/src/java/org/apache/solr/search/facet/
  FacetField.java` + `FacetRequest.java`
- facet.query (named predicate counts): `solr/core/src/java/org/apache/
  solr/request/SimpleFacets.java#getFacetQueryCounts`

Scale notes: the wide step of every op here is ONE leaf-level Ray
`groupby().aggregate()` whose shuffle carries per-block partials (Ray
pre-aggregates inside blocks), never raw rows.  Parent-level counts, the
stat sort and the per-parent top-N are computed on the AGGREGATED frame —
its row count is the leaf-bucket cardinality (bounded by the facet
domain's distinct combos, e.g. statuses×priorities), not the data size,
so driver-side ranking is O(buckets) at any corpus scale.  Query facets
evaluate all named predicates in a single scan (one vectorized boolean
mask per predicate per batch) and shuffle only (facet, partial-count)
rows.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rindex.schema import join_partitions
from rindex.ops.util import N_BUCKETS, bucket_map_groups, read_table

QUERIES: dict = {}
ORACLE: dict = {}


PIVOT_LIMIT = 2  # facet.limit at the leaf level (top-N priorities/status)


def q_pivot_facet_orders(sf_dir: str):
    """facet.pivot=o_orderstatus,o_orderpriority: hierarchical counts with
    Solr's bucket ordering (count desc, value asc tiebreak) and a leaf
    facet.limit — each status bucket carries its own count plus its top-2
    priority sub-buckets.  One leaf groupby; both levels derived from the
    leaf aggregate (parent count = sum of its leaves, no second scan)."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
    leaf = (
        ds.groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Count(alias_name="pri_n"))
        .to_pandas()
    )
    leaf["status_n"] = leaf.groupby("o_orderstatus")["pri_n"].transform("sum")
    leaf = leaf.sort_values(
        ["o_orderstatus", "pri_n", "o_orderpriority"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    leaf["pri_rank"] = leaf.groupby("o_orderstatus", sort=False).cumcount()
    out = leaf[leaf["pri_rank"] < PIVOT_LIMIT].reset_index(drop=True)
    out["pri_rank"] = out["pri_rank"].astype("int32")
    return out[
        ["o_orderstatus", "status_n", "o_orderpriority", "pri_n", "pri_rank"]
    ]


QUERIES["pivot_facet_orders"] = q_pivot_facet_orders
ORACLE["pivot_facet_orders"] = f"""
WITH leaf AS (
  SELECT o_orderstatus, o_orderpriority, count(*) AS pri_n
  FROM orders GROUP BY 1, 2
),
ranked AS (
  SELECT o_orderstatus,
         sum(pri_n) OVER (PARTITION BY o_orderstatus)::BIGINT AS status_n,
         o_orderpriority, pri_n,
         (row_number() OVER (PARTITION BY o_orderstatus
                             ORDER BY pri_n DESC, o_orderpriority ASC)
          - 1)::INTEGER AS pri_rank
  FROM leaf
)
SELECT o_orderstatus, status_n, o_orderpriority, pri_n, pri_rank
FROM ranked WHERE pri_rank < {PIVOT_LIMIT}
"""


JSON_FACET_PARENT_LIMIT = 3  # top event types by sum(value) desc
JSON_FACET_SUB_LIMIT = 3     # top weekdays per type by count desc


def q_json_facet_nested_events(sf_dir: str):
    """JSON Facet API nested facet: terms facet on event_type with bucket
    `sort: "sum_value desc", limit: 3`, per-bucket stats (n, sum, avg), and
    a nested terms subfacet on ISO weekday (top-3 by count per parent).
    The leaf groupby is (event_type, weekday); parent stats are exact sums
    of their leaves so one shuffle feeds both facet levels."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                # Arrow day_of_week: Monday=0 (matches DuckDB isodow-1)
                "weekday": pc.day_of_week(t["ts"]),
                # value has 2-decimal precision in the corpus: sum exact
                # integer cents so partial-sum ORDER cannot perturb the
                # float result (driver hash is exact, not rtol)
                "cents": pc.cast(
                    pc.round(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    leaf = (
        ds.groupby(["event_type", "weekday"])
        .aggregate(Count(alias_name="wd_n"), Sum("cents", alias_name="wd_cents"))
        .to_pandas()
    )
    parent = (
        leaf.groupby("event_type", as_index=False)
        .agg(n=("wd_n", "sum"), cents=("wd_cents", "sum"))
        .sort_values(["cents", "event_type"], ascending=[False, True],
                     kind="mergesort")
        .head(JSON_FACET_PARENT_LIMIT)
    )
    # exact-int → double derivations, same operand order as the oracle SQL
    parent["sum_value"] = parent["cents"] / 100.0
    parent["avg_value"] = (parent["cents"] / parent["n"]) / 100.0
    parent = parent.drop(columns=["cents"])
    sub = leaf[leaf["event_type"].isin(parent["event_type"])].copy()
    sub = sub.sort_values(
        ["event_type", "wd_n", "weekday"], ascending=[True, False, True],
        kind="mergesort",
    )
    sub["wd_rank"] = sub.groupby("event_type", sort=False).cumcount()
    sub = sub[sub["wd_rank"] < JSON_FACET_SUB_LIMIT]
    out = parent.merge(
        sub[["event_type", "weekday", "wd_n", "wd_rank"]], on="event_type"
    ).reset_index(drop=True)
    out["weekday"] = out["weekday"].astype("int64")
    out["wd_rank"] = out["wd_rank"].astype("int32")
    return out[
        ["event_type", "n", "sum_value", "avg_value",
         "weekday", "wd_n", "wd_rank"]
    ]


QUERIES["json_facet_nested_events"] = q_json_facet_nested_events
ORACLE["json_facet_nested_events"] = f"""
WITH leaf AS (
  SELECT event_type, isodow(ts) - 1 AS weekday,
         count(*) AS wd_n,
         sum(CAST(round(value * 100, 0) AS BIGINT)) AS wd_cents
  FROM events GROUP BY 1, 2
),
parent AS (
  SELECT event_type, sum(wd_n)::BIGINT AS n,
         sum(wd_cents)::BIGINT / 100.0 AS sum_value,
         (sum(wd_cents)::BIGINT::DOUBLE / sum(wd_n)::BIGINT) / 100.0
           AS avg_value,
         (row_number() OVER (ORDER BY sum(wd_cents) DESC, event_type ASC)
          - 1) AS prank
  FROM leaf GROUP BY 1
),
sub AS (
  SELECT event_type, weekday, wd_n,
         (row_number() OVER (PARTITION BY event_type
                             ORDER BY wd_n DESC, weekday ASC)
          - 1)::INTEGER AS wd_rank
  FROM leaf
)
SELECT p.event_type, p.n, p.sum_value, p.avg_value,
       s.weekday, s.wd_n, s.wd_rank
FROM parent p JOIN sub s USING (event_type)
WHERE p.prank < {JSON_FACET_PARENT_LIMIT}
  AND s.wd_rank < {JSON_FACET_SUB_LIMIT}
"""


# facet.query: named predicates counted in one scan
QUERY_FACETS: list[tuple[str, str]] = [
    # (facet name, DuckDB predicate) — the Ray side evaluates the same
    # predicate as a vectorized Arrow mask (built in _QF_MASKS below)
    ("high_value", "o_totalprice > 200000"),
    ("open_urgent", "o_orderstatus = 'O' AND o_orderpriority = '1-URGENT'"),
    ("low_or_unspec", "o_orderpriority IN ('5-LOW', '4-NOT SPECIFIED')"),
    ("finished_cheap", "o_orderstatus = 'F' AND o_totalprice < 50000"),
]


def _qf_masks(t: pa.Table) -> dict[str, pa.ChunkedArray]:
    price, status, pri = t["o_totalprice"], t["o_orderstatus"], t["o_orderpriority"]
    return {
        "high_value": pc.greater(price, 200000.0),
        "open_urgent": pc.and_(
            pc.equal(status, "O"), pc.equal(pri, "1-URGENT")
        ),
        "low_or_unspec": pc.is_in(
            pri, value_set=pa.array(["5-LOW", "4-NOT SPECIFIED"])
        ),
        "finished_cheap": pc.and_(
            pc.equal(status, "F"), pc.less(price, 50000.0)
        ),
    }


def q_query_facets_orders(sf_dir: str):
    """facet.query: count each named predicate over the domain in ONE scan
    — every batch emits one (facet, partial-count) row per predicate from a
    vectorized Arrow mask, and the final groupby sums |facets| × |blocks|
    tiny rows.  N query facets never cost N scans."""
    from ray.data.aggregate import Sum

    ds = read_table(
        sf_dir, "orders", ["o_totalprice", "o_orderstatus", "o_orderpriority"]
    )

    def partials(t: pa.Table) -> pa.Table:
        masks = _qf_masks(t)
        names = [n for n, _ in QUERY_FACETS]
        return pa.table(
            {
                "facet": pa.array(names),
                "pn": pa.array(
                    [int(pc.sum(masks[n]).as_py() or 0) for n in names],
                    pa.int64(),
                ),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("facet")
        .aggregate(Sum("pn", alias_name="n"))
    )
    return out


QUERIES["query_facets_orders"] = q_query_facets_orders
ORACLE["query_facets_orders"] = " UNION ALL ".join(
    f"SELECT '{name}' AS facet, count(*) FILTER (WHERE {pred})::BIGINT AS n "
    "FROM orders"
    for name, pred in QUERY_FACETS
)


# ---------------------------------------------------------------------------
# Interval facets — facet.interval with open/closed/unbounded endpoints
# ---------------------------------------------------------------------------

# (label, lo, lo_incl, hi, hi_incl); None bound = '*'.  Intervals may
# OVERLAP (here the 2nd/3rd do) — the semantics range facets cannot express
# (reference: `solr/core/src/java/org/apache/solr/request/IntervalFacets.java`,
# interval syntax `[a,b)` / `(a,b]` / `[*,b]` per the Solr ref guide).
INTERVALS: list[tuple[str, float | None, bool, float | None, bool]] = [
    ("(*,50000]", None, False, 50000.0, True),
    ("[50000,150000)", 50000.0, True, 150000.0, False),
    ("[100000,200000)", 100000.0, True, 200000.0, False),
    ("[250000,*]", 250000.0, True, None, False),
]


def _interval_mask(v: np.ndarray, lo, lo_incl, hi, hi_incl) -> np.ndarray:
    m = np.ones(len(v), dtype=bool)
    if lo is not None:
        m &= (v >= lo) if lo_incl else (v > lo)
    if hi is not None:
        m &= (v <= hi) if hi_incl else (v < hi)
    return m


def q_interval_facet_totalprice(sf_dir: str):
    """facet.interval over o_totalprice: every interval counted in ONE scan
    (per-batch vectorized masks -> (interval, partial-count) rows; the
    shuffle carries |intervals| x |blocks| tiny rows, never order rows), so
    overlapping intervals cost nothing extra — the same one-pass
    DocValues-walk contract as the reference's IntervalFacets accumulator."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", ["o_totalprice"])

    def partials(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy()
        return pa.table(
            {
                "interval": pa.array([i[0] for i in INTERVALS]),
                "pn": pa.array(
                    [int(_interval_mask(v, *i[1:]).sum()) for i in INTERVALS],
                    pa.int64(),
                ),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("interval")
        .aggregate(Sum("pn", alias_name="n"))
    )


def _interval_pred(lo, lo_incl, hi, hi_incl) -> str:
    parts = []
    if lo is not None:
        parts.append(f"o_totalprice {'>=' if lo_incl else '>'} {lo}")
    if hi is not None:
        parts.append(f"o_totalprice {'<=' if hi_incl else '<'} {hi}")
    return " AND ".join(parts) or "TRUE"


QUERIES["interval_facet_totalprice"] = q_interval_facet_totalprice
ORACLE["interval_facet_totalprice"] = " UNION ALL ".join(
    f"SELECT '{label}' AS interval, "
    f"count(*) FILTER (WHERE {_interval_pred(lo, li, hi, hi_i)})::BIGINT AS n "
    "FROM orders"
    for label, lo, li, hi, hi_i in INTERVALS
)


# ---------------------------------------------------------------------------
# facet.missing — the null bucket of a terms facet
# ---------------------------------------------------------------------------

def q_terms_facet_missing_events(sf_dir: str):
    """facet.missing=true: terms facet over a DERIVED field that is null on
    part of the domain (two-digit `k` parsed from props — single-digit rows
    have no value, the classic URP-parsed-field gap), with the null count
    as Solr's `missing` bucket (reference: `solr/core/src/java/org/apache/
    solr/request/SimpleFacets.java#getFacetTermEnumCounts` missing=true
    branch).  One scan: the bucket label (decade string or 'missing')
    computed vectorized per batch, shuffled as count partials."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["props"])

    def f(t: pa.Table) -> pa.Table:
        k2 = pc.cast(
            pc.struct_field(
                pc.extract_regex(t["props"], r'"k": (?P<k>\d\d)(?:\D|$)'),
                "k",
            ),
            pa.int64(),
        )
        decade = pc.cast(pc.multiply(pc.divide(k2, 10), 10), pa.string())
        bucket = pc.coalesce(decade, pa.scalar("missing"))
        return pa.table({"bucket": bucket})

    return (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Count(alias_name="n"))
    )


QUERIES["terms_facet_missing_events"] = q_terms_facet_missing_events
ORACLE["terms_facet_missing_events"] = """
    SELECT coalesce(
             ((nullif(regexp_extract(props, '"k": (\\d\\d)(?:\\D|$)', 1),
                      '')::BIGINT // 10) * 10)::VARCHAR,
             'missing') AS bucket,
           count(*)::BIGINT AS n
    FROM events GROUP BY 1
"""


def q_group_facet_event_types(sf_dir: str):
    """Grouped faceting (group.facet=true — `solr/core/src/java/org/
    apache/solr/request/SimpleFacets.java` grouped-facet path): facet
    counts count GROUPS (here: users), not documents — each event_type's
    count is how many DISTINCT users emitted it.  That quantity IS the
    UniqueAgg the relational module already computes with its measured
    coarse-bucket partial+combine shape, so this op is a thin delegation
    (ONE distributed count-distinct implementation to keep correct), with
    the group.facet column name."""
    from rindex.ops.relational import q_exact_distinct_users_per_type

    out = q_exact_distinct_users_per_type(sf_dir).to_pandas()
    out = out.rename(columns={"n_users": "n_groups"})
    out["n_groups"] = out["n_groups"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["group_facet_event_types"] = q_group_facet_event_types
ORACLE["group_facet_event_types"] = """
    SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_groups
    FROM events
    GROUP BY event_type
    ORDER BY event_type
"""


RANGE_START, RANGE_END, RANGE_GAP = 10000, 400000, 120000


def q_range_facet_hardend_orders(sf_dir: str):
    """facet.range with the FULL parameter surface (FacetRange —
    `solr/core/src/java/org/apache/solr/search/facet/FacetRange.java`):
    start/end/gap with include=lower (lower-inclusive, upper-exclusive),
    hardend=true (the last bucket is clamped to `end` instead of
    extending a full gap past it — its START is still the last gap
    multiple) and other=all (the 'before' and 'after' ranges).  Bucket
    assignment is ONE vectorized searchsorted over the edge array per
    batch; the shuffle carries only (label, count) partials."""
    from ray.data.aggregate import Count

    edges = np.arange(RANGE_START, RANGE_END, RANGE_GAP, dtype=np.float64)
    edges_full = np.append(edges, float(RANGE_END))

    def assign(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy()
        idx = np.searchsorted(edges_full, v, side="right") - 1
        label = np.empty(len(v), dtype=object)
        label[idx < 0] = "before"
        label[idx >= len(edges)] = "after"
        inb = (idx >= 0) & (idx < len(edges))
        label[inb] = edges[idx[inb]].astype(np.int64).astype(str)
        return pa.table({"label": pa.array(label, pa.string())})

    ds = read_table(sf_dir, "orders", ["o_totalprice"])
    out = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("label").reset_index(drop=True)


QUERIES["range_facet_hardend_orders"] = q_range_facet_hardend_orders
ORACLE["range_facet_hardend_orders"] = f"""
    SELECT label, count(*)::BIGINT AS n FROM (
      SELECT CASE
               WHEN o_totalprice < {RANGE_START} THEN 'before'
               WHEN o_totalprice >= {RANGE_END} THEN 'after'
               ELSE (({RANGE_START}
                      + (floor((o_totalprice - {RANGE_START})
                               / {RANGE_GAP}))::BIGINT * {RANGE_GAP}))::VARCHAR
             END AS label
      FROM orders)
    GROUP BY label
    ORDER BY label
"""


def q_json_facet_allbuckets_events(sf_dir: str):
    """JSON Facet API allBuckets/numBuckets (`solr/core/src/java/org/
    apache/solr/search/facet/FacetFieldProcessor.java#allBucketsAcc`):
    terms facet on event_type, limit 3 by count desc, with the two
    summary accumulators the API adds — allBuckets (stats over the WHOLE
    domain regardless of limit) and numBuckets (total distinct buckets).
    ONE distributed groupby feeds the buckets, the summaries derive from
    its (small) result; integer cents keep the sums exact."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", ["event_type", "value"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "cents": pc.cast(
                    pc.round(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    g = (
        ds.groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("cents", alias_name="cents"))
        .to_pandas()
    )
    top = g.sort_values(
        ["n", "event_type"], ascending=[False, True], kind="mergesort"
    ).head(3).copy()
    top["sum_value"] = top["cents"] / 100.0
    top = top.drop(columns=["cents"])
    top["num_buckets"] = np.int64(len(g))
    top["all_n"] = np.int64(g["n"].sum())
    top["all_sum_value"] = int(g["cents"].sum()) / 100.0
    return top.reset_index(drop=True)


QUERIES["json_facet_allbuckets_events"] = q_json_facet_allbuckets_events
ORACLE["json_facet_allbuckets_events"] = """
    WITH g AS (
      SELECT event_type, count(*)::BIGINT AS n,
             sum(cast(round(value * 100.0) AS BIGINT))::BIGINT AS cents
      FROM events GROUP BY 1
    ),
    a AS (
      SELECT count(*)::BIGINT AS num_buckets, sum(n)::BIGINT AS all_n,
             sum(cents)::BIGINT AS all_cents
      FROM g
    )
    SELECT event_type, n, cents / 100.0 AS sum_value,
           num_buckets, all_n, all_cents / 100.0 AS all_sum_value
    FROM g, a
    ORDER BY n DESC, event_type ASC
    LIMIT 3
"""


# ---------------------------------------------------------------------------
# facet.prefix + facet.sort=index (SimpleFacets term-filter params)
# ---------------------------------------------------------------------------

FACET_PREFIX = "src1"
FACET_PREFIX_LIMIT = 10


def q_facet_prefix_documents(sf_dir: str):
    """facet.prefix + facet.sort=index + facet.limit (`solr/core/src/java/
    org/apache/solr/request/SimpleFacets.java` — the term-filter params of
    the classic facet API): term buckets restricted to a prefix, ordered
    lexically (sort=index, vs the default count ordering), first N.  The
    prefix filter is a vectorized starts_with BEFORE the shuffle, so only
    matching (term, partial-count) rows move."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "documents", ["source"])

    def pf(t: pa.Table) -> pa.Table:
        m = pc.starts_with(t["source"], FACET_PREFIX)
        return t.filter(m)

    return (
        ds.map_batches(pf, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Count(alias_name="n"))
        .sort("source")
        .limit(FACET_PREFIX_LIMIT)
    )


QUERIES["facet_prefix_documents"] = q_facet_prefix_documents
ORACLE["facet_prefix_documents"] = f"""
    SELECT source, count(*)::BIGINT AS n
    FROM documents
    WHERE source LIKE '{FACET_PREFIX}%'
    GROUP BY source
    ORDER BY source
    LIMIT {FACET_PREFIX_LIMIT}
"""


# ---------------------------------------------------------------------------
# JSON Facet API percentile aggregator — the EXACT variant (the scale path
# is the mergeable t-digest already registered as
# percentile_tdigest_value_per_type; reference: `solr/core/src/java/org/
# apache/solr/search/facet/PercentileAgg.java`, which is t-digest too).
# ---------------------------------------------------------------------------


def q_json_facet_percentile_events(sf_dir: str):
    """Per-bucket exact percentiles: percentile(value, 50/90) per
    event_type via map_groups (the group's value multiset must be whole
    for an exact quantile — this is the documented exact-oracle variant;
    t-digest is the 100-TB path).  R-7 interpolation with the explicit
    expression mirrored in the oracle; round-6 outputs."""
    from rindex.ops.evaluators import _percentile_r7, round_sql

    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def grp(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": [np.int64(len(v))],
                "pct50": [round_sql(_percentile_r7(v, 50.0))],
                "pct90": [round_sql(_percentile_r7(v, 90.0))],
            }
        )

    return (
        ds.groupby("event_type")
        .map_groups(grp, batch_format="pandas")
        .sort("event_type")
    )


QUERIES["json_facet_percentile_events"] = q_json_facet_percentile_events
# R-7: h = (n-1)*p/100, val = l[floor(h)+1] + (l[floor(h)+2] - ...) * (h -
# floor(h)) over the per-bucket ORDER BY value list (1-based, upper index
# clamped) — quantile_cont's internal fp expression is unspecified, so the
# oracle re-derives the interpolation explicitly.
_PCT_SQL = """
      l[CAST(floor(h{p}) AS BIGINT) + 1]
      + (l[least(CAST(floor(h{p}) AS BIGINT) + 2, n::BIGINT)]
         - l[CAST(floor(h{p}) AS BIGINT) + 1]) * (h{p} - floor(h{p}))
"""
ORACLE["json_facet_percentile_events"] = f"""
    WITH g AS (
      SELECT event_type, count(*)::BIGINT AS n,
             list(value ORDER BY value) AS l,
             ((count(*) - 1.0) * 50.0) / 100.0 AS h50,
             ((count(*) - 1.0) * 90.0) / 100.0 AS h90
      FROM events GROUP BY event_type
    )
    SELECT event_type, n,
           round({_PCT_SQL.format(p='50')}, 6) AS pct50,
           round({_PCT_SQL.format(p='90')}, 6) AS pct90
    FROM g
    ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Date-range facet: facet.range over a DATE field with a DateMath gap
# (`solr/core/src/java/org/apache/solr/search/facet/FacetRange.java` +
# `util/DateMathParser.java` — the range-facet machinery is shared with
# the numeric form; what's date-specific is gap arithmetic in calendar
# units and bucket labels at the bucket START instant).  Same engine
# shape as the numeric op: the edge array (epoch-us) is computed once on
# the driver, bucket assignment is ONE searchsorted per batch, and only
# (label, count) partials cross the shuffle.  other=all emits the
# 'before'/'after' ranges; include=lower (lower-inclusive,
# upper-exclusive), the facet.range default.
# ---------------------------------------------------------------------------

DR_START = np.datetime64("2024-01-05")
DR_END = np.datetime64("2024-01-25")
DR_GAP_DAYS = 5


def q_date_range_facet_events(sf_dir: str):
    """facet.range on events.ts: start=2024-01-05, end=2024-01-25,
    gap=+5DAYS, other=all."""
    from ray.data.aggregate import Count

    starts = np.arange(DR_START, DR_END, np.timedelta64(DR_GAP_DAYS, "D"))
    edges_us = np.append(starts, DR_END).astype("datetime64[us]").astype(np.int64)
    labels = np.datetime_as_string(starts, unit="D")

    def assign(t: pa.Table) -> pa.Table:
        v = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        idx = np.searchsorted(edges_us, v, side="right") - 1
        label = np.empty(len(v), dtype=object)
        label[idx < 0] = "before"
        label[idx >= len(labels)] = "after"
        inb = (idx >= 0) & (idx < len(labels))
        label[inb] = labels[idx[inb]]
        return pa.table({"label": pa.array(label, pa.string())})

    ds = read_table(sf_dir, "events", ["ts"])
    out = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("label").reset_index(drop=True)


QUERIES["date_range_facet_events"] = q_date_range_facet_events
ORACLE["date_range_facet_events"] = f"""
    SELECT label, count(*)::BIGINT AS n FROM (
      SELECT CASE
               WHEN ts < TIMESTAMP '2024-01-05' THEN 'before'
               WHEN ts >= TIMESTAMP '2024-01-25' THEN 'after'
               ELSE (DATE '2024-01-05'
                     + ({DR_GAP_DAYS} * (date_diff('day',
                         TIMESTAMP '2024-01-05', ts) // {DR_GAP_DAYS})
                        )::INTEGER)::VARCHAR
             END AS label
      FROM events)
    GROUP BY label
    ORDER BY label
"""


# ---------------------------------------------------------------------------
# Multi-select faceting: JSON Facet domain {excludeTags} (`solr/core/src/
# java/org/apache/solr/search/facet/FacetRequest.java` domain filter
# exclusion + `solr/core/.../request/SimpleFacets.java` tagged-fq
# handling).  The UI pattern: the user ticks event_type=click, the
# type facet must still show counts for ALL types (the click filter is
# tagged and EXCLUDED from that facet's domain) while other facets honor
# it.  Engine shape: ONE corpus scan computes both facets as boolean
# masks per batch — base filter, tagged filter, bucket keys — emitting
# (facet, bucket, n) partials; one tiny groupby.  No second read.
# ---------------------------------------------------------------------------

MS_VALUE_MIN = 10.0        # the untagged base filter: value > 10
MS_TAGGED_TYPE = "click"   # the tagged fq: event_type = click


def q_json_facet_multiselect_events(sf_dir: str):
    """Two facets, one scan: `types` over event_type with the tagged
    type-filter excluded (multi-select), `values` over value deciles
    with every filter applied."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def masks(t: pa.Table) -> pa.Table:
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        v = t["value"].to_numpy()
        base = v > MS_VALUE_MIN
        tagged = et == MS_TAGGED_TYPE
        # facet A: event_type buckets, click-filter EXCLUDED
        fa = base
        # facet B: value decile buckets, ALL filters applied
        fb = base & tagged
        dec = np.floor(v / 10.0).astype(np.int64).astype(str)
        facet = np.concatenate(
            [np.repeat("types", fa.sum()), np.repeat("values", fb.sum())]
        )
        bucket = np.concatenate([et[fa], dec[fb]])
        return pa.table(
            {
                "facet": pa.array(facet, pa.string()),
                "bucket": pa.array(bucket, pa.string()),
                "c": pa.array(np.ones(len(facet), np.int64)),
            }
        )

    out = (
        ds.map_batches(masks, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["facet", "bucket"])
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["facet", "bucket"]).reset_index(drop=True)


QUERIES["json_facet_multiselect_events"] = q_json_facet_multiselect_events
ORACLE["json_facet_multiselect_events"] = f"""
    SELECT 'types' AS facet, event_type AS bucket, count(*)::BIGINT AS n
    FROM events WHERE value > {MS_VALUE_MIN}
    GROUP BY event_type
    UNION ALL
    SELECT 'values' AS facet,
           (floor(value / 10.0)::BIGINT)::VARCHAR AS bucket,
           count(*)::BIGINT AS n
    FROM events
    WHERE value > {MS_VALUE_MIN} AND event_type = '{MS_TAGGED_TYPE}'
    GROUP BY 2
    ORDER BY facet, bucket
"""


# ---------------------------------------------------------------------------
# JSON Facet API domain change: blockChildren (`solr/core/src/java/org/
# apache/solr/search/facet/FacetRequest.java` domain {blockChildren: ...} /
# `solr/core/src/java/org/apache/solr/search/join/
# BlockJoinChildQParserPlugin.java`): the facet domain switches from the
# matched PARENTS to their CHILDREN before bucketing.
# ---------------------------------------------------------------------------

BC_PRICE_MIN = 300000


FACET_BCAST_MAX_PARENTS = int(
    os.environ.get("RINDEX_FACET_BCAST_MAX", 4_000_000)
)


def q_json_facet_block_children_orders(sf_dir: str):
    """Parents = orders with o_totalprice > {BC_PRICE_MIN}; domain switches
    to their lineitems; terms facet on l_returnflag with count + quantity
    sum.  Below FACET_BCAST_MAX_PARENTS matched parents the key set
    broadcasts once (int64 keys — ~8 B per parent, fine to ~10^8) and the
    child scan filters against it per batch with NO child shuffle; above
    it the op auto-switches to a hash-partitioned Dataset.join of the
    child table against the (key-only) parent Dataset — the reference's
    BlockJoin domain switch never assumes the parent set fits one node
    either (`solr/core/src/java/org/apache/solr/search/facet/
    BlockJoin.java`).  Env-overridable so tests exercise the join path at
    small scale."""
    import ray
    from ray.data.aggregate import Count, Sum

    parents_ds = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .filter(expr=f"o_totalprice > {BC_PRICE_MIN}")
        .select_columns(["o_orderkey"])
        .materialize()
    )
    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_quantity"]
    )
    if parents_ds.count() <= FACET_BCAST_MAX_PARENTS:
        keys = np.sort(parents_ds.to_pandas()["o_orderkey"].to_numpy(np.int64))
        kref = ray.put(keys)

        def pick(t: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            m = np.isin(
                t["l_orderkey"].to_numpy(zero_copy_only=False), ks,
                assume_unique=False,
            )
            return t.filter(pa.array(m))

        matched = li.map_batches(
            pick, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        matched = li.join(
            parents_ds,
            "inner",
            num_partitions=join_partitions(),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )
    agg = (
        matched.groupby("l_returnflag")
        .aggregate(Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty"))
        .to_pandas()
    )
    agg["n"] = agg["n"].astype(np.int64)
    agg["sum_qty"] = agg["sum_qty"].astype(np.float64)
    return agg[["l_returnflag", "n", "sum_qty"]]


QUERIES["json_facet_block_children_orders"] = q_json_facet_block_children_orders
ORACLE["json_facet_block_children_orders"] = f"""
    SELECT l_returnflag, count(*)::BIGINT AS n, sum(l_quantity) AS sum_qty
    FROM lineitem
    WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                         WHERE o_totalprice > {BC_PRICE_MIN})
    GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# uniqueBlock() JSON facet aggregation (`solr/core/src/java/org/apache/solr/
# search/facet/UniqueBlockAgg.java`): from a CHILD facet domain, count the
# DISTINCT PARENT blocks per bucket (the cheap block-aware form of
# unique(_root_)).  Same coarse-bucket distinct shape as UniqueAgg: shuffle
# on parent_key % prime so one task owns every child of its parents, dedupe
# (bucket, parent) pairs vectorized, sum tiny partials.
# ---------------------------------------------------------------------------


def q_json_facet_unique_block_orders(sf_dir: str):
    """Terms facet on l_returnflag over the lineitem (child) domain with
    n = child count and n_orders = uniqueBlock(parent): distinct parent
    orders per bucket."""
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        n_child = g.groupby("l_returnflag", sort=False).size()
        d = g.drop_duplicates(["l_returnflag", "l_orderkey"])
        n_par = d.groupby("l_returnflag", sort=False).size()
        return pd.DataFrame(
            {
                "l_returnflag": n_child.index.to_numpy(object),
                "n": n_child.to_numpy(np.int64),
                "n_orders": n_par.reindex(n_child.index).to_numpy(np.int64),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("l_returnflag", as_index=False).agg(
            n=("n", "sum"), n_orders=("n_orders", "sum")
        )
        out["n"] = out["n"].astype(np.int64)
        out["n_orders"] = out["n_orders"].astype(np.int64)
        return out

    return (
        bucket_map_groups(li, "l_orderkey", partial, N_BUCKETS)
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


QUERIES["json_facet_unique_block_orders"] = q_json_facet_unique_block_orders
ORACLE["json_facet_unique_block_orders"] = """
    SELECT l_returnflag, count(*)::BIGINT AS n,
           count(DISTINCT l_orderkey)::BIGINT AS n_orders
    FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# relatedness() JSON facet agg — the Semantic Knowledge Graph statistic
# (`solr/core/src/java/org/apache/solr/search/facet/RelatednessAgg.java`;
# Grainger et al., "The Semantic Knowledge Graph", DSAA 2016).  Computed
# here in the documented two-proportion z-test form: how over-represented
# is each bucket in the FOREGROUND (docs matching a query) vs the
# BACKGROUND (all docs): z = (fg_pop - bg_pop) / sqrt(bg_pop * (1 -
# bg_pop) / fg_size).  One scan; per-batch partials carry four integers
# per bucket.
# ---------------------------------------------------------------------------

SKG_TERM = "spark"


def q_json_facet_relatedness_documents(sf_dir: str):
    """Buckets = source; foreground = documents whose text contains the
    token '{SKG_TERM}'; outputs fg/bg counts and the z-test relatedness
    (round 6), bucket asc."""
    import re as _re

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])
    rx = _re.compile(r"(?:^|[^0-9a-z])" + SKG_TERM + r"(?:[^0-9a-z]|$)")

    def partial(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        low = pc.utf8_lower(pc.coalesce(t["text"], "")).to_pylist()
        fg = np.fromiter((rx.search(x) is not None for x in low),
                         bool, len(low))
        df = pd.DataFrame(
            {"source": t["source"].to_pylist(), "fg": fg.astype(np.int64)}
        )
        out = df.groupby("source", as_index=False).agg(
            fg_count=("fg", "sum"), bg_count=("fg", "size")
        )
        return out

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    agg = parts.groupby("source", as_index=False)[["fg_count", "bg_count"]].sum()
    fg_size = float(agg["fg_count"].sum())
    bg_size = float(agg["bg_count"].sum())
    fg_pop = agg["fg_count"].to_numpy(np.float64) / fg_size
    bg_pop = agg["bg_count"].to_numpy(np.float64) / bg_size
    z = (fg_pop - bg_pop) / np.sqrt(bg_pop * (1.0 - bg_pop) / fg_size)
    out = pd.DataFrame(
        {
            "source": agg["source"].to_numpy(object),
            "fg_count": agg["fg_count"].to_numpy(np.int64),
            "bg_count": agg["bg_count"].to_numpy(np.int64),
            "relatedness": np.round(z, 6),
        }
    ).sort_values("source", kind="mergesort").reset_index(drop=True)
    return out


QUERIES["json_facet_relatedness_documents"] = q_json_facet_relatedness_documents
ORACLE["json_facet_relatedness_documents"] = f"""
    WITH d AS (
      SELECT source,
             CASE WHEN regexp_matches(lower(coalesce(text, '')),
                  '(^|[^0-9a-z]){SKG_TERM}([^0-9a-z]|$)') THEN 1 ELSE 0 END
               AS fg
      FROM documents
    ),
    agg AS (
      SELECT source, sum(fg)::BIGINT AS fg_count,
             count(*)::BIGINT AS bg_count
      FROM d GROUP BY source
    ),
    tot AS (
      SELECT sum(fg_count)::DOUBLE AS fg_size,
             sum(bg_count)::DOUBLE AS bg_size
      FROM agg
    )
    SELECT source, fg_count, bg_count,
           round((fg_count / fg_size - bg_count / bg_size)
                 / sqrt(bg_count / bg_size * (1.0 - bg_count / bg_size)
                        / fg_size), 6) AS relatedness
    FROM agg CROSS JOIN tot
    ORDER BY source
"""


# ---------------------------------------------------------------------------
# Facet pagination (facet.offset + facet.limit — SimpleFacets paging,
# `solr/core/src/java/org/apache/solr/request/SimpleFacets.java`): the
# second page of count-ordered buckets.
# ---------------------------------------------------------------------------

FACET_PAGE_OFFSET, FACET_PAGE_LIMIT = 5, 5


def q_facet_pagination_documents(sf_dir: str):
    """Terms facet on `source` ordered (count desc, value asc), page 2
    (offset {FACET_PAGE_OFFSET}, limit {FACET_PAGE_LIMIT}).  The paging cut
    happens on the bucket table (bucket-cardinality-sized), never the
    corpus."""
    from ray.data.aggregate import Count

    agg = (
        read_table(sf_dir, "documents", ["source"])
        .groupby("source")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    agg["n"] = agg["n"].astype(np.int64)
    page = (
        agg.sort_values(["n", "source"], ascending=[False, True],
                        kind="mergesort")
        .iloc[FACET_PAGE_OFFSET: FACET_PAGE_OFFSET + FACET_PAGE_LIMIT]
        .reset_index(drop=True)
    )
    return page[["source", "n"]]


QUERIES["facet_pagination_documents"] = q_facet_pagination_documents
ORACLE["facet_pagination_documents"] = f"""
    SELECT source, count(*)::BIGINT AS n
    FROM documents GROUP BY source
    ORDER BY n DESC, source ASC
    LIMIT {FACET_PAGE_LIMIT} OFFSET {FACET_PAGE_OFFSET}
"""


# ---------------------------------------------------------------------------
# facet.pivot + stats.field — stats nested inside pivot buckets
# ---------------------------------------------------------------------------


def q_pivot_facet_stats_orders(sf_dir: str):
    """facet.pivot with a hung stats component
    (`facet.pivot={{!stats=p}}priority,status` +
    `stats.field={{!tag=p}}o_totalprice` — `solr/core/src/java/org/apache/
    solr/handler/component/FacetComponent.java` pivot-stats wiring): per
    (priority, status) pivot cell, count + sum/mean of the stats field.
    One distributed groupby with additive partials; the mean derives
    driver-side from sum/count with the same division the SQL mirror
    writes."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    agg = (
        ds.groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(Count(alias_name="n"), Sum("o_totalprice", alias_name="s"))
        .to_pandas()
        .sort_values(["o_orderpriority", "o_orderstatus"], kind="mergesort")
        .reset_index(drop=True)
    )
    s = agg["s"].to_numpy(np.float64)
    n = agg["n"].to_numpy(np.float64)
    return pd.DataFrame(
        {
            "o_orderpriority": agg["o_orderpriority"],
            "o_orderstatus": agg["o_orderstatus"],
            "n": agg["n"].astype("int64"),
            "sum_price": np.round(s, 2),
            "mean_price": np.round(s / n, 4),
        }
    )


QUERIES["pivot_facet_stats_orders"] = q_pivot_facet_stats_orders
ORACLE["pivot_facet_stats_orders"] = """
    SELECT o_orderpriority, o_orderstatus,
           count(*)::BIGINT AS n,
           round(sum(o_totalprice::DOUBLE), 2) AS sum_price,
           round(sum(o_totalprice::DOUBLE) / count(*), 4) AS mean_price
    FROM orders
    GROUP BY o_orderpriority, o_orderstatus
    ORDER BY o_orderpriority, o_orderstatus
"""


def q_terms_facet_numbuckets_events(sf_dir: str):
    """json.facet numBuckets:true (`solr/core/src/java/org/apache/solr/
    search/facet/FacetField.java` numBuckets option): the top-5 user_id
    buckets by count PLUS the total distinct-bucket count, as the
    reference returns them side by side.  One distributed groupby; the
    bucket census and the top-k both derive from its (already small)
    result."""
    from ray.data.aggregate import Count

    counts = (
        read_table(sf_dir, "events", ["user_id"])
        .groupby("user_id")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    num_buckets = len(counts)
    top = (
        counts.sort_values(["n", "user_id"], ascending=[False, True],
                           kind="mergesort")
        .head(5)
        .reset_index(drop=True)
    )
    top["num_buckets"] = num_buckets
    return top[["user_id", "n", "num_buckets"]]


QUERIES["terms_facet_numbuckets_events"] = q_terms_facet_numbuckets_events
ORACLE["terms_facet_numbuckets_events"] = """
    WITH c AS (
      SELECT user_id, count(*)::BIGINT AS n FROM events GROUP BY 1
    ),
    nb AS (SELECT count(*)::BIGINT AS num_buckets FROM c)
    SELECT user_id, n, num_buckets
    FROM c CROSS JOIN nb
    ORDER BY n DESC, user_id ASC LIMIT 5
"""


def q_json_facet_stats_metrics_events(sf_dir: str):
    """JSON facet bucket metrics beyond sum/avg (`solr/core/src/java/org/
    apache/solr/search/facet/{SumsqAgg,VarianceAgg,StddevAgg,MissingAgg,
    CountValsAgg}.java`): per event_type bucket — countvals, missing,
    sumsq, sample variance, stddev over `value`.  Per-batch moment
    partials (n, nmiss, s, ss) reduce in ONE tiny groupby; the derived
    metrics assemble from the k-row result with the same quotient tree
    the SQL mirror uses."""
    from rindex.ops.evaluators import round_sql

    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def part(t: pa.Table) -> pa.Table:
        import pandas as _pd

        df = t.to_pandas()
        v = df["value"]
        g = df.groupby("event_type", sort=False)
        out = _pd.DataFrame(
            {
                "nvals": g["value"].count(),
                "nmiss": g["value"].apply(lambda s: int(s.isna().sum())),
                "s": g["value"].sum(),
                "ss": _pd.Series(v * v, index=df.index).groupby(
                    df["event_type"], sort=False
                ).sum(),
            }
        )
        out.index.name = "event_type"
        return pa.Table.from_pandas(out.reset_index())

    g = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .sum(["nvals", "nmiss", "s", "ss"])
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    n = g["sum(nvals)"].to_numpy(np.float64)
    s = g["sum(s)"].to_numpy(np.float64)
    ss = g["sum(ss)"].to_numpy(np.float64)
    var = (ss - s * s / n) / (n - 1.0)
    return pd.DataFrame(
        {
            "event_type": g["event_type"],
            "countvals": g["sum(nvals)"].astype("int64"),
            "missing": g["sum(nmiss)"].astype("int64"),
            "sumsq": round_sql(ss, 2),
            "variance": round_sql(var, 6),
            "stddev": round_sql(np.sqrt(var), 6),
        }
    )


QUERIES["json_facet_stats_metrics_events"] = q_json_facet_stats_metrics_events
ORACLE["json_facet_stats_metrics_events"] = """
    WITH m AS (
      SELECT event_type,
             count(value)::DOUBLE AS n,
             sum(CASE WHEN value IS NULL THEN 1 ELSE 0 END)::BIGINT
               AS missing,
             sum(value::DOUBLE) AS s,
             sum(value::DOUBLE * value::DOUBLE) AS ss
      FROM events GROUP BY 1
    )
    SELECT event_type, n::BIGINT AS countvals, missing,
           round(ss, 2) AS sumsq,
           round((ss - s * s / n) / (n - 1), 6) AS variance,
           round(sqrt((ss - s * s / n) / (n - 1)), 6) AS stddev
    FROM m ORDER BY event_type
"""
