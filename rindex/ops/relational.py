"""Relational operators over the driver testdata (SURVEY.md §2.4-§2.8).

Every op maps a reference operator family to a Ray Data pipeline and carries
a DuckDB oracle SQL (column names matched exactly).  Reference citations are
in each docstring; scale notes inline.

Float policy: aggregate outputs are rounded on BOTH sides (Ray + SQL) to a
digit count at which the exact value is recovered from accumulated float64
error (money sums -> 2-4 decimals), so order-of-summation differences can't
flip the driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rindex.schema import join_partitions
from rindex.ops.util import (
    N_BUCKETS, broadcast_join, broadcast_semi_filter, bucket_map_groups,
    md5_key, read_table,
)

QUERIES: dict = {}
ORACLE: dict = {}


def _register(name, fn, sql=None):
    QUERIES[name] = fn
    if sql is not None:
        ORACLE[name] = sql


def _user_buckets() -> int:
    """Bucket modulus for high-cardinality key columns (user_id): the
    reduce granularity of the asof/window family's single shuffle.
    Cluster-proportional like join_partitions(), with a 64 floor that
    keeps small runs cheap.  The modulus never changes RESULTS (each group
    is processed whole); only reduce-task sizing."""
    return max(64, join_partitions())


# ---------------------------------------------------------------------------
# Grouped aggregates (facet/stats/rollup: SimpleFacets, StatsValuesFactory,
# RollupStream -> groupby().aggregate() with partial+final combine)
# ---------------------------------------------------------------------------

def q_rollup_pricing_summary(sf_dir: str):
    """rollup()/stats over lineitem (reference: RollupStream + metrics,
    `solr/solrj/.../io/stream/RollupStream.java`; FacetStream pushdown =
    Ray's partial-per-block aggregate)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = read_table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    ds = ds.map_batches(
        lambda t: t.append_column(
            "disc_price", pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Sum("l_extendedprice", alias_name="sum_base_price"),
        Sum("disc_price", alias_name="sum_disc_price"),
        Mean("l_quantity", alias_name="avg_qty"),
        Mean("l_discount", alias_name="avg_disc"),
        Count(alias_name="count_order"),
    )
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_base_price"] = df["sum_base_price"].round(2)
    # 2 decimals: at sf0.1 these sums are ~5e9 where one float64 ulp is
    # ~1e-6 — partial-sum ORDER differences between Ray and DuckDB exceed a
    # 4-decimal rounding and break value-hash parity
    df["sum_disc_price"] = df["sum_disc_price"].round(2)
    df["avg_qty"] = df["avg_qty"].round(6)
    df["avg_disc"] = df["avg_disc"].round(6)
    return df


_register(
    "rollup_pricing_summary",
    q_rollup_pricing_summary,
    """
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2)                        AS sum_qty,
           round(sum(l_extendedprice), 2)                   AS sum_base_price,
           round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_disc_price,
           round(avg(l_quantity), 6)                        AS avg_qty,
           round(avg(l_discount), 6)                        AS avg_disc,
           count(*)                                         AS count_order
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
    """,
)


def q_terms_facet_events(sf_dir: str):
    """Terms facet: group by field value -> count (reference: FacetField /
    SimpleFacets, `solr/core/src/java/org/apache/solr/search/facet/
    FacetField.java`)."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["event_type"])
    return ds.groupby("event_type").aggregate(Count(alias_name="n"))


_register(
    "terms_facet_events",
    q_terms_facet_events,
    "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
)


def q_range_facet_totalprice(sf_dir: str):
    """Range facet: numeric histogram with fixed gap (reference: FacetRange,
    `solr/core/src/java/org/apache/solr/search/facet/FacetRange.java`).
    Bucket assignment is a vectorized map_batches; the groupby shuffles only
    (bucket,count) partials."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "orders", ["o_totalprice"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "bucket": pc.multiply(
                    pc.floor(pc.divide(t["o_totalprice"], pa.scalar(50000.0))),
                    pa.scalar(50000.0),
                )
            }
        ),
        batch_format="pyarrow",
    )
    return ds.groupby("bucket").aggregate(Count(alias_name="n"))


_register(
    "range_facet_totalprice",
    q_range_facet_totalprice,
    """
    SELECT floor(o_totalprice / 50000.0) * 50000.0 AS bucket, count(*) AS n
    FROM orders GROUP BY 1
    """,
)


def q_timeseries_events_daily(sf_dir: str):
    """timeseries(): date-truncated buckets + metrics (reference:
    `solr/solrj/.../io/stream/TimeSeriesStream.java`).  value has
    2-decimal precision in the corpus, so the bucket sums run as EXACT
    integer cents — a float Mean's partial-sum ORDER once flipped one
    bucket's 6th decimal vs the oracle (caught by the full sf0.001 exact
    sweep in r3); the avg derives from the same cents/n quotient tree on
    both sides with the repo's half-away round_sql."""
    from ray.data.aggregate import Count, Sum

    from rindex.ops.evaluators import round_sql

    ds = read_table(sf_dir, "events", ["ts", "value"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "day": pc.floor_temporal(t["ts"], unit="day"),
                "cents": pc.cast(
                    pc.round(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = ds.groupby("day").aggregate(
        Count(alias_name="n"),
        Sum("cents", alias_name="cents"),
    )
    df = out.to_pandas()
    df["sum_value"] = (df["cents"] / 100.0).round(4)
    df["avg_value"] = round_sql((df["cents"] / df["n"]) / 100.0, 6)
    return df.drop(columns=["cents"])


_register(
    "timeseries_events_daily",
    q_timeseries_events_daily,
    """
    SELECT date_trunc('day', ts) AS day, count(*) AS n,
           round(sum(CAST(round(value * 100, 0) AS BIGINT)) / 100.0, 4)
             AS sum_value,
           round((sum(CAST(round(value * 100, 0) AS BIGINT))::DOUBLE
                  / count(*)) / 100.0, 6) AS avg_value
    FROM events GROUP BY 1
    """,
)


def q_stats_agg_lineitem(sf_dir: str):
    """Global stats component: count/sum/min/max/mean/stddev (reference:
    StatsValuesFactory, `solr/core/src/java/org/apache/solr/handler/
    component/StatsValuesFactory.java`).  All partial+final combinable."""
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum

    ds = read_table(sf_dir, "lineitem", ["l_quantity"])
    out = ds.aggregate(
        Count(alias_name="n"),
        Sum("l_quantity", alias_name="sum_qty"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
        Mean("l_quantity", alias_name="avg_qty"),
        Std("l_quantity", ddof=1, alias_name="std_qty"),
    )
    df = pd.DataFrame([out])
    df["sum_qty"] = df["sum_qty"].round(2)
    df["avg_qty"] = df["avg_qty"].round(6)
    df["std_qty"] = df["std_qty"].round(6)
    return df


_register(
    "stats_agg_lineitem",
    q_stats_agg_lineitem,
    """
    SELECT count(*) AS n, round(sum(l_quantity), 2) AS sum_qty,
           min(l_quantity) AS min_qty, max(l_quantity) AS max_qty,
           round(avg(l_quantity), 6) AS avg_qty,
           round(stddev_samp(l_quantity), 6) AS std_qty
    FROM lineitem
    """,
)


def q_exact_distinct_users_per_type(sf_dir: str):
    """unique (exact distinct count) per group (reference: UniqueAgg,
    `solr/core/src/java/org/apache/solr/search/facet/UniqueAgg.java`).

    Partial+combine shape: shuffle on a COARSE bucket of the distinct-ness
    key (user_id % prime) so each reduce task owns every row of its users
    across all groups, dedupes (group, user) pairs vectorized and emits
    per-group partial counts; the final combine sums ~prime x n_groups tiny
    partials.  Scales with group cardinality (one pandas group per key was
    ~1 ms/group scheduling)."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        c = d.groupby("event_type", sort=False).size()
        return pd.DataFrame(
            {"event_type": c.index.to_numpy(), "n": c.to_numpy()}
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized sum-per-key within the coarse group bucket: a native
        # groupby().sum() walks one tiny group per DISTINCT key in Python
        # (~2 ms/key -> 100 s at 50k keys, measured)
        df = g.sort_values("event_type", kind="mergesort")
        k = df["event_type"].to_numpy()
        n = df["n"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        return pd.DataFrame(
            {"event_type": k[starts], "n_users": np.add.reduceat(n, starts)}
        )

    partials = bucket_map_groups(ds, "user_id", partial, N_BUCKETS)
    return bucket_map_groups(partials, md5_key("event_type"), combine, N_BUCKETS)


_register(
    "exact_distinct_users_per_type",
    q_exact_distinct_users_per_type,
    """
    SELECT event_type, count(DISTINCT user_id) AS n_users
    FROM events GROUP BY event_type
    """,
)


def q_percentile_value_per_type(sf_dir: str):
    """Percentile agg — exact per-group quantile with linear interpolation
    (reference: PercentileAgg t-digest, `solr/core/src/java/org/apache/solr/
    search/facet/PercentileAgg.java`; exact at test scale, sketch path is
    ops/sketches.py)."""
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    # exact quantiles need every value of a key in one task — that's what
    # groupby gives; the fix for high-cardinality keys is a COARSE shuffle
    # key (hash of group % prime) so one task handles ~1/prime of the
    # GROUPS and computes each group's quantiles from slice views of one
    # in-task sort, instead of paying per-group scheduling
    def quants(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["event_type", "value"], kind="mergesort")
        k = df["event_type"].to_numpy()
        v = df["value"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        bounds = np.append(starts, len(k))
        rows = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            s = v[a:b]  # already sorted: quantile is pure interpolation
            rows.append(
                (
                    k[a],
                    round(float(np.quantile(s, 0.5)), 6),
                    round(float(np.quantile(s, 0.9)), 6),
                )
            )
        return pd.DataFrame(rows, columns=["event_type", "p50", "p90"])

    return bucket_map_groups(ds, md5_key("event_type"), quants, N_BUCKETS)


_register(
    "percentile_value_per_type",
    q_percentile_value_per_type,
    """
    SELECT event_type, round(quantile_cont(value, 0.5), 6) AS p50,
           round(quantile_cont(value, 0.9), 6) AS p90
    FROM events GROUP BY event_type
    """,
)


# ---------------------------------------------------------------------------
# Joins (§2.4)
# ---------------------------------------------------------------------------

def q_hash_join_orders_customers(sf_dir: str):
    """hashJoin() stream via Ray's hash-partitioned Dataset.join (reference:
    `solr/solrj/.../io/stream/HashJoinStream.java`)."""
    from ray.data.aggregate import Count, Sum

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = orders.join(
        cust, "inner", num_partitions=join_partitions(), on=("o_custkey",), right_on=("c_custkey",)
    )
    out = joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="sum_price")
    )
    df = out.to_pandas()
    df["sum_price"] = df["sum_price"].round(2)
    return df


_register(
    "hash_join_orders_customers",
    q_hash_join_orders_customers,
    """
    SELECT c_mktsegment, count(*) AS n_orders,
           round(sum(o_totalprice), 2) AS sum_price
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    """,
)


def q_join_customer_nation_region(sf_dir: str):
    """3-way dimension join via broadcast lookups (reference: fetch()
    enrichment, `solr/solrj/.../io/stream/FetchStream.java`; small side
    shipped once via ray.put, no shuffle)."""
    from ray.data.aggregate import Count, Sum

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    nation = read_table(sf_dir, "nation").to_pandas()
    region = read_table(sf_dir, "region").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "r_name"]
    ]
    joined = broadcast_join(
        cust.map_batches(
            lambda t: t.rename_columns(
                [
                    ("n_nationkey" if c == "c_nationkey" else c)
                    for c in t.schema.names
                ]
            ),
            batch_format="pyarrow",
        ),
        dim,
        on="n_nationkey",
    )
    out = joined.groupby("r_name").aggregate(
        Count(alias_name="n_customers"), Sum("c_acctbal", alias_name="sum_acctbal")
    )
    df = out.to_pandas()
    df["sum_acctbal"] = df["sum_acctbal"].round(2)
    return df


_register(
    "join_customer_nation_region",
    q_join_customer_nation_region,
    """
    SELECT r_name, count(*) AS n_customers,
           round(sum(c_acctbal), 2) AS sum_acctbal
    FROM customer
    JOIN nation ON c_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)


def q_semi_join_customers_with_orders(sf_dir: str):
    """intersect() stream = semi join by key (reference:
    `solr/solrj/.../io/stream/IntersectStream.java`); broadcast key set +
    filter inside map_batches."""
    cust = read_table(sf_dir, "customer", ["c_custkey"])
    keys = read_table(sf_dir, "orders", ["o_custkey"]).unique("o_custkey")
    return broadcast_semi_filter(cust, keys, "c_custkey")


_register(
    "semi_join_customers_with_orders",
    q_semi_join_customers_with_orders,
    "SELECT c_custkey FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)",
)


def q_anti_join_customers_without_orders(sf_dir: str):
    """complement() stream = anti join (reference:
    `solr/solrj/.../io/stream/ComplementStream.java`).  Restricted to
    big-ticket orders so the complement is non-empty at test scales."""
    cust = read_table(sf_dir, "customer", ["c_custkey"])
    big = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], pa.scalar(300000.0))).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )
    keys = big.unique("o_custkey")
    return broadcast_semi_filter(cust, keys, "c_custkey", anti=True)


_register(
    "anti_join_customers_without_orders",
    q_anti_join_customers_without_orders,
    """
    SELECT c_custkey FROM customer WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_totalprice > 300000.0)
    """,
)


# ---------------------------------------------------------------------------
# Sorts / top-k / paging / sampling / export (§2.6)
# ---------------------------------------------------------------------------

def q_topk_orders_by_totalprice(sf_dir: str):
    """top()/RankStream + TopFieldCollector: distributed sort + limit
    (reference: `lucene/core/src/java/org/apache/lucene/search/
    TopFieldCollector.java`; per-partition top-k then merge is Ray's
    sort().limit())."""
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(20)


_register(
    "topk_orders_by_totalprice",
    q_topk_orders_by_totalprice,
    """
    SELECT o_orderkey, o_totalprice FROM orders
    ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 20
    """,
)


def q_cursor_paging_orders(sf_dir: str):
    """Deep paging with cursorMark: keyset pagination on (sort values, id)
    (reference: `solr/core/src/java/org/apache/solr/search/CursorMark.java`).
    Page 2 of 20 after the page-1 anchor row."""
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    page1 = ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(20).to_pandas()
    ap, ak = float(page1["o_totalprice"].iloc[-1]), int(page1["o_orderkey"].iloc[-1])

    def after_cursor(t: pa.Table) -> pa.Table:
        price, key = t["o_totalprice"], t["o_orderkey"]
        keep = pc.or_(
            pc.less(price, pa.scalar(ap)),
            pc.and_(pc.equal(price, pa.scalar(ap)), pc.greater(key, pa.scalar(ak))),
        )
        return t.filter(keep)

    return (
        ds.map_batches(after_cursor, batch_format="pyarrow")
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(20)
    )


_register(
    "cursor_paging_orders",
    q_cursor_paging_orders,
    """
    WITH anchor AS (
      SELECT o_totalprice AS ap, o_orderkey AS ak FROM orders
      ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 1 OFFSET 19
    )
    SELECT o_orderkey, o_totalprice FROM orders, anchor
    WHERE o_totalprice < ap OR (o_totalprice = ap AND o_orderkey > ak)
    ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 20
    """,
)


def q_export_sorted_events(sf_dir: str):
    """Export handler: full sorted export (reference: `solr/core/src/java/
    org/apache/solr/handler/export/ExportWriter.java`).  Bounded here to the
    first 1000 rows; the real op is sort + write_parquet/iter_batches."""
    ds = read_table(sf_dir, "events", ["event_id", "ts", "event_type"])
    return ds.sort(["ts", "event_id"]).limit(1000)


_register(
    "export_sorted_events",
    q_export_sorted_events,
    """
    SELECT event_id, ts, event_type FROM events
    ORDER BY ts, event_id LIMIT 1000
    """,
)


def q_systematic_sample_events(sf_dir: str):
    """Deterministic pseudo-random sampling (reference: RandomSortField
    hash-based stable ordering, `solr/core/src/java/org/apache/solr/schema/
    RandomSortField.java`) — stable modulo filter so the oracle agrees."""
    ds = read_table(sf_dir, "events", ["event_id", "value"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["event_id"], pa.scalar(63)), pa.scalar(0))
        ),
        batch_format="pyarrow",
    )


_register(
    "systematic_sample_events",
    q_systematic_sample_events,
    "SELECT event_id, value FROM events WHERE event_id % 64 = 0",
)


# ---------------------------------------------------------------------------
# Set ops & dedup-adjacent (§2.7)
# ---------------------------------------------------------------------------

def q_unique_event_types(sf_dir: str):
    """unique() stream: exact distinct (reference:
    `solr/solrj/.../io/stream/UniqueStream.java`)."""
    ds = read_table(sf_dir, "events", ["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": vals})


_register(
    "unique_event_types",
    q_unique_event_types,
    "SELECT DISTINCT event_type FROM events",
)


def q_union_merge_orders(sf_dir: str):
    """merge() stream: union of two substreams, duplicates kept (reference:
    `solr/solrj/.../io/stream/MergeStream.java`)."""
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"])
    high = ds.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], pa.scalar(250000.0))).select(
            ["o_orderkey"]
        ),
        batch_format="pyarrow",
    )
    urgent = ds.map_batches(
        lambda t: t.filter(
            pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT"))
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    return high.union(urgent)


_register(
    "union_merge_orders",
    q_union_merge_orders,
    """
    SELECT o_orderkey FROM orders WHERE o_totalprice > 250000.0
    UNION ALL
    SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT'
    """,
)


def q_collapse_best_event_per_user(sf_dir: str):
    """Field collapsing: keep the best doc per group key (reference:
    CollapsingQParserPlugin, `solr/core/src/java/org/apache/solr/search/
    CollapsingQParserPlugin.java`).  argmax by (value desc, event_id asc)."""
    ds = read_table(sf_dir, "events", ["user_id", "event_id", "value"])

    # coarse-bucket reduce (user_id % prime): one task owns ~1/prime of
    # the USERS and takes every user's argmax from run starts of one
    # in-task lexsort — per-user map_groups paid ~1 ms scheduling per user
    # (the tiny-group antipattern; at sf0.1 there are ~50k users)
    def best(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        v = g["value"].to_numpy()
        e = g["event_id"].to_numpy()
        order = np.lexsort((e, -v, u))
        u_s = u[order]
        starts = np.flatnonzero(np.concatenate([[True], u_s[1:] != u_s[:-1]]))
        sel = order[starts]
        return pd.DataFrame(
            {"user_id": u[sel], "event_id": e[sel], "value": v[sel]}
        )

    return bucket_map_groups(ds, "user_id", best, N_BUCKETS)


_register(
    "collapse_best_event_per_user",
    q_collapse_best_event_per_user,
    """
    SELECT user_id, event_id, value FROM (
      SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id ASC) AS rn
      FROM events
    ) WHERE rn = 1
    """,
)


EXPAND_HEADS = 20
EXPAND_N = 2


def q_expand_collapsed_events(sf_dir: str):
    """ExpandComponent paired with the collapse above (reference:
    `solr/core/src/java/org/apache/solr/handler/component/
    ExpandComponent.java`): for each collapsed head on the result page
    (top-20 heads by value desc), return the next top-2 OTHER members of
    its group.  The heads come from the distributed collapse (small by
    construction — one row per user on the page); the expansion re-scans
    only the heads' groups (pushdown isin filter on the read) and takes
    each group's top-(N+1) with the same vectorized run-start trick, then
    drops the head row."""
    import pyarrow.compute as pc

    heads = (
        q_collapse_best_event_per_user(sf_dir)
        .sort(["value", "user_id"], descending=[True, False])
        .limit(EXPAND_HEADS)
        .to_pandas()
    )
    head_users = heads["user_id"].to_numpy()
    head_events = dict(zip(heads["user_id"], heads["event_id"]))

    import os

    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "value"],
        filter=pc.field("user_id").isin(head_users.tolist()),
    )

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        v = g["value"].to_numpy()
        e = g["event_id"].to_numpy()
        order = np.lexsort((e, -v, u))
        u_s, v_s, e_s = u[order], v[order], e[order]
        starts = np.flatnonzero(
            np.concatenate([[True], u_s[1:] != u_s[:-1]])
        )
        bounds = np.append(starts, len(u_s))
        rows = []
        for s, t in zip(bounds[:-1], bounds[1:]):
            head_e = head_events.get(u_s[s])
            rank = 0
            for i in range(s, min(t, s + EXPAND_N + 1)):
                if e_s[i] == head_e:
                    continue
                rows.append((u_s[i], e_s[i], v_s[i], rank))
                rank += 1
                if rank >= EXPAND_N:
                    break
            # groups on the page have >= 1 member (the head); groups of
            # size 1 simply contribute no expansion rows, as in Solr
        return pd.DataFrame(
            rows, columns=["user_id", "event_id", "value", "expand_rank"]
        ).astype({"user_id": np.int64, "event_id": np.int64,
                  "expand_rank": np.int64})

    return bucket_map_groups(ds, "user_id", expand, 17)


_register(
    "expand_collapsed_events",
    q_expand_collapsed_events,
    f"""
    WITH best AS (
      SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id ASC) AS rn
      FROM events
    ),
    heads AS (
      SELECT user_id FROM best WHERE rn = 1
      ORDER BY value DESC, user_id ASC LIMIT {EXPAND_HEADS}
    )
    SELECT b.user_id, b.event_id, b.value,
           (b.rn - 2)::BIGINT AS expand_rank
    FROM best b JOIN heads h USING (user_id)
    WHERE b.rn BETWEEN 2 AND {1 + EXPAND_N}
    """,
)


def q_grouping_top2_events_per_type(sf_dir: str):
    """Grouping component: top-k docs within each group (reference:
    `solr/core/src/java/org/apache/solr/search/Grouping.java`)."""
    ds = read_table(sf_dir, "events", ["event_type", "event_id", "value"])

    # per-batch partial top-2 per group (safe: a group's global top-2 is
    # contained in the union of its per-batch top-2s), then one final
    # combine over ~n_batches x n_groups x 2 tiny partial rows
    def partial_top2(g: pd.DataFrame) -> pd.DataFrame:
        k = g["event_type"].to_numpy()
        v = g["value"].to_numpy()
        e = g["event_id"].to_numpy()
        order = np.lexsort((e, -v, k))
        k_s = k[order]
        starts = np.flatnonzero(np.concatenate([[True], k_s[1:] != k_s[:-1]]))
        bounds = np.append(starts, len(k_s))
        second = starts[(bounds[1:] - starts) >= 2] + 1
        sel = order[np.sort(np.concatenate([starts, second]))]
        return pd.DataFrame(
            {"event_type": k[sel], "event_id": e[sel], "value": v[sel]}
        )

    partials = ds.map_batches(partial_top2, batch_format="pandas")
    # final combine distributed over a coarse bucket of the group key (all
    # partials of a group land in one task; tasks own many groups)
    return bucket_map_groups(
        partials, md5_key("event_type"), partial_top2, N_BUCKETS
    )


_register(
    "grouping_top2_events_per_type",
    q_grouping_top2_events_per_type,
    """
    SELECT event_type, event_id, value FROM (
      SELECT event_type, event_id, value,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY value DESC, event_id ASC) AS rn
      FROM events
    ) WHERE rn <= 2
    """,
)


# ---------------------------------------------------------------------------
# Filters, function queries, date math (§2.2, §2.8)
# ---------------------------------------------------------------------------

def q_filter_term_range(sf_dir: str):
    """fq-style term + range filters pushed into the scan (reference:
    TermQuery/PointRangeQuery as filters, `lucene/core/src/java/org/apache/
    lucene/search/PointRangeQuery.java`)."""
    from ray.data.aggregate import Count, Sum

    flt = (pc.field("l_returnflag") == "R") & (
        pc.field("l_shipdate") >= pa.scalar(np.datetime64("1995-01-01", "us"))
    ) & (pc.field("l_shipdate") < pa.scalar(np.datetime64("1997-01-01", "us")))
    import ray.data as rd
    import os

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity"],
        filter=flt,
    )
    out = ds.aggregate(Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty"))
    df = pd.DataFrame([out])
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


_register(
    "filter_term_range",
    q_filter_term_range,
    """
    SELECT count(*) AS n, round(sum(l_quantity), 2) AS sum_qty
    FROM lineitem
    WHERE l_returnflag = 'R'
      AND l_shipdate >= TIMESTAMP '1995-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
    """,
)


def q_function_query_boost(sf_dir: str):
    """Function queries: computed scoring expression + top-k (reference:
    ValueSource tree, `lucene/queries/src/java/org/apache/lucene/queries/
    function/valuesource/*.java`; log/product/linear combos)."""
    ds = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"]
    )

    def score(t: pa.Table) -> pa.Table:
        s = pc.multiply(
            pc.ln(pc.add(t["l_extendedprice"], pa.scalar(1.0))),
            pc.subtract(pa.scalar(1.0), t["l_discount"]),
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "score": pc.round(s, 6),
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["score", "l_orderkey", "l_linenumber"], descending=[True, False, False])
        .limit(15)
    )


_register(
    "function_query_boost",
    q_function_query_boost,
    """
    SELECT l_orderkey, l_linenumber,
           round(ln(l_extendedprice + 1.0) * (1.0 - l_discount), 6) AS score
    FROM lineitem
    ORDER BY score DESC, l_orderkey ASC, l_linenumber ASC LIMIT 15
    """,
)


def q_scale_function_orders(sf_dir: str):
    """scale() function query (`lucene/queries/src/java/org/apache/lucene/
    queries/function/valuesource/ScaleFloatFunction.java`; Solr's
    scale(field,min,max)): linearly rescale o_totalprice into [0, 1]
    using the GLOBAL min/max — the classic two-scan function query (one
    tiny stats aggregate, then a streamed rescale + top-k)."""
    from ray.data.aggregate import Max, Min

    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    stats = ds.aggregate(Min("o_totalprice"), Max("o_totalprice"))
    lo = float(stats["min(o_totalprice)"])
    span = float(stats["max(o_totalprice)"]) - lo

    def rescale(t: pa.Table) -> pa.Table:
        s = pc.divide(pc.subtract(t["o_totalprice"], pa.scalar(lo)),
                      pa.scalar(span))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "scaled": pc.round(s, 6),
            }
        )

    return (
        ds.map_batches(rescale, batch_format="pyarrow")
        .sort(["scaled", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


_register(
    "scale_function_orders",
    q_scale_function_orders,
    """
    WITH st AS (SELECT min(o_totalprice) lo, max(o_totalprice) hi FROM orders)
    SELECT o_orderkey,
           round((o_totalprice - lo) / (hi - lo), 6) AS scaled
    FROM orders CROSS JOIN st
    ORDER BY scaled DESC, o_orderkey ASC LIMIT 10
    """,
)


ASOF_A, ASOF_B = "purchase", "click"


def q_asof_join_events(sf_dir: str):
    """AS-OF JOIN (the canonical event-stream custom operator Ray Data
    lacks): each '{ASOF_A}' event joins the LATEST prior-or-equal
    '{ASOF_B}' event of the SAME user (b.ts <= a.ts, greatest b.ts wins;
    (user_id, ts) is unique so the match is unambiguous).  Inner form —
    purchases with no preceding click drop.

    Engine shape: one pruned read, both sides bucketed by
    hash(user_id) % N (the single partitioning key), then ONE
    pd.merge_asof per bucket (sorted-merge within the bucket, by=user_id)
    — the classic key-partitioned time-sorted distributed as-of.  At
    10^12 rows only the bucket modulus changes."""
    ds = read_table(
        sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"]
    )

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        a = (
            g[g["event_type"] == ASOF_A]
            .sort_values("ts", kind="mergesort")
            [["event_id", "user_id", "ts"]]
        )
        b = (
            g[g["event_type"] == ASOF_B]
            .sort_values("ts", kind="mergesort")
            [["event_id", "user_id", "ts", "value"]]
            .rename(columns={"event_id": "b_event_id", "value": "b_value"})
        )
        if a.empty or b.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "b_event_id": pd.Series(dtype="int64"),
                    "b_value": pd.Series(dtype="float64"),
                }
            )
        m = pd.merge_asof(a, b, on="ts", by="user_id", direction="backward")
        m = m.dropna(subset=["b_event_id"])
        return pd.DataFrame(
            {
                "event_id": m["event_id"].astype("int64"),
                "user_id": m["user_id"].astype("int64"),
                "b_event_id": m["b_event_id"].astype("int64"),
                "b_value": m["b_value"].round(4),
            }
        )

    return (
        bucket_map_groups(ds, md5_key("user_id"), asof, _user_buckets())
        .sort("event_id")
        .to_pandas()
    )


_register(
    "asof_join_events",
    q_asof_join_events,
    f"""
    WITH a AS (SELECT event_id, user_id, ts FROM events
               WHERE event_type = '{ASOF_A}'),
         b AS (SELECT event_id AS b_event_id, user_id, ts,
                      round(value, 4) AS b_value
               FROM events WHERE event_type = '{ASOF_B}')
    SELECT a.event_id, a.user_id, b.b_event_id, b.b_value
    FROM a ASOF JOIN b
      ON a.user_id = b.user_id AND a.ts >= b.ts
    ORDER BY a.event_id
    """,
)


RANGE_BANDS = ((0.0, 50.0, "low"), (25.0, 75.0, "mid"), (50.0, 150.0, "high"))


def q_range_join_events(sf_dir: str):
    """RANGE (interval) JOIN: events join every band whose [lo, hi)
    interval contains `value` — the bands OVERLAP, so one event can land
    in two bands (a genuine non-equi join, not bucketing).  Small side
    (the literal band table) broadcasts; each batch evaluates the
    containment predicates vectorized and emits per-band partial
    (count, sum) — no shuffle of the big side at all, the only exchange
    is the tiny per-band partial combine."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", ["value"])

    def bands(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        labs, vals = [], []
        for lo, hi, lab in RANGE_BANDS:
            m = (v >= lo) & (v < hi)
            if m.any():
                labs.append(np.full(int(m.sum()), lab, dtype=object))
                vals.append(v[m])
        if not labs:
            return pa.table(
                {"band": pa.array([], pa.string()),
                 "value": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "band": pa.array(np.concatenate(labs).tolist(), pa.string()),
                "value": pa.array(np.concatenate(vals)),
            }
        )

    agg = (
        ds.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("band")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )
    out = agg.sort("band").to_pandas()
    out["sum_value"] = out["sum_value"].round(4)
    return out


_range_vals = ",".join(f"({lo}, {hi}, '{lab}')" for lo, hi, lab in RANGE_BANDS)
_register(
    "range_join_events",
    q_range_join_events,
    f"""
    SELECT b.lab AS band, count(*)::BIGINT AS n,
           round(sum(e.value), 4) AS sum_value
    FROM events e
    JOIN (VALUES {_range_vals}) b(lo, hi, lab)
      ON e.value >= b.lo AND e.value < b.hi
    GROUP BY b.lab ORDER BY band
    """,
)


WIN_US = 3_600_000_000  # trailing window: 1 hour in microseconds


def q_sliding_window_events(sf_dir: str):
    """Per-key SLIDING-window aggregate (the third custom operator of the
    as-of/range/window family): for EVERY event, the count and value-sum
    of the same user's events in the trailing hour (inclusive both ends,
    the SQL RANGE INTERVAL 1 HOUR PRECEDING frame).

    Engine shape: user-hash buckets (same partitioning key as the as-of
    join), per-bucket sort by (user_id, ts), then per user run ONE
    np.searchsorted of (ts - W) against the run's sorted ts + a prefix-sum
    subtraction — O(n log n) per run, no per-event Python.  The loop is
    across user RUNS inside a bucket (bounded by the bucket modulus, the
    scale knob), never across rows."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        vals = g["value"].to_numpy(np.float64)
        users = g["user_id"].to_numpy(np.int64)
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(users))[0] + 1, [len(users)]]
        )
        cnt = np.empty(len(users), np.int64)
        sm = np.empty(len(users), np.float64)
        for a, b in zip(starts[:-1], starts[1:]):
            t = ts[a:b]
            lo = np.searchsorted(t, t - WIN_US, side="left")
            cnt[a:b] = np.arange(1, b - a + 1) - lo
            cs = np.concatenate([[0.0], np.cumsum(vals[a:b])])
            sm[a:b] = cs[1 : b - a + 1] - cs[lo]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                "w_count": cnt,
                "w_sum": np.round(sm, 4),
            }
        )

    return bucket_map_groups(
        ds, md5_key("user_id"), win, _user_buckets()
    ).sort("event_id")


_register(
    "sliding_window_events",
    q_sliding_window_events,
    """
    SELECT event_id,
           count(*) OVER w AS w_count,
           round(sum(value) OVER w, 4) AS w_sum
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    ORDER BY event_id
    """,
)


def q_datemath_recent_events(sf_dir: str):
    """Date-math window filter: NOW/DAY-7DAYS analog anchored to max(ts)
    (reference: `solr/core/src/java/org/apache/solr/util/DateMathParser.java`
    + DocExpirationURP TTL semantics)."""
    from ray.data.aggregate import Count, Max

    ds = read_table(sf_dir, "events", ["ts", "event_type"])
    anchor = ds.aggregate(Max("ts"))["max(ts)"]
    anchor = pd.Timestamp(anchor).floor("D") - pd.Timedelta(days=7)

    def recent(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["ts"], pa.scalar(anchor.to_datetime64())))

    return (
        ds.map_batches(recent, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"))
    )


_register(
    "datemath_recent_events",
    q_datemath_recent_events,
    """
    SELECT event_type, count(*) AS n FROM events
    WHERE ts >= (SELECT date_trunc('day', max(ts)) - INTERVAL 7 DAY FROM events)
    GROUP BY event_type
    """,
)


def q_topic_checkpoint_events(sf_dir: str):
    """topic() stream: checkpointed incremental consumption (reference:
    `solr/solrj/src/java/org/apache/solr/client/solrj/io/stream/
    TopicStream.java` — return rows newer than the persisted checkpoint,
    then advance it).  Two rounds inside the op prove exactly-once over a
    fixed mid-range cutoff: round 1 consumes ts <= cutoff, persists the
    checkpoint (atomic JSON, the manifest-checkpoint analog), round 2
    consumes the remainder from the persisted state; the union must count
    every event exactly once per type."""
    import hashlib
    import json
    import os

    from ray.data.aggregate import Count

    from rindex.segments import atomic_write_json

    cutoff = "2024-06-15 00:00:00"
    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    ck_path = os.path.join("/tmp", "rindex_cache", f"topic-ck-{key}.json")
    os.makedirs(os.path.dirname(ck_path), exist_ok=True)
    if os.path.exists(ck_path):
        os.remove(ck_path)  # deterministic re-run

    def consume(since: str | None, until: str | None):
        import pyarrow as pa_
        import pyarrow.compute as pc_

        ds = read_table(sf_dir, "events", ["ts", "event_type"])

        def window(t: pa_.Table) -> pa_.Table:
            m = pa_.array(np.ones(t.num_rows, dtype=bool))
            if since is not None:
                m = pc_.and_(
                    m, pc_.greater(t["ts"], pa_.scalar(pd.Timestamp(since)))
                )
            if until is not None:
                m = pc_.and_(
                    m,
                    pc_.less_equal(t["ts"], pa_.scalar(pd.Timestamp(until))),
                )
            return t.filter(m)

        return (
            ds.map_batches(window, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("event_type")
            .aggregate(Count(alias_name="n"))
            .to_pandas()
        )

    round1 = consume(None, cutoff)
    atomic_write_json(ck_path, {"checkpoint": cutoff})
    with open(ck_path) as fh:
        ck = json.load(fh)["checkpoint"]
    round2 = consume(ck, None)
    both = pd.concat([round1, round2], ignore_index=True)
    out = both.groupby("event_type", as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


_register(
    "topic_checkpoint_events",
    q_topic_checkpoint_events,
    """
    SELECT event_type, count(*)::BIGINT AS n
    FROM events GROUP BY event_type ORDER BY event_type
    """,
)


# ---------------------------------------------------------------------------
# Sessionization — gap-based per-user session assignment
# ---------------------------------------------------------------------------

SESSION_GAP_S = 28800  # 8h: splits this corpus's ~7.7h median user gap


def q_sessionize_events(sf_dir: str):
    """Gap-based sessionization: per user, events ordered by (ts,
    event_id) belong to one session until an inter-event gap exceeds
    SESSION_GAP_S; emit one row per session with count, bounds and
    duration.  The per-entity-ordered-state shape of the reference's
    topic()/daemon() incremental consumers (SURVEY.md §2.9 — the nearest
    windowing the reference has is date-range faceting; true sessions are
    the pipeline op every event/transcript corpus needs).

    Ray shape: hash-partition by user_id (`groupby.map_groups`) — the
    per-group sort + cumulative break-sum is vectorized inside the group.
    Sessions never span users, so this is embarrassingly parallel in the
    partition key with ONE shuffle; per-user event counts bound group
    memory (the hot-key story is per-user volume, not corpus size)."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy()
        gap = np.empty(len(g), dtype=bool)
        gap[0] = True
        if len(g) > 1:
            gap[1:] = (
                (ts[1:] - ts[:-1]) / np.timedelta64(1, "s")
            ) > SESSION_GAP_S
        sess = np.cumsum(gap) - 1
        out = (
            pd.DataFrame(
                {"user_id": g["user_id"].to_numpy(), "session_idx": sess,
                 "ts": ts}
            )
            .groupby(["user_id", "session_idx"], as_index=False)
            .agg(n_events=("ts", "size"), start_ts=("ts", "min"),
                 end_ts=("ts", "max"))
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        out["session_idx"] = out["session_idx"].astype(np.int64)
        out["duration_s"] = (
            (out["end_ts"] - out["start_ts"]) // pd.Timedelta(seconds=1)
        ).astype(np.int64)
        return out

    return ds.groupby("user_id").map_groups(
        sessionize, batch_format="pandas"
    )


_register(
    "sessionize_events",
    q_sessionize_events,
    f"""
    WITH o AS (
      SELECT user_id, event_id, ts,
             CASE WHEN lag(ts) OVER w IS NULL
                       OR epoch(ts - lag(ts) OVER w) > {SESSION_GAP_S}
                  THEN 1 ELSE 0 END AS brk
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ),
    s AS (
      SELECT user_id, ts,
             sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
      FROM o
    )
    SELECT user_id, session_idx::BIGINT AS session_idx,
           count(*)::BIGINT AS n_events,
           min(ts) AS start_ts, max(ts) AS end_ts,
           (epoch_us(max(ts) - min(ts)) // 1000000)::BIGINT AS duration_s
    FROM s GROUP BY 1, 2
    """,
)


# ---------------------------------------------------------------------------
# Continuous top-k over tumbling windows (the streaming-top-k shape of
# "SAP: Improving Continuous Top-K Queries over Streaming Data", ICDE
# 2018; reference streaming analog: topic() + NRT micro-batching, SURVEY
# §2.9).  The time range splits into NB tumbling windows; after each
# window the query RE-EMITS the top-k over everything seen so far.  The
# distributed pass computes per-window partial top-ks (the prefix top-k is
# contained in the union of its windows' top-ks); only NB*k rows reach the
# prefix merge.
# ---------------------------------------------------------------------------

CTK_WINDOWS = 5
CTK_K = 10


def q_continuous_topk_events(sf_dir: str):
    """Top-10 events by value after each of 5 tumbling time windows —
    emitted per window over the stream prefix (continuous semantics)."""
    from ray.data.aggregate import Max, Min

    ds = read_table(sf_dir, "events", ["event_id", "value", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        return pa.table(
            {"event_id": t["event_id"], "value": t["value"], "us": us}
        )

    us_ds = ds.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
    b = us_ds.aggregate(Min("us", alias_name="mn"), Max("us", alias_name="mx"))
    mn, mx = int(b["mn"]), int(b["mx"])
    width = (mx - mn) // CTK_WINDOWS + 1

    def win_top(t: pa.Table) -> pd.DataFrame:
        win = (t["us"].to_numpy() - mn) // width
        df = pd.DataFrame(
            {
                "win": win.astype(np.int64),
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "value": t["value"].to_numpy(zero_copy_only=False),
            }
        )
        return (
            df.sort_values(["win", "value", "event_id"],
                           ascending=[True, False, True], kind="mergesort")
            .groupby("win", sort=False)
            .head(CTK_K)
        )

    tops = (
        us_ds.map_batches(win_top, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("win")
        .map_groups(
            lambda g: g.sort_values(
                ["value", "event_id"], ascending=[False, True],
                kind="mergesort",
            ).head(CTK_K),
            batch_format="pandas",
        )
        .to_pandas()
    )
    frames = []
    for w in range(CTK_WINDOWS):
        pre = (
            tops[tops["win"] <= w]
            .sort_values(["value", "event_id"], ascending=[False, True],
                         kind="mergesort")
            .head(CTK_K)
            .reset_index(drop=True)
        )
        frames.append(
            pd.DataFrame(
                {
                    "win": np.full(len(pre), w, np.int64),
                    "rank": np.arange(len(pre), dtype=np.int32),
                    "event_id": pre["event_id"].to_numpy(np.int64),
                    "value": pre["value"].to_numpy(np.float64),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


QUERIES["continuous_topk_events"] = q_continuous_topk_events
ORACLE["continuous_topk_events"] = f"""
    WITH b AS (
      SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx FROM events
    ),
    w AS (
      SELECT event_id, value,
             ((epoch_us(ts) - mn) // ((mx - mn) // {CTK_WINDOWS} + 1))::BIGINT
               AS win
      FROM events CROSS JOIN b
    ),
    wins(win) AS (VALUES {",".join(f"({i})" for i in range(CTK_WINDOWS))}),
    ranked AS (
      SELECT wins.win::BIGINT AS win, w.event_id, w.value,
             row_number() OVER (PARTITION BY wins.win
                                ORDER BY w.value DESC, w.event_id ASC) AS rn
      FROM wins JOIN w ON w.win <= wins.win
    )
    SELECT win, (rn - 1)::INTEGER AS rank, event_id, value
    FROM ranked WHERE rn <= {CTK_K}
"""


# ---------------------------------------------------------------------------
# group.func — grouping by a function-query key
# ---------------------------------------------------------------------------

GF_BUCKET = 50_000.0
GF_TOP = 2


def q_group_func_orders(sf_dir: str):
    """group.func ({!func}floor(div(o_totalprice,50000)) —
    `solr/core/src/java/org/apache/solr/search/Grouping.java` Command
    .Func): groups keyed by a FUNCTION-QUERY value instead of a stored
    field, top-{GF_TOP} docs per group by price.  The key derives
    vectorized inside the scan batch; grouped top-k is one bucket
    groupby + per-group head (groups here are price bands — a handful,
    each reduced independently)."""
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def key(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "gkey": pa.array(np.floor(v / GF_BUCKET).astype(np.int64)),
                "o_orderkey": t["o_orderkey"],
                "o_totalprice": t["o_totalprice"],
            }
        )

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True],
            kind="mergesort",
        ).head(GF_TOP)
        g["rank"] = np.arange(len(g), dtype=np.int32)
        return g

    out = (
        ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gkey")
        .map_groups(topn, batch_format="pandas")
        .to_pandas()
        .sort_values(["gkey", "rank"], kind="mergesort")
        .reset_index(drop=True)
    )
    return out[["gkey", "rank", "o_orderkey", "o_totalprice"]]


QUERIES["group_func_orders"] = q_group_func_orders
ORACLE["group_func_orders"] = f"""
    SELECT gkey, (rn - 1)::INTEGER AS rank, o_orderkey, o_totalprice
    FROM (
      SELECT floor(o_totalprice::DOUBLE / {GF_BUCKET})::BIGINT AS gkey,
             o_orderkey, o_totalprice,
             row_number() OVER (
               PARTITION BY floor(o_totalprice::DOUBLE / {GF_BUCKET})
               ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
      FROM orders)
    WHERE rn <= {GF_TOP}
    ORDER BY gkey, rank
"""
