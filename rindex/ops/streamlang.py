"""Streaming-expression language: compile the reference's expression
STRINGS into Ray Dataset pipelines (SURVEY.md §2.10).

Reference: `solr/solrj/src/java/org/apache/solr/client/solrj/io/stream/
expr/{StreamExpressionParser,StreamFactory}.java` + `Lang.java`'s function
registry — Solr users write pipelines as nested expression text
(`having(rollup(hashJoin(...), over=..., count(*)), gt(...))`) that a
factory resolves against registered stream classes.  Here the same shape
compiles to the engine's existing Ray Data operators: every stream builder
returns a lazy `ray.data.Dataset`, so a compiled expression is ONE
streaming pipeline end-to-end (no materialization between decorators), and
scalar sub-expressions (predicates, select columns) reuse the evaluator
engine's AST + whole-array kernels (rindex/ops/evaluators.py).

Registered streams (the v1 surface; STREAM_BUILDERS is the extension
hook, like Lang.java):

    table(name, fl="a,b")            parquet source with column pruning
    select(stream, keep="a,b", out=expr, ...)
    rollup(stream, over="k1,k2", alias=count(*)|sum(c)|min(c)|max(c)|avg(c))
    having(stream, booleanExpr)
    hashJoin(left, right, on="lkey=rkey")
    sort(stream, by="col asc|desc[,col2 ...]")
    top(stream, n=N, sort="col desc[,col2 asc]")
    unique(stream, over="a,b")
    cartesianProduct(stream, field, as="val")
    facet(stream, buckets="a,b", bucketSorts="count(*) desc",
          bucketSizeLimit=N, count(*), sum(c), ...)
    stats(stream, count(*), sum(c), avg(c), ...)
    timeseries(stream, field=ts, gap="+1DAY", count(*), ...)
    merge(s1, s2, on="k asc")
    innerJoin / leftOuterJoin(left, right, on="lk=rk")   sorted merge joins
    outerHashJoin / complement / fetch / intersect
    knn(stream, field=vec, id=idcol, qid=N, k=K)   dense cosine top-k

Grammar: `call := name '(' (arg (',' arg)*)? ')'`, `arg := name '=' value
| value`, `value := call | identifier | number | "string" | *`.  Scalar
sub-trees are plain evaluator nodes (3-tuples), so eval_node runs them
unchanged; stream calls carry kwargs as a 4th slot.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.schema import join_partitions
from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>-?\d+\.?\d*(?:[eE][+-]?\d+)?) |
        (?P<str>"[^"]*") |
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<punct>[(),=*])
    )""",
    re.X,
)


def parse_stream_expr(s: str):
    """Parse into ('call', name, args, kwargs) stream nodes; scalar
    sub-expressions stay evaluator-compatible ('call', name, args) /
    ('col', name) / ('lit', v) — plus ('star',) for count(*)."""
    toks, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:40]!r}")
            break
        pos = m.end()
        toks.append((m.lastgroup, m.group(m.lastgroup)))

    def value(i):
        kind, val = toks[i]
        if kind == "num":
            return ("lit", float(val) if "." in val or "e" in val.lower()
                    else int(val)), i + 1
        if kind == "str":
            return ("lit", val[1:-1]), i + 1
        if kind == "punct" and val == "*":
            return ("star",), i + 1
        if kind == "ident":
            if i + 1 < len(toks) and toks[i + 1] == ("punct", "("):
                return call(i)
            return ("col", val), i + 1
        raise ValueError(f"unexpected {val!r}")

    def call(i):
        name = toks[i][1]
        args, kwargs, j = [], {}, i + 2
        if toks[j] == ("punct", ")"):
            return _mk(name, args, kwargs), j + 1
        while True:
            if (toks[j][0] == "ident" and j + 1 < len(toks)
                    and toks[j + 1] == ("punct", "=")):
                key = toks[j][1]
                node, j = value(j + 2)
                kwargs[key] = node
            else:
                node, j = value(j)
                args.append(node)
            if toks[j] == ("punct", ")"):
                return _mk(name, args, kwargs), j + 1
            if toks[j] != ("punct", ","):
                raise ValueError(f"expected ',' or ')' after arg in {name}")
            j += 1

    def _mk(name, args, kwargs):
        # kwarg-free calls stay 3-tuples so eval_node runs scalar trees
        return ("call", name, args, kwargs) if kwargs else ("call", name, args)

    try:
        node, end = value(0)
    except IndexError:
        raise ValueError(f"unexpected end of expression in {s!r}") from None
    if end != len(toks):
        raise ValueError(f"trailing tokens in {s!r}")
    return node


def _kwargs(node) -> dict:
    return node[3] if len(node) > 3 else {}


def _lit(node, what: str) -> str:
    if node is None or node[0] != "lit":
        raise ValueError(f"{what} must be a literal, got {node!r}")
    return node[1]


def _ident(node, what: str) -> str:
    if node[0] != "col":
        raise ValueError(f"{what} must be an identifier, got {node!r}")
    return node[1]


def _cols(s: str) -> list[str]:
    return [c.strip() for c in s.split(",") if c.strip()]


def _check_scalar(node, where: str):
    """Scalar evaluator sub-trees must be kwarg-free 3-tuples (eval_node's
    node shape) — reject named params HERE with a clear message instead of
    letting eval_node crash with 'too many values to unpack' deep inside a
    map_batches task."""
    if node[0] == "call":
        if len(node) > 3:
            raise ValueError(
                f"named params are not valid in scalar evaluator "
                f"expressions ({where}): {node[1]}(...)"
            )
        for ch in node[2]:
            _check_scalar(ch, where)
    return node


# ---------------------------------------------------------------------------
# Stream builders
# ---------------------------------------------------------------------------

def _b_table(args, kwargs, ctx):
    name = _ident(args[0], "table name")
    views = ctx.get("views") or {}
    if name in views:  # registered streaming view (SQL handler, tests)
        return views[name](ctx)
    fl = kwargs.get("fl")
    return read_table(ctx["sf_dir"], name, _cols(_lit(fl, "fl")) if fl else None)


def _b_select(args, kwargs, ctx):
    from rindex.ops.evaluators import eval_node

    ds = _build(args[0], ctx)
    keep = _cols(_lit(kwargs.pop("keep"), "keep")) if "keep" in kwargs else None
    exprs = {k: _check_scalar(v, f"select {k}=") for k, v in kwargs.items()}

    def f(b: pa.Table) -> pa.Table:
        cols = {n: b[n].combine_chunks() for n in b.schema.names}
        memo: dict = {}
        out = {k: cols[k] for k in (keep if keep is not None else b.schema.names)}
        for name, node in exprs.items():
            v = eval_node(node, cols, memo)
            out[name] = v if isinstance(v, (pa.Array, pa.ChunkedArray)) else pa.array(
                np.broadcast_to(np.asarray(v), (b.num_rows,)).copy()
            )
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


_AGG_KINDS = {"count", "sum", "min", "max", "avg"}


def _b_rollup(args, kwargs, ctx):
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    ds = _build(args[0], ctx)
    over = _cols(_lit(kwargs.pop("over"), "over"))
    aggs = []
    for alias, node in kwargs.items():
        kind = node[1]
        if node[0] != "call" or kind not in _AGG_KINDS:
            raise ValueError(f"rollup metric {alias}={node!r} not an aggregate")
        if kind == "count":
            aggs.append(Count(alias_name=alias))
            continue
        col = _ident(node[2][0], f"{kind}() column")
        cls = {"sum": Sum, "min": Min, "max": Max, "avg": Mean}[kind]
        aggs.append(cls(col, alias_name=alias))
    if not aggs:
        raise ValueError("rollup needs at least one alias=aggregate metric")
    return ds.groupby(over if len(over) > 1 else over[0]).aggregate(*aggs)


def _b_having(args, kwargs, ctx):
    from rindex.ops.streams import having

    pred = _check_scalar(args[1], "having")  # validate BEFORE building
    return having(_build(args[0], ctx), pred)


def _b_hashjoin(args, kwargs, ctx):
    left = _build(args[0], ctx)
    right = _build(args[1], ctx)
    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    return left.join(
        right, "inner", num_partitions=join_partitions(),
        on=(lk.strip(),), right_on=(rk.strip() or lk.strip(),),
    )


def _b_outerhashjoin(args, kwargs, ctx):
    """outerHashJoin(left, right, on="lk=rk"): LEFT OUTER hash join
    (OuterHashJoinStream.java) — every left tuple survives, matched
    tuples gain the right stream's fields, unmatched right fields are
    null tuple values.  Runs as the hash-bucketed union+groupby join
    (streams.hash_outer_join) — no sortedness contract, one all-to-all."""
    from rindex.ops.streams import hash_outer_join

    left = _build(args[0], ctx)
    right = _build(args[1], ctx)
    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    return hash_outer_join(
        left, right, on=lk.strip(), right_on=(rk.strip() or lk.strip()),
        how="left",
    )


def _b_complement(args, kwargs, ctx):
    """complement(left, right, on=): left tuples whose key does NOT
    appear in the right stream (ComplementStream.java).  The right key
    set is the designated small side — distinct'd distributed, then
    broadcast once into the left stream's filter."""
    from rindex.ops.util import broadcast_semi_filter

    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    lk, rk = lk.strip(), (rk.strip() or lk.strip())
    keys = _build(args[1], ctx).unique(rk)
    return broadcast_semi_filter(_build(args[0], ctx), keys, lk, anti=True)


def _sort_spec(s: str):
    keys, desc = [], []
    for part in _cols(s):
        bits = part.split()
        keys.append(bits[0])
        desc.append(len(bits) > 1 and bits[1].lower() == "desc")
    return keys, desc


def _b_sort(args, kwargs, ctx):
    keys, desc = _sort_spec(_lit(kwargs["by"], "by"))
    return _build(args[0], ctx).sort(keys, descending=desc)


def _b_top(args, kwargs, ctx):
    keys, desc = _sort_spec(_lit(kwargs["sort"], "sort"))
    n = _lit(kwargs["n"], "n")
    return _build(args[0], ctx).sort(keys, descending=desc).limit(int(n))


def _b_unique(args, kwargs, ctx):
    from ray.data.aggregate import Count

    over = _cols(_lit(kwargs.pop("over"), "over"))
    agg = _build(args[0], ctx).groupby(
        over if len(over) > 1 else over[0]
    ).aggregate(Count(alias_name="_u"))
    return agg.map_batches(
        lambda b: b.drop_columns(["_u"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _b_cartesian(args, kwargs, ctx):
    from rindex.ops.streams import cartesian_product

    ds = _build(args[0], ctx)
    field = _ident(args[1], "cartesianProduct field")
    out = _lit(kwargs["as"], "as") if "as" in kwargs else "val"
    return cartesian_product(ds, field, out)


def _b_innerjoin(args, kwargs, ctx):
    """innerJoin = the SORTED merge join (InnerJoinStream contract: both
    streams already sorted on the key; rejected loudly otherwise)."""
    from rindex.ops.streams import merge_join

    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    lk, rk = lk.strip(), (rk.strip() or lk.strip())
    return merge_join(
        _build(args[0], ctx), _build(args[1], ctx), on=lk, right_on=rk,
    )


# fetch()'s right stream is the DESIGNATED small side by the expression
# contract (FetchStream batches the tuple side the same way), but trusting
# the author unconditionally is how a 10^9-row "small" side OOMs the
# driver.  Count-gate it: at or under this many rows it broadcasts (one
# driver copy, shipped once via ray.put inside broadcast_join); above, the
# op auto-switches to the distributed left-outer hash join — identical
# semantics, no driver materialization.  Mirrors DEDUP_BCAST_MAX_DOCS.
STREAM_BCAST_MAX_ROWS = int(os.environ.get("STREAM_BCAST_MAX_ROWS", "200000"))


def _b_fetch(args, kwargs, ctx):
    """fetch() enrichment: the right stream is the DESIGNATED small side
    (FetchStream pulls it in one request the same way), broadcast once.
    LEFT join — FetchStream never filters: unmatched tuples pass through
    un-enriched (null fields), only matched ones gain fields.  Right
    streams larger than STREAM_BCAST_MAX_ROWS take the distributed
    left-outer hash-join path instead of broadcasting."""
    from rindex.ops.util import broadcast_join

    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    lk, rk = lk.strip(), (rk.strip() or lk.strip())
    right = _build(args[1], ctx).materialize()  # count + join: one run
    if right.count() > STREAM_BCAST_MAX_ROWS:
        from rindex.ops.streams import hash_outer_join

        # key under a reserved name so the right key column can be dropped
        # after the join — output columns then match the broadcast path
        # exactly (left cols + right non-key cols)
        tmp = "__fetch_right_key__"
        # rename via an Arrow map_batches, not Dataset.rename_columns —
        # the latter dies on pandas-block datasets in Ray 2.49
        right = right.map_batches(
            lambda t, _rk=rk, _tmp=tmp: t.rename_columns(
                [_tmp if c == _rk else c for c in t.column_names]
            ),
            batch_format="pyarrow",
        )
        joined = hash_outer_join(
            _build(args[0], ctx), right, on=lk, right_on=tmp, how="left"
        )
        return joined.drop_columns([tmp])
    small = right.to_pandas()
    if rk != lk:
        small = small.rename(columns={rk: lk})
    return broadcast_join(_build(args[0], ctx), small, on=lk, how="left")


def _b_intersect(args, kwargs, ctx):
    """intersect(left, right, on=): keep left tuples whose key appears in
    the right stream (IntersectStream); the right key set broadcasts."""
    from rindex.ops.util import broadcast_semi_filter

    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    lk, rk = lk.strip(), (rk.strip() or lk.strip())
    keys = _build(args[1], ctx).unique(rk)
    return broadcast_semi_filter(_build(args[0], ctx), keys, lk)


def _metric_aggs(metric_nodes, where: str):
    """Positional metric calls (count(*)/sum(col)/avg/min/max) -> Ray
    aggregates, output columns named with Solr's literal metric identity
    (`count(*)`, `sum(value)`, ... — FacetStream/StatsStream name their
    result fields the same way)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    aggs = []
    for node in metric_nodes:
        if node[0] != "call" or node[1] not in _AGG_KINDS:
            raise ValueError(f"{where}: {node!r} is not a metric aggregate")
        kind = node[1]
        if kind == "count":
            aggs.append(Count(alias_name="count(*)"))
            continue
        col = _ident(node[2][0], f"{kind}() column")
        cls = {"sum": Sum, "min": Min, "max": Max, "avg": Mean}[kind]
        aggs.append(cls(col, alias_name=f"{kind}({col})"))
    if not aggs:
        raise ValueError(f"{where} needs at least one metric aggregate")
    return aggs


def _b_facet(args, kwargs, ctx):
    """facet(stream, buckets="a,b", bucketSorts="count(*) desc",
    bucketSizeLimit=N, <metrics...>) — FacetStream.java: bucketed metrics
    as ONE distributed groupby (the reference pushes the same rollup into
    the JSON Facet API), sorted/limited on the bucket metrics."""
    ds = _build(args[0], ctx)
    buckets = _cols(_lit(kwargs["buckets"], "buckets"))
    agg = ds.groupby(buckets if len(buckets) > 1 else buckets[0]).aggregate(
        *_metric_aggs(args[1:], "facet")
    )
    if "bucketSorts" in kwargs:
        keys, desc = _sort_spec(_lit(kwargs["bucketSorts"], "bucketSorts"))
        agg = agg.sort(keys, descending=desc)
    if "bucketSizeLimit" in kwargs:
        agg = agg.limit(int(_lit(kwargs["bucketSizeLimit"], "bucketSizeLimit")))
    return agg


def _b_stats(args, kwargs, ctx):
    """stats(stream, <metrics...>) — StatsStream.java: whole-stream
    metrics as ONE lazy single-bucket groupby (a constant key keeps the
    pipeline lazy; ds.aggregate() would execute at build time)."""
    ds = _build(args[0], ctx)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_stats", pa.array(np.zeros(len(t), np.int64))
        )

    agg = ds.map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("_stats").aggregate(*_metric_aggs(args[1:], "stats"))
    return agg.map_batches(
        lambda b: b.drop_columns(["_stats"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


_TS_FMT = {"DAY": "%Y-%m-%d", "HOUR": "%Y-%m-%dT%H", "MONTH": "%Y-%m"}


def _b_timeseries(args, kwargs, ctx):
    """timeseries(stream, field=ts, gap="+1DAY", <metrics...>) —
    TimeSeriesStream.java: date-bucketed metrics.  gap supports
    +1DAY/+1HOUR/+1MONTH; the bucket column keeps the field's name and
    holds the formatted bucket start (the reference's range-facet `other`
    buckets are out of scope here)."""
    ds = _build(args[0], ctx)
    field = _ident(kwargs["field"], "field")
    gap = _lit(kwargs.get("gap"), "gap") if "gap" in kwargs else "+1DAY"
    unit = gap.lstrip("+1")
    if unit not in _TS_FMT:
        raise ValueError(f"timeseries: unsupported gap {gap!r} "
                         f"(supported: +1DAY, +1HOUR, +1MONTH)")
    fmt = _TS_FMT[unit]

    def bucket(t: pa.Table) -> pa.Table:
        import pandas as pd

        idx = pd.DatetimeIndex(
            t[field].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        )
        cols = {field: pa.array(idx.strftime(fmt))}
        for n in t.schema.names:
            if n != field:
                cols[n] = t[n]
        return pa.table(cols)

    return (
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(field)
        .aggregate(*_metric_aggs(args[1:], "timeseries"))
        .sort(field)
    )


def _b_merge(args, kwargs, ctx):
    """merge(s1, s2, on="k asc") — MergeStream.java: union of two streams
    ordered on the merge key.  Ray's union does not interleave blocks, so
    the order contract is re-established with one sort over the union
    (same output, one exchange; the reference's zipper merge assumes
    pre-sorted inputs that Dataset.union cannot preserve anyway)."""
    keys, desc = _sort_spec(_lit(kwargs["on"], "on"))
    return _build(args[0], ctx).union(_build(args[1], ctx)).sort(
        keys, descending=desc
    )


def _b_leftouterjoin(args, kwargs, ctx):
    """leftOuterJoin = the SORTED merge join, left-outer flavor
    (LeftOuterJoinStream contract: both streams sorted on the key)."""
    from rindex.ops.streams import merge_join

    lk, _, rk = _lit(kwargs["on"], "on").partition("=")
    lk, rk = lk.strip(), (rk.strip() or lk.strip())
    return merge_join(
        _build(args[0], ctx), _build(args[1], ctx), on=lk, right_on=rk,
        how="left",
    )


# collections built by update() this process: (sf_dir, dest) -> index dir.
# A process-local registry, like the reference's in-memory collection list
# on the coordinating node — the index itself is on (shared) disk and any
# worker re-opens it from the manifest path alone.
_STREAM_COLLECTIONS: dict[tuple, str] = {}


def _b_update(args, kwargs, ctx):
    """update(dest, stream, id="doc_id", text="text", keep="lang,source")
    — the stream SINK (`solr/solrj/.../io/stream/UpdateStream.java`):
    index the inner stream's tuples into a NEW collection and emit the
    reference's summary tuple (batchIndexed / collection).  The build is
    the engine's own distributed build_index over the lazy inner Dataset
    (tokenize partials -> salted shuffle -> writer actor pool); the index
    dir is fingerprinted by (sf_dir, expression, field config) so a
    repeated compile resumes from the checkpoint lineage instead of
    re-indexing (DirectUpdateHandler2 commit idempotence analog).
    search()/random() resolve the collection by name afterwards."""
    import hashlib
    import ray.data as rd

    from rindex.build import build_index

    dest = _ident(args[0], "update destination")
    inner = args[1]
    id_col = _lit(kwargs["id"], "id") if "id" in kwargs else "doc_id"
    text_col = _lit(kwargs["text"], "text") if "text" in kwargs else "text"
    keep = _cols(_lit(kwargs["keep"], "keep")) if "keep" in kwargs else []
    ds = _build(inner, ctx)
    fp = hashlib.md5(
        repr((os.path.abspath(ctx["sf_dir"]), inner, id_col, text_col, keep))
        .encode()
    ).hexdigest()[:10]
    idx = os.path.join("/tmp", "rindex_cache", f"stream-{dest}-{fp}")

    # resume lineage = the parquet files the inner expression actually
    # reads (a regenerated source table must invalidate the checkpoint;
    # hardcoding one table would silently serve stale segments)
    def _tables(node, acc):
        if isinstance(node, tuple) and node and node[0] == "call":
            if node[1] == "table" and node[2] and node[2][0][0] == "col":
                acc.add(node[2][0][1])
            for ch in node[2]:
                _tables(ch, acc)
            for v in _kwargs(node).values():
                _tables(v, acc)
        return acc

    input_files = sorted(
        p for t in _tables(inner, set())
        if os.path.exists(p := os.path.join(ctx["sf_dir"], f"{t}.parquet"))
    )
    man = build_index(
        ds, idx, num_segments=4, mode="local",
        id_cols=(id_col,), text_col=text_col, keep_cols=tuple(keep),
        input_files=input_files or None,
    )
    _STREAM_COLLECTIONS[(os.path.abspath(ctx["sf_dir"]), dest)] = idx
    return rd.from_items(
        [{
            "collection": dest,
            "batchIndexed": int(man["totals"]["doc_count"]),
            "segments": int(man["totals"]["n_segments"]),
        }]
    )


def _collection_index(coll: str, ctx) -> str:
    """Resolve a collection name to an index dir: update()-built
    collections first, then the built-in documents index."""
    from rindex.ops.fulltext import documents_index

    key = (os.path.abspath(ctx["sf_dir"]), coll)
    if key in _STREAM_COLLECTIONS:
        return _STREAM_COLLECTIONS[key]
    if coll == "documents":
        return documents_index(ctx["sf_dir"])
    raise ValueError(
        f"search: unknown collection {coll!r} (indexed: documents"
        f" + update()-built: {sorted(k[1] for k in _STREAM_COLLECTIONS)})"
    )


def _b_search(args, kwargs, ctx):
    """search(collection, q="...", mode="or"|"and", rows=N) — the
    INDEX-backed stream SOURCE (`solr/solrj/src/java/org/apache/solr/
    client/solrj/io/stream/CloudSolrStream.java`; every reference
    streaming expression starts here).  Two shapes, mirroring the
    reference's rows-bounded /select fetch vs the full-stream /export
    handler (qt=/export):

      rows=N   driver top-k through the warmed searcher (bounded, tiny),
               wrapped as a Dataset so it composes with any downstream
               stream; output (rank, doc_id, score).
      no rows  the FULL match set as a distributed Dataset — one scoring
               task per segment (IndexSearcher.score_matches_dataset),
               match rows land in the object store and never gather on
               the driver; this is the shape to join/rollup at 100 TB.
               Output (doc_id, score), score>0 hit contract, scores
               bit-identical to search(algo="exhaustive")."""
    from rindex.search import IndexSearcher

    coll = _ident(args[0], "search collection")
    text = _lit(kwargs["q"], "q")
    mode = _lit(kwargs["mode"], "mode") if "mode" in kwargs else "or"
    if mode not in ("or", "and"):
        raise ValueError(f"search: mode must be or|and, got {mode!r}")
    searcher = IndexSearcher(_collection_index(coll, ctx), algo="wand")
    if "rows" in kwargs:
        import ray.data as rd

        k = int(_lit(kwargs["rows"], "rows"))
        qtbl = pa.table(
            {
                "query_id": pa.array(["q"]),
                "qtype": pa.array([mode]),
                "text": pa.array([text]),
                "k": pa.array([k], pa.int32()),
            }
        )
        return rd.from_arrow(searcher.search_table(qtbl).drop_columns(["query_id"]))
    return searcher.score_matches_dataset(text, mode=mode)


def _b_random(args, kwargs, ctx):
    """random(collection, q="...", mode=, rows=N) — RandomStream
    (`solr/solrj/.../io/stream/RandomStream.java`): a pseudo-random
    sample of the query's match set.  Seed-FREE determinism instead of
    the reference's per-request RNG: the sample is the first N matches
    in md5(doc_id) order (the repo-wide split-hash convention), so the
    same expression returns the same tuples at any parallelism level /
    cluster size — the property a resumable 100-TB pipeline actually
    needs.  The match set streams from per-segment scoring tasks; the
    hash rides each batch and only sort+limit(N) crosses the exchange."""
    import hashlib

    coll = _ident(args[0], "random collection")
    text = _lit(kwargs["q"], "q")
    mode = _lit(kwargs["mode"], "mode") if "mode" in kwargs else "or"
    n = int(_lit(kwargs["rows"], "rows"))
    from rindex.search import IndexSearcher

    searcher = IndexSearcher(_collection_index(coll, ctx), algo="wand")
    ds = searcher.score_matches_dataset(text, mode=mode)

    def add_hash(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids]
        return t.append_column("_r", pa.array(h, pa.string()))

    sampled = (
        ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
        .sort("_r")
        .limit(n)
    )
    return sampled.map_batches(
        lambda b: b.drop_columns(["_r"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _b_significant(args, kwargs, ctx):
    """significantTerms(collection, q="...", limit=N, minDocFreq=m) —
    SignificantTermsStream (`solr/solrj/.../io/stream/
    SignificantTermsStream.java`): terms over-represented in the q match
    set (foreground) vs the whole collection (background); score =
    ln((df_fg/n_fg)/(df_bg/n_bg)), rounded BEFORE ranking (the repo's
    rounded-rank discipline), ties by term asc.

    Scale shape: background df comes from the INDEX term dictionary
    (df summed over segments — dictionary columns only, the designated
    small side, same as the reference's per-shard terms enum); the
    foreground doc set broadcasts as a sorted id array (8 B/doc —
    bounded by the q match set, the same contract as the dedup ops'
    broadcast sides); foreground df is ONE corpus scan with per-batch
    (term, count) partials and a tiny groupby.  Only the per-term table
    (vocabulary-sized) ever reaches the driver."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from rindex.ops.util import dictionary_stats
    from rindex.search import IndexSearcher
    from rindex.segments import read_manifest

    coll = _ident(args[0], "significantTerms collection")
    text = _lit(kwargs["q"], "q")
    mode = _lit(kwargs["mode"], "mode") if "mode" in kwargs else "or"
    limit = int(_lit(kwargs["limit"], "limit")) if "limit" in kwargs else 10
    min_df = (
        int(_lit(kwargs["minDocFreq"], "minDocFreq"))
        if "minDocFreq" in kwargs else 1
    )
    idx = _collection_index(coll, ctx)
    searcher = IndexSearcher(idx, algo="wand")

    fg = np.sort(
        searcher.score_matches_dataset(text, mode=mode)
        .to_pandas()["doc_id"].to_numpy().astype(np.int64)
    )
    n_fg = float(len(fg))
    man = read_manifest(idx)
    n_bg = float(man["totals"]["doc_count"])
    if n_fg == 0:
        return rd.from_arrow(
            pa.table({"term": pa.array([], pa.string()),
                      "df_fg": pa.array([], pa.int64()),
                      "df_bg": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
        )
    dd = dictionary_stats(idx, ["df"])
    acc = dict(zip(dd["term"], dd["df"].astype(int)))
    fg_ref = ray.put(fg)
    sf_dir = ctx["sf_dir"]

    def fg_partials(t: pa.Table) -> pa.Table:
        from rindex.analysis import get_analyzer

        fg_ = ray.get(fg_ref)
        ids = t["doc_id"].to_numpy()
        at = np.searchsorted(fg_, ids)
        isfg = (at < len(fg_)) & (fg_[np.minimum(at, len(fg_) - 1)] == ids)
        az = get_analyzer("standard")
        texts = t["text"].to_pylist()
        doc_rows, term_rows = [], []
        for i in np.nonzero(isfg)[0]:
            toks = az.tokens(texts[int(i)] or "")
            doc_rows.extend([int(i)] * len(toks))
            term_rows.extend(toks)
        if not term_rows:
            return pa.table({"term": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        df = pd.DataFrame({"d": doc_rows, "term": term_rows}).drop_duplicates()
        vc = df["term"].value_counts()
        return pa.table(
            {"term": pa.array(vc.index.to_numpy(), pa.string()),
             "c": pa.array(vc.to_numpy().astype(np.int64))}
        )

    counts = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fg_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("c", alias_name="df_fg"))
        .to_pandas()
    )
    counts = counts[counts["df_fg"] >= min_df].copy()
    counts["df_bg"] = counts["term"].map(acc).astype(np.int64)
    counts["df_fg"] = counts["df_fg"].astype(np.int64)
    counts["score"] = np.round(
        np.log(
            (counts["df_fg"].to_numpy(np.float64) / n_fg)
            / (counts["df_bg"].to_numpy(np.float64) / n_bg)
        ),
        6,
    )
    counts = counts.sort_values(
        ["score", "term"], ascending=[False, True], kind="mergesort"
    ).head(limit)
    return rd.from_arrow(
        pa.Table.from_pandas(
            counts[["term", "df_fg", "df_bg", "score"]],
            preserve_index=False,
        )
    )


def _b_priority(args, kwargs, ctx):
    """priority(high, low) — PriorityStream (`solr/solrj/.../io/stream/
    PriorityStream.java`): drain ALL of the high-priority stream before
    any of the low-priority one (the executor() scheduling wrapper).
    Dataset.union preserves operand order block-wise, which is exactly
    the two-phase drain; a priority test pins the ordering."""
    if len(args) != 2:
        raise ValueError("priority: exactly two streams (high, low)")
    return _build(args[0], ctx).union(_build(args[1], ctx))


def _b_echo(args, kwargs, ctx):
    """echo("text") — EchoStream (`solr/solrj/.../io/stream/EchoStream
    .java`): emits exactly one tuple {echo: <text>}; the reference's
    smoke-test stream for expression plumbing."""
    import ray.data as rd

    if len(args) != 1:
        raise ValueError("echo: exactly one literal argument")
    txt = _lit(args[0], "echo") if args[0][0] == "lit" else _ident(
        args[0], "echo"
    )
    return rd.from_pandas(pd.DataFrame({"echo": [txt]}))


def _b_tuple(args, kwargs, ctx):
    """tuple(a=<scalar expr or stream>, b=...) — TupStream
    (`solr/solrj/.../io/stream/TupStream.java`): one output tuple whose
    fields are evaluator scalars (evaluated over an EMPTY scope — pure
    expressions) or, for a stream argument, the stream's row COUNT (the
    repo's bounded analog of embedding a whole stream in one tuple —
    TupStream holds the tuple list in driver RAM, which is exactly the
    unbounded materialization this engine refuses; count is the scalar
    the contract needs most)."""
    import ray.data as rd

    from rindex.ops.evaluators import eval_node

    vals: dict = {}
    for name, node in kwargs.items():
        if node[0] == "call" and node[1] in STREAM_BUILDERS:
            vals[name] = int(_build(node, ctx).count())
        else:
            out = eval_node(_check_scalar(node, f"tuple {name}="), {})
            vals[name] = float(np.asarray(out)) if np.ndim(out) == 0 else out
    if not vals:
        raise ValueError("tuple: needs at least one named field")
    return rd.from_pandas(pd.DataFrame({k: [v] for k, v in vals.items()}))



def _b_let(args, kwargs, ctx):
    """let(a=col(<stream>, field), b=<evaluator expr>, ..., echo="a,b")
    — LetStream + ColumnEvaluator (`solr/solrj/.../io/stream/LetStream
    .java`, `.../io/eval/ColumnEvaluator.java`): the bridge between
    STREAMS and the evaluator's array algebra.  Bindings evaluate
    SEQUENTIALLY, each joining the scope of later ones (Solr's cell
    semantics); col() collects one column of a compiled stream into an
    in-memory array — the reference holds let() cells in the coordinating
    node's RAM the same way, so a col() over an UNBOUNDED stream is the
    user's contract to keep it small (top-k/rollup first).  echo picks
    the emitted variables (default: all); the result is a one-tuple
    stream — scalars as columns, arrays as list columns."""
    import ray.data as rd

    from rindex.ops.evaluators import eval_node

    scope: dict = {}
    echo = None
    for name, node in kwargs.items():
        if name == "echo":
            echo = _cols(_lit(node, "echo"))
            continue
        if node[0] == "call" and node[1] == "col":
            fld = _ident(node[2][1], "col field")
            scope[name] = _build(node[2][0], ctx).to_pandas()[fld].to_numpy()
            continue
        _check_scalar(node, f"let {name}=")
        scope[name] = eval_node(node, scope)
    names = echo if echo is not None else list(scope)
    cols = {}
    for n in names:
        if n not in scope:
            raise ValueError(f"let: echo names unbound variable {n!r}")
        v = scope[n]
        if isinstance(v, np.ndarray):
            cols[n] = pa.array([v.tolist()])
        elif isinstance(v, (bool, np.bool_)):
            cols[n] = pa.array([bool(v)], pa.bool_())
        elif isinstance(v, (int, np.integer)):
            cols[n] = pa.array([int(v)], pa.int64())
        else:
            cols[n] = pa.array([float(v)], pa.float64())
    return rd.from_arrow(pa.table(cols))


def _b_drill(args, kwargs, ctx):
    """drill(collection, q="...", mode=, over="a,b", alias=agg(), ...) —
    DrillStream (`solr/solrj/.../io/stream/DrillStream.java`): push a
    rollup INTO the /export handler so each shard aggregates its own
    slice and only partials travel.  That push-down is exactly Ray's
    groupby().aggregate() over the per-segment export stream — partial
    aggregation happens inside each block before the (tiny) exchange.
    Fields beyond (doc_id, score) that the rollup needs are enriched
    with one hash join against the collection's stored table (the
    reference's /export fl= does the same stored-field fetch
    segment-side)."""
    import pyarrow.parquet as ppq
    import ray.data as rd

    from rindex.segments import read_manifest, seg_dir

    coll = _ident(args[0], "drill collection")
    sargs = {k: kwargs.pop(k) for k in ("q", "mode") if k in kwargs}
    ds = _b_search([args[0]], sargs, ctx)
    over = _cols(_lit(kwargs["over"], "over"))
    mcols = [
        _ident(node[2][0], "drill metric column")
        for node in kwargs.values()
        if node[0] == "call" and node[1] in _AGG_KINDS and node[1] != "count"
    ]
    need = sorted(
        {c for c in over + mcols if c not in ("doc_id", "score")}
    )
    if need:
        # stored fields come from the COLLECTION's segment doc stores
        # (what /export fl= reads) — works for update()-built collections
        # too; only the built-in documents collection may fall back to
        # its source table for fields the index does not store
        idxdir = _collection_index(coll, ctx)
        man = read_manifest(idxdir)
        docs_files = [
            os.path.join(seg_dir(idxdir, m["seg_id"], m.get("gen", 0)),
                         "docs.parquet")
            for m in man["segments"]
        ]
        stored = set(ppq.read_schema(docs_files[0]).names)
        if set(need) <= stored:
            right = rd.read_parquet(docs_files, columns=["doc_id"] + need)
        elif coll == "documents":
            right = read_table(ctx["sf_dir"], coll, ["doc_id"] + need)
        else:
            raise ValueError(
                f"drill: fields {sorted(set(need) - stored)} are not "
                f"stored in collection {coll!r}"
            )
        ds = ds.join(right, "inner", num_partitions=join_partitions(), on=("doc_id",))
    inner_done = ("done", ds)
    return _b_rollup([inner_done], kwargs, ctx)


def _b_topic(args, kwargs, ctx):
    """topic(name, collection, q="...", mode=) — TopicStream
    (`solr/solrj/.../io/stream/TopicStream.java`): checkpointed
    incremental consumption of a query's match set.  Each compile
    returns ONLY matches with doc_id above the persisted checkpoint
    (the reference checkpoints `_version_` per shard; doc_id is this
    engine's monotone ingest key) and atomically advances it, so
    repeated executions deliver every match EXACTLY ONCE.  The
    checkpoint is a tiny JSON keyed by (sf_dir, topic name) — the
    manifest-checkpoint analog; delete it to replay from the start."""
    import hashlib
    import json

    from rindex.search import IndexSearcher
    from rindex.segments import atomic_write_json

    name = _ident(args[0], "topic name")
    coll = _ident(args[1], "topic collection")
    text = _lit(kwargs["q"], "q")
    mode = _lit(kwargs["mode"], "mode") if "mode" in kwargs else "or"
    key = hashlib.md5(
        f"{os.path.abspath(ctx['sf_dir'])}:{name}".encode()
    ).hexdigest()[:10]
    ck_path = os.path.join("/tmp", "rindex_cache", f"topic-lang-{key}.json")
    os.makedirs(os.path.dirname(ck_path), exist_ok=True)
    last = -1
    if os.path.exists(ck_path):
        with open(ck_path) as fh:
            last = int(json.load(fh)["last_doc_id"])

    searcher = IndexSearcher(_collection_index(coll, ctx), algo="wand")
    ds = searcher.score_matches_dataset(text, mode=mode)
    # execute ONCE and deliver the materialized slice: the checkpoint
    # must describe exactly the tuples the caller receives (TopicStream
    # advances its checkpoints as it reads each batch the same way), and
    # a second lazy execution could double the corpus-scale scoring work
    out = ds.filter(expr=f"doc_id > {last}").materialize()
    hi = out.max("doc_id", ignore_nulls=True)
    if hi is not None:
        atomic_write_json(ck_path, {"last_doc_id": int(hi)})
    return out


def _b_list(args, kwargs, ctx):
    """list(s1, s2, ...) / plist(...) — ListStream / PlistStream
    (`solr/solrj/.../io/stream/{ListStream,PlistStream}.java`):
    concatenate N streams.  The reference's only difference is WHEN the
    inner streams open (plist opens them in parallel); under Ray's
    streaming executor every union branch executes concurrently anyway,
    so both names compile to the same lazy union."""
    if not args:
        raise ValueError("list: needs at least one stream")
    ds = _build(args[0], ctx)
    for node in args[1:]:
        ds = ds.union(_build(node, ctx))
    return ds


def _b_parallel(args, kwargs, ctx):
    """parallel(inner, workers=N, sort="k asc") — ParallelStream
    (`solr/solrj/.../io/stream/ParallelStream.java`): the reference
    SHARDS the inner expression onto N workers by a partitioning hash
    and zipper-merges their sorted outputs (its streams are single-node
    otherwise).  Ray Data's streaming executor already runs every stage
    of the compiled inner pipeline data-parallel across the cluster, so
    the faithful mapping is: honor workers=N as a repartition hint
    (useful when the inner stream collapsed to few blocks, e.g. after a
    groupby), and re-establish the decorator's output-order contract
    with one sort.  Semantics are unchanged by construction — the same
    tuples, ordered."""
    ds = _build(args[0], ctx)
    if "workers" in kwargs:
        n = int(_lit(kwargs["workers"], "workers"))
        if n <= 0:
            raise ValueError(f"parallel: workers must be positive, got {n}")
        ds = ds.repartition(n)
    if "sort" in kwargs:
        keys, desc = _sort_spec(_lit(kwargs["sort"], "sort"))
        ds = ds.sort(keys, descending=desc)
    return ds


def _b_executor(args, kwargs, ctx):
    """executor(jobs, threads=N) — ExecutorStream (`solr/solrj/.../io/
    stream/ExecutorStream.java`): each inbound tuple carries a stored
    streaming expression in its `expr_s` field; the executor compiles and
    runs each and emits one completion tuple per job.  The reference is a
    DRIVER-LEVEL work-queue runner (a thread pool draining a jobs
    collection), not a per-record transform — so the faithful Ray mapping
    compiles every job into its own INDEPENDENT lazy Dataset and executes
    them concurrently from the driver with a thread pool; each job's
    pipeline is itself fully distributed, so threads=N bounds only how
    many streaming executions overlap.  The jobs table is tiny by
    contract (stored admin jobs), so collecting it is not a corpus pull;
    job failures surface as status='failed' tuples like the reference's
    exception tuples, never as a torn run."""
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd

    jobs = _build(args[0], ctx).to_pandas()
    if "expr_s" not in jobs.columns:
        raise ValueError("executor: jobs stream must carry an expr_s field")
    threads = (
        int(_lit(kwargs["threads"], "threads")) if "threads" in kwargs else 4
    )
    ids = (
        jobs["job_id"].astype(str).tolist()
        if "job_id" in jobs.columns
        else [str(i) for i in range(len(jobs))]
    )

    def run(job):
        jid, expr = job
        try:
            n = int(_build(parse_stream_expr(expr), ctx).count())
            return jid, n, "complete"
        except Exception:  # noqa: BLE001 — reference emits exception tuples
            return jid, 0, "failed"

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        done = list(pool.map(run, zip(ids, jobs["expr_s"].tolist())))
    done.sort(key=lambda r: r[0])
    return rd.from_arrow(
        pa.table(
            {
                "job_id": pa.array([r[0] for r in done], pa.string()),
                "n_rows": pa.array([r[1] for r in done], pa.int64()),
                "status": pa.array([r[2] for r in done], pa.string()),
            }
        )
    )


def _b_daemon(args, kwargs, ctx):
    """daemon(inner, id="x", runs=N) — DaemonStream (`solr/solrj/.../io/
    stream/DaemonStream.java`) in BOUNDED form: the reference wraps the
    inner stream in a background thread that reruns it on an interval
    forever; a batch engine can't host an unbounded service (SURVEY §2.9
    scoped the daemon SERVICE out), so runs=N (default 3) reruns the
    compiled inner pipeline N times — each a fresh streaming execution,
    the NRT micro-batch refresh shape — and emits the reference's
    per-iteration status tuple (id, run, n_rows).  Unbounded scheduling
    belongs to the cluster's job scheduler (ray job submit + cron), not
    inside a query."""
    import ray.data as rd

    did = _lit(kwargs["id"], "id") if "id" in kwargs else "daemon"
    runs = int(_lit(kwargs["runs"], "runs")) if "runs" in kwargs else 3
    if runs <= 0:
        raise ValueError(f"daemon: runs must be positive, got {runs}")
    counts = [int(_build(args[0], ctx).count()) for _ in range(runs)]
    return rd.from_arrow(
        pa.table(
            {
                "id": pa.array([did] * runs, pa.string()),
                "run": pa.array(np.arange(runs, dtype=np.int64)),
                "n_rows": pa.array(counts, pa.int64()),
            }
        )
    )


def _b_knn(args, kwargs, ctx):
    """knn(stream, field=<vector col>, id=<id col>, qid=N, k=K) — the
    dense-vector top-k stream (Solr 9's {!knn} KnnQParser surfaced as a
    stream decorator): brute-force cosine of every stream row's vector
    against the qid row's vector.  The query vector is pulled with ONE
    pruned filter scan and broadcast via ray.put; per-batch cosine is a
    single matmul and only each batch's rounded-score top-k survives to
    the final (lazy) global sort+limit — the vector column never crosses
    the exchange."""
    import ray

    ds = _build(args[0], ctx)
    field = _ident(kwargs["field"], "field")
    idc = _ident(kwargs["id"], "id")
    qid = int(_lit(kwargs["qid"], "qid"))
    k = int(_lit(kwargs["k"], "k"))

    qrow = ds.filter(expr=f"{idc} == {qid}").to_pandas()
    if len(qrow) != 1:
        raise ValueError(f"knn: qid={qid} matched {len(qrow)} rows")
    qv = np.asarray(qrow[field].iloc[0], dtype=np.float64)
    qn = ray.put(qv / np.linalg.norm(qv))

    def cos_part(batch):
        import pandas as pd

        qn_ = ray.get(qn)
        V = np.array(batch[field].tolist(), dtype=np.float64)
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        out = pd.DataFrame(
            {
                idc: batch[idc].to_numpy(),
                "score": (V @ qn_).round(6),
            }
        )
        return out.sort_values(
            ["score", idc], ascending=[False, True], kind="mergesort"
        ).head(k)

    return (
        ds.map_batches(cos_part, batch_format="pandas", batch_size=1024)
        .sort(["score", idc], descending=[True, False])
        .limit(k)
    )


STREAM_BUILDERS = {
    "table": _b_table,
    "search": _b_search,
    "update": _b_update,
    "random": _b_random,
    "parallel": _b_parallel,
    "executor": _b_executor,
    "daemon": _b_daemon,
    "drill": _b_drill,
    "let": _b_let,
    "echo": _b_echo,
    "priority": _b_priority,
    "tuple": _b_tuple,
    "list": _b_list,
    "plist": _b_list,
    "topic": _b_topic,
    "significantTerms": _b_significant,
    "knn": _b_knn,
    "select": _b_select,
    "rollup": _b_rollup,
    "having": _b_having,
    "hashJoin": _b_hashjoin,
    "outerHashJoin": _b_outerhashjoin,
    "complement": _b_complement,
    "innerJoin": _b_innerjoin,
    "leftOuterJoin": _b_leftouterjoin,
    "merge": _b_merge,
    "facet": _b_facet,
    "stats": _b_stats,
    "timeseries": _b_timeseries,
    "fetch": _b_fetch,
    "intersect": _b_intersect,
    "sort": _b_sort,
    "top": _b_top,
    "unique": _b_unique,
    "cartesianProduct": _b_cartesian,
}


def _build(node, ctx):
    if node[0] == "done":  # pre-built Dataset threaded by a composite builder
        return node[1]
    if node[0] != "call" or node[1] not in STREAM_BUILDERS:
        raise ValueError(
            f"not a registered stream: {node!r}; "
            f"registered: {sorted(STREAM_BUILDERS)}"
        )
    return STREAM_BUILDERS[node[1]](node[2], dict(_kwargs(node)), ctx)


def compile_stream(expr: str, sf_dir: str, views: dict | None = None):
    """Compile a streaming-expression string into a lazy Ray Dataset.
    `views` maps table names to `ctx -> Dataset` factories consulted by
    table() before the parquet source (a streaming-view registry —
    thread-safe, no global builder mutation)."""
    return _build(parse_stream_expr(expr), {"sf_dir": sf_dir, "views": views})


# ---------------------------------------------------------------------------
# Registered ops
# ---------------------------------------------------------------------------

HAVING_EXPR = """
having(
  rollup(
    hashJoin(table(orders, fl="o_custkey,o_totalprice"),
             table(customer, fl="c_custkey,c_mktsegment"),
             on="o_custkey=c_custkey"),
    over="c_mktsegment",
    n_orders=count(*),
    sum_price=sum(o_totalprice)),
  eq(mod(n_orders, 2), 1))
"""


def q_stream_expr_having_rollup(sf_dir: str):
    """A streaming-expression STRING compiled and executed end-to-end:
    hashJoin -> rollup -> having with an odd-count evaluator predicate
    (scale-independent split).  The whole pipeline is one lazy Dataset —
    the text form of the reference's StreamFactory surface."""
    out = compile_stream(HAVING_EXPR, sf_dir).to_pandas()
    out["sum_price"] = out["sum_price"].round(2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


QUERIES["stream_expr_having_rollup"] = q_stream_expr_having_rollup
ORACLE["stream_expr_having_rollup"] = """
    SELECT c_mktsegment, count(*) AS n_orders,
           round(sum(o_totalprice), 2) AS sum_price
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    HAVING count(*) % 2 = 1
    ORDER BY c_mktsegment
"""


TOP_EXPR = """
top(
  select(
    rollup(
      select(table(lineitem, fl="l_orderkey,l_extendedprice,l_discount"),
             keep="l_orderkey",
             disc=mult(l_extendedprice, sub(1, l_discount))),
      over="l_orderkey",
      total=sum(disc)),
    keep="l_orderkey",
    total=round(total, 2)),
  n=15, sort="total desc,l_orderkey asc")
"""


def q_stream_expr_top_revenue(sf_dir: str):
    """Four-deep nested expression (select -> rollup -> select -> top):
    per-order discounted revenue, rounded BEFORE ranking (the engine's
    rounded-rank discipline, expressed in the language itself), global
    top-15 with the docID-style orderkey tiebreak."""
    out = compile_stream(TOP_EXPR, sf_dir).to_pandas()
    return out.reset_index(drop=True)


QUERIES["stream_expr_top_revenue"] = q_stream_expr_top_revenue
ORACLE["stream_expr_top_revenue"] = """
    SELECT l_orderkey,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS total
    FROM lineitem
    GROUP BY l_orderkey
    ORDER BY total DESC, l_orderkey ASC
    LIMIT 15
"""


OUTER_EXPR = """
rollup(
  select(
    outerHashJoin(table(customer, fl="c_custkey,c_mktsegment"),
                  table(orders, fl="o_custkey,o_totalprice"),
                  on="c_custkey=o_custkey"),
    keep="c_mktsegment",
    matched=if(gt(coalesce(o_totalprice, 0), 0), 1, 0)),
  over="c_mktsegment",
  n_rows=count(*),
  n_matched=sum(matched))
"""


def q_stream_expr_outer_join(sf_dir: str):
    """outerHashJoin() in the language (OuterHashJoinStream.java): every
    customer survives the join; the select() stage turns the null tuple
    values of unmatched rows into a 0/1 matched flag via the coalesce
    evaluator, and the rollup counts both row classes per segment."""
    out = compile_stream(OUTER_EXPR, sf_dir).to_pandas()
    out["n_matched"] = out["n_matched"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


QUERIES["stream_expr_outer_join"] = q_stream_expr_outer_join
ORACLE["stream_expr_outer_join"] = """
    SELECT c_mktsegment, count(*) AS n_rows,
           sum(CASE WHEN o_totalprice IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
             AS n_matched
    FROM customer LEFT JOIN orders ON c_custkey = o_custkey
    GROUP BY c_mktsegment
    ORDER BY c_mktsegment
"""


COMPLEMENT_EXPR = """
rollup(
  complement(table(customer, fl="c_custkey,c_nationkey"),
             having(table(orders, fl="o_custkey,o_totalprice"),
                    gt(o_totalprice, 250000)),
             on="c_custkey=o_custkey"),
  over="c_nationkey",
  n_lonely=count(*))
"""


def q_stream_expr_complement(sf_dir: str):
    """complement() in the language (ComplementStream.java): customers
    with no BIG-TICKET orders (the right stream pre-filtered by a
    having() evaluator so the complement is non-empty at every test
    scale; its distinct key set broadcasts once), counted per nation."""
    out = compile_stream(COMPLEMENT_EXPR, sf_dir).to_pandas()
    return out.sort_values("c_nationkey").reset_index(drop=True)


QUERIES["stream_expr_complement"] = q_stream_expr_complement
ORACLE["stream_expr_complement"] = """
    SELECT c_nationkey::BIGINT AS c_nationkey, count(*) AS n_lonely
    FROM customer
    WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_totalprice > 250000)
    GROUP BY c_nationkey
    ORDER BY c_nationkey
"""


FACET_EXPR = (
    'facet(table(events, fl="event_type,value"),'
    ' buckets="event_type",'
    ' bucketSorts="count(*) desc, event_type asc",'
    ' bucketSizeLimit=5,'
    ' count(*), sum(value), avg(value), min(value), max(value))'
)


def q_stream_expr_facet_events(sf_dir: str):
    """facet() stream compiled from expression text (FacetStream.java):
    bucketed metrics over event_type as ONE distributed groupby, bucket
    sort + size limit applied in-language.  Output columns carry Solr's
    literal metric names (`count(*)`, `sum(value)`, ...)."""
    out = compile_stream(FACET_EXPR, sf_dir).to_pandas()
    for c in ("sum(value)", "avg(value)", "min(value)", "max(value)"):
        out[c] = out[c].round(4)
    return out.reset_index(drop=True)


QUERIES["stream_expr_facet_events"] = q_stream_expr_facet_events
ORACLE["stream_expr_facet_events"] = """
    SELECT event_type,
           count(*) AS "count(*)",
           round(sum(value), 4) AS "sum(value)",
           round(avg(value), 4) AS "avg(value)",
           round(min(value), 4) AS "min(value)",
           round(max(value), 4) AS "max(value)"
    FROM events
    GROUP BY event_type
    ORDER BY count(*) DESC, event_type ASC
    LIMIT 5
"""


# stats() cannot nest over timeseries() here: the inner metric's output
# name (`sum(value)`) is not an identifier the scalar grammar accepts —
# the two streams are exercised side by side instead.
TIMESERIES_EXPR = (
    'timeseries(table(events, fl="ts,value"),'
    ' field=ts, gap="+1DAY", count(*), sum(value))'
)
STATS_EXPR = (
    'stats(table(events, fl="value,user_id"),'
    ' count(*), sum(value), avg(value), min(value), max(value))'
)


def q_stream_expr_timeseries_events(sf_dir: str):
    """timeseries() + stats() streams compiled from expression text
    (TimeSeriesStream.java / StatsStream.java): the daily series is a
    date-bucketed distributed groupby (bucket column keeps the field
    name, formatted bucket start); the stats() tuple rides along as
    whole-stream metrics joined onto every row — both pipelines stay
    lazy end-to-end."""
    ts = compile_stream(TIMESERIES_EXPR, sf_dir).to_pandas()
    ts["sum(value)"] = ts["sum(value)"].round(4)
    st = compile_stream(STATS_EXPR, sf_dir).to_pandas()
    out = ts.rename(
        columns={"count(*)": "day_n", "sum(value)": "day_sum"}
    )
    out["total_n"] = np.int64(st["count(*)"].iloc[0])
    out["total_avg"] = round(float(st["avg(value)"].iloc[0]), 6)
    return out.sort_values("ts").reset_index(drop=True)


QUERIES["stream_expr_timeseries_events"] = q_stream_expr_timeseries_events
ORACLE["stream_expr_timeseries_events"] = """
    WITH st AS (
      SELECT count(*) AS total_n, round(avg(value), 6) AS total_avg
      FROM events
    )
    SELECT strftime(ts, '%Y-%m-%d') AS ts,
           count(*) AS day_n,
           round(sum(value), 4) AS day_sum,
           st.total_n, st.total_avg
    FROM events, st
    GROUP BY 1, st.total_n, st.total_avg
    ORDER BY 1
"""


KNN_EXPR = """
knn(table(embeddings, fl="vec_id,embedding"),
    field=embedding, id=vec_id, qid=0, k=10)
"""


def q_stream_expr_knn_embeddings(sf_dir: str):
    """knn() in the language (Solr 9 {!knn} as a stream decorator): dense
    top-10 by cosine against vec_id 0's vector, compiled into ONE lazy
    pipeline — pruned read, per-batch matmul + partial top-k, global
    sort+limit; rounded-rank discipline with the vec_id tiebreak."""
    out = compile_stream(KNN_EXPR, sf_dir).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


SEARCH_EXPR = """
rollup(
  hashJoin(
    select(search(documents, q="spark join", mode="or"),
           keep="doc_id", score=round(score, 6)),
    table(documents, fl="doc_id,lang"),
    on="doc_id"),
  over="lang",
  n_hits=count(*),
  best=max(score),
  worst=min(score))
"""


def q_stream_expr_search_rollup(sf_dir: str):
    """search() as the stream SOURCE (CloudSolrStream / qt=/export): the
    FULL BM25 match set for "spark join" streams out of per-segment
    scoring tasks (rows never gather on the driver), hash-joins against
    the documents table for the lang field, and rolls up hit count +
    best/worst rounded score per language — one lazy pipeline compiled
    from expression text, the reference's canonical search→join→rollup
    composition."""
    out = compile_stream(SEARCH_EXPR, sf_dir).to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


def _search_rollup_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES ('spark'), ('join')),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    hits AS (SELECT doc_id, round(s, 6) AS score FROM scores WHERE s > 0)
    SELECT lang, count(*) AS n_hits, max(score) AS best, min(score) AS worst
    FROM hits JOIN documents USING (doc_id)
    GROUP BY lang
    ORDER BY lang
    """


QUERIES["stream_expr_search_rollup"] = q_stream_expr_search_rollup
ORACLE["stream_expr_search_rollup"] = _search_rollup_oracle()


UPDATE_EXPR = """
update(bigdocs,
       having(table(documents, fl="doc_id,text,lang,n_chars"),
              gt(n_chars, 250)),
       id="doc_id", text="text", keep="lang")
"""
UPDATE_SEARCH_EXPR = (
    'select(search(bigdocs, q="join", mode="or", rows=12),'
    ' keep="rank,doc_id", score=round(score, 6))'
)


def q_stream_expr_update_search(sf_dir: str):
    """update() as the stream SINK (UpdateStream.java): a filtered stream
    of documents is indexed into a NEW collection by the engine's own
    distributed build (tokenize partials -> salted shuffle -> writer
    actors), then search() resolves that collection by name and ranks
    against the SUBSET's OWN corpus statistics (n_docs / avgdl / df of
    the new index — the point of a separate collection).  The summary
    tuple's batchIndexed count rides along as n_indexed."""
    summary = compile_stream(UPDATE_EXPR, sf_dir).to_pandas()
    out = compile_stream(UPDATE_SEARCH_EXPR, sf_dir).to_pandas()
    out["n_indexed"] = np.int64(summary["batchIndexed"].iloc[0])
    return out.reset_index(drop=True)


def _update_search_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    ctes = _bm25_ctes()
    n = ctes.count("FROM documents")
    assert n == 3, f"_bm25_ctes changed shape ({n} FROM documents refs)"
    ctes = ctes.replace("FROM documents", "FROM sub")
    return f"""
    WITH sub AS (SELECT doc_id, text FROM documents WHERE n_chars > 250),
    {ctes},
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term = 'join'
      GROUP BY tf.doc_id
    ),
    ranked AS (
      SELECT doc_id, round(s, 6) AS score,
             (row_number() OVER (ORDER BY s DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scores WHERE s > 0
    )
    SELECT rank, doc_id, score,
           (SELECT count(*) FROM sub)::BIGINT AS n_indexed
    FROM ranked WHERE rank < 12
    """


QUERIES["stream_expr_update_search"] = q_stream_expr_update_search
ORACLE["stream_expr_update_search"] = _update_search_oracle()


RANDOM_EXPR = """
select(random(documents, q="merge sort", mode="or", rows=25),
       keep="doc_id", score=round(score, 6))
"""


def q_stream_expr_random_sample(sf_dir: str):
    """random() in the language (RandomStream.java): a deterministic
    pseudo-random sample of the "merge sort" match set — first 25 hits
    in md5(doc_id) order (the repo-wide split-hash convention), stable
    across runs and parallelism levels, streamed from the per-segment
    scoring tasks."""
    out = compile_stream(RANDOM_EXPR, sf_dir).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _random_sample_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES ('merge'), ('sort')),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    hits AS (SELECT doc_id, round(s, 6) AS score FROM scores WHERE s > 0)
    SELECT doc_id, score FROM hits
    ORDER BY md5(doc_id::VARCHAR) LIMIT 25
    """


QUERIES["stream_expr_random_sample"] = q_stream_expr_random_sample
ORACLE["stream_expr_random_sample"] = _random_sample_oracle()


PARALLEL_EXPR = """
parallel(
  rollup(
    hashJoin(table(orders, fl="o_custkey,o_orderpriority"),
             table(customer, fl="c_custkey,c_mktsegment"),
             on="o_custkey=c_custkey"),
    over="c_mktsegment,o_orderpriority",
    n=count(*)),
  workers=4, sort="c_mktsegment asc,o_orderpriority asc")
"""


def q_stream_expr_parallel_rollup(sf_dir: str):
    """parallel() decorator (ParallelStream.java): the inner
    join->rollup runs data-parallel under the streaming executor, the
    decorator re-shards the (post-groupby) output to 4 blocks and
    re-establishes the zipper-merge order contract with one sort —
    same tuples, ordered."""
    out = compile_stream(PARALLEL_EXPR, sf_dir).to_pandas()
    return out.reset_index(drop=True)


SIGTERMS_EXPR = (
    'significantTerms(documents, q="spark", limit=8, minDocFreq=2)'
)


def q_stream_expr_significant_terms(sf_dir: str):
    """significantTerms() in the language: foreground = the q match set
    (score>0 hit contract), background df from the index dictionary,
    log-ratio score rounded before ranking, term-asc tiebreak."""
    out = compile_stream(SIGTERMS_EXPR, sf_dir).to_pandas()
    return out.reset_index(drop=True)


QUERIES["stream_expr_significant_terms"] = q_stream_expr_significant_terms
ORACLE["stream_expr_significant_terms"] = None  # set below


def _significant_terms_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    tdoc AS (SELECT DISTINCT doc_id, term FROM toks),
    fg AS (SELECT DISTINCT doc_id FROM tdoc WHERE term = 'spark'),
    st AS (
      SELECT (SELECT count(*) FROM fg)::DOUBLE AS n_fg,
             (SELECT count(*) FROM documents)::DOUBLE AS n_bg
    ),
    dfbg AS (SELECT term, count(*)::BIGINT AS df_bg FROM tdoc GROUP BY 1),
    dffg AS (
      SELECT term, count(*)::BIGINT AS df_fg
      FROM tdoc JOIN fg USING (doc_id) GROUP BY 1
    ),
    scored AS (
      SELECT term, df_fg, df_bg,
             round(ln((df_fg / n_fg) / (df_bg / n_bg)), 6) AS score
      FROM dffg JOIN dfbg USING (term) CROSS JOIN st
      WHERE df_fg >= 2
    )
    SELECT term, df_fg, df_bg, score FROM scored
    ORDER BY score DESC, term ASC
    LIMIT 8
    """


ORACLE["stream_expr_significant_terms"] = _significant_terms_oracle()


DRILL_EXPR = """
drill(documents, q="window filter", mode="or",
      over="lang", n_hits=count(*), chars=sum(n_chars))
"""


def q_stream_expr_drill(sf_dir: str):
    """drill() in the language (DrillStream): the rollup pushes into the
    export stream — per-block partial aggregation, one tiny exchange —
    with the n_chars stored field enriched by a hash join, grouped per
    language over the "window filter" match set."""
    out = compile_stream(DRILL_EXPR, sf_dir).to_pandas()
    out["chars"] = out["chars"].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def _drill_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES ('window'), ('filter')),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    hits AS (SELECT doc_id FROM scores WHERE s > 0)
    SELECT lang, count(*) AS n_hits, sum(n_chars)::BIGINT AS chars
    FROM hits JOIN documents USING (doc_id)
    GROUP BY lang
    ORDER BY lang
    """


QUERIES["stream_expr_drill"] = q_stream_expr_drill
ORACLE["stream_expr_drill"] = _drill_oracle()


LET_COL_EXPR = """
let(s=col(sort(search(documents, q="spark join", mode="or"),
               by="doc_id asc"), score),
    n=length(s),
    m=round(mean(s), 6),
    hi=round(arrayMax(s), 6),
    lo=round(arrayMin(s), 6),
    echo="n,m,hi,lo")
"""


def q_stream_expr_let_col(sf_dir: str):
    """let()/col() in the language: the "spark join" match set's score
    column collects into an evaluator array (sorted by doc_id so the
    driver-side mean is order-deterministic run to run), then scalar
    bindings reduce it; echo emits the one-tuple result."""
    out = compile_stream(LET_COL_EXPR, sf_dir).to_pandas()
    return out.reset_index(drop=True)


def _let_col_oracle() -> str:
    from rindex.ops.fulltext import _bm25_ctes
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES ('spark'), ('join')),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    hits AS (SELECT s FROM scores WHERE s > 0)
    SELECT count(*)::BIGINT AS n,
           round(avg(s), 6) AS m,
           round(max(s), 6) AS hi,
           round(min(s), 6) AS lo
    FROM hits
    """


QUERIES["stream_expr_let_col"] = q_stream_expr_let_col
ORACLE["stream_expr_let_col"] = _let_col_oracle()


QUERIES["stream_expr_parallel_rollup"] = q_stream_expr_parallel_rollup
ORACLE["stream_expr_parallel_rollup"] = """
    SELECT c_mktsegment, o_orderpriority, count(*) AS n
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment, o_orderpriority
    ORDER BY c_mktsegment, o_orderpriority
"""


QUERIES["stream_expr_knn_embeddings"] = q_stream_expr_knn_embeddings
ORACLE["stream_expr_knn_embeddings"] = """
    WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings
               WHERE vec_id = 0)
    SELECT vec_id, score FROM (
      SELECT e.vec_id,
             round(list_cosine_similarity(q.qe, e.embedding::DOUBLE[]),
                   6) AS score,
             row_number() OVER (
               ORDER BY round(list_cosine_similarity(
                 q.qe, e.embedding::DOUBLE[]), 6) DESC, e.vec_id ASC)
               AS rn
      FROM embeddings e CROSS JOIN q)
    WHERE rn <= 10
"""


# ---------------------------------------------------------------------------
# executor() — parallel stored-expression runner
# ---------------------------------------------------------------------------

EXEC_JOBS = [
    ("seg_rollup",
     'rollup(table(customer, fl="c_custkey,c_mktsegment"), '
     'over="c_mktsegment", n=count(*))'),
    ("flag_unique",
     'unique(table(lineitem, fl="l_returnflag"), over="l_returnflag")'),
    ("top_orders",
     'top(table(orders, fl="o_orderkey,o_totalprice"), '
     'sort="o_totalprice desc,o_orderkey asc", n=25)'),
]


def q_stream_expr_executor(sf_dir: str):
    """executor() over a 3-job stored-expression table: each job compiles
    to its own distributed pipeline, the pool runs them concurrently, and
    the completion tuples carry per-job result-row counts — the admin
    work-queue surface of the reference's /stream handler."""
    import ray.data as rd

    def jobs_view(ctx):
        return rd.from_arrow(
            pa.table(
                {
                    "job_id": pa.array([j[0] for j in EXEC_JOBS]),
                    "expr_s": pa.array([j[1] for j in EXEC_JOBS]),
                }
            )
        )

    out = compile_stream(
        "executor(table(jobs), threads=3)", sf_dir, views={"jobs": jobs_view}
    ).to_pandas()
    return out.sort_values("job_id").reset_index(drop=True)


QUERIES["stream_expr_executor"] = q_stream_expr_executor
ORACLE["stream_expr_executor"] = """
    SELECT * FROM (
      SELECT 'seg_rollup' AS job_id,
             (SELECT count(*) FROM
               (SELECT c_mktsegment FROM customer GROUP BY 1))::BIGINT
               AS n_rows,
             'complete' AS status
      UNION ALL
      SELECT 'flag_unique',
             (SELECT count(DISTINCT l_returnflag) FROM lineitem)::BIGINT,
             'complete'
      UNION ALL
      SELECT 'top_orders',
             (SELECT least(count(*), 25) FROM orders)::BIGINT,
             'complete')
    ORDER BY job_id
"""


# ---------------------------------------------------------------------------
# daemon() — bounded periodic re-run
# ---------------------------------------------------------------------------


def q_stream_expr_daemon(sf_dir: str):
    """daemon() in bounded form: rerun a rollup 3 times (the NRT refresh
    shape), one status tuple per run."""
    out = compile_stream(
        'daemon(rollup(table(lineitem, fl="l_returnflag"), '
        'over="l_returnflag", n=count(*)), id="flagwatch", runs=3)',
        sf_dir,
    ).to_pandas()
    return out.sort_values("run").reset_index(drop=True)


QUERIES["stream_expr_daemon"] = q_stream_expr_daemon
ORACLE["stream_expr_daemon"] = """
    SELECT 'flagwatch' AS id, r AS run,
           (SELECT count(DISTINCT l_returnflag) FROM lineitem)::BIGINT
             AS n_rows
    FROM (VALUES (0::BIGINT), (1), (2)) runs(r)
    ORDER BY run
"""


# ---------------------------------------------------------------------------
# r4 stream batch: reduce(), shuffle(), nodes() decorators.
# ---------------------------------------------------------------------------


def _b_reduce(args, kwargs, ctx):
    """reduce(stream, by="keys", group(sort="...", n=N)) — ReducerStream +
    GroupOperation (`solr/solrj/.../io/stream/ReducerStream.java`,
    `.../ops/GroupOperation.java`): group by `by`, keep the top-N tuples
    per group under the inner sort.  The reference requires the input
    pre-sorted and streams group-at-a-time; the Ray-native shape is ONE
    groupby whose reduce tasks each own a slice of the (small) groups —
    no global sort needed."""
    ds = _build(args[0], ctx)
    by = _cols(_lit(kwargs["by"], "by"))
    gop = next(
        (a for a in args[1:]
         if isinstance(a, tuple) and a[0] == "call" and a[1] == "group"),
        None,
    )
    if gop is None:
        raise ValueError("reduce() requires a group(sort=..., n=...) operation")
    gkw = dict(_kwargs(gop))
    keys, desc = _sort_spec(_lit(gkw["sort"], "group sort"))
    n = int(_lit(gkw["n"], "group n"))

    def top_of_group(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            keys, ascending=[not d for d in desc], kind="mergesort"
        ).head(n)

    return ds.groupby(by if len(by) > 1 else by[0]).map_groups(
        top_of_group, batch_format="pandas"
    )


def _b_shuffle(args, kwargs, ctx):
    """shuffle(stream, sort="...", partitionKeys="...") — ShuffleStream
    (`solr/solrj/.../io/stream/ShuffleStream.java`): the /export-handler
    search that returns the ENTIRE sorted match set, hash-partitioned on
    partitionKeys so parallel consumers each own a key-disjoint slice.
    Ray-native: an optional key-hash exchange (groupby identity — the
    co-location contract) followed by the mandated total sort."""
    ds = _build(args[0], ctx)
    if "partitionKeys" in kwargs:
        pk = _cols(_lit(kwargs["partitionKeys"], "partitionKeys"))
        ds = ds.groupby(pk if len(pk) > 1 else pk[0]).map_groups(
            lambda df: df, batch_format="pandas"
        )
    keys, desc = _sort_spec(_lit(kwargs["sort"], "sort"))
    return ds.sort(keys, descending=desc)


def _b_nodes(args, kwargs, ctx):
    """nodes(collection, rootStream, walk="from->to", gather="field") —
    GatherNodesStream (`solr/solrj/.../io/graph/GatherNodesStream.java`),
    one traversal step: distinct root keys join into the collection on
    the walk edge and the distinct `gather` values come back as `node`
    tuples.  The frontier stays a Dataset end-to-end (distinct via
    groupby, then a distributed hash join) — never a driver pull, unlike
    the reference's in-memory frontier set."""
    from ray.data.aggregate import Count

    coll = _ident(args[0], "nodes collection")
    roots = _build(args[1], ctx)
    frm, _, to = _lit(kwargs["walk"], "walk").partition("->")
    frm, to = frm.strip(), to.strip()
    gather = _lit(kwargs["gather"], "gather")

    frontier = roots.groupby(frm).aggregate(Count(alias_name="_c"))
    frontier = frontier.map_batches(
        lambda b: b.select([frm]), batch_format="pyarrow", zero_copy_batch=True
    )
    views = ctx.get("views") or {}
    if coll in views:
        edges = views[coll](ctx).select_columns([to, gather])
    else:
        edges = read_table(ctx["sf_dir"], coll, [to, gather])
    # hash_outer_join, not Dataset.join: the frontier is a sparse filtered
    # side and Ray 2.49's join aggregator dies on partitions that received
    # no shards from it (see streams.hash_outer_join docstring)
    from rindex.ops.streams import hash_outer_join

    joined = hash_outer_join(edges, frontier, on=to, right_on=frm,
                             how="inner")
    out = joined.groupby(gather).aggregate(Count(alias_name="_c"))
    return out.map_batches(
        lambda b: pa.table({"node": b[gather]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )


STREAM_BUILDERS.update(
    {"reduce": _b_reduce, "shuffle": _b_shuffle, "nodes": _b_nodes}
)


REDUCE_EXPR = """
reduce(table(orders, fl="o_orderkey,o_orderpriority,o_totalprice"),
       by="o_orderpriority",
       group(sort="o_totalprice desc, o_orderkey asc", n="3"))
"""


def q_stream_expr_reduce(sf_dir: str):
    """reduce() in the language: top-3 orders by price per priority
    bucket (15 rows) — the grouped-top-N shape ReducerStream ships."""
    out = compile_stream(REDUCE_EXPR, sf_dir).to_pandas()
    return out.sort_values(
        ["o_orderpriority", "o_totalprice", "o_orderkey"],
        ascending=[True, False, True],
    ).reset_index(drop=True)[["o_orderkey", "o_orderpriority", "o_totalprice"]]


QUERIES["stream_expr_reduce"] = q_stream_expr_reduce
ORACLE["stream_expr_reduce"] = """
    SELECT o_orderkey, o_orderpriority, o_totalprice FROM (
      SELECT o_orderkey, o_orderpriority, o_totalprice,
             row_number() OVER (PARTITION BY o_orderpriority
                                ORDER BY o_totalprice DESC,
                                         o_orderkey ASC) AS rn
      FROM orders)
    WHERE rn <= 3
    ORDER BY o_orderpriority ASC, o_totalprice DESC, o_orderkey ASC
"""


SHUFFLE_EXPR = """
shuffle(table(supplier, fl="s_suppkey,s_nationkey,s_acctbal"),
        sort="s_suppkey asc", partitionKeys="s_nationkey")
"""


def q_stream_expr_shuffle(sf_dir: str):
    """shuffle() in the language: the full sorted export of supplier,
    hash-co-located on s_nationkey first (the parallel-consumer
    contract), then totally sorted."""
    out = compile_stream(SHUFFLE_EXPR, sf_dir).to_pandas()
    return out.reset_index(drop=True)[["s_suppkey", "s_nationkey", "s_acctbal"]]


QUERIES["stream_expr_shuffle"] = q_stream_expr_shuffle
ORACLE["stream_expr_shuffle"] = """
    SELECT s_suppkey, s_nationkey, s_acctbal
    FROM supplier ORDER BY s_suppkey ASC
"""


NODES_EXPR = """
nodes(orders,
      having(table(customer, fl="c_custkey,c_nationkey"),
             eq(c_nationkey, 7)),
      walk="c_custkey->o_custkey",
      gather="o_orderpriority")
"""


def q_stream_expr_nodes(sf_dir: str):
    """nodes()/gatherNodes in the language: one traversal step from the
    nation-7 customers into their orders, gathering distinct
    priorities."""
    out = compile_stream(NODES_EXPR, sf_dir).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


QUERIES["stream_expr_nodes"] = q_stream_expr_nodes
ORACLE["stream_expr_nodes"] = """
    SELECT DISTINCT o_orderpriority AS node
    FROM orders JOIN customer ON o_custkey = c_custkey
    WHERE c_nationkey = 7
    ORDER BY node ASC
"""


TUPLE_EXPR = (
    'tuple(n_orders=table(orders), half_pi=round(asin(1), 6), '
    'kibi=pow(2, 10))'
)


def q_stream_expr_tuple(sf_dir: str):
    """tuple() as a compiled stream: one tuple mixing a stream-count
    field with pure evaluator scalars (TupStream)."""
    out = compile_stream(TUPLE_EXPR, sf_dir).to_pandas()
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.reset_index(drop=True)


QUERIES["stream_expr_tuple"] = q_stream_expr_tuple
ORACLE["stream_expr_tuple"] = """
    SELECT count(*)::BIGINT AS n_orders,
           round(asin(1.0), 6) AS half_pi,
           pow(2.0, 10.0) AS kibi
    FROM orders
"""
