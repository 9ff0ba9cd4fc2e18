"""Streaming-expression compiler contracts: parser shapes, named params,
builder composition over in-memory datasets, loud unknown-stream failure."""

import numpy as np
import pandas as pd
import pytest

from rindex.ops.streamlang import (
    STREAM_BUILDERS,
    _build,
    parse_stream_expr,
)


def test_parser_shapes():
    n = parse_stream_expr('rollup(table(t), over="k", n=count(*), s=sum(v))')
    assert n[0] == "call" and n[1] == "rollup"
    assert n[2] == [("call", "table", [("col", "t")])]
    kw = n[3]
    assert kw["over"] == ("lit", "k")
    assert kw["n"] == ("call", "count", [("star",)])
    assert kw["s"] == ("call", "sum", [("col", "v")])
    # kwarg-free scalar calls stay 3-tuples (evaluator-compatible)
    p = parse_stream_expr("gt(mod(n, 2), 1)")
    assert len(p) == 3


def test_parser_rejects_garbage():
    with pytest.raises(ValueError, match="trailing|bad token|unexpected"):
        parse_stream_expr("table(t))")
    with pytest.raises(ValueError, match="unexpected end"):
        parse_stream_expr("table(t")


def test_unknown_stream_fails_loud():
    # daemon()/executor() registered in r4 — use a genuinely unknown name
    with pytest.raises(ValueError, match="not a registered stream"):
        _build(parse_stream_expr("cdcr(table(t))"), {"sf_dir": "/nope"})


def _with_fake_table(df):
    """Swap the table() builder for an in-memory source."""
    import ray.data as rd

    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: rd.from_pandas(df)
    return orig


def test_compiled_pipeline_unique_sort(ray_session):
    df = pd.DataFrame({"k": [3, 1, 2, 1, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    orig = _with_fake_table(df)
    try:
        got = _build(
            parse_stream_expr('sort(unique(table(t), over="k"), by="k desc")'),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["k"].tolist() == [3, 2, 1]

        got2 = _build(
            parse_stream_expr(
                'top(select(table(t), keep="k", w=mult(v, 10)),'
                ' n=2, sort="w desc")'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert got2["w"].tolist() == [50.0, 40.0]
        assert list(got2.columns) == ["k", "w"]
    finally:
        STREAM_BUILDERS["table"] = orig


def test_compiled_having_predicate(ray_session):
    df = pd.DataFrame({"n": [1, 2, 3, 4]})
    orig = _with_fake_table(df)
    try:
        got = _build(
            parse_stream_expr("having(table(t), eq(mod(n, 2), 0))"),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["n"].tolist() == [2, 4]
    finally:
        STREAM_BUILDERS["table"] = orig


def test_scalar_kwargs_rejected_at_build_time():
    with pytest.raises(ValueError, match="named params are not valid"):
        _build(
            parse_stream_expr("having(table(t), gt(round(x, n=2), 1))"),
            {"sf_dir": ""},
        )


def test_fetch_intersect_innerjoin_builders(ray_session):
    import ray.data as rd

    tables = {
        "l": pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}),
        "r": pd.DataFrame({"rk": [2, 4, 9], "extra": ["b", "d", "z"]}),
    }
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = (
        lambda a, k, ctx: rd.from_pandas(tables[a[0][1]])
    )
    try:
        got = _build(
            parse_stream_expr('fetch(table(l), table(r), on="k=rk")'),
            {"sf_dir": ""},
        ).to_pandas().sort_values("k")
        # FetchStream never filters: unmatched tuples pass un-enriched
        assert got["k"].tolist() == [1, 2, 3, 4]
        assert got["extra"].tolist()[1] == "b" and got["extra"].tolist()[3] == "d"
        assert pd.isna(got["extra"].tolist()[0]) and pd.isna(got["extra"].tolist()[2])

        got2 = _build(
            parse_stream_expr('intersect(table(l), table(r), on="k=rk")'),
            {"sf_dir": ""},
        ).to_pandas().sort_values("k")
        assert got2["k"].tolist() == [2, 4]
        assert "extra" not in got2.columns  # semi join keeps left schema

        got3 = _build(
            parse_stream_expr(
                'innerJoin(sort(table(l), by="k"),'
                ' sort(table(r), by="rk"), on="k=rk")'
            ),
            {"sf_dir": ""},
        ).to_pandas().sort_values("k")
        assert got3["k"].tolist() == [2, 4]
        assert got3["extra"].tolist() == ["b", "d"]
    finally:
        STREAM_BUILDERS["table"] = orig


@pytest.mark.parametrize("bcast_max", [200000, 0])
def test_fetch_runs_right_stream_once(ray_session, tmp_path, monkeypatch,
                                      bcast_max):
    """fetch()'s size gate and its join share one run of the right
    stream's pipeline, on the broadcast and on the hash-join path."""
    import ray.data as rd

    import rindex.ops.streamlang as sl

    monkeypatch.setattr(sl, "STREAM_BCAST_MAX_ROWS", bcast_max)
    log = tmp_path / "right_batches.log"

    def logged(t):
        with open(log, "a") as f:
            f.write("batch\n")
        return t

    views = {
        "l": lambda ctx: rd.from_pandas(
            pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]})
        ),
        "r": lambda ctx: rd.from_pandas(
            pd.DataFrame({"rk": [2, 4, 9], "extra": ["b", "d", "z"]})
        ).map_batches(logged, batch_format="pandas"),
    }
    views["r"](None).materialize()
    one_run = log.read_text().count("batch")
    log.unlink()
    got = sl.compile_stream(
        'fetch(table(l), table(r), on="k=rk")', "", views
    ).to_pandas().sort_values("k")
    assert got["extra"].tolist()[1::2] == ["b", "d"]
    assert log.read_text().count("batch") == one_run


def test_facet_stats_timeseries_builders(ray_session):
    import numpy as np
    import ray.data as rd

    t = pd.DataFrame(
        {
            "g": ["a", "a", "b", "b", "b", "c"],
            "v": [1.0, 3.0, 2.0, 2.0, 2.0, 9.0],
            "ts": pd.to_datetime(
                ["2024-01-01 05:00", "2024-01-01 09:00", "2024-01-02 01:00",
                 "2024-01-02 02:00", "2024-02-01 00:00", "2024-02-01 12:00"]
            ),
        }
    )
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: rd.from_pandas(t)
    try:
        got = _build(
            parse_stream_expr(
                'facet(table(t), buckets="g",'
                ' bucketSorts="count(*) desc, g asc", bucketSizeLimit=2,'
                ' count(*), sum(v), avg(v))'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        # b(3 rows) then a(2 rows); c cut by bucketSizeLimit
        assert got["g"].tolist() == ["b", "a"]
        assert got["count(*)"].tolist() == [3, 2]
        assert got["sum(v)"].tolist() == [6.0, 4.0]
        assert got["avg(v)"].tolist() == [2.0, 2.0]

        st = _build(
            parse_stream_expr(
                "stats(table(t), count(*), sum(v), min(v), max(v))"
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert len(st) == 1 and "_stats" not in st.columns
        assert st["count(*)"].iloc[0] == 6
        assert st["sum(v)"].iloc[0] == 19.0
        assert (st["min(v)"].iloc[0], st["max(v)"].iloc[0]) == (1.0, 9.0)

        # daily buckets keep the field name; MONTH gap coarsens
        ts = _build(
            parse_stream_expr(
                'timeseries(table(t), field=ts, gap="+1DAY", count(*))'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert ts["ts"].tolist() == ["2024-01-01", "2024-01-02", "2024-02-01"]
        assert ts["count(*)"].tolist() == [2, 2, 2]
        tm = _build(
            parse_stream_expr(
                'timeseries(table(t), field=ts, gap="+1MONTH", count(*))'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert tm["ts"].tolist() == ["2024-01", "2024-02"]
        assert tm["count(*)"].tolist() == [4, 2]
        with pytest.raises(ValueError):
            _build(
                parse_stream_expr(
                    'timeseries(table(t), field=ts, gap="+1WEEK", count(*))'
                ),
                {"sf_dir": ""},
            )
        # metric-free facet fails loud
        with pytest.raises(ValueError):
            _build(
                parse_stream_expr('facet(table(t), buckets="g")'),
                {"sf_dir": ""},
            )
    finally:
        STREAM_BUILDERS["table"] = orig


def test_merge_and_leftouterjoin_builders(ray_session):
    import ray.data as rd

    tables = {
        "l": pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}),
        "r": pd.DataFrame({"rk": [2, 4, 9], "extra": ["b", "d", "z"]}),
    }
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = (
        lambda a, k, ctx: rd.from_pandas(tables[a[0][1]])
    )
    try:
        got = _build(
            parse_stream_expr(
                'leftOuterJoin(sort(table(l), by="k"),'
                ' sort(table(r), by="rk"), on="k=rk")'
            ),
            {"sf_dir": ""},
        ).to_pandas().sort_values("k")
        # every left tuple survives; unmatched right fields are null
        assert got["k"].tolist() == [1, 2, 3, 4]
        assert got["extra"].tolist()[1] == "b" and got["extra"].tolist()[3] == "d"
        assert pd.isna(got["extra"].iloc[0]) and pd.isna(got["extra"].iloc[2])

        m = _build(
            parse_stream_expr(
                'merge(select(table(l), keep="k"),'
                ' select(table(l), keep="k"), on="k desc")'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert m["k"].tolist() == [4, 4, 3, 3, 2, 2, 1, 1]
    finally:
        STREAM_BUILDERS["table"] = orig


def test_knn_builder(ray_session):
    """knn() stream: exact brute-force cosine top-k with the vec_id
    tiebreak; loud on a qid that matches zero rows."""
    import numpy as np
    import pytest
    import ray.data

    from rindex.ops.streamlang import STREAM_BUILDERS, _build, parse_stream_expr

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(40, 8))
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(40)]
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: ray.data.from_items(rows)
    try:
        got = _build(
            parse_stream_expr(
                "knn(table(e), field=embedding, id=vec_id, qid=5, k=7)"
            ),
            {"sf_dir": ""},
        ).to_pandas()
        qn = vecs[5] / np.linalg.norm(vecs[5])
        V = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        cos = np.round(V @ qn, 6)
        want = sorted(range(40), key=lambda i: (-cos[i], i))[:7]
        assert got["vec_id"].tolist() == want
        assert got["vec_id"].iloc[0] == 5  # self is the top hit
        with pytest.raises(ValueError, match="matched 0 rows"):
            _build(
                parse_stream_expr(
                    "knn(table(e), field=embedding, id=vec_id, qid=99, k=7)"
                ),
                {"sf_dir": ""},
            )
    finally:
        STREAM_BUILDERS["table"] = orig


def test_search_builder(ray_session):
    """search() stream source: the export-shaped (no rows) form streams
    the full match set and composes with select/rollup; the rows=N form
    is rank-ordered and bounded; unknown collections and bad modes fail
    loud at build time."""
    import pyarrow.parquet as pq
    import pytest

    from rindex.ops.fulltext import TOKEN_PY_RE
    from rindex.ops.streamlang import compile_stream

    sf = "/root/testdata/sf0.001"
    full = compile_stream(
        'search(documents, q="spark join", mode="or")', sf
    ).to_pandas()
    # score>0 hit contract + full match set: every doc containing either
    # term (tokenizer-identical check) appears exactly once
    import re

    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    tok = re.compile(TOKEN_PY_RE)
    want = {
        int(r.doc_id)
        for r in docs.itertuples()
        if {"spark", "join"} & set(tok.findall(r.text.lower()))
    }
    assert set(full["doc_id"].astype(int)) == want
    assert (full["score"] > 0).all()
    assert len(full) == len(set(full["doc_id"]))

    topk = compile_stream(
        'search(documents, q="spark join", mode="or", rows=5)', sf
    ).to_pandas()
    assert topk["rank"].tolist() == list(range(min(5, len(want))))
    # rows= form agrees with the head of the full stream's score order
    full_sorted = full.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(len(topk))
    assert np.allclose(
        np.sort(topk["score"]), np.sort(full_sorted["score"]), rtol=1e-9
    )

    with pytest.raises(ValueError, match="unknown collection"):
        compile_stream('search(nope, q="x")', sf)
    with pytest.raises(ValueError, match="mode must be"):
        compile_stream('search(documents, q="x", mode="xor")', sf)


def test_update_and_random_builders(ray_session):
    """update() sinks a filtered stream into a NEW collection (summary
    tuple counts match the filter), search() resolves it by name and
    ranks against the subset's own stats; random() is a deterministic
    md5-ordered sample of the match set."""
    import pyarrow.parquet as pq

    from rindex.ops.streamlang import compile_stream

    sf = "/root/testdata/sf0.001"
    upd = (
        'update(tinybig, having(table(documents, '
        'fl="doc_id,text,lang,n_chars"), gt(n_chars, 400)), '
        'id="doc_id", text="text", keep="lang")'
    )
    s1 = compile_stream(upd, sf).to_pandas()
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "n_chars"]
    ).to_pandas()
    want_n = int((docs["n_chars"] > 400).sum())
    assert int(s1["batchIndexed"].iloc[0]) == want_n
    # idempotent re-run (checkpoint lineage resume)
    s2 = compile_stream(upd, sf).to_pandas()
    assert int(s2["batchIndexed"].iloc[0]) == want_n

    hits = compile_stream(
        'search(tinybig, q="join", mode="or")', sf
    ).to_pandas()
    assert set(hits["doc_id"]) <= set(
        docs.loc[docs["n_chars"] > 400, "doc_id"]
    )
    assert (hits["score"] > 0).all()

    full = compile_stream(
        'search(documents, q="merge sort", mode="or")', sf
    ).to_pandas()
    r1 = compile_stream(
        'random(documents, q="merge sort", mode="or", rows=9)', sf
    ).to_pandas()
    r2 = compile_stream(
        'random(documents, q="merge sort", mode="or", rows=9)', sf
    ).to_pandas()
    assert len(r1) == 9
    assert sorted(r1["doc_id"]) == sorted(r2["doc_id"])  # seed-free stable
    assert set(r1["doc_id"]) <= set(full["doc_id"])
    # md5-order contract: the sample IS the 9 smallest md5(doc_id) hits
    import hashlib

    order = sorted(
        full["doc_id"].astype(int),
        key=lambda i: hashlib.md5(str(i).encode()).hexdigest(),
    )
    assert sorted(r1["doc_id"].astype(int)) == sorted(order[:9])


def test_parallel_builder(ray_session):
    """parallel() passthrough contract: same tuples as the undecorated
    inner stream, ordered per the sort kwarg; loud on workers<=0."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from rindex.ops.streamlang import STREAM_BUILDERS, _build, parse_stream_expr

    df = pd.DataFrame({"k": [2, 1, 3, 1, 2, 2], "v": [1, 2, 3, 4, 5, 6]})
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: rd.from_pandas(df)
    try:
        got = _build(
            parse_stream_expr(
                'parallel(rollup(table(t), over="k", n=count(*)),'
                ' workers=3, sort="k desc")'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["k"].tolist() == [3, 2, 1]
        assert got["n"].tolist() == [1, 3, 2]
        with pytest.raises(ValueError, match="workers must be positive"):
            _build(
                parse_stream_expr('parallel(table(t), workers=0)'),
                {"sf_dir": ""},
            )
    finally:
        STREAM_BUILDERS["table"] = orig


def test_significant_terms_builder(ray_session):
    """significantTerms(): fg df never exceeds bg df, scores are
    rank-sorted desc with term-asc ties, limit and minDocFreq hold,
    and the q term itself tops the ranking (fg_rate = 1)."""
    from rindex.ops.streamlang import compile_stream

    sf = "/root/testdata/sf0.001"
    got = compile_stream(
        'significantTerms(documents, q="spark", limit=8, minDocFreq=2)', sf
    ).to_pandas()
    assert len(got) == 8
    assert (got["df_fg"] <= got["df_bg"]).all()
    assert (got["df_fg"] >= 2).all()
    s = got["score"].tolist()
    assert s == sorted(s, reverse=True)
    assert got["term"].iloc[0] == "spark"


def test_let_col_builder(ray_session):
    """let()/col(): sequential binding scope, echo selection, loud on
    unbound echo names; scalars typed int64/float64."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from rindex.ops.streamlang import STREAM_BUILDERS, _build, parse_stream_expr

    df = pd.DataFrame({"v": [1.0, 2.0, 3.0, 4.0]})
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: rd.from_pandas(df)
    try:
        got = _build(
            parse_stream_expr(
                'let(a=col(table(t), v), n=length(a), m=mean(a),'
                ' m2=mult(m, 2), echo="n,m,m2")'
            ),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["n"].iloc[0] == 4 and str(got["n"].dtype) == "int64"
        assert got["m"].iloc[0] == 2.5 and got["m2"].iloc[0] == 5.0
        with pytest.raises(ValueError, match="unbound"):
            _build(
                parse_stream_expr('let(a=col(table(t), v), echo="zz")'),
                {"sf_dir": ""},
            )
    finally:
        STREAM_BUILDERS["table"] = orig


def test_list_plist_builders(ray_session):
    """list()/plist(): lazy union concatenation, loud on zero streams."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from rindex.ops.streamlang import STREAM_BUILDERS, _build, parse_stream_expr

    dfs = iter([pd.DataFrame({"k": [1, 2]}), pd.DataFrame({"k": [3]})])
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = lambda a, k, ctx: rd.from_pandas(next(dfs))
    try:
        got = _build(
            parse_stream_expr('sort(plist(table(a), table(b)), by="k asc")'),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["k"].tolist() == [1, 2, 3]
        with pytest.raises(ValueError, match="at least one stream"):
            _build(parse_stream_expr("list()"), {"sf_dir": ""})
    finally:
        STREAM_BUILDERS["table"] = orig


def test_topic_builder_exactly_once(ray_session):
    """topic(): consecutive compiles partition the match set — every hit
    exactly once, then an empty tail; a different topic name replays."""
    import glob
    import os

    from rindex.ops.streamlang import compile_stream

    sf = "/root/testdata/sf0.001"
    for f in glob.glob("/tmp/rindex_cache/topic-lang-*.json"):
        os.remove(f)  # deterministic start
    full = compile_stream(
        'search(documents, q="merge sort", mode="or")', sf
    ).to_pandas()
    t1 = compile_stream(
        'topic(tp1, documents, q="merge sort", mode="or")', sf
    ).to_pandas()
    t2 = compile_stream(
        'topic(tp1, documents, q="merge sort", mode="or")', sf
    ).to_pandas()
    assert sorted(t1["doc_id"]) == sorted(full["doc_id"])  # first sweep: all
    assert len(t2) == 0                                    # then nothing new
    t3 = compile_stream(
        'topic(tp2, documents, q="merge sort", mode="or")', sf
    ).to_pandas()
    assert sorted(t3["doc_id"]) == sorted(full["doc_id"])  # new name replays


def test_sql_handler_compile_contracts(ray_session):
    """/sql planner: filter pushdown + rollup + sort + limit compile and
    run; unsupported shapes reject loudly; views resolve thread-safely
    through ctx (no global builder mutation)."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from rindex.ops.sqlhandler import compile_sql

    df = pd.DataFrame(
        {"k": ["a", "a", "b", "b", "b"], "v": [1.0, 5.0, 2.0, 4.0, 9.0]}
    )
    views = {"t": lambda ctx: rd.from_pandas(df)}
    ds, cols = compile_sql(
        "SELECT k, count(*) AS n, max(v) AS hi FROM t WHERE v > 1 "
        "GROUP BY k ORDER BY n DESC, k ASC LIMIT 5",
        "", views=views,
    )
    got = ds.to_pandas()
    assert got["k"].tolist() == ["b", "a"]
    assert got["n"].tolist() == [3, 1]
    assert got["hi"].tolist() == [9.0, 5.0]
    assert cols == ["k", "n", "hi"]

    with pytest.raises(ValueError, match="unsupported SQL shape"):
        compile_sql("DELETE FROM t", "", views=views)
    with pytest.raises(ValueError, match="unsupported WHERE predicate"):
        compile_sql("SELECT k FROM t WHERE v BETWEEN 1 AND 2", "",
                    views=views)
    with pytest.raises(ValueError, match="must = GROUP BY"):
        compile_sql("SELECT k, v, count(*) AS n FROM t GROUP BY k", "",
                    views=views)

    # HAVING filters ABOVE the rollup on aggregate aliases
    ds2, _ = compile_sql(
        "SELECT k, count(*) AS n FROM t GROUP BY k HAVING n > 2 "
        "ORDER BY k ASC",
        "", views=views,
    )
    got2 = ds2.to_pandas()
    assert got2["k"].tolist() == ["b"] and got2["n"].tolist() == [3]
    with pytest.raises(ValueError, match="HAVING requires"):
        compile_sql("SELECT k FROM t HAVING k = 'a'", "", views=views)
    with pytest.raises(ValueError, match="not an output column"):
        compile_sql(
            "SELECT k, count(*) AS n FROM t GROUP BY k HAVING z > 1",
            "", views=views)

    # SELECT DISTINCT -> unique(); count(DISTINCT) -> unique + rollup
    d, _ = compile_sql("SELECT DISTINCT k FROM t ORDER BY k ASC",
                       "", views=views)
    assert d.to_pandas()["k"].tolist() == ["a", "b"]
    cd, _ = compile_sql(
        "SELECT k, count(DISTINCT v) AS nv FROM t GROUP BY k "
        "ORDER BY k ASC", "", views=views)
    got_cd = cd.to_pandas()
    assert got_cd["k"].tolist() == ["a", "b"]
    assert got_cd["nv"].tolist() == [2, 3]
    with pytest.raises(ValueError, match="cannot mix"):
        compile_sql(
            "SELECT k, count(DISTINCT v) AS nv, count(*) AS n FROM t "
            "GROUP BY k", "", views=views)
    with pytest.raises(ValueError, match="cannot take aggregates"):
        compile_sql("SELECT DISTINCT k, count(*) AS n FROM t GROUP BY k",
                    "", views=views)


def test_drill_over_update_built_collection(ray_session):
    """drill() enriches from the COLLECTION's stored fields, so it works
    on an update()-built collection (finding from the r3 code review);
    unstored fields reject loudly."""
    import pytest

    from rindex.ops.streamlang import compile_stream

    sf = "/root/testdata/sf0.001"
    compile_stream(
        'update(drilldocs, having(table(documents, '
        'fl="doc_id,text,lang,n_chars"), gt(n_chars, 300)), '
        'id="doc_id", text="text", keep="lang")', sf
    ).to_pandas()
    got = compile_stream(
        'drill(drilldocs, q="join", mode="or", over="lang", n=count(*))',
        sf,
    ).to_pandas()
    assert len(got) >= 1 and (got["n"] > 0).all()
    with pytest.raises(ValueError, match="not\\s+stored"):
        compile_stream(
            'drill(drilldocs, q="join", mode="or", over="n_chars",'
            ' n=count(*))', sf,
        )


def test_executor_emits_failure_tuples(ray_session):
    """A job whose stored expression does not compile must surface as a
    status='failed' completion tuple (the reference's exception tuple),
    not abort the other jobs."""
    import pyarrow as pa
    import ray.data as rd

    from rindex.ops.streamlang import compile_stream

    def jobs_view(ctx):
        return rd.from_arrow(
            pa.table(
                {
                    "job_id": pa.array(["good", "bad"]),
                    "expr_s": pa.array(
                        [
                            'unique(table(region, fl="r_name"), over="r_name")',
                            "notastream(table(region))",
                        ]
                    ),
                }
            )
        )

    out = compile_stream(
        "executor(table(jobs), threads=2)",
        "/root/testdata/sf0.001",
        views={"jobs": jobs_view},
    ).to_pandas().set_index("job_id")
    assert out.loc["good", "status"] == "complete"
    assert int(out.loc["good", "n_rows"]) == 5
    assert out.loc["bad", "status"] == "failed"


def test_daemon_rejects_nonpositive_runs(ray_session):
    import pytest as _pytest

    from rindex.ops.streamlang import compile_stream

    with _pytest.raises(ValueError, match="runs must be positive"):
        compile_stream(
            'daemon(table(region, fl="r_name"), id="x", runs=0)',
            "/root/testdata/sf0.001",
        )


def test_reduce_shuffle_nodes_builders(ray_session):
    """r4 decorators: reduce() grouped-top-N, shuffle() partitioned sorted
    export, nodes() one-hop gather — over in-memory views."""
    import pyarrow as pa
    import ray.data as rd

    from rindex.ops.streamlang import compile_stream

    def t_view(ctx):
        return rd.from_arrow(pa.table({
            "g": pa.array(["a", "a", "a", "b", "b"]),
            "v": pa.array([3, 1, 2, 9, 8], pa.int64()),
        }))

    out = compile_stream(
        'reduce(table(t), by="g", group(sort="v desc", n="2"))',
        "/nonexistent", views={"t": t_view},
    ).to_pandas().sort_values(["g", "v"], ascending=[True, False])
    assert out.values.tolist() == [["a", 3], ["a", 2], ["b", 9], ["b", 8]]

    out = compile_stream(
        'shuffle(table(t), sort="v asc", partitionKeys="g")',
        "/nonexistent", views={"t": t_view},
    ).to_pandas()
    assert out["v"].tolist() == [1, 2, 3, 8, 9]

    # reduce() without a group operation rejects loudly
    with pytest.raises(ValueError, match="group"):
        compile_stream('reduce(table(t), by="g")',
                       "/nonexistent", views={"t": t_view})

    def edges_view(ctx):
        return rd.from_arrow(pa.table({
            "dst": pa.array([1, 1, 2, 3], pa.int64()),
            "tag": pa.array(["x", "y", "x", "z"]),
        }))

    def roots_view(ctx):
        return rd.from_arrow(pa.table({
            "src": pa.array([1, 1, 2], pa.int64()),
        }))

    out = compile_stream(
        'nodes(edges, table(roots), walk="src->dst", gather="tag")',
        "/nonexistent", views={"edges": edges_view, "roots": roots_view},
    ).to_pandas().sort_values("node")
    assert out["node"].tolist() == ["x", "y"]


def test_echo_and_tuple_builders(ray_session):
    got = _build(parse_stream_expr('echo("hello world")'), {"sf_dir": ""})
    df = got.to_pandas()
    assert df["echo"].tolist() == ["hello world"]

    df2 = _build(
        parse_stream_expr('tuple(a=add(2, 3), b=round(sqrt(2), 3))'),
        {"sf_dir": ""},
    ).to_pandas()
    assert df2["a"].tolist() == [5.0]
    assert df2["b"].tolist() == [1.414]


def test_priority_builder_drains_high_first(ray_session):
    import pandas as pd
    import ray.data as rd

    tables = {
        "hi": pd.DataFrame({"k": [1, 2], "src": ["hi", "hi"]}),
        "lo": pd.DataFrame({"k": [3, 4], "src": ["lo", "lo"]}),
    }
    orig = STREAM_BUILDERS["table"]
    STREAM_BUILDERS["table"] = (
        lambda a, k, ctx: rd.from_pandas(tables[a[0][1]])
    )
    try:
        got = _build(
            parse_stream_expr("priority(table(hi), table(lo))"),
            {"sf_dir": ""},
        ).to_pandas()
        assert got["src"].tolist() == ["hi", "hi", "lo", "lo"]
    finally:
        STREAM_BUILDERS["table"] = orig
