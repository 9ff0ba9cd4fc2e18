"""Quality checks for extended ops without SQL oracles: HLL error bound,
highlighter properties; plus spot determinism for the sketch ops."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_hll_error_bound(ray_session):
    from rindex.ops.search_ext import q_hll_distinct_users

    approx = q_hll_distinct_users(SF).set_index("event_type")["approx_users"]
    con = duckdb.connect()
    exact = dict(
        con.execute(
            f"""SELECT event_type, count(DISTINCT user_id)
                FROM read_parquet('{SF}/events.parquet') GROUP BY 1"""
        ).fetchall()
    )
    assert set(approx.index) == set(exact)
    for et, est in approx.items():
        err = abs(est - exact[et]) / max(1, exact[et])
        assert err < 0.05, f"{et}: {est} vs {exact[et]} (err {err:.3f})"


def test_hll_registers_merge_associative():
    from rindex.ops.search_ext import _hll_estimate, _hll_registers

    rng = np.random.default_rng(5)
    vals = rng.integers(0, 10**12, 50_000)
    whole = _hll_registers(vals)
    parts = np.maximum.reduce(
        [_hll_registers(c) for c in np.array_split(vals, 7)]
    )
    np.testing.assert_array_equal(whole, parts)  # merge == single pass
    est = _hll_estimate(whole)
    true = len(np.unique(vals))
    assert abs(est - true) / true < 0.05


def test_highlighter_properties(ray_session):
    from rindex.ops.fulltext import HL_QUERY, HL_WINDOW, q_highlight_documents
    from rindex.ops.fulltext import q_bm25_topk_documents

    hl = q_highlight_documents(SF)
    qterms = set(HL_QUERY.split())
    assert len(hl) == 10
    for snip in hl["snippet"]:
        toks = snip.split()
        assert len(toks) <= HL_WINDOW
        assert qterms & set(toks), f"snippet lacks query terms: {snip!r}"
    # highlighted docs == the engine's top-10 for the same query
    top = q_bm25_topk_documents(SF).to_pandas()
    want = top.loc[top["query_id"] == "q03"].sort_values("rank")["doc_id"]
    assert list(hl.sort_values("rank")["doc_id"]) == list(want)


def test_spellcheck_corrections_sane(ray_session):
    from rindex.ops.search_ext import q_spellcheck_documents

    out = q_spellcheck_documents(SF).set_index("input")["correction"]
    assert out["spakr"] == "spark"
    assert out["joni"] == "join"
    assert out["windw"] == "window"


def test_cost_planner_algo_selection(ray_session, tiny_corpus, tmp_path):
    """The searcher-default path must route all-common-term queries to the
    exhaustive kernel and selective queries to WAND; explicit algo= is
    honored verbatim (results are identical either way — other tests)."""
    from unittest.mock import patch

    from rindex.build import build_index
    from rindex.search import IndexSearcher

    idx = str(tmp_path / "planner-idx")
    build_index(tiny_corpus, idx, num_segments=2)
    s = IndexSearcher(idx, algo="wand")
    sw = sorted(
        ("the", "a", "of", "to"), key=lambda t: -s.global_df([t])[t]
    )
    common = f"{sw[0]} {sw[1]}"  # two terms: single-term routing bypassed
    for t in sw[:2]:
        assert s.global_df([t])[t] / s.n_docs > s.WAND_SELECTIVITY

    calls = []
    orig_w, orig_e = s._search_segment_wand, s._search_segment_exhaustive
    with patch.object(
        s, "_search_segment_wand",
        side_effect=lambda *a: calls.append("w") or orig_w(*a),
    ), patch.object(
        s, "_search_segment_exhaustive",
        side_effect=lambda *a: calls.append("e") or orig_e(*a),
    ):
        s.search(common, k=5)                      # planned -> exhaustive
        assert set(calls) == {"e"}
        calls.clear()
        s.search(common, k=5, algo="wand")         # explicit -> honored
        assert set(calls) == {"w"}


def test_must_not_and_filter_clauses_both_kernels(ray_session, tmp_path):
    """MUST_NOT + FILTER results must be identical under WAND and
    exhaustive, match a naive scan, and never contain excluded docs."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from rindex.build import build_index
    from rindex.search import IndexSearcher

    src = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "notfilter-idx")
    build_index(
        src, idx, num_segments=4, mode="term_shuffle", id_cols=("doc_id",),
        text_col="text", keep_cols=("lang",),
    )
    s = IndexSearcher(idx)
    tbl = pq.read_table(src, columns=["doc_id", "text", "lang"])
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    langs = dict(zip(tbl["doc_id"].to_pylist(), tbl["lang"].to_pylist()))

    for kwargs in (
        {"exclude": "dup"},
        {"field_filter": ("lang", "en")},
        {"exclude": "dup", "field_filter": ("lang", "en")},
    ):
        a = s.search("join scan", k=20, mode="or", algo="wand", **kwargs)
        b = s.search("join scan", k=20, mode="or", algo="exhaustive", **kwargs)
        assert a == b, kwargs
        for _rank, did, _score in a:
            if "exclude" in kwargs:
                assert "dup" not in (texts[did] or "").lower().split()
            if "field_filter" in kwargs:
                assert langs[did] == "en"
        # AND mode too
        aa = s.search("join scan", k=20, mode="and", algo="wand", **kwargs)
        bb = s.search("join scan", k=20, mode="and", algo="exhaustive", **kwargs)
        assert aa == bb, kwargs


def test_query_string_parser():
    from rindex.search import parse_query_string

    q = parse_query_string("hash join")
    assert q.terms == ["hash", "join"] and q.mode == "or" and not q.exclude

    q = parse_query_string("+hash join -dup lang:en")
    assert q.terms == ["hash", "join"] and q.mode == "and"
    assert q.exclude == ["dup"] and q.field_filter == ("lang", "en")

    q = parse_query_string("-dup scan")
    assert q.terms == ["scan"] and q.mode == "or" and q.exclude == ["dup"]


def test_query_string_parser_extended():
    import pytest

    from rindex.search import parse_query_string

    # boosts: ^N multiplies the term weight; duplicates sum their boosts
    q = parse_query_string("join^2 scan join^0.5")
    assert q.terms == ["join", "scan"]
    assert q.boosts == {"join": 2.5, "scan": 1.0}

    # quoted phrase clauses (with optional boost); one-word phrase folds
    # into a plain term
    q = parse_query_string('"hash join"^1.5 scan "merge"')
    assert q.phrases == [(["hash", "join"], 1.5)]
    assert q.terms == ["scan", "merge"]

    # multiple field filters AND together
    q = parse_query_string("scan lang:en source:src13")
    assert q.field_filter == [("lang", "en"), ("source", "src13")]

    # '+' on a phrase makes the whole query a conjunction
    q = parse_query_string('+"hash join" scan')
    assert q.mode == "and" and q.phrases == [(["hash", "join"], 1.0)]

    # non-field-shaped ':' tokens stay query text (12:30, URLs)
    q = parse_query_string("meeting 12:30")
    assert q.field_filter is None and "12" in q.terms

    for bad in ['-"hash join"', "-term^2", "lang:en^2", '""']:
        with pytest.raises(ValueError):
            parse_query_string(bad)


def test_query_string_phrase_scoring(ray_session, tmp_path):
    """Combined term+phrase query == hand-composed scores from the two
    standalone paths (term search + search_phrase_topk), in both modes."""
    from rindex.build import build_index
    from rindex.search import IndexSearcher, parse_query_string

    src = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "qs-pos-idx")
    build_index(
        src, idx, num_segments=4, mode="term_shuffle", id_cols=("doc_id",),
        text_col="text", keep_cols=("lang",), with_positions=True,
    )
    s = IndexSearcher(idx)
    big = 10**6

    # reference composition: score maps from the standalone kernels
    term_hits = {
        h[1]: h[2] for h in s.search("scan", k=big, algo="exhaustive")
    }
    boosted = {d: 2.0 * v for d, v in term_hits.items()}
    phr_hits = {h[1]: h[3] for h in s.search_phrase_topk("hash join", k=big)}

    # OR: union of clauses, scores sum where both match
    got = s.search_query(parse_query_string('scan^2 "hash join"', k=big))
    want = {
        d: boosted.get(d, 0.0) + phr_hits.get(d, 0.0)
        for d in set(boosted) | set(phr_hits)
    }
    assert {h[1]: round(h[2], 9) for h in got} == {
        d: round(v, 9) for d, v in want.items()
    }

    # AND: both clauses required
    got = s.search_query(parse_query_string('+scan^2 +"hash join"', k=big))
    both = set(boosted) & set(phr_hits)
    assert {h[1] for h in got} == both
    for _r, d, sc in got:
        assert abs(sc - (boosted[d] + phr_hits[d])) < 1e-12

    # phrase-only query works (no term clauses at all)
    got = s.search_query(parse_query_string('"hash join"', k=big))
    assert {h[1]: round(h[2], 9) for h in got} == {
        d: round(v, 9) for d, v in phr_hits.items()
    }

    # absent required phrase -> empty; absent OR phrase -> terms only
    assert s.search_query(parse_query_string('+"zz qq"', k=5)) == []
    got = s.search_query(parse_query_string('scan "zz qq"', k=big))
    assert {h[1] for h in got} == set(term_hits)


def test_explain_matches_search_score(ray_session, tmp_path):
    from rindex.build import build_index
    from rindex.search import IndexSearcher

    src = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "explain-idx")
    build_index(
        src, idx, num_segments=4, mode="term_shuffle", id_cols=("doc_id",),
        text_col="text", keep_cols=(),
    )
    s = IndexSearcher(idx)
    for text, mode in [("hash join", "or"), ("group agg", "and"), ("spark", "or")]:
        hits = s.search(text, k=5, mode=mode)
        assert hits
        for _rank, doc_id, score in hits:
            ex = s.explain(text, (doc_id,), mode=mode)
            assert ex["matched"]
            assert ex["total"] == score, (text, doc_id)
            assert sum(d["contribution"] for d in ex["details"]) == ex["total"]
    # non-matching doc
    miss = s.explain("spark", (10**9,))
    assert not miss["matched"] and miss["total"] == 0.0


def test_blended_term_df_blend(ray_session, tmp_path):
    """BlendedTermQuery df blending: (1) when both fields are the SAME
    index the blend is a no-op (df already equal) — bit-identical results;
    (2) when the fields' dfs differ, blending lowers the sparse field's
    idf to the max-df field's, so the blended score is <= the unblended
    one wherever the sparse field provided the max."""
    import pyarrow as pa
    import ray.data as rd

    from rindex.build import build_index
    from rindex.search import DisMaxSearcher

    body = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "apple banana banana",
                    "banana cherry",
                    "apple cherry",
                    "cherry cherry date",
                ]
            ),
        }
    )
    title = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["apple", "banana", "cherry", "date"]),
        }
    )
    dirs = {}
    for name, t, n_seg in (
        ("body", body, 2), ("title", title, 2),
        # the same rows at another segment count, and other rows
        ("title1", title, 1), ("short", title.slice(0, 3), 2),
    ):
        idx = str(tmp_path / f"blend-{name}")
        build_index(
            rd.from_arrow(t), idx, num_segments=n_seg, mode="local",
            id_cols=("doc_id",), text_col="text", keep_cols=(),
        )
        dirs[name] = idx

    # field indexes over the same rows align at any segment counts;
    # indexes over different rows do not
    for blend in (False, True):
        pair = {"body": dirs["body"], "title": dirs["title"]}
        mixed = {"body": dirs["body"], "title": dirs["title1"]}
        assert DisMaxSearcher(mixed, tie=0.3, blend_df=blend).search(
            "apple banana cherry", k=4
        ) == DisMaxSearcher(pair, tie=0.3, blend_df=blend).search(
            "apple banana cherry", k=4
        )
    with pytest.raises(ValueError, match="not aligned"):
        DisMaxSearcher({"body": dirs["body"], "title": dirs["short"]})
    dirs = {"body": dirs["body"], "title": dirs["title"]}

    # (1) same index on both slots: blend must change nothing
    same = {"a": dirs["body"], "b": dirs["body"]}
    r_plain = DisMaxSearcher(same, tie=0.3).search("apple banana", k=4)
    r_blend = DisMaxSearcher(same, tie=0.3, blend_df=True).search(
        "apple banana", k=4
    )
    assert r_plain == r_blend

    # (2) df(title, apple)=1 < df(body, apple)=2 -> blended df=2 lowers
    # the title idf; with tie=0 the per-doc score is the max over fields,
    # so no doc's blended score may exceed its unblended score, and doc 0
    # (title match 'apple', the sparse-field max) must strictly drop
    plain = dict()
    for _r, did, sc in DisMaxSearcher(dirs, tie=0.0).search("apple", k=4):
        plain[did] = sc
    blend = dict()
    for _r, did, sc in DisMaxSearcher(dirs, tie=0.0, blend_df=True).search(
        "apple", k=4
    ):
        blend[did] = sc
    assert set(blend) == set(plain)
    for did, sc in blend.items():
        assert sc <= plain[did] + 1e-12
    assert blend[0] < plain[0]


def test_bm25f_combined_derivation():
    """The BM25F pseudo-field encodes integer field weights as token
    repetition: title (first 8 tokens) x2 + body (all tokens) x1."""
    import pyarrow as pa

    from rindex.ops.dismax import _add_combined

    t = pa.table(
        {
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array(["One two three four five six seven eight nine ten"]),
        }
    )
    out = _add_combined(t)
    toks = "one two three four five six seven eight".split()
    body = toks + ["nine", "ten"]
    assert out["ftext"].to_pylist() == [" ".join(toks + toks + body)]
    assert out["doc_id"].to_pylist() == [7]
