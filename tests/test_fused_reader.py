"""Segment-count invariance of every IndexSearcher entry point.

One seeded corpus is indexed at num_segments 1, 3 and 5, each also with
`delete_by_terms` applied, plus a 3-segment build followed by an append
that leaves two generations live.  A multi-segment searcher scores through
the fused reader (one doc space whose docIDs are the global id_cols rank,
the docIDs a 1-segment build assigns), so every entry point — scored
queries, phrases, explain, block join, proximity and the span family —
must return exactly what the 1-segment index returns (ranks, ids,
bit-identical scores, types), and WAND must equal the exhaustive kernel on
the fused view.
"""

import shutil
from collections import Counter

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rindex.analysis import get_analyzer
from rindex.build import append_index, build_index
from rindex.deletes import delete_by_terms
from rindex.fixtures import make_queries, make_transcripts
from rindex.search import (
    IndexSearcher,
    Query,
    _FusedReader,
    parse_boolean_query,
    parse_query,
)

N_CONVS, MAX_TURNS, SEED = 400, 8, 11
DELETE_TEXT = "w0003 w0041"  # mid-frequency terms: some docs, not all
SEGMENT_COUNTS = (1, 3, 5)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("fused_corpus")
    t = make_transcripts(N_CONVS, MAX_TURNS, seed=SEED)
    full = str(d / "full.parquet")
    pq.write_table(t, full)
    # the append variant: conversations split across two generations
    late = pc.greater_equal(t["conv_id"], f"c{N_CONVS * 2 // 3:06d}")
    early_p, late_p = str(d / "early.parquet"), str(d / "late.parquet")
    pq.write_table(t.filter(pc.invert(late)), early_p)
    pq.write_table(t.filter(late), late_p)
    return full, early_p, late_p, t["text"].to_pylist()


@pytest.fixture(scope="module")
def indexes(ray_session, corpus, tmp_path_factory):
    full, early_p, late_p, _ = corpus
    base = tmp_path_factory.mktemp("fused_idx")
    out = {}
    for n in SEGMENT_COUNTS:
        idx = str(base / f"n{n}")
        build_index([full], idx, num_segments=n, with_positions=True)
        out[n, False] = idx
        dele = str(base / f"n{n}-del")
        shutil.copytree(idx, dele)
        delete_by_terms(dele, DELETE_TEXT)
        out[n, True] = dele
    app = str(base / "append")
    build_index([early_p], app, num_segments=3, with_positions=True)
    append_index([late_p], app)
    out["append", False] = app
    return out


def _phrases(texts):
    """The corpus's most frequent bigrams and trigram, a few rare bigrams, a
    repeated-term phrase and an absent one."""
    az = get_analyzer("standard")
    bi, tri = Counter(), Counter()
    for text in texts:
        toks = az.tokens(text)
        bi.update(zip(toks, toks[1:]))
        tri.update(zip(toks, toks[1:], toks[2:]))
    common = [" ".join(g) for g, _ in bi.most_common(4)]
    rare = sorted(" ".join(g) for g, c in bi.items() if c == 2)[:4]
    top3 = [" ".join(g) for g, _ in tri.most_common(2)]
    return common + rare + top3 + ["the the", "w0001 zzzzabsent"]


def _battery(idx, phrases):
    """Every scoring entry point's output over a fixed query set."""
    s = IndexSearcher(idx)
    queries = list(
        zip(*(make_queries(SEED, 40)[c].to_pylist() for c in ("qtype", "text", "k")))
    )
    out = []
    for qtype, text, k in queries:
        q = parse_query(text, qtype, k)
        out.append(s.search_query(q))
        terms = q.terms or ["the"]
        out.append(s.search_query(Query(terms=terms + ["the", "w0002"],
                                        k=k, min_match=2)))
        out.append(s.search_query(Query(terms=terms, mode=q.mode, k=k,
                                        exclude=["w0001", "of"])))
        out.append(s.search_query(Query(terms=terms, mode=q.mode, k=k,
                                        field_filter=("role", "user"))))
        out.append(s.search_query(Query(
            terms=terms, mode=q.mode, k=k,
            phrases=[(phrases[0].split(), 1.0), (phrases[5].split(), 2.0)],
        )))
        out.append(s.search_query(Query(
            terms=terms, mode=q.mode, k=k,
            synonyms=[(["w0002", "w0005", "zzzzabsent"], 1.5)],
        )))
    for p in phrases:
        out.append(s.search_phrase(p))
        out.append(s.search_phrase_topk(p, k=7))
    for b in (
        "(w0000 OR w0001) AND NOT w0002",
        "the AND (w0010 OR w0020 OR w0030)",
        "w0004 OR (w0006 AND NOT the)",
    ):
        out.append(s.search_boolean(parse_boolean_query(b), k=15))
    out.append(s.search_boolean(
        ("or", [("phrase", tuple(phrases[0].split())), ("term", "w0007")]),
        k=15,
    ))
    # explain: the top hits plus fixed ids (some deleted in the delete
    # indexes, one absent), and block join in every score mode
    for qtype, text, _k in queries[:20]:
        mode = "and" if qtype == "and" else "or"
        ids = [tuple(h[1:-1]) for h in s.search(text, k=3, mode=mode)]
        for id_values in ids + [("c000001", 0), ("c000100", 1), ("zz", 0)]:
            out.append(s.explain(text, id_values, mode=mode))
        for score_mode in ("max", "total", "avg", "none"):
            out.append(s.search_block_join(
                text, parent_col="conv_id", k=15, mode=mode,
                score_mode=score_mode,
            ))
    for p in phrases:
        a, b = p.split()[:2]
        out.append(s.search_proximity(p, 5))
        out.append(s.search_span_near(p, 3))
        if len(set(p.split())) == len(p.split()):
            out.append(s.search_span_near(p, 3, in_order=False))
        out.append(s.search_span_not(p, "w0001", 3))
        out.append(s.search_span_first(a, 5))
        out.append(s.search_span_within("the", a, b, 6))
        out.append(s.search_span_containing(a, b, "the", 6))
        out.append(s.search_span_or_near(f"w0001 w0002 {a}", b, 3))
    return s, queries, out


def test_segment_count_invariance(indexes, corpus):
    phrases = _phrases(corpus[3])
    ref = {}
    for deletes in (False, True):
        ref[deletes] = _battery(indexes[1, deletes], phrases)[2]
        assert any(ref[deletes]), "the battery must return results"
    assert ref[False] != ref[True], "the deletes must change some results"
    for key, idx in indexes.items():
        if key[0] == 1:
            continue
        s, queries, got = _battery(idx, phrases)
        assert len(s.readers) > 1
        assert isinstance(s.reader(), _FusedReader)
        assert len(got) == len(ref[key[1]])
        for i, (g, r) in enumerate(zip(got, ref[key[1]])):
            assert g == r and repr(g) == repr(r), (key, i)  # types too
        for qtype, text, k in queries:
            q = parse_query(text, qtype, k)
            assert s.search_query(q, algo="wand") == s.search_query(
                q, algo="exhaustive"
            ), (key, text)
