"""Delete-by-query / live-docs tests (reference strategy:
`lucene/core/src/test/org/apache/lucene/index/TestIndexWriterDelete.java` +
forceMergeDeletes goldens — SURVEY.md §5).

Covers: soft-delete result exclusion with STALE statistics, sidecar
idempotence and union across repeated deletes, delete-by-filter,
phrase-path exclusion, numDocs/maxDoc accounting, and the
forceMergeDeletes golden — an expunged index's postings are byte-identical
to a from-scratch build over the live subset."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rindex.build import build_index
from rindex.deletes import delete_by_filter, delete_by_terms, num_docs
from rindex.fixtures import make_transcripts
from rindex.merge import run_merges
from rindex.search import IndexSearcher
from rindex.segments import read_manifest, seg_dir

from tests.test_checkindex import audit_index

TERM = "w0003"  # mid-frequency Zipf term: present in some but not all docs


@pytest.fixture(scope="module")
def del_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("del_corpus")
    t = make_transcripts(300, 6, seed=7)
    p = str(d / "corpus.parquet")
    pq.write_table(t, p)
    return p


def _build(p, idx):
    return build_index([p], idx, num_segments=4, salt_range=64)


def test_soft_delete_excludes_results_keeps_stale_stats(
    ray_session, del_corpus, tmp_path
):
    idx = str(tmp_path / "idx")
    m0 = _build(del_corpus, idx)
    s0 = IndexSearcher(idx)
    pre = s0.search(TERM, k=10_000)
    assert pre, "fixture must contain the term"
    # a control query over docs NOT containing TERM, scored before deletion
    ctrl_pre = s0.search("w0200 w0321", k=50, mode="or")

    m1 = delete_by_terms(idx, TERM)
    deleted = sum(int(m.get("del_count", 0) or 0) for m in m1["segments"])
    assert deleted == len(pre)
    live, max_doc = num_docs(idx)
    assert max_doc == m0["totals"]["doc_count"]
    assert live == max_doc - deleted

    s1 = IndexSearcher(idx)
    assert s1.search(TERM, k=10_000) == []
    # STALE statistics: surviving docs' scores are unchanged (df/avgdl/
    # n_docs still computed over maxDoc) minus any now-deleted hits
    ctrl_post = s1.search("w0200 w0321", k=50, mode="or")
    pre_by_doc = {(h[1], h[2]): h[3] for h in ctrl_pre}
    assert ctrl_post, "control query must still match live docs"
    for _rank, conv, turn, score in ctrl_post:
        assert (conv, turn) in pre_by_doc
        assert score == pre_by_doc[(conv, turn)]  # bit-identical: stats stale


def test_delete_idempotent_and_union(ray_session, del_corpus, tmp_path):
    idx = str(tmp_path / "idx")
    _build(del_corpus, idx)
    m1 = delete_by_terms(idx, TERM)
    gens1 = {m["seg_id"]: int(m.get("del_gen", 0) or 0) for m in m1["segments"]}
    n1 = sum(int(m.get("del_count", 0) or 0) for m in m1["segments"])
    # repeat: nothing newly deleted -> generations unchanged (idempotent)
    m2 = delete_by_terms(idx, TERM)
    gens2 = {m["seg_id"]: int(m.get("del_gen", 0) or 0) for m in m2["segments"]}
    assert gens2 == gens1
    # a second, different delete unions into a new generation
    m3 = delete_by_terms(idx, "w0005")
    n3 = sum(int(m.get("del_count", 0) or 0) for m in m3["segments"])
    assert n3 > n1
    assert IndexSearcher(idx).search(f"{TERM} w0005", k=100, mode="or") == []


def test_delete_by_filter_stored_field(ray_session, del_corpus, tmp_path):
    idx = str(tmp_path / "idx")
    _build(del_corpus, idx)
    t = pq.read_table(del_corpus, columns=["role"])
    target = t["role"][0].as_py()
    n_target = pc.sum(pc.equal(t["role"], target)).as_py()
    m = delete_by_filter(idx, "role", target)
    deleted = sum(int(x.get("del_count", 0) or 0) for x in m["segments"])
    assert deleted == n_target
    live, max_doc = num_docs(idx)
    assert live == max_doc - n_target


def test_phrase_search_excludes_deleted(ray_session, tmp_path):
    # corpus with a planted phrase; delete one of the two phrase docs
    rows = {
        "conv_id": ["a", "b", "c"],
        "turn_idx": [0, 0, 0],
        "role": ["u", "u", "u"],
        "tool": ["", "", ""],
        "ts": [0, 1, 2],
        "text": [
            "alpha beta gamma marker",
            "alpha beta gamma",
            "unrelated text here",
        ],
    }
    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table(rows), p)
    idx = str(tmp_path / "idx")
    build_index([p], idx, num_segments=2, salt_range=8, with_positions=True)
    s = IndexSearcher(idx)
    assert len(s.search_phrase("alpha beta gamma")) == 2
    delete_by_terms(idx, "marker")
    hits = IndexSearcher(idx).search_phrase("alpha beta gamma")
    assert [(h[0], h[1]) for h in hits] == [("b", 0)]


def test_expunge_merge_equals_filtered_rebuild(
    ray_session, del_corpus, tmp_path
):
    idx = str(tmp_path / "idx")
    _build(del_corpus, idx)
    delete_by_terms(idx, TERM)
    m = run_merges(idx, expunge=True)
    assert all(int(x.get("del_count", 0) or 0) == 0 for x in m["segments"])
    assert all(int(x.get("del_gen", 0) or 0) == 0 for x in m["segments"])
    audit_index(idx)

    # golden: from-scratch build over the live subset, byte-identical
    t = pq.read_table(del_corpus)
    has = pc.match_substring_regex(
        pc.utf8_lower(t["text"]), rf"\b{TERM}\b"
    )
    live_t = t.filter(pc.invert(has))
    pl = str(tmp_path / "live.parquet")
    pq.write_table(live_t, pl)
    idx2 = str(tmp_path / "idx2")
    build_index([pl], idx2, num_segments=4, salt_range=64)

    assert m["totals"]["doc_count"] == live_t.num_rows
    man2 = read_manifest(idx2)
    for mm, mr in zip(m["segments"], man2["segments"]):
        assert mm["seg_id"] == mr["seg_id"]
        pm = pq.read_table(
            os.path.join(
                seg_dir(idx, mm["seg_id"], mm["gen"]), "postings.parquet"
            )
        )
        pr = pq.read_table(
            os.path.join(seg_dir(idx2, mr["seg_id"], 0), "postings.parquet")
        )
        assert pm.equals(pr), f"slot {mm['seg_id']} expunged != rebuilt"

    r_m = IndexSearcher(idx).search("w0001 w0100", k=20, mode="or")
    r_r = IndexSearcher(idx2).search("w0001 w0100", k=20, mode="or")
    assert r_m == r_r


_NO_RAY_SCRIPT = r"""
import json, sys
from rindex.deletes import delete_by_filter, delete_by_terms
from rindex.segments import read_manifest

idx, fidx, term, term2, role = sys.argv[1:]
rows = lambda m: {m["seg_id"]: (int(m.get("del_gen", 0) or 0),
                                int(m.get("del_count", 0) or 0))
                  for m in m["segments"]}
out = {
    "first": rows(delete_by_terms(idx, term)),
    "repeat": rows(delete_by_terms(idx, term)),
    "second": rows(delete_by_terms(idx, term2)),
    "filter": rows(delete_by_filter(fidx, "role", role)),
    "published": rows(read_manifest(idx)),
    "ray_imported": "ray" in sys.modules,
}
print(json.dumps(out))
"""


def _liv(idx, meta):
    dg = int(meta.get("del_gen", 0) or 0)
    if dg == 0:
        return set()
    sdir = seg_dir(idx, meta["seg_id"], meta.get("gen", 0))
    return set(pq.read_table(os.path.join(sdir, f"_liv-g{dg}.parquet"))["doc"]
               .to_pylist())


def _docs_where(idx, keep):
    """seg_id -> the doc ordinals whose stored row satisfies `keep`."""
    from rindex.analysis import get_analyzer

    az = get_analyzer("standard")
    out = {}
    for m in read_manifest(idx)["segments"]:
        t = pq.read_table(
            os.path.join(seg_dir(idx, m["seg_id"], m.get("gen", 0)), "docs.parquet")
        ).to_pylist()
        out[m["seg_id"]] = {r["doc"] for r in t if keep(r, az)}
    return out


def test_deletes_run_without_ray(ray_session, del_corpus, tmp_path):
    """delete_by_terms / delete_by_filter in a process that never starts
    Ray: the deleted sets are exactly the matching docs, del_gen/del_count
    follow the sidecar contract, and a repeated delete is a no-op."""
    import json
    import shutil
    import subprocess
    import sys

    idx, fidx = str(tmp_path / "idx"), str(tmp_path / "fidx")
    _build(del_corpus, idx)
    shutil.copytree(idx, fidx)
    role = pq.read_table(del_corpus, columns=["role"])["role"][0].as_py()
    n_hits = len(IndexSearcher(idx).search(TERM, k=10_000))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_RAY_SCRIPT, idx, fidx, TERM, "w0005", role],
        capture_output=True, text=True, timeout=120, cwd=repo,
        env={**os.environ, "PYTHONPATH": repo},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["ray_imported"] is False

    has = lambda *terms: (lambda r, az: bool(set(az.tokens(r["text"])) & set(terms)))
    want1 = _docs_where(idx, has(TERM))
    want2 = _docs_where(idx, has(TERM, "w0005"))
    assert sum(map(len, want1.values())) > 0
    assert sum(map(len, want1.values())) == n_hits
    for seg, (dg, dc) in got["first"].items():
        assert (dg, dc) == ((1, len(want1[int(seg)])) if want1[int(seg)] else (0, 0))
    assert got["repeat"] == got["first"]  # nothing new: generations unchanged
    for seg, (dg, dc) in got["second"].items():
        grew = want2[int(seg)] != want1[int(seg)]
        assert dg == got["first"][seg][0] + grew
        assert dc == len(want2[int(seg)])
    assert got["published"] == got["second"]
    for m in read_manifest(idx)["segments"]:
        assert _liv(idx, m) == want2[m["seg_id"]]

    wantf = _docs_where(fidx, lambda r, az: r["role"] == role)
    for m in read_manifest(fidx)["segments"]:
        assert _liv(fidx, m) == wantf[m["seg_id"]]
        assert got["filter"][str(m["seg_id"])] == (
            [1, len(wantf[m["seg_id"]])] if wantf[m["seg_id"]] else [0, 0]
        )
    live, max_doc = num_docs(fidx)
    assert live == max_doc - sum(map(len, wantf.values()))
