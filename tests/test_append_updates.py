"""Append as `updateDocument`: re-sent ids replace their older versions at
publish time (reference: `lucene/core/src/java/org/apache/lucene/index/
IndexWriter.java#updateDocument` — delete-by-id + add in one commit), and
a deleted newest version cannot resurrect an older one at merge."""

import pyarrow as pa
import ray.data as rd

from rindex.build import append_index, build_index
from rindex.deletes import delete_by_terms, num_docs
from rindex.merge import run_merges
from rindex.search import IndexSearcher


def _turns(rows):
    return rd.from_arrow(pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array(["user"] * len(rows), pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string()),
        "tool": pa.array([""] * len(rows), pa.string()),
        "ts": pa.array([0] * len(rows), pa.timestamp("us")),
    }))


def _ids(hits):
    return [(h[1], h[2]) for h in hits]


def test_deleted_update_does_not_resurrect_stale_version(ray_session, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(_turns([("c0", 0, "stalecontent alpha")]), idx, num_segments=1)
    append_index(_turns([("c0", 0, "updatedcontent beta")]), idx)
    s = IndexSearcher(idx)
    assert s.search("stalecontent", k=5) == []
    assert _ids(s.search("updatedcontent", k=5)) == [("c0", 0)]

    delete_by_terms(idx, "updatedcontent")
    assert IndexSearcher(idx).search("stalecontent", k=5) == []
    assert num_docs(idx)[0] == 0

    m = run_merges(idx, force=True)
    assert m["totals"]["n_segments"] == 1
    s = IndexSearcher(idx)
    assert s.search("stalecontent", k=5) == []
    assert s.search("updatedcontent", k=5) == []
    assert num_docs(idx) == (0, 0)


def test_resent_ids_returned_once_before_merge(ray_session, tmp_path):
    idx = str(tmp_path / "idx")
    base = [(f"c{i:02d}", t, f"shared old{i} turn{t}") for i in range(20)
            for t in range(2)]
    build_index(_turns(base), idx, num_segments=3)
    # re-send every other conversation's turn 0 twice, in two generations,
    # plus one new conversation
    resent = [(f"c{i:02d}", 0, f"shared new{i}") for i in range(0, 20, 2)]
    append_index(_turns(resent), idx)
    m = append_index(_turns(resent + [("c99", 0, "shared fresh")]), idx)
    assert m["totals"]["n_segments"] == 9  # 3 slots x 3 gens, nothing merged
    assert num_docs(idx)[0] == 41

    s = IndexSearcher(idx)
    ids = _ids(s.search("shared", k=1000))
    assert len(ids) == len(set(ids)) == 41
    for i in range(0, 20, 2):
        # turn 0's old version is gone, turn 1 (never re-sent) stays
        assert _ids(s.search(f"old{i}", k=5)) == [(f"c{i:02d}", 1)]
        assert _ids(s.search(f"new{i}", k=5)) == [(f"c{i:02d}", 0)]
    # untouched turns keep their only version
    assert sorted(_ids(s.search("old1", k=5))) == [("c01", 0), ("c01", 1)]

    # the merge drops exactly the superseded versions
    m = run_merges(idx, force=True)
    assert m["totals"]["doc_count"] == 41
    assert num_docs(idx) == (41, 41)
    assert sorted(_ids(IndexSearcher(idx).search("shared", k=1000))) == sorted(ids)
