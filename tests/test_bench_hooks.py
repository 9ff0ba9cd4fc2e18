"""The benchmark's tracer hooks still find the engine methods they wrap.

`rbench.layers` wraps searcher and write-path methods by name; a refactor
that renames one fails here instead of in a traced benchmark run.  The
near-dup ops' shuffle counts, as the traced benchmark reports them, are
pinned here too.
"""

import pyarrow.parquet as pq
import pytest

from rbench import layers
from rbench.trace import Tracer


def test_tracer_hooks_record_search_spans(ray_session, tmp_path):
    from rindex.analysis import get_analyzer
    import rindex.build
    from rindex.fixtures import make_transcripts
    from rindex.search import IndexSearcher

    tracer = Tracer()
    layers.install_search(tracer)
    layers.install_write_path(tracer)
    try:
        src, idx = str(tmp_path / "turns.parquet"), str(tmp_path / "idx")
        turns = make_transcripts(30, 4, seed=3)
        pq.write_table(turns, src)
        # looked up late, as the benchmark does: the hook replaces it
        rindex.build.build_index([src], idx, num_segments=2,
                                 with_positions=True)
        s = IndexSearcher(idx)
        first = get_analyzer("standard").tokens(turns["text"][0].as_py())
        phrase = " ".join(first[:2])
        assert s.search("the", k=5)
        assert s.search_phrase_topk(phrase, k=5)
    finally:
        tracer.restore()
    names = {sp["name"] for sp in tracer.closed()}
    assert "build.build_index" in names
    assert any(n.startswith("search.kernel.") for n in names), names
    assert {"search.fetch_ids", "search.phrase_segment"} <= names, names


@pytest.mark.parametrize("op,shuffles", [
    ("minhash_lsh_neardup", 1),       # the band-key pair expansion
    ("ngram_jaccard_neardup", 2),     # shingle pair expansion + pair sum
    ("conv_near_dedup_documents", 3),  # conversation assembly + the two
])
def test_near_dup_shuffle_counts(ray_session, op, shuffles):
    """The near-dup family runs one shingle pass per op: MinHash verifies
    its candidates from the pass's lists, and no op shuffles the shingle
    table to get doc sizes.  Counted as the benchmark counts them."""
    import __ray_entry__
    from rbench.trace import capture_plans, plan_stats

    from tests.test_ops_oracle import SF_DIR

    tracer = Tracer()
    capture_plans(tracer)
    try:
        out = __ray_entry__.queries()[op](SF_DIR)
    finally:
        tracer.restore()
    assert len(out)
    n_ops, rows, _b, _w = layers.shuffle_summary(plan_stats(tracer.plans))
    assert n_ops == shuffles, (op, n_ops, rows)
