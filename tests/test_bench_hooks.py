"""The benchmark's tracer hooks still find the engine methods they wrap.

`rbench.layers` wraps searcher and write-path methods by name; a refactor
that renames one fails here instead of in a traced benchmark run.
"""

import pyarrow.parquet as pq

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
