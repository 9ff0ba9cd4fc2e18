"""Scale-stress the conversation family (VERDICT r3 item #8).

Tiles the sf0.1 documents table to a 2.88M-turn corpus (576k
conversations — the same 8x scale the index-build path was stressed at),
then runs conv_flatten / conv_search_topk / conv_curation_pipeline over
it and reports wall seconds, output rows and turns/sec per op.

Usage:  python scripts/conv_scale_stress.py [n_tiles] [num_cpus]
        (defaults: 576 tiles -> 2.88M turns, 32 cpus)

The conv-bucket modulus `rindex.ops.transcripts.N_BUCKETS` is the scale
knob: reducers see ~n_convs/N_BUCKETS conversations each; the report
records the modulus the run used.
"""

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1/documents.parquet"
OUT = "/tmp/rindex_conv_stress"


def build_corpus(n_tiles: int) -> str:
    done = os.path.join(OUT, "_DONE")
    if os.path.exists(done) and open(done).read().strip() == str(n_tiles):
        return OUT
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "documents.parquet"), exist_ok=True)
    base = pq.read_table(SRC)
    n = base.num_rows
    ids = base["doc_id"].to_numpy(zero_copy_only=False)
    tiles_per_file = max(1, n_tiles // 32)
    f = 0
    for start in range(0, n_tiles, tiles_per_file):
        chunk = []
        for t in range(start, min(start + tiles_per_file, n_tiles)):
            shifted = base.set_column(
                base.schema.get_field_index("doc_id"),
                "doc_id",
                pa.array(ids + t * n, pa.int64()),
            )
            chunk.append(shifted)
        pq.write_table(
            pa.concat_tables(chunk),
            os.path.join(OUT, "documents.parquet", f"part-{f:04d}.parquet"),
        )
        f += 1
    with open(done, "w") as fh:
        fh.write(str(n_tiles))
    return OUT


def main() -> None:
    n_tiles = int(sys.argv[1]) if len(sys.argv) > 1 else 576
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    sf_dir = build_corpus(n_tiles)
    n_turns = 5000 * n_tiles

    import rindex.ops.transcripts as tx
    from rindex.ops.transcripts import (
        q_conv_curation_pipeline_documents,
        q_conv_flatten_documents,
        q_conv_search_topk_documents,
    )

    results = {}
    for name, fn in [
        ("conv_flatten", q_conv_flatten_documents),
        ("conv_search_topk", q_conv_search_topk_documents),
        ("conv_curation_pipeline", q_conv_curation_pipeline_documents),
    ]:
        import ray.data as rd

        t0 = time.perf_counter()
        res = fn(sf_dir)
        rows = res.count() if isinstance(res, rd.Dataset) else len(res)
        wall = round(time.perf_counter() - t0, 2)
        results[name] = {
            "wall_sec": wall,
            "rows": int(rows),
            "turns_per_sec": round(n_turns / wall),
        }
        print(f"{name}: {wall}s, {rows} rows", file=sys.stderr)
    print(
        json.dumps(
            {
                "metric": "conv_family_scale_stress",
                "n_turns": n_turns,
                "n_convs": n_turns // 5,
                "num_cpus": num_cpus,
                "conv_buckets": tx.N_BUCKETS,
                "ops": results,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
