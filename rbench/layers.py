"""Per-layer metrics of the traced run.

Every workload prints every metric named in `UNITS`; a layer a workload does
not touch reads 0.  Times are self times (a span minus what its child spans
cover).  Search times are per query unless the name says per call.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow.parquet as pq

from rbench import common
from rbench.trace import Tracer, capture_plans, install_stage_factories, plan_stats, shuffle_summary

OPS = ["minhash_lsh_neardup", "ngram_jaccard_neardup",
       "conv_near_dedup_documents", "dedup_exact_documents", "topterms"]

UNITS: dict[str, str] = {
    "search.open_ms": "ms",
    "search.plan_us": "us",
    "search.postings_for_ms": "ms",
    "search.kernel_ms.wand": "ms",
    "search.kernel_ms.exhaustive": "ms",
    "search.kernel_ms.single_term": "ms",
    "search.kernel_calls.wand": "count",
    "search.kernel_calls.exhaustive": "count",
    "search.kernel_calls.single_term": "count",
    "search.segments_per_query": "count",
    "search.fetch_ids_ms": "ms",
    "search.fetch_ids_calls_per_query": "count",
    "search.decode_cache_hit_ratio": "ratio",
    "search.positions_for_ms": "ms",
    "search.phrase_segment_ms": "ms",
    "codec.decode_ints_per_s": "1/s",
    "codec.decode_block_us": "us",
    "codec.encode_ints_per_s": "1/s",
    "codec.bytes_per_posting": "B",
    "analysis.query_tokens_us": "us",
    "analysis.corpus_tokens_per_s": "1/s",
    "build.read_s": "s",
    "build.assign_docids_s": "s",
    "build.tokenize_s": "s",
    "build.shuffle_s": "s",
    "build.merge_encode_s": "s",
    "build.write_s": "s",
    "build.fixed_s": "s",
    "build.partial_rows": "count",
    "build.shuffle_bytes": "B",
    "merge.find_ms": "ms",
    "merge.task_s": "s",
    "merge.segments_merged": "count",
    "merge.bytes_written": "B",
    "merge.write_amp": "ratio",
    "segments.publish_ms": "ms",
    "segments.live": "count",
    "segments.dirs_on_disk": "count",
    "segments.bytes_superseded": "B",
    "deletes.apply_s": "s",
    "deletes.docs_deleted": "count",
    **{f"ops.{op}.{m}": u for op in OPS for m, u in (
        ("first_call_s", "s"), ("shuffle_ops", "count"), ("rows_shuffled", "count"))},
    "host.probe_ms": "ms",
    "host.steal_pct": "%",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


def _per(x: float, n: int) -> float:
    return x / n if n else 0.0


# ------------------------------------------------------------ installs

def install_build(tracer: Tracer) -> None:
    """Build stage wrappers (main-process side), plan capture, and spans
    around build_index / append_index / manifest publish."""
    import rindex.build as rb
    import rindex.segments as rs

    install_stage_factories(tracer)
    capture_plans(tracer)
    build_index = rb.build_index

    def traced_build_index(*args, **kwargs):
        # the span keeps the range of Ray Data plans this build executed
        with tracer.span("build.build_index", plan_lo=len(tracer.plans)) as sp:
            try:
                return build_index(*args, **kwargs)
            finally:
                sp["plan_hi"] = len(tracer.plans)

    tracer.patch(rb, "build_index", traced_build_index)
    tracer.wrap(rs, "write_manifest", "segments.publish")


def install_write_path(tracer: Tracer) -> None:
    """install_build plus merge and delete spans."""
    import rindex.deletes as rd
    import rindex.merge as rm

    install_build(tracer)
    tracer.wrap(rm, "run_merges", "merge.run_merges")
    for attr in ("find_merges", "find_forced_merges"):
        tracer.wrap(rm.TieredMergePolicy, attr, "merge.find")
    tracer.wrap(rd, "delete_by_terms", "deletes.apply")


def install_search(tracer: Tracer) -> None:
    from rindex.search import IndexSearcher, _SegmentReader

    tracer.wrap(IndexSearcher, "_term_plan", "search.plan")
    tracer.wrap(IndexSearcher, "_search_segment_wand", "search.kernel.wand")
    tracer.wrap(IndexSearcher, "_search_segment_exhaustive", "search.kernel.exhaustive")
    tracer.wrap(IndexSearcher, "_search_segment_single_term", "search.kernel.single_term")
    tracer.wrap(IndexSearcher, "_segment_phrase", "search.phrase_segment")
    tracer.wrap(_SegmentReader, "postings_for", "search.postings_for")
    tracer.wrap(_SegmentReader, "fetch_ids", "search.fetch_ids")
    tracer.wrap(_SegmentReader, "positions_for", "search.positions_for")
    tracer.wrap(
        _SegmentReader, "decoded", "search.decode",
        before=lambda reader, term, row: {
            "hit": term in getattr(reader, "_decoded_cache", {})
        },
    )


# ------------------------------------------------------------ metrics

def search_metrics(tracer: Tracer, n_q: int, n_p: int) -> dict:
    m = {}
    plan, _ = tracer.total_self("search.plan")
    m["search.plan_us"] = _per(plan, n_q) * 1e6
    post, _ = tracer.total_self("search.postings_for")
    m["search.postings_for_ms"] = _per(post, n_q) * 1e3
    calls_total = 0
    for k in ("wand", "exhaustive", "single_term"):
        t, c = tracer.total_self(f"search.kernel.{k}")
        m[f"search.kernel_ms.{k}"] = _per(t, c) * 1e3
        m[f"search.kernel_calls.{k}"] = _per(c, n_q)
        calls_total += c
    m["search.segments_per_query"] = _per(calls_total, n_q)
    f, fc = tracer.total_self("search.fetch_ids")
    m["search.fetch_ids_ms"] = _per(f, n_q + n_p) * 1e3
    m["search.fetch_ids_calls_per_query"] = _per(fc, n_q + n_p)
    dec = tracer.closed("search.decode")
    m["search.decode_cache_hit_ratio"] = _per(sum(1 for s in dec if s["hit"]), len(dec))
    p, _ = tracer.total_self("search.positions_for")
    m["search.positions_for_ms"] = _per(p, n_p) * 1e3
    ps, pc = tracer.total_self("search.phrase_segment")
    m["search.phrase_segment_ms"] = _per(ps, pc) * 1e3
    return m


def codec_metrics(idx_dir: str, manifest: dict, max_segments: int = 4) -> dict:
    """Decode / encode rates over the index's own posting lists."""
    from rindex import segments as segio
    from rindex.codec import decode_block, decode_posting_fast, encode_postings_batch

    segs = manifest["segments"][:max_segments]
    ints = 0
    dec_s = 0.0
    enc_ints = 0
    enc_s = 0.0
    blk_n = 0
    blk_s = 0.0
    for meta in segs:
        sdir = segio.seg_dir(idx_dir, meta["seg_id"], meta.get("gen", 0))
        tbl = pq.read_table(os.path.join(sdir, "postings.parquet"),
                            columns=["term", "df", "block_offset", "block_last_doc", "blob"])
        rows = tbl.to_pylist()
        decoded = []
        t = time.perf_counter()
        for row in rows:
            decoded.append(decode_posting_fast(row))
        dec_s += time.perf_counter() - t
        ints += 2 * sum(len(d[0]) for d in decoded)
        longest = sorted(rows, key=lambda r: -len(r["block_offset"]))[:20]
        t = time.perf_counter()
        for row in longest:
            prev = -1
            for off, last in zip(row["block_offset"], row["block_last_doc"]):
                decode_block(row["blob"], int(off), prev)
                prev = int(last)
                blk_n += 1
        blk_s += time.perf_counter() - t
        bounds = np.concatenate([[0], np.cumsum([len(d[0]) for d in decoded])])
        docs = np.concatenate([d[0] for d in decoded])
        tfs = np.concatenate([d[1] for d in decoded])
        norms = np.concatenate([d[2] for d in decoded])
        t = time.perf_counter()
        encode_postings_batch(bounds, docs, tfs, norms)
        enc_s += time.perf_counter() - t
        enc_ints += 2 * len(docs)
    tot = manifest["segments"]
    return {
        "codec.decode_ints_per_s": _per(ints, dec_s),
        "codec.decode_block_us": _per(blk_s, blk_n) * 1e6,
        "codec.encode_ints_per_s": _per(enc_ints, enc_s),
        "codec.bytes_per_posting": _per(
            sum(int(s["postings_bytes"]) for s in tot),
            sum(int(s["total_postings"]) for s in tot),
        ),
    }


def analysis_metrics(query_texts: list[str], corpus_texts: list[str]) -> dict:
    from rindex.analysis import get_analyzer

    a = get_analyzer("standard")
    walls = []
    for _ in range(5):
        t = time.perf_counter()
        for q in query_texts:
            a.tokens(q)
        walls.append(time.perf_counter() - t)
    sample = corpus_texts[:3000]
    t = time.perf_counter()
    n_tok = sum(len(a.tokens(x)) for x in sample)
    corpus_s = time.perf_counter() - t
    return {
        "analysis.query_tokens_us": common.median(walls) / max(1, len(query_texts)) * 1e6,
        "analysis.corpus_tokens_per_s": _per(n_tok, corpus_s),
    }


def build_metrics(tracer: Tracer) -> dict:
    """Per build_index call (appends included): stage self times from the
    worker spans, read and shuffle from Ray Data's operator stats."""
    builds = tracer.closed("build.build_index")
    n = len(builds)
    if not n:
        return {}
    stage = {k: 0.0 for k in ("read", "assign_docids", "tokenize", "merge_encode",
                              "write")}
    partial_rows = 0
    for s in tracer.spans:
        name = s["name"]
        if s.get("pid") is None or not name.startswith("build."):
            continue
        key = name.split(".", 1)[1]
        if key in stage:
            stage[key] += s["end"] - s["start"]
        if key == "tokenize":
            partial_rows += s.get("rows_out", 0)
    read = shuffle = 0.0
    shuffle_bytes = 0
    for b in builds:
        st = plan_stats(tracer.plans[b["plan_lo"]: b["plan_hi"]])
        read += sum(v["wall_s"] for k, v in st.items() if "ReadParquet" in k)
        _n, _rows, nbytes, sh_wall = shuffle_summary(st)
        shuffle += sh_wall
        shuffle_bytes += nbytes
    m = {f"build.{k}_s": v / n for k, v in stage.items()}
    m["build.read_s"] += read / n  # the parquet scan plus the assign_seg stage
    m["build.shuffle_s"] = shuffle / n
    # the build span's self time: its wall that no stage span covers
    m["build.fixed_s"] = tracer.total_self("build.build_index")[0] / n
    m["build.partial_rows"] = partial_rows / n
    m["build.shuffle_bytes"] = shuffle_bytes / n
    return m


def segment_metrics(idx_dir: str) -> dict:
    from rindex import segments as segio

    manifest = segio.read_manifest(idx_dir)
    live = {
        os.path.basename(segio.seg_dir(idx_dir, m["seg_id"], m.get("gen", 0)))
        for m in manifest["segments"]
    }
    root = os.path.join(idx_dir, "segments")
    dirs = [d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))]
    return {
        "segments.live": len(manifest["segments"]),
        "segments.dirs_on_disk": len(dirs),
        "segments.bytes_superseded": sum(
            common.dir_bytes(os.path.join(root, d)) for d in dirs if d not in live
        ),
    }


def publish_metrics(tracer: Tracer) -> dict:
    t, c = tracer.total_self("segments.publish")
    return {"segments.publish_ms": _per(t, c) * 1e3}


def host_metrics(steal0: tuple[int, int]) -> dict:
    return {
        "host.probe_ms": common.host_probe_ms(),
        "host.steal_pct": common.steal_pct(steal0, common.cpu_times()),
    }


def add_op_metrics(m: dict, tracer: Tracer, group: str, first_call_s: float,
                   lo: int, hi: int) -> None:
    """Add one warm-up call's wall and the shuffles of the Ray Data plans it
    ran (tracer.plans[lo:hi]) to operator group `group` in `m`."""
    n_ops, rows, _b, _w = shuffle_summary(plan_stats(tracer.plans[lo:hi]))
    for name, v in (("first_call_s", first_call_s), ("shuffle_ops", n_ops),
                    ("rows_shuffled", rows)):
        key = f"ops.{group}.{name}"
        m[key] = m.get(key, 0) + v
