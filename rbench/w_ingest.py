"""ingest_merge: the write path.  Each round builds a base index, then runs
append micro-batches, each followed by a reopen query for the probe turn, a
`delete_by_terms` of the batch's delete marker and `run_merges`; a forced
merge and reopen queries close the round.  Rounds repeat until the run's
time is used; every round makes the same operations.

Set-up (timed as setup_s): the Ray session and one warm-up round on a small
corpus, so every timed call runs on warm workers.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from rbench import common, inputs, layers
from rbench.oracle import NaiveBM25, check_topk
from rbench.trace import worker_tracing

BASE_CONVS = 3000     # ~13.5k turns
N_BATCHES = 5
NEW_SHARE = 10        # each batch adds BASE_CONVS / 10 new conversations
RESEND_SHARE = 20     # ... and re-sends BASE_CONVS / 20 earlier ones
WARM_CONVS = 200


def _write(tbl: pa.Table, path: str, n_files: int = 4) -> str:
    os.makedirs(path)
    per = -(-tbl.num_rows // n_files)
    for f in range(n_files):
        part = tbl.slice(f * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(path, f"part-{f:03d}.parquet"))
    return path


class Inputs:
    """The round's inputs on disk plus what the checks need from them."""

    def __init__(self, work: str, seed: int, base_convs: int, n_batches: int):
        base, batches = inputs.make_batches(
            seed, base_convs, n_batches,
            max(1, base_convs // NEW_SHARE), max(1, base_convs // RESEND_SHARE),
        )
        self.seed = seed
        self.base_dir = _write(base, os.path.join(work, f"in-{base_convs}-base"))
        self.batch_dirs = [
            _write(b, os.path.join(work, f"in-{base_convs}-b{i + 1}"))
            for i, b in enumerate(batches)
        ]
        self.tables = [base] + batches
        self.turns = [t.num_rows for t in self.tables]

    def newest(self):
        """(ids, texts, deleted ids): the newest version of every ingested
        (conv_id, turn_idx), and the keys whose newest version carries its
        batch's delete marker."""
        newest: dict[tuple, tuple[int, str]] = {}
        for b, t in enumerate(self.tables):
            for c, i, x in zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(),
                               t["text"].to_pylist()):
                newest[(c, i)] = (b, x)
        deleted = {
            k for k, (b, x) in newest.items()
            if b > 0 and inputs.delete_marker(self.seed, b) in x.split()
        }
        return newest, deleted


class Round:
    """One round's timings and outputs."""

    def __init__(self):
        self.build_s = 0.0
        self.commit_s: list[float] = []
        self.append_s = 0.0
        self.delete_s = 0.0
        self.merge_s = 0.0
        self.force_s = 0.0
        self.merged_turns = 0
        self.segments_merged = 0
        self.merged_bytes = 0
        self.ingest_bytes = 0
        self.docs_deleted = 0
        self.disk_bytes = 0
        self.live = 0

    def timed_s(self) -> float:
        return (self.build_s + self.append_s + self.delete_s + self.merge_s
                + self.force_s)

    def merged(self, idx_dir: str, before: list[dict], after: list[dict]) -> None:
        """Account one run_merges call: consumed docs and segments, and the
        bytes of the segments it wrote."""
        gone, new = _diff(before, after)
        self.merged_turns += sum(int(m["doc_count"]) for m in gone)
        self.segments_merged += len(gone)
        self.merged_bytes += _seg_bytes(idx_dir, new)


def _probe_repeats(idx_dir: str) -> bool:
    """Reopen and query the probe turn; True when a (conv_id, turn_idx)
    comes back more than once."""
    from rindex.search import IndexSearcher

    hits = IndexSearcher(idx_dir).search(inputs.PROBE_TERM, k=10)
    keys = [tuple(h[1:-1]) for h in hits]
    return len(keys) != len(set(keys))


def run_round(inp: Inputs, idx_dir: str, res: common.Result,
              checks: list | None = None, tracer=None) -> Round:
    # module attributes are looked up per call: traced runs wrap them
    from rindex import build, deletes, merge

    def op(name: str):
        return tracer.span("ingest." + name) if tracer else contextlib.nullcontext()

    r = Round()
    t = time.perf_counter()
    with op("build"):
        manifest = build.build_index(inp.base_dir, idx_dir, num_segments="auto")
    r.build_s = time.perf_counter() - t
    r.ingest_bytes += _seg_bytes(idx_dir, manifest["segments"])
    res.attempted += 1
    for b, bdir in enumerate(inp.batch_dirs, start=1):
        before = manifest["segments"]
        t0 = time.perf_counter()
        with op("append"):
            manifest = build.append_index(bdir, idx_dir)
        t1 = time.perf_counter()
        r.ingest_bytes += _seg_bytes(idx_dir, _diff(before, manifest["segments"])[1])
        res.attempted += 1
        if _probe_repeats(idx_dir):
            res.failed += 1  # append leaves both versions live until a merge
        res.attempted += 1
        t2 = time.perf_counter()
        with op("delete"):
            after = deletes.delete_by_terms(idx_dir, inputs.delete_marker(inp.seed, b))
        t3 = time.perf_counter()
        r.docs_deleted += _deleted(after) - _deleted(manifest)
        with op("merge"):
            manifest = merge.run_merges(idx_dir)
        t4 = time.perf_counter()
        r.merged(idx_dir, after["segments"], manifest["segments"])
        res.attempted += 2
        r.append_s += t1 - t0
        r.delete_s += t3 - t2
        r.merge_s += t4 - t3
        r.commit_s.append((t1 - t0) + (t4 - t2))
    before = manifest["segments"]
    t = time.perf_counter()
    with op("force_merge"):
        manifest = merge.run_merges(idx_dir, force=True)
    r.force_s = time.perf_counter() - t
    r.merged(idx_dir, before, manifest["segments"])
    res.attempted += 1
    r.disk_bytes = common.dir_bytes(idx_dir)
    r.live = int(manifest["totals"]["doc_count"]) - _deleted(manifest)
    if checks is not None:
        _verify(res, inp, idx_dir, manifest, checks)
    return r


def _key(m: dict) -> tuple[int, int]:
    return int(m["seg_id"]), int(m.get("gen", 0))


def _diff(before: list[dict], after: list[dict]):
    """(segments gone, segments new) between two manifests' segment lists."""
    b = {_key(m) for m in before}
    a = {_key(m) for m in after}
    return ([m for m in before if _key(m) not in a],
            [m for m in after if _key(m) not in b])


def _seg_bytes(idx_dir: str, metas: list[dict]) -> int:
    from rindex import segments as segio

    return sum(common.dir_bytes(segio.seg_dir(idx_dir, *_key(m))) for m in metas)


def _deleted(manifest: dict) -> int:
    return sum(int(m.get("del_count", 0) or 0) for m in manifest["segments"])


def _check_data(inp: Inputs):
    """Naive BM25 over the newest live versions, and the seed's fixture
    query set."""
    from rindex.analysis import get_analyzer

    newest, deleted = inp.newest()
    analyzer = get_analyzer("standard")
    live = sorted(k for k in newest if k not in deleted)
    toks = [analyzer.tokens(newest[k][1]) for k in live]
    ref = NaiveBM25(live, toks)
    queries = inputs.fixture_queries(inp.seed)
    return newest, deleted, ref, queries


def _verify(res, inp: Inputs, idx_dir: str, manifest: dict, checks: list):
    from rindex.search import IndexSearcher, parse_query

    newest, deleted, ref, queries = checks
    live_docs = int(manifest["totals"]["doc_count"]) - _deleted(manifest)
    res.check(live_docs == ref.n_docs,
              f"live doc_count {live_docs}, want {ref.n_docs}")
    res.check(int(manifest["totals"]["sum_dl"]) == ref.sum_dl,
              f"sum_dl {manifest['totals']['sum_dl']}, want {ref.sum_dl}")
    s = IndexSearcher(idx_dir)
    for b in range(len(inp.tables)):
        want = {k for k, (v, _x) in newest.items() if v == b and k not in deleted}
        got = s.search(inputs.version_marker(b), k=len(newest) + 10)
        ids = [tuple(h[1:-1]) for h in got]
        res.check(len(ids) == len(set(ids)) and set(ids) == want,
                  f"version {b}: {len(set(ids) ^ want)} turns differ")
    for qtype, text, k in queries:
        q = parse_query(text, qtype, k)
        mode = "and" if qtype == "and" else "or"
        err = check_topk(s.search_query(q), ref.scores(q.terms, mode), k)
        res.check(err is None, f"after merge {text!r}: {err}")
    res.attempted += len(queries)


def run(args, res: common.Result, t_start: float, tracer=None) -> dict:
    # reopen queries read segment files privately, not through the node-wide
    # registry actor, which would keep every round's tables alive
    os.environ["RINDEX_SHARED_SEG"] = "0"
    work = common.make_work_dir()
    trace_dir = os.path.join(work, "trace") if tracer else None
    try:
        g0 = time.perf_counter()
        # the warm-up round starts the workers and takes every code path once
        warm_inp = Inputs(work, args.seed, WARM_CONVS, 1)
        inp = Inputs(work, args.seed, BASE_CONVS, N_BATCHES)
        checks = _check_data(inp)
        gen_s = time.perf_counter() - g0
        if trace_dir:
            os.makedirs(trace_dir)
        session = common.RaySession(work, trace_dir)
        try:
            warm = common.Result()
            run_round(warm_inp, os.path.join(work, "idx-warm"), warm)
            setup_s = time.perf_counter() - t_start - gen_s
            rounds = []
            if tracer:
                # one untraced round, then one traced round
                base = run_round(inp, os.path.join(work, "idx-u"), res, checks)
                layers.install_write_path(tracer)
                worker_tracing(trace_dir, True)
                steal0 = common.cpu_times()
                idx = os.path.join(work, "idx-t")
                r = run_round(inp, idx, res, checks, tracer)
                worker_tracing(trace_dir, False)
                tracer.restore()
                m = _layer_metrics(tracer, trace_dir, idx, r, steal0)
                m["trace.overhead_pct"] = 100.0 * (r.timed_s() / base.timed_s() - 1.0)
                # time inside the timed calls that no layer span covers
                m["trace.unattributed_s"] = sum(
                    tracer.total_self(f"ingest.{n}")[0]
                    for n in ("build", "append", "delete", "merge", "force_merge")
                )
                tracer.dump(os.path.join(work, "trace.json"))
                for k, v in m.items():
                    res.put(k, v, layers.UNITS[k])
                return {}
            t_end = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < t_end:
                idx = os.path.join(work, f"idx-{len(rounds)}")
                rounds.append(run_round(inp, idx, res, checks))
                shutil.rmtree(idx)
        finally:
            session.close()
    finally:
        common.remove_work_dir(work, keep_trace=tracer is not None)

    commits = [c for r in rounds for c in r.commit_s]
    wall = sum(r.timed_s() for r in rounds)
    written = sum(inp.turns[0] + sum(inp.turns[1:]) + r.merged_turns for r in rounds)
    res.put("setup_s", setup_s, "s")
    res.put("op_p50_ms", common.median(commits) * 1e3, "ms")
    res.put("items_per_s", written / wall, "1/s")
    n = len(rounds)
    return {
        "rounds": n,
        "build_turns_per_s": inp.turns[0] * n / sum(r.build_s for r in rounds),
        "append_turns_per_s": sum(inp.turns[1:]) * n / sum(r.append_s for r in rounds),
        "merge_turns_per_s": sum(r.merged_turns for r in rounds)
        / sum(r.merge_s + r.force_s for r in rounds),
        "delete_ms": sum(r.delete_s for r in rounds) / (n * N_BATCHES) * 1e3,
        "disk_bytes_per_live_turn": sum(r.disk_bytes for r in rounds)
        / sum(r.live for r in rounds),
    }


def _layer_metrics(tracer, trace_dir: str, idx: str, r: Round, steal0) -> dict:
    from rindex import segments as segio

    tracer.collect_workers(trace_dir)
    m = layers.build_metrics(tracer)
    m.update(layers.publish_metrics(tracer))
    m.update(layers.segment_metrics(idx))
    t, c = tracer.total_self("merge.find")
    m["merge.find_ms"] = t / c * 1e3 if c else 0.0
    tasks = [s for s in tracer.spans if s["name"] == "merge.task" and s.get("pid")]
    m["merge.task_s"] = (sum(s["end"] - s["start"] for s in tasks) / len(tasks)
                         if tasks else 0.0)
    m["merge.segments_merged"] = r.segments_merged
    m["merge.bytes_written"] = r.merged_bytes
    m["merge.write_amp"] = r.merged_bytes / max(1, r.ingest_bytes)
    d, dc = tracer.total_self("deletes.apply")
    m["deletes.apply_s"] = d / dc if dc else 0.0
    m["deletes.docs_deleted"] = r.docs_deleted
    m.update(layers.codec_metrics(idx, segio.read_manifest(idx)))
    m.update(layers.host_metrics(steal0))
    return m
