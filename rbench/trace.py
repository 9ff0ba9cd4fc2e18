"""Spans and counters recorded from outside the engine.

A span has a name, start, end and parent; counts taken at the same
boundaries (rows in and out, cache hits) are attributes of the span.  The main process keeps its spans in memory (`Tracer`) and writes them
out when the run ends.  Build, merge and delete stages run inside Ray
workers: `worker_setup` is the Ray session's `worker_process_setup_hook` and
installs the same wrappers there; while the flag file `$RBENCH_TRACE_DIR/on`
exists (`worker_tracing`), each worker appends its spans to
`$RBENCH_TRACE_DIR/spans-<pid>.jsonl` as they close (a worker can be killed
at shutdown without running exit hooks), and the main process collects the
files at the end, giving each worker span the innermost main-process span
that covers it as parent.  Wrappers only time calls into the engine's functions; no
engine file is changed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time


class Tracer:
    """Main-process span recorder with wrapper install / uninstall."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.plans: list = []  # Ray Data plans executed while recording
        self._self: list[float] | None = None  # self_times() cache

    # ---- recording
    def start(self, name: str, **attrs) -> int:
        self.spans.append({
            "name": name, "start": time.time(), "end": None,
            "parent": self._stack[-1] if self._stack else None, **attrs,
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.time()
        self._stack.remove(idx)

    def span(self, name: str, **attrs):
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer.start(name, **attrs)
                return tracer.spans[self.idx]

            def __exit__(self, *exc):
                tracer.end(self.idx)
                return False

        return _Span()

    # ---- patching
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Record a span around every call of owner.attr.  `before(*args)`
        may return extra span attributes, computed before the call."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            idx = tracer.start(name, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---- analysis
    def closed(self, prefix: str = "") -> list[dict]:
        return [
            s for s in self.spans
            if s["end"] is not None and s["name"].startswith(prefix)
        ]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for c in self.spans:
            if c.get("parent") is not None and c["end"] is not None:
                kids.setdefault(c["parent"], []).append((c["start"], c["end"]))
        out = []
        for i, s in enumerate(self.spans):
            if s["end"] is None:
                out.append(0.0)
                continue
            ivs = sorted(kids.get(i, ()))
            out.append((s["end"] - s["start"]) - _covered(ivs, s["start"], s["end"]))
        return out

    def total_self(self, name: str) -> tuple[float, int]:
        """(summed self time, call count) of every span named `name`."""
        if self._self is None or len(self._self) != len(self.spans):
            self._self = self.self_times()
        idx = [i for i, s in enumerate(self.spans)
               if s["name"] == name and s["end"] is not None]
        return sum(self._self[i] for i in idx), len(idx)

    def covered(self, names: set[str], lo: float, hi: float) -> float:
        ivs = sorted(
            (s["start"], s["end"]) for s in self.spans
            if s["name"] in names and s["end"] is not None
        )
        return _covered(ivs, lo, hi)

    def collect_workers(self, trace_dir: str) -> list[dict]:
        """Read every worker span file; parent = innermost covering
        main-process span.  Spans no main-process span covers were not
        recorded by this tracer and are dropped.  Returns the kept worker
        spans (also appended to self.spans)."""
        out = []
        if not os.path.isdir(trace_dir):
            return out
        for f in sorted(os.listdir(trace_dir)):
            if f.startswith("spans-"):
                with open(os.path.join(trace_dir, f)) as fh:
                    out.extend(json.loads(line) for line in fh if line.strip())
        local = [(i, s) for i, s in enumerate(self.spans) if s["end"] is not None]
        for w in out:
            best = None
            for i, s in local:
                if s["start"] <= w["start"] and w["end"] <= s["end"]:
                    if best is None or s["start"] >= self.spans[best]["start"]:
                        best = i
            w["parent"] = best
        out = [w for w in out if w["parent"] is not None]
        self.spans.extend(out)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _covered(ivs, lo: float, hi: float) -> float:
    """Length of the union of sorted intervals, clipped to [lo, hi]."""
    tot, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                tot += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        tot += cur_e - cur_s
    return tot


# ------------------------------------------------------------ Ray workers

def worker_tracing(trace_dir: str, on: bool) -> None:
    """Switch span recording in the Ray workers on or off.  The set-up hook
    holds for the whole session; the flag file confines the worker spans to
    the traced phase."""
    flag = os.path.join(trace_dir, "on")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


class _WorkerLog:
    def __init__(self, trace_dir: str):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self.flag = os.path.join(trace_dir, "on")

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        if not os.path.exists(self.flag):
            return
        rec = {"name": name, "start": start, "end": end, "pid": os.getpid(),
               **attrs}
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")


_WORKER_LOG: _WorkerLog | None = None  # set by worker_setup in Ray workers


def _worker_log() -> _WorkerLog | None:
    """This process's span log.  Wrappers pickled by value call this
    (pickled by reference) so that they read the worker's own global, not a
    copy of the main process's."""
    return _WORKER_LOG


def _nrows(x) -> int:
    n = getattr(x, "num_rows", None)
    if n is None:
        try:
            n = len(x)
        except TypeError:
            n = 0
    return int(n)


def stage_wrapper(name: str, fn):
    """`fn` with a worker-side span; rows in and out are kept as attributes.
    Pickled by value into the workers, where the hook set the log up."""

    def wrapped(*args, **kwargs):
        t0 = time.time()
        out = fn(*args, **kwargs)
        log = _worker_log()
        if log is not None:
            log.record(name, t0, time.time(),
                       rows_in=_nrows(args[-1]) if args else 0,
                       rows_out=_nrows(out))
        return out

    # only the name: Ray labels the operator with it.  A copied __qualname__
    # and __module__ would make cloudpickle ship the wrapper by reference,
    # i.e. as the unwrapped engine function.
    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__rbench_stage__ = name
    return wrapped


def _factory_wrapper(name: str, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return stage_wrapper(name, factory(*args, **kwargs))

    return make


# stage name -> (module, attribute, wraps a factory?)
BUILD_STAGES = [
    ("build.read", "rindex.build", "_make_assign_seg", True),
    ("build.assign_docids", "rindex.build", "_make_assign_docids", True),
    ("build.tokenize", "rindex.build", "_make_tokenize_partials_vec", True),
    ("build.tokenize", "rindex.build", "_make_tokenize_partials", True),
    ("build.merge_encode", "rindex.build", "_merge_bucket", False),
]
WORKER_METHODS = [
    ("build.write", "rindex.build", "EncodedSegmentWriter", "__call__"),
    ("build.write", "rindex.build", "SegmentWriter", "__call__"),
    ("merge.task", "rindex.merge", "merge_segments", None),
    ("deletes.segment", "rindex.deletes", "_segment_delete", None),
]


def install_stage_factories(tracer: Tracer) -> None:
    """Wrap the build's stage factories in the main process, so the closures they
    return (pickled by value) carry a worker span into every task."""
    import importlib

    for name, mod, attr, is_factory in BUILD_STAGES:
        m = importlib.import_module(mod)
        fn = m.__dict__[attr]
        tracer.patch(m, attr, (_factory_wrapper if is_factory else stage_wrapper)(name, fn))


def _install_worker_methods() -> None:
    import importlib

    for name, mod, attr, meth in WORKER_METHODS:
        m = importlib.import_module(mod)
        if meth is None:
            fn = m.__dict__[attr]
            if not hasattr(fn, "__rbench_stage__"):
                setattr(m, attr, stage_wrapper(name, fn))
        else:
            cls = m.__dict__[attr]
            fn = cls.__dict__[meth]
            if not hasattr(fn, "__rbench_stage__"):
                setattr(cls, meth, stage_wrapper(name, fn))


def worker_setup() -> None:
    """Ray `worker_process_setup_hook`: open this worker's span log and wrap
    the stage functions and classes the main process ships by reference."""
    global _WORKER_LOG
    trace_dir = os.environ.get("RBENCH_TRACE_DIR")
    if not trace_dir:
        return
    _WORKER_LOG = _WorkerLog(trace_dir)
    _install_worker_methods()


# ------------------------------------------------------------ Ray Data stats

def capture_plans(tracer: Tracer) -> None:
    """Keep every Ray Data plan the main process executes, for its stats."""
    from ray.data._internal.plan import ExecutionPlan

    for attr in ("execute", "execute_to_iterator"):
        fn = ExecutionPlan.__dict__[attr]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(plan, *args, **kwargs):
                tracer.plans.append(plan)
                return fn(plan, *args, **kwargs)
            return wrapper

        tracer.patch(ExecutionPlan, attr, make(fn))


_SHUFFLE = re.compile(
    r"^(Sort|Shuffle|Aggregate|Repartition|RandomShuffle|HashShuffle)"
    r"(Map|Reduce|Sample)$"
)


def plan_stats(plans) -> dict[str, dict]:
    """Operator name -> {wall_s, rows, bytes, blocks, ops}, each (dataset,
    operator) counted once across the plans' lineages."""
    out: dict[str, dict] = {}
    seen: set = set()

    def walk(st):
        for name, blocks in st.metadata.items():
            key = (st.dataset_uuid, st.number, name)
            if key in seen:
                continue
            seen.add(key)
            agg = out.setdefault(name, {"wall_s": 0.0, "rows": 0, "bytes": 0,
                                        "blocks": 0, "ops": 0})
            agg["ops"] += 1
            for b in blocks:
                es = b.exec_stats
                agg["wall_s"] += float(es.wall_time_s or 0.0) if es else 0.0
                agg["rows"] += int(b.num_rows or 0)
                agg["bytes"] += int(b.size_bytes or 0)
                agg["blocks"] += 1
        for p in st.parents:
            walk(p)

    for plan in plans:
        try:
            st = plan.stats()
        except Exception:  # a plan that never ran has no stats to give
            continue
        walk(st)
    return out


def shuffle_summary(stats: dict[str, dict]) -> tuple[int, int, int, float]:
    """(all-to-all operators, rows shuffled, bytes shuffled, shuffle wall):
    operators are counted by their reduce stages, rows and bytes at their
    map stages."""
    parts = {k: (_SHUFFLE.match(k), v) for k, v in stats.items()}
    parts = {k: (m.group(2), v) for k, (m, v) in parts.items() if m}
    n_ops = sum(v["ops"] for k, (kind, v) in parts.items() if kind == "Reduce")
    rows = sum(v["rows"] for k, (kind, v) in parts.items() if kind == "Map")
    nbytes = sum(v["bytes"] for k, (kind, v) in parts.items() if kind == "Map")
    wall = sum(v["wall_s"] for v in (v for _k, (_kind, v) in parts.items()))
    return n_ops, rows, nbytes, wall
