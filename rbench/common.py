"""Shared plumbing for the rindex benchmark: repo location, the per-run work
directory, the Ray session, process cleanup, order statistics, host probes
and the result line."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

# Logical CPUs the Ray session advertises, whatever the host has.  build_index
# reserves max(2, ...) writer actors for the whole pipeline, so a session with
# <= 2 CPUs never schedules the upstream stages; the Tier-1 suite runs at 4.
RAY_CPUS = 4
# Object store size: the largest dataset here is well under 100 MB.
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~63 to its temp
# dir.  Longer checkout paths fall back to Ray's default temp dir.
MAX_RAY_TMP_LEN = 44
WORK_ROOT = os.path.join(REPO_ROOT, ".rbw")


def ensure_repo_importable() -> None:
    """Put the repo root first on sys.path and fail loudly if the engine is
    not there (a checkout holding only the benchmark's own files)."""
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    if not os.path.isfile(os.path.join(REPO_ROOT, "rindex", "__init__.py")):
        raise SystemExit(
            f"rbench: no rindex/ package under {REPO_ROOT}; run from a full "
            "checkout of the repository"
        )


def make_work_dir() -> str:
    """A fresh directory for this run only, `<checkout>/.rbw/<pid>` (ignored
    by git; short, because Ray's sockets live under it)."""
    path = os.path.join(WORK_ROOT, str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str, keep_trace: bool = False) -> None:
    """Remove the run's work directory; a traced run keeps its trace.json."""
    if keep_trace and os.path.isfile(os.path.join(path, "trace.json")):
        for name in os.listdir(path):
            if name != "trace.json":
                p = os.path.join(path, name)
                if os.path.isdir(p):
                    shutil.rmtree(p, ignore_errors=True)
                else:
                    os.remove(p)
        return
    shutil.rmtree(path, ignore_errors=True)
    base = os.path.dirname(path)
    try:
        os.rmdir(base)  # only when no other run is using it
    except OSError:
        pass


# ---------------------------------------------------------------- processes

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> set[int]:
    """Every live process below `pid` (default: this process)."""
    kids = _children_map()
    out: set[int] = set()
    todo = [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def reap(pids: set[int], timeout_s: float = 20.0) -> None:
    """Wait for `pids` to end; SIGKILL whatever is left after the timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        pids = {p for p in pids if _alive(p)}
        if not pids:
            break
        time.sleep(0.05)
    if pids:
        print(f"rbench: killing {len(pids)} process(es) still alive "
              f"{timeout_s:g} s after shutdown", file=sys.stderr)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # collect our own zombies
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break


# ---------------------------------------------------------------- Ray session

class RaySession:
    """A local Ray session with a fixed logical CPU count, workers that can
    import both the engine and the benchmark, and (traced runs) the
    benchmark's worker set-up hook.  `close()` shuts Ray down and waits for
    every process the session started."""

    def __init__(self, work: str, trace_dir: str | None = None):
        import ray

        env = {
            "PYTHONPATH": os.pathsep.join(
                p for p in (REPO_ROOT, os.environ.get("PYTHONPATH")) if p
            ),
            "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
        }
        runtime_env: dict = {"env_vars": env}
        if trace_dir:
            env["RBENCH_TRACE_DIR"] = trace_dir
            runtime_env["worker_process_setup_hook"] = (
                "rbench.trace.worker_setup"
            )
        kwargs = {}
        tmp = os.path.join(work, "r")
        if len(tmp) <= MAX_RAY_TMP_LEN:
            kwargs["_temp_dir"] = tmp
        else:
            print(f"rbench: {tmp} is too long for Ray's sockets; Ray keeps "
                  "its session files in its default temp dir", file=sys.stderr)
        self._ray = ray
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            runtime_env=runtime_env,
            **kwargs,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        import logging

        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def close(self) -> None:
        if not self._ray.is_initialized():
            return
        started = descendants()
        self._ray.shutdown()
        reap(started | descendants())


# ---------------------------------------------------------------- statistics

def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    i = min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))
    return float(s[i])


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90 that leaves at least ten samples beyond it;
    None below forty samples (a tail that thin is no tail)."""
    if n < 40:
        return None
    for q in (99.9, 99.0, 90.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 75.0


# ---------------------------------------------------------------- host

def host_probe_ms(reps: int = 5) -> float:
    """Median wall of a fixed pure-Python + numpy CPU task: a drift gauge
    for the host, recorded next to the per-layer numbers."""
    import numpy as np

    a = np.arange(200_000, dtype=np.float64)
    walls = []
    for _ in range(reps):
        t = time.perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        walls.append(time.perf_counter() - t)
    return median(walls) * 1e3


def cpu_times() -> tuple[int, int]:
    """(total jiffies, steal jiffies) from /proc/stat."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:]]
    return sum(f[:8]), (f[7] if len(f) > 7 else 0)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    dt = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / dt if dt > 0 else 0.0


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def dir_bytes(path: str) -> int:
    tot = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            try:
                tot += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return tot


# ---------------------------------------------------------------- output

class Result:
    """Operation counts, correctness, metrics, and the final result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": not self.errors,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    k: {"value": v, "unit": u}
                    for k, (v, u) in self.metrics.items()
                },
            }
        )
