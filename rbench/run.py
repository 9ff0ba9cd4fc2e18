#!/usr/bin/env python3
"""rindex benchmark: one workload, one seed, one result line.

    python3 rbench/run.py --workload serve_bm25 --seed 1 --seconds 15 --trace 0

Workloads: serve_bm25, ingest_merge, ops_documents (see rbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  The line before it
(`detail {...}`) carries the workload's own figures.  Runs from any working
directory; everything it writes goes under <repo>/.rbw/<pid>/ and is
removed at the end.
"""

from __future__ import annotations

import os
import time


def _process_start() -> float:
    """perf_counter() value at which this process started (/proc clock
    ticks), so set-up time includes interpreter start and imports."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
        return time.perf_counter() - max(0.0, age)
    except (OSError, ValueError, IndexError):
        return time.perf_counter()


T_START = _process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORKLOADS = ("serve_bm25", "ingest_merge", "ops_documents")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    from rbench import common

    common.ensure_repo_importable()
    from rbench import layers
    from rbench.trace import Tracer

    if args.workload == "serve_bm25":
        from rbench import w_serve as mod
    elif args.workload == "ingest_merge":
        from rbench import w_ingest as mod
    else:
        from rbench import w_ops as mod

    res = common.Result()
    tracer = Tracer() if args.trace else None
    try:
        detail = mod.run(args, res, T_START, tracer)
    except Exception:
        traceback.print_exc()
        return 1
    if tracer:
        for name, unit in layers.UNITS.items():
            res.metrics.setdefault(name, (0.0, unit))
    for e in res.errors[:20]:
        print(f"rbench: check failed: {e}", file=sys.stderr)
    if detail:
        print("detail " + json.dumps(detail), flush=True)
    print(res.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
