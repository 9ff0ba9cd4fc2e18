#!/usr/bin/env python3
"""Steadiness check: run each workload of BENCHMARK.json N times for its
run_seconds, alternating workloads, run i with seed i, and print per-metric
medians, quartiles and the quartile spread as a share of the median, next to
the bound in BENCHMARK.json.

    python3 rbench/steady.py --runs 10

The `detail` figures each workload prints are summarised the same way (no
bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    t = time.perf_counter()
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail, wall


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    vals = {w: {} for w in names}
    dets = {w: {} for w in names}
    fails = {w: [] for w in names}
    walls = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            res, det, wall = _run(w, i + 1, seconds)
            walls[w].append(wall)
            if not res["correct"]:
                print(f"{w} seed {i + 1}: correct=false", flush=True)
            fails[w].append((res["failed"], res["attempted"]))
            for k, v in res["metrics"].items():
                vals[w].setdefault(k, []).append(v["value"])
            for k, v in det.items():
                if isinstance(v, (int, float)):
                    dets[w].setdefault(k, []).append(float(v))
            figures = " ".join(f"{k}={v['value']:.4g}"
                               for k, v in res["metrics"].items())
            print(f"run {i + 1}/{args.runs} {w} seed {i + 1} "
                  f"{wall:.1f}s {figures}", file=sys.stderr, flush=True)
    print(f"runs={args.runs} seconds={seconds} seeds=1..{args.runs}")
    for w in names:
        shares = {f / a for f, a in fails[w]}
        print(f"\n{w}  (run wall median {statistics.median(walls[w]):.1f}s, "
              f"failed/attempted {sorted(shares)})")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for k, xs in vals[w].items():
            med, q1, q3, sp = _spread(xs)
            b = bounds.get(k)
            flag = "" if b is None or k == "setup_s" or sp <= b / 3 else "  <-- above bound/3"
            print(f"  {k:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f} "
                  f"{b if b is not None else '':>6}{flag}")
        for k, xs in dets[w].items():
            if len(xs) >= 2:
                med, q1, q3, sp = _spread(xs)
                print(f"  detail.{k:21s} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
