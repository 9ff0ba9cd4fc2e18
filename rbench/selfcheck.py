#!/usr/bin/env python3
"""Self-check of the benchmark's own oracles (seconds, no Ray, no engine):

    python3 rbench/selfcheck.py

* the naive BM25 against scores worked out by hand on a 3-doc corpus;
* the re-derived SmallFloat norm against Lucene's intToByte4 values;
* the phrase-frequency scan on a hand-made case;
* the top-k comparison's tie and error handling;
* BENCHMARK.json's per-layer list against the metrics the traced run prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rbench import oracle  # noqa: E402


def need(cond, what=None) -> None:
    """A check that stays on under `python -O`."""
    if not cond:
        raise AssertionError(what)


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_bm25() -> None:
    # d0 = "a b" (dl 2), d1 = "a a c" (dl 3), d2 = "b c d e" (dl 4)
    # N = 3, avgdl = 3; df(a) = df(b) = 2 -> idf = ln(1 + 1.5 / 2.5) = ln 1.6
    ref = oracle.NaiveBM25(
        [("d", 0), ("d", 1), ("d", 2)],
        [["a", "b"], ["a", "a", "c"], ["b", "c", "d", "e"]],
    )
    idf = math.log(1.6)
    # d0: tf 1, norm 1.2 * (0.25 + 0.75 * 2/3) = 0.9  -> idf / 1.9
    # d1: tf 2, norm 1.2 * (0.25 + 0.75 * 3/3) = 1.2  -> idf * 2 / 3.2
    got = ref.scores(["a"], "or")
    need(set(got) == {("d", 0), ("d", 1)}, got)
    need(_eq(got[("d", 0)], idf / 1.9), got)
    need(_eq(got[("d", 1)], idf * 2 / 3.2), got)
    # AND a b: d0 only, both terms tf 1 -> 2 * idf / 1.9
    got = ref.scores(["a", "b"], "and")
    need(list(got) == [("d", 0)] and _eq(got[("d", 0)], 2 * idf / 1.9), got)
    # a duplicated term counts twice; an absent term empties AND, not OR
    need(_eq(ref.scores(["a", "a"], "or")[("d", 0)], 2 * idf / 1.9))
    need(ref.scores(["a", "zz"], "and") == {})
    need(set(ref.scores(["a", "zz"], "or")) == {("d", 0), ("d", 1)})
    # e: df 1 -> idf = ln(1 + 2.5 / 1.5); d2 tf 1, norm 1.2 * (0.25 + 1) = 1.5
    got = ref.scores(["e"], "or")
    need(_eq(got[("d", 2)], math.log(1 + 2.5 / 1.5) / 2.5), got)
    need(ref.sum_dl == 9 and ref.n_docs == 3)


def check_smallfloat() -> None:
    # SmallFloat.intToByte4: exact below 24, then a 4-bit float of (n - 24)
    known = {0: 0, 1: 1, 23: 23, 24: 24, 31: 31, 32: 32, 39: 39, 40: 40,
             41: 40, 47: 43, 48: 44, 100: 57, 1000: 87, 2**31 - 1: 255}
    for n, b in known.items():
        need(oracle.int_to_byte4(n) == b, (n, oracle.int_to_byte4(n), b))
    decoded = {40: 40, 43: 46, 44: 48, 57: 96, 87: 984, 255: 2013265944}
    for b, n in decoded.items():
        need(oracle.byte4_to_int(b) == n, (b, oracle.byte4_to_int(b), n))
    for b in range(256):
        need(oracle.int_to_byte4(oracle.byte4_to_int(b)) == b, b)
    need(list(oracle.lossy_lengths([2, 41, 100])) == [2, 40, 96])
    # a long doc scores with its decoded length, not its true one
    ref = oracle.NaiveBM25([("x", 0), ("x", 1)], [["t"] * 41, ["u"]])
    need(ref.dl_lossy[0] == 40.0 and ref.sum_dl == 42)


def check_phrase() -> None:
    ref = oracle.NaiveBM25(
        [("p", 0), ("p", 1), ("p", 2)],
        [["a", "b", "a", "b", "a"], ["b", "a"], ["a", "c", "b"]],
    )
    got = ref.phrase_scores(["a", "b"])
    need({k: f for k, (f, _s) in got.items()} == {("p", 0): 2}, got)
    got = ref.phrase_scores(["b", "a"])
    need({k: f for k, (f, _s) in got.items()} == {("p", 0): 2, ("p", 1): 1}, got)
    # overlapping runs count: "a b a" occurs once in a b a b a ... twice
    got = ref.phrase_scores(["a", "b", "a"])
    need(got[("p", 0)][0] == 2, got)
    # phrase pseudo-term: df 2 of N 3 -> ln 1.6; d1 tf 1, dl 2, avgdl 10/3
    norm = 1.2 * (0.25 + 0.75 * 2 / (10 / 3))
    need(_eq(ref.phrase_scores(["b", "a"])[("p", 1)][1], math.log(1.6) / (1 + norm)))
    need(ref.phrase_scores(["c", "a"]) == {})


def check_compare() -> None:
    want = {("a", 0): 2.0, ("b", 0): 1.0, ("c", 0): 1.0, ("d", 0): 0.5}
    need(oracle.check_topk([(0, "a", 0, 2.0), (1, "c", 0, 1.0)], want, 2) is None)
    need(oracle.check_topk([(0, "a", 0, 2.0), (1, "b", 0, 1.0)], want, 2) is None)
    need(oracle.check_topk([(0, "a", 0, 2.0), (1, "d", 0, 0.5)], want, 2))
    need(oracle.check_topk([(0, "a", 0, 2.0), (1, "a", 0, 2.0)], want, 2))
    need(oracle.check_topk([(0, "a", 0, 2.0 + 1e-6)], want, 1))
    need(oracle.check_topk([(0, "a", 0, 2.0)], want, 2))
    need(oracle.check_topk([], {}, 10) is None)


def check_benchmark_json() -> None:
    from rbench.layers import UNITS

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    need(listed == UNITS, set(listed) ^ set(UNITS))


def main() -> int:
    checks = [check_bm25, check_smallfloat, check_phrase, check_compare,
              check_benchmark_json]
    for c in checks:
        try:
            c()
        except AssertionError as e:
            print(f"FAIL {c.__name__}: {e}")
            return 1
        print(f"ok   {c.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
