"""ops_documents: the dedup and term-statistics operators of `ops/`, reached
through `__ray_entry__.queries()`, over a seeded `documents` table with
planted near-duplicate pairs and exact copies.  No index is involved.

Set-up (timed as setup_s): the Ray session and one untimed warm-up call of
every operator.  The timed part repeats whole passes over the operator list;
the unit operation is one pass (every operator once).
"""

from __future__ import annotations

import os
import time

import pyarrow.parquet as pq

from rbench import common, inputs, layers

N_DOCS = 800
N_NEAR = 40
N_EXACT = 20
TOPTERMS = ["stopword_topterms_documents", "ascii_fold_topterms_documents",
            "char_ngram_topterms_documents", "minimal_stem_topterms_documents"]
OPS = ["minhash_lsh_neardup", "ngram_jaccard_neardup",
       "conv_near_dedup_documents", "dedup_exact_documents"] + TOPTERMS
RECALL_MIN = 0.9     # the pytest bound on planted pairs (jaccard >= 0.8)


def _call(fn, sf_dir: str):
    out = fn(sf_dir)
    return out.to_pandas() if hasattr(out, "to_pandas") else out


def _group(op: str) -> str:
    return "topterms" if op in TOPTERMS else op


def run(args, res: common.Result, t_start: float, tracer=None) -> dict:
    work = common.make_work_dir()
    trace_dir = os.path.join(work, "trace") if tracer else None
    try:
        g0 = time.perf_counter()
        table, near, exact = inputs.make_documents(args.seed, N_DOCS, N_NEAR, N_EXACT)
        sf_dir = os.path.join(work, "sf")
        os.makedirs(sf_dir)
        pq.write_table(table, os.path.join(sf_dir, "documents.parquet"))
        gen_s = time.perf_counter() - g0
        if trace_dir:
            os.makedirs(trace_dir)
        session = common.RaySession(work, trace_dir)
        try:
            import __ray_entry__

            queries = __ray_entry__.queries()
            first_call = {}
            outputs = {}
            m: dict = {}
            if tracer:
                from rbench.trace import capture_plans

                capture_plans(tracer)
            for op in OPS:
                lo = len(tracer.plans) if tracer else 0
                t = time.perf_counter()
                outputs[op] = _call(queries[op], sf_dir)
                first_call[op] = time.perf_counter() - t
                if tracer:
                    layers.add_op_metrics(m, tracer, _group(op), first_call[op],
                                          lo, len(tracer.plans))
            res.attempted += len(OPS)
            setup_s = time.perf_counter() - t_start - gen_s

            walls: dict[str, list[float]] = {op: [] for op in OPS}
            if tracer:
                base = _passes(queries, sf_dir, walls, args.seconds / 2, res, outputs)
                steal0 = common.cpu_times()
                t_lo = time.time()
                twalls: dict[str, list[float]] = {op: [] for op in OPS}
                traced = _passes(queries, sf_dir, twalls, args.seconds / 2, res,
                                 outputs, tracer)
                t_hi = time.time()
                tracer.restore()
                m.update(layers.host_metrics(steal0))
                m["trace.overhead_pct"] = 100.0 * (
                    traced / max(1, sum(len(v) for v in twalls.values()))
                    / (base / max(1, sum(len(v) for v in walls.values()))) - 1.0
                )
                m["trace.unattributed_s"] = (t_hi - t_lo) - tracer.covered(
                    {"ops.call"}, t_lo, t_hi
                )
                tracer.dump(os.path.join(work, "trace.json"))
                for k, v in m.items():
                    res.put(k, v, layers.UNITS[k])
                detail = {}
            else:
                _passes(queries, sf_dir, walls, args.seconds, res, outputs)
                n_pass = len(walls[OPS[0]])
                pass_s = [sum(walls[op][i] for op in OPS) for i in range(n_pass)]
                res.put("setup_s", setup_s, "s")
                res.put("op_p50_ms", common.median(pass_s) * 1e3, "ms")
                res.put("items_per_s", N_DOCS * len(OPS) * n_pass / sum(pass_s), "1/s")
                detail = {
                    "passes": n_pass,
                    "minhash_neardup_s": common.median(walls["minhash_lsh_neardup"]),
                    "ngram_neardup_s": common.median(walls["ngram_jaccard_neardup"]),
                    "conv_neardup_s": common.median(walls["conv_near_dedup_documents"]),
                    "dedup_exact_s": common.median(walls["dedup_exact_documents"]),
                    "topterms_s": common.median(
                        [sum(walls[op][i] for op in TOPTERMS) for i in range(n_pass)]
                    ),
                    "first_call_s": first_call,
                }
        finally:
            session.close()
        _verify(res, sf_dir, outputs, near, exact, table)
    finally:
        common.remove_work_dir(work, keep_trace=tracer is not None)
    return detail


def _passes(queries, sf_dir, walls, seconds, res, outputs, tracer=None) -> float:
    """Whole passes over OPS until `seconds` are used (at least one).  Each
    output must equal the warm-up call's.  Returns the summed call wall."""
    t_end = time.perf_counter() + seconds
    total = 0.0
    while True:
        for op in OPS:
            idx = tracer.start("ops.call", op=op) if tracer else None
            t = time.perf_counter()
            out = _call(queries[op], sf_dir)
            w = time.perf_counter() - t
            if tracer:
                tracer.end(idx)
            walls[op].append(w)
            total += w
            res.check(_same(out, outputs[op]), f"{op} changed between calls")
        res.attempted += len(OPS)
        if time.perf_counter() >= t_end:
            return total


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _same(a, b) -> bool:
    return list(a.columns) == list(b.columns) and _sorted(a).equals(_sorted(b))


def _verify(res, sf_dir: str, outputs: dict, near, exact, table) -> None:
    """Each op against its DuckDB oracle; MinHash pairs within the exact
    n-gram pairs; recall on the planted pairs; one doc per distinct text."""
    import duckdb
    import numpy as np
    import pandas as pd
    import __ray_entry__

    oracle = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    try:
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM read_parquet("
            f"'{os.path.join(sf_dir, 'documents.parquet')}')"
        )
        for op in OPS:
            want = con.execute(oracle[op]).df()
            got = outputs[op]
            ok = sorted(got.columns) == sorted(want.columns) and len(got) == len(want)
            if ok:
                g, w = _sorted(got), _sorted(want)
                for c in g.columns:
                    a, b = g[c].to_numpy(), w[c].to_numpy()
                    if a.dtype.kind == "f" or b.dtype.kind == "f":
                        ok &= bool(np.allclose(a.astype(float), b.astype(float),
                                               rtol=1e-5, atol=0))
                    else:
                        ok &= bool((pd.Series(a).astype(str).to_numpy()
                                    == pd.Series(b).astype(str).to_numpy()).all())
            res.check(ok, f"{op} differs from its oracle")
    finally:
        con.close()
    ngram = outputs["ngram_jaccard_neardup"]
    exact_pairs = set(zip(ngram["doc_a"], ngram["doc_b"]))
    mh = outputs["minhash_lsh_neardup"]
    mh_pairs = set(zip(mh["doc_a"], mh["doc_b"]))
    res.check(mh_pairs <= exact_pairs, "minhash pairs outside the exact pairs")
    hi = set(zip(ngram.loc[ngram["jaccard"] >= 0.8, "doc_a"],
                 ngram.loc[ngram["jaccard"] >= 0.8, "doc_b"]))
    planted = set(near) & hi
    res.check(len(planted) >= len(near) // 2, "planted pairs below jaccard 0.8")
    recall = len(mh_pairs & planted) / max(1, len(planted))
    res.check(recall >= RECALL_MIN, f"minhash recall {recall:.2f} on planted pairs")
    kept = outputs["dedup_exact_documents"]["doc_id"].to_numpy()
    texts = table["text"].to_pylist()
    res.check(len(kept) == len(set(texts))
              and len({texts[i] for i in kept}) == len(kept),
              "dedup_exact keeps other than one doc per distinct text")
    res.check(all(min(p) in set(kept) and max(p) not in set(kept) for p in exact),
              "dedup_exact kept the wrong copy of an exact pair")
