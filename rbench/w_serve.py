"""serve_bm25: one in-process client sends BM25 queries in a closed loop to a
warm IndexSearcher over a positional index, with the Ray session shut down.

Set-up (timed as setup_s): the Ray session, `build_index(num_segments="auto",
with_positions=True)`, Ray shut down, the searcher opened and warmed by one
pass over the whole query pool.  Input generation is excluded.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pyarrow.parquet as pq

from rbench import common, inputs, layers
from rbench.oracle import NaiveBM25, check_phrase_topk, check_topk
from rbench.trace import worker_tracing

N_CONVS = 6000       # ~27k turns, 16 segments at num_segments="auto"
N_FILES = 8
N_PHRASES = 60       # a tenth of the closed loop's items are phrases


def _pass_order(n_q: int, n_p: int):
    """One pass: every pool item once, ('q', i) or ('p', i), in a fixed
    shuffled order."""
    items = [("q", i) for i in range(n_q)] + [("p", i) for i in range(n_p)]
    order = np.random.Generator(np.random.PCG64([0, 5])).permutation(len(items))
    return [items[i] for i in order]


class Client:
    """The query client: parses and runs one pool item, recording latency."""

    def __init__(self, searcher, queries, phrases):
        from rindex.search import parse_query

        self.searcher = searcher
        self.queries = queries
        self.phrases = phrases
        self.parse = parse_query
        self.first: dict = {}  # first result per pool item
        self.changed: set = set()  # items whose result differed later

    def run(self, item):
        kind, i = item
        if kind == "q":
            qtype, text, k = self.queries[i]
            return self.searcher.search_query(self.parse(text, qtype, k))
        text, k = self.phrases[i]
        return self.searcher.search_phrase_topk(text, k)

    def loop(self, order, seconds: float, tracer=None):
        """Closed loop of whole passes over `order` until `seconds` are used
        (at least one pass).  Returns (latencies of queries, latencies of
        phrases, wall)."""
        lat_q, lat_p = [], []
        t_end = time.perf_counter() + seconds
        t0 = time.perf_counter()
        for j in itertools.count():
            if j % len(order) == 0 and j and time.perf_counter() >= t_end:
                break
            item = order[j % len(order)]
            name = "search.query" if item[0] == "q" else "search.phrase"
            idx = tracer.start(name) if tracer else None
            a = time.perf_counter()
            out = self.run(item)
            lat = time.perf_counter() - a
            if tracer:
                tracer.end(idx)
            (lat_q if item[0] == "q" else lat_p).append(lat)
            if self.first.setdefault(item, out) != out:
                self.changed.add(item)
        return lat_q, lat_p, time.perf_counter() - t0


def run(args, res: common.Result, t_start: float, tracer=None) -> dict:
    import rindex.build
    from rindex.search import IndexSearcher

    work = common.make_work_dir()
    trace_dir = os.path.join(work, "trace") if tracer else None
    detail = {}
    try:
        g0 = time.perf_counter()
        corpus = inputs.transcripts(args.seed, N_CONVS)
        cdir = os.path.join(work, "corpus")
        os.makedirs(cdir)
        per = -(-corpus.num_rows // N_FILES)
        for f in range(N_FILES):
            pq.write_table(corpus.slice(f * per, per),
                           os.path.join(cdir, f"part-{f:03d}.parquet"))
        texts = corpus["text"].to_pylist()
        queries, phrases = inputs.make_query_pool(args.seed, texts, N_PHRASES)
        sample_texts = texts[:3000]
        # the loop runs with no corpus-sized Python object alive in the
        # harness: the checks re-read the corpus afterwards
        del texts
        gen_s = time.perf_counter() - g0

        if trace_dir:
            os.makedirs(trace_dir)
        session = common.RaySession(work, trace_dir)
        try:
            if tracer:
                layers.install_build(tracer)
                worker_tracing(trace_dir, True)
            idx_dir = os.path.join(work, "index")
            b0 = time.perf_counter()
            manifest = rindex.build.build_index(  # looked up late: traced runs wrap it
                cdir, idx_dir, num_segments="auto", with_positions=True
            )
            build_s = time.perf_counter() - b0
        finally:
            session.close()
        if tracer:
            tracer.collect_workers(trace_dir)
        res.attempted += 1

        rss0 = common.rss_mb()
        o0 = time.perf_counter()
        searcher = IndexSearcher(idx_dir).warm()
        open_s = time.perf_counter() - o0
        client = Client(searcher, queries, phrases)
        warm_items = [("q", i) for i in range(len(queries))] + [
            ("p", i) for i in range(len(phrases))
        ]
        for item in warm_items:
            client.run(item)
        res.attempted += len(warm_items)
        setup_s = time.perf_counter() - t_start - gen_s
        mem_mb = common.rss_mb() - rss0

        schedule = _pass_order(len(queries), len(phrases))
        if tracer:
            half = args.seconds / 2.0
            lat_q, lat_p, wall = client.loop(schedule, half)
            base_mean = (sum(lat_q) + sum(lat_p)) / max(1, len(lat_q) + len(lat_p))
            layers.install_search(tracer)
            steal0 = common.cpu_times()
            tq, tp, _wall = client.loop(schedule, half, tracer)
            tracer.restore()
            traced_mean = (sum(tq) + sum(tp)) / max(1, len(tq) + len(tp))
            res.attempted += len(lat_q) + len(lat_p) + len(tq) + len(tp)
            m = layers.search_metrics(tracer, len(tq), len(tp))
            m["search.open_ms"] = open_s * 1e3
            m.update(layers.codec_metrics(idx_dir, manifest))
            m.update(layers.analysis_metrics([q[1] for q in queries], sample_texts))
            m.update(layers.build_metrics(tracer))
            m.update(layers.publish_metrics(tracer))
            m.update(layers.segment_metrics(idx_dir))
            m.update(layers.host_metrics(steal0))
            m["trace.overhead_pct"] = 100.0 * (traced_mean / base_mean - 1.0)
            # time inside the timed queries that no layer span covers
            m["trace.unattributed_s"] = (tracer.total_self("search.query")[0]
                                         + tracer.total_self("search.phrase")[0])
            tracer.dump(os.path.join(work, "trace.json"))
            for k, v in m.items():
                res.put(k, v, layers.UNITS[k])
        else:
            lat_q, lat_p, wall = client.loop(schedule, args.seconds)
            res.attempted += len(lat_q) + len(lat_p)
            n = len(lat_q) + len(lat_p)
            res.put("setup_s", setup_s, "s")
            res.put("op_p50_ms", common.median(lat_q) * 1e3, "ms")
            res.put("items_per_s", n / wall, "1/s")
            detail = {
                "build_s": build_s,
                "query_p50_ms": common.median(lat_q) * 1e3,
                "query_samples": len(lat_q),
                "queries_per_s": n / wall,
                "phrase_p50_ms": common.median(lat_p) * 1e3,
                "phrase_samples": len(lat_p),
                "searcher_mem_mb": mem_mb,
                "host_probe_ms": common.host_probe_ms(),
            }
            tail = common.tail_percentile(len(lat_q))
            if tail is not None:
                detail[f"query_p{tail:g}_ms"] = common.percentile(lat_q, tail) * 1e3

        _verify(res, client, idx_dir, corpus, manifest, queries, phrases)
    finally:
        common.remove_work_dir(work, keep_trace=tracer is not None)
    return detail


def _verify(res, client, idx_dir, corpus, manifest, queries, phrases):
    """Every distinct query seen against the naive BM25; phrases against the
    token scan; WAND against exhaustive over the whole pool."""
    from rindex.analysis import get_analyzer
    from rindex.search import parse_query

    for item in client.changed:
        res.check(False, f"pool item {item} changed results between calls")
    analyzer = get_analyzer("standard")
    ids = list(zip(corpus["conv_id"].to_pylist(), corpus["turn_idx"].to_pylist()))
    toks = [analyzer.tokens(t) for t in corpus["text"].to_pylist()]
    ref = NaiveBM25(ids, toks)
    res.check(int(manifest["totals"]["doc_count"]) == ref.n_docs, "doc_count")
    res.check(int(manifest["totals"]["sum_dl"]) == ref.sum_dl, "sum_dl")
    seen: dict = {}  # pool entry -> first result; the pool repeats queries
    for (kind, i), got in client.first.items():
        key = (kind, queries[i] if kind == "q" else phrases[i])
        if key in seen:
            res.check(got == seen[key], f"{kind}{i} differs from its repeat")
            continue
        seen[key] = got
        if kind == "q":
            qtype, text, k = queries[i]
            mode = "and" if qtype == "and" else "or"
            err = check_topk(got, ref.scores(analyzer.tokens(text), mode), k)
        else:
            text, k = phrases[i]
            err = check_phrase_topk(got, ref.phrase_scores(analyzer.tokens(text)), k)
        res.check(err is None, f"{kind}{i} {err}")
    s = client.searcher
    for qtype, text, k in dict.fromkeys(queries):
        q = parse_query(text, qtype, k)
        res.check(
            s.search_query(q, algo="wand") == s.search_query(q, algo="exhaustive"),
            f"wand != exhaustive on {text!r}",
        )
