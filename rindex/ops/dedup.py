"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash,
embedding-cosine — the large-scale training-data-pipeline ops (prompt
requirement; reference anchors: SignatureUpdateProcessorFactory exact-dup +
TextProfileSignature fuzzy-dup, SURVEY.md §2.7).

Scale shapes:
  * exact        — content-hash column -> groupby(hash) -> first per group.
  * shingle pass — ONE map per op (`_shingle_pass`) turns each doc into
                   its sorted distinct shingle list; both near-dup ops below
                   (and the conversation-level op in transcripts.py) start
                   from it, and a doc's size is its list length.
  * ngram-jaccard— shingle lists exploded by a map -> groupby(shingle)
                   bucket -> pair counts -> exact-verify.  Full recall for
                   tau > 0 (any overlapping pair shares >= 1 shingle), so
                   the DuckDB brute-force oracle matches exactly.  At 10^12
                   scale the shingle buckets are hot-key-capped and MinHash
                   takes over.
  * minhash-lsh  — 128 perms x (16 bands x 8 rows) band keys from the same
                   pass -> band-bucket groupby (the op's ONE shuffle) ->
                   candidates -> exact-verify by sorted-list intersection of
                   each candidate pair's two shingle lists (deterministic
                   given the seeded permutations, so the SQL oracle
                   re-derives the whole pipeline from inlined literals;
                   recall additionally asserted vs the exact op in pytest).
  * simhash      — 64-bit simhash, 4x16-bit band blocking (EXACT for
                   hamming <= 3 by pigeonhole) -> verify hamming.
  * embedding    — cosine over normalized vectors, blocked matmul.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rindex.schema import pool_cap
from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}

_TOKEN_RE = re.compile(r"[0-9a-z]+")
NGRAM = 3
JACCARD_TAU = 0.5
COSINE_TAU = 0.45


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall((text or "").lower())


def _stable_hash64(data: bytes) -> int:
    """Process-stable 63-bit hash (python's hash() is seed-randomized across
    Ray workers and would break bucket joins)."""
    return int.from_bytes(hashlib.md5(data).digest()[:8], "little") >> 1


_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_MAX = 1_000_000  # bound worker RSS on high-cardinality text
_MASK63 = (1 << 63) - 1


def _token_hashes(toks: list[str]) -> np.ndarray:
    """Stable 63-bit hash per token, memoized — Zipf text means the cache
    hit rate is ~1, so md5 runs once per DISTINCT token per worker."""
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(toks), dtype=np.int64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            if len(cache) >= _TOKEN_HASH_CACHE_MAX:
                cache.clear()
            h = cache[t] = _stable_hash64(t.encode())
        out[i] = h
    return out


def _shingles(text: str) -> np.ndarray:
    """Distinct 3-gram shingle hashes: vectorized polynomial combine of the
    cached per-token hashes (replaces one md5 PER SHINGLE — the previous
    hot spot of every shingle-based dedup op)."""
    th = _token_hashes(_tokens(text))
    if len(th) < NGRAM:
        return np.empty(0, dtype=np.int64)
    h = (th[:-2] * 0x9E3779B1 + th[1:-1] * 0x85EBCA77 + th[2:]) & _MASK63
    return np.unique(h)


# ---------------------------------------------------------------------------

def q_dedup_exact_documents(sf_dir: str):
    """Exact dedup: md5(text) -> keep min doc_id per hash.  The shuffle key
    is a COARSE bucket of the content hash, and each reduce task keeps the
    min doc per exact-hash run vectorized — one pandas group per distinct
    md5 would pay ~1ms scheduling per (mostly singleton) group, the
    tiny-group antipattern _pairs_from_buckets documents."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = [
            hashlib.md5((x or "").encode()).hexdigest()
            for x in t["text"].to_pylist()
        ]
        cb = np.fromiter(
            (int(x[:4], 16) % 509 for x in h), dtype=np.int32, count=len(h)
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "h": pa.array(h),
                "_cb": pa.array(cb),
            }
        )

    def first_per_hash(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["h", "doc_id"], kind="mergesort")
        k = df["h"].to_numpy()
        d = df["doc_id"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        return pd.DataFrame({"doc_id": d[starts]})

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(first_per_hash, batch_format="pandas")
    )


QUERIES["dedup_exact_documents"] = q_dedup_exact_documents
# coalesce: the Ray side hashes (text or ""), so a NULL-text doc groups
# WITH empty-text docs — latent on the null-free driver corpora
ORACLE["dedup_exact_documents"] = (
    "SELECT min(doc_id) AS doc_id FROM documents "
    "GROUP BY md5(coalesce(text, ''))"
)


# ---------------------------------------------------------------------------

def _shingle_pass(ds, id_col: str = "doc_id", bands: bool = False):
    """The near-dup family's ONE shingle pass: (id, text) batches ->
    materialized Dataset[(doc_id, sh: list<int64>)], each doc's sorted
    distinct shingle hashes (`_shingles` once per doc).  Docs without a
    shingle are dropped, so a list's length IS the doc's shingle-set size.
    With `bands`, each doc also carries `bh: list<int64>`, its N_BANDS
    MinHash LSH band keys (`_band_keys`)."""
    a, b = _minhash_params()

    def f(t: pa.Table) -> pa.Table:
        ids, lists = [], []
        for did, text in zip(t[id_col].to_pylist(), t["text"].to_pylist()):
            s = _shingles(text)
            if len(s):
                ids.append(did)
                lists.append(s)
        offsets = np.cumsum([0] + [len(s) for s in lists], dtype=np.int32)
        values = np.concatenate(lists) if lists else np.zeros(0, np.int64)
        cols = {"doc_id": pa.array(ids, pa.int64()),
                "sh": pa.ListArray.from_arrays(offsets, values)}
        if bands:
            cols["bh"] = pa.ListArray.from_arrays(
                np.arange(len(ids) + 1, dtype=np.int32) * N_BANDS,
                _band_keys(values, offsets, a, b),
            )
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow").materialize()


def _explode(docs, col: str):
    """Dataset[(doc_id, col: list)] -> Dataset[(doc_id, col)], one row per
    list element: a map, not a shuffle."""

    def f(t: pa.Table) -> pa.Table:
        lists = t[col]
        return pa.table({
            "doc_id": pc.take(t["doc_id"], pc.list_parent_indices(lists)),
            col: pc.list_flatten(lists),
        })

    return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


_DROP_SENTINEL = -1  # pk value carrying dropped-pair counts (real pk >= 0)

# Hot-bucket cap for LSH CANDIDATE generation: a band bucket holding more
# than this many docs (an exact-dup megacluster or a degenerate band) would
# expand O(D^2) pairs; it is dropped WITH a logged count.  The exact-oracle
# ngram op and all verify passes run uncapped (restriction to the candidate
# set is their bound).
LSH_MAX_BUCKET = 1024

_LAST_DROPPED: dict[str, int] = {}  # per-op-label drop telemetry (tests read it)


def _log_drops(label: str, n_pairs: int) -> None:
    import logging

    _LAST_DROPPED[label] = _LAST_DROPPED.get(label, 0) + n_pairs
    logging.getLogger("rindex.dedup").warning(
        "%s: hot-bucket cap dropped %d candidate pairs "
        "(LSH_MAX_BUCKET=%d exceeded)", label, n_pairs, LSH_MAX_BUCKET
    )


def _pack_pk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) << 32) | b.astype(np.int64)


def _run_pair_counts(
    k: np.ndarray,
    d: np.ndarray,
    max_bucket: int | None = None,
    values: np.ndarray | None = None,
):
    """Pure per-task kernel: expand exact-key runs of a (key, doc_id)-sorted
    slice into intra-run doc pairs (a < b) and pre-count duplicate pairs.

    Returns (pk:int64[], n:int64[], va, vb, n_dropped_pairs).  `pk` is the
    packed (doc_a<<32|doc_b) pair key; `n` its multiplicity WITHIN this
    task.  Ids are validated packable here — the ONE chokepoint every
    pair-producing op (jaccard, minhash, simhash, shortest-path edges)
    goes through, so an id >= 2^31 cannot silently wrap the shift or
    collide with the _DROP_SENTINEL.  With `max_bucket`, runs longer than
    it are DROPPED and their would-be pair count returned (the hot-bucket
    cap — a stopword shingle of df=D would otherwise expand D(D-1)/2
    pairs).  With `values`, per-doc int64 payloads ride along as (va, vb)."""
    if len(d) and (int(d.max()) >= 1 << 31 or int(d.min()) < 0):
        raise ValueError(
            "pair-key packing requires 0 <= id < 2^31; re-key the corpus"
        )
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    bounds = np.append(starts, len(k))
    out_pk, out_va, out_vb = [], [], []
    dropped = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s < 2:
            continue
        ids, idx = np.unique(d[s:e], return_index=True)
        if len(ids) < 2:
            continue
        if max_bucket is not None and len(ids) > max_bucket:
            dropped += len(ids) * (len(ids) - 1) // 2
            continue
        ia, ib = np.triu_indices(len(ids), k=1)
        out_pk.append(_pack_pk(ids[ia], ids[ib]))
        if values is not None:
            v = values[s:e][idx]
            out_va.append(v[ia])
            out_vb.append(v[ib])
    if not out_pk:
        z = np.zeros(0, np.int64)
        return z, z, z, z, dropped
    pk = np.concatenate(out_pk)
    if values is not None:
        va = np.concatenate(out_va)
        vb = np.concatenate(out_vb)
    else:
        va = vb = None
    if values is not None:
        # payload path: no pre-count (payloads are pair-constant; dedupe
        # happens downstream), n=1 per emitted row
        return pk, np.ones(len(pk), np.int64), va, vb, dropped
    upk, n = np.unique(pk, return_counts=True)
    return upk, n.astype(np.int64), None, None, dropped


def _pair_counts(
    bucketed,
    key: str,
    n_coarse: int = 509,
    max_bucket: int | None = None,
    dedupe: bool = True,
):
    """exact-key buckets -> Dataset[(pk, n)] = every intra-bucket doc pair
    (a < b, packed int64) with its multiplicity across ALL buckets — fully
    distributed: pair expansion + pre-count per coarse-bucket task, then
    the coarse-bucket sum over the pre-counted partials (`_sum_by_pk`;
    skipped with `dedupe=False`).  Nothing corpus-sized ever lands on the
    driver.

    The expansion shuffle key is a COARSE hash of the exact bucket key
    (key % prime), so one map_groups task handles ~1/509 of the buckets and
    expands pairs for all of its exact-key runs vectorized — a per-exact-key
    map_groups would pay ~1ms scheduling/slicing per tiny group, which at
    16 bands x n_docs buckets dominates the whole op (the same coarse-reduce
    shape as the index build's (seg, bucket) term shuffle).

    `max_bucket` drops hot buckets WITH AN ACCOUNTED COUNT: dropped-pair
    totals flow through as pk == _DROP_SENTINEL rows (never silent — the
    caller logs them; SURVEY §7 'no silent caps')."""

    def add_coarse(t: pa.Table) -> pa.Table:
        k = t[key].to_numpy()
        return t.append_column(
            "_cb", pa.array((k % n_coarse).astype(np.int32))
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values([key, "doc_id"], kind="mergesort")
        pk, n, _va, _vb, dropped = _run_pair_counts(
            df[key].to_numpy(), df["doc_id"].to_numpy(),
            max_bucket=max_bucket,
        )
        if dropped:
            pk = np.append(pk, _DROP_SENTINEL)
            n = np.append(n, dropped)
        return pd.DataFrame({"pk": pk, "n": n})

    expanded = (
        bucketed.map_batches(
            add_coarse, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("_cb")
        .map_groups(pairs, batch_format="pandas")
    )
    if not dedupe:
        # caller-side dedupe (candidate generation: the deduped pair set
        # is the designated small side anyway) — skips one all-to-all
        return expanded
    return _sum_by_pk(expanded)


def _sum_by_pk(pairs_ds, n_coarse: int = 509):
    """Distributed SUM(n) GROUP BY pk without Ray's per-group aggregation
    path: at ~1 distinct pair per row a native groupby("pk").sum() walks
    >10^6 tiny groups in Python (~150us each — measured 178s at sf0.1);
    the coarse-bucket reduce (shuffle on pk % prime, one sort + reduceat
    per task) does the same in ~2s.  Output schema matches the native
    aggregation: (pk, sum(n))."""

    def add_pb(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_pb", pa.array((t["pk"].to_numpy() % n_coarse).astype(np.int32))
        )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        pk = g["pk"].to_numpy()
        n = g["n"].to_numpy()
        order = np.argsort(pk, kind="mergesort")
        pk, n = pk[order], n[order]
        starts = np.flatnonzero(
            np.concatenate([[True], pk[1:] != pk[:-1]])
        )
        return pd.DataFrame(
            {
                "pk": pk[starts],
                "sum(n)": np.add.reduceat(n, starts),
            }
        )

    return (
        pairs_ds.map_batches(add_pb, batch_format="pyarrow",
                             zero_copy_batch=True)
        .groupby("_pb")
        .map_groups(reduce, batch_format="pandas")
    )


# Above this many int64s the per-doc lookup a verify needs (shingle-set
# sizes per doc for the all-pairs ops, the candidate docs' shingle lists
# for MinHash) switches from a broadcast to every verify task (8 B per
# value — fine to ~10^8) to a hash join of the pair table against the
# per-doc Dataset on doc_a then doc_b (no driver / per-task copy at all).
# Env-overridable so tests exercise the join path at small scale.
DEDUP_BCAST_MAX_DOCS = int(os.environ.get("RINDEX_DEDUP_BCAST_MAX",
                                          4_000_000))


def _arrow_mat(ds):
    """Materialize with every block — INCLUDING empties — as Arrow.
    Ray skips map UDFs on empty blocks, so an empty PANDAS block (sort
    aggregates and repartition padding produce them) rides untyped into
    downstream Arrow unions/sorts, whose sample builder asserts on mixed
    block types.  to_arrow_refs converts blocks in place (zero-copy for
    Arrow blocks); objects stay in the object store."""
    import ray.data as rd

    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


_PAIR_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("inter", pa.int64())]
)


def _unpack_pairs(t: pa.Table) -> pa.Table:
    """(pk, sum(n)) -> (doc_a, doc_b, inter); drop-sentinel rows ride
    through with doc_a == _DROP_SENTINEL.  Empty upstream groups arrive as
    SCHEMA-LESS blocks (map_groups on an empty pandas frame) — they must
    leave with the full pair schema or the downstream Acero join dies on
    a missing key field."""
    if t.num_columns == 0 or len(t) == 0:
        return _PAIR_SCHEMA.empty_table()
    pk = t["pk"].to_numpy()
    inter = t["sum(n)"].to_numpy().astype(np.int64)
    drop_m = pk == _DROP_SENTINEL
    a = np.where(drop_m, _DROP_SENTINEL, pk >> 32)
    b = np.where(drop_m, inter, pk & 0xFFFFFFFF)
    inter = np.where(drop_m, 0, inter)
    return pa.table(
        {
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            "inter": pa.array(inter, pa.int64()),
        }
    )


def _with_doc_values(pairs, per_doc, col: str, join: bool):
    """Add doc_a's and doc_b's `col` from per_doc Dataset[(doc_id, col)]
    to every row of a pair Dataset, as `col_a` and `col_b`.  Broadcast
    (`join` false): one task sorts per_doc by doc_id into the object store
    (never the driver) and every pair task looks both sides up in it; an
    id per_doc lacks (a drop-count sentinel row) gets some doc's value.
    Join: two union+groupby hash joins (streams.hash_outer_join — Ray
    2.49's native Dataset.join deadlocks its aggregator pool on small CPU
    budgets and dies on one-side-empty partitions) on doc_a then doc_b."""
    import ray

    if not join:
        @ray.remote
        def by_id(*blocks: pa.Table):
            docs = pa.concat_tables([x for x in blocks if len(x)])
            order = np.argsort(docs["doc_id"].to_numpy())
            return docs["doc_id"].to_numpy()[order], docs[col].take(order)

        table = by_id.remote(*per_doc.to_arrow_refs())

        def lookup(t: pa.Table) -> pa.Table:
            ids, vals = ray.get(table)
            for s in "ab":
                i = np.searchsorted(ids, t[f"doc_{s}"].to_numpy())
                t = t.append_column(
                    f"{col}_{s}", vals.take(np.minimum(i, len(ids) - 1))
                )
            return t

        return pairs.map_batches(lookup, batch_format="pyarrow",
                                 batch_size=None)
    from rindex.ops.streams import hash_outer_join

    def side(s: str):
        return per_doc.map_batches(
            lambda t: pa.table({f"k{s}": t["doc_id"], f"{col}_{s}": t[col]}),
            batch_format="pyarrow",
        )

    # the intermediate is materialized: hash_outer_join reads its input's
    # schema, and schema() on a lazy all-to-all would re-run the inner
    # join; the pair table is the small side, so this is cheap
    return hash_outer_join(
        hash_outer_join(
            pairs, side("a"), on="doc_a", right_on="ka", how="inner"
        ).materialize(),
        side("b"), on="doc_b", right_on="kb", how="inner",
    )


def _no_pairs() -> pd.DataFrame:
    """The typed (doc_a, doc_b, jaccard) frame of a near-dup op that finds
    no pair."""
    return pd.DataFrame({"doc_a": np.zeros(0, np.int64),
                         "doc_b": np.zeros(0, np.int64),
                         "jaccard": np.zeros(0, np.float64)})


def _jaccard_from_counts(counts, docs, tau: float, log_label: str):
    """Dataset[(pk, sum(n))] -> verified near-dup pairs.  The multiplicity
    IS the intersection size (shingles are distinct per doc), so jaccard =
    n / (|A| + |B| - n).  Sizes are the list lengths of the shingle pass
    `docs` (`_shingle_pass`), broadcast below DEDUP_BCAST_MAX_DOCS docs,
    else joined (`_with_doc_values`) — either way the filter runs per
    batch, distributed; only rows passing tau (plus the tiny drop-count
    sentinel) ever reach the driver."""
    n_docs = docs.count()
    if n_docs == 0:  # no doc has a shingle
        return _no_pairs()
    sizes = docs.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "n": pc.list_value_length(t["sh"]).cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()
    pairs = counts.map_batches(
        _unpack_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    join = n_docs > DEDUP_BCAST_MAX_DOCS
    if join:
        # sentinel rows would die in the inner joins, so their count is
        # folded out first (a tiny distributed filter)
        pairs = _arrow_mat(pairs)
        _dd = pairs.filter(expr=f"doc_a == {_DROP_SENTINEL}").to_pandas()
        dropped = int(_dd["doc_b"].sum()) if len(_dd) else 0
        if dropped:
            _log_drops(log_label, dropped)
        if pairs.count() == len(_dd):  # no pair to join
            return _no_pairs()
        pairs = pairs.filter(expr=f"doc_a != {_DROP_SENTINEL}")

    def finish(t: pa.Table) -> pa.Table:
        a, b, inter, na, nb = (
            t[c].to_numpy() for c in ("doc_a", "doc_b", "inter", "n_a", "n_b")
        )
        drop_m = a == _DROP_SENTINEL
        jac = np.where(drop_m, 0.0, inter / (na + nb - inter))
        keep = (jac >= tau) | drop_m
        return pa.table({
            "doc_a": pa.array(a[keep], pa.int64()),
            "doc_b": pa.array(b[keep], pa.int64()),
            "jaccard": pa.array(np.round(jac[keep], 6), pa.float64()),
        })

    res = _with_doc_values(pairs, sizes, "n", join).map_batches(
        finish, batch_format="pyarrow"
    ).to_pandas()
    if len(res) == 0:  # no pair passed tau: an empty Dataset has no columns
        return _no_pairs()
    drop_m = res["doc_a"].to_numpy() == _DROP_SENTINEL
    if drop_m.any():
        _log_drops(log_label, int(res["doc_b"].to_numpy()[drop_m].sum()))
        res = res[~drop_m]
    return res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def q_ngram_jaccard_neardup(sf_dir: str):
    """Near-dup pairs with 3-gram Jaccard >= 0.5, fully distributed via the
    co-occurrence formulation: shingles are DISTINCT per doc, so a pair's
    intersection size equals how many shingle buckets emit it — pair
    multiplicity from pre-counted per-coarse-bucket partials, summed by the
    coarse-bucket reduce (`_sum_by_pk`), jaccard computed per batch against
    the per-doc sizes (the shingle lists' lengths).  Two shuffles; no
    per-pair set intersection anywhere and no corpus-sized driver
    materialization.  Exact: full recall (any qualifying pair shares a
    shingle) and exact Jaccard — same SQL oracle.  Runs UNCAPPED by design
    (this is the exact-oracle variant; the capped candidate generation
    lives in the LSH ops)."""
    docs = _shingle_pass(read_table(sf_dir, "documents", ["doc_id", "text"]))
    counts = _pair_counts(_explode(docs, "sh"), "sh")
    return _jaccard_from_counts(counts, docs, JACCARD_TAU, "ngram")


QUERIES["ngram_jaccard_neardup"] = q_ngram_jaccard_neardup
ORACLE["ngram_jaccard_neardup"] = f"""
    WITH sh AS (
      SELECT doc_id,
             list_distinct([array_to_string(toks[i:i+{NGRAM - 1}], ' ')
                            FOR i IN range(1, len(toks) - {NGRAM - 2})]) AS shingles
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '[0-9a-z]+') AS toks
            FROM documents)
      WHERE len(toks) >= {NGRAM}
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           round(len(list_intersect(a.shingles, b.shingles))::DOUBLE
                 / (len(a.shingles) + len(b.shingles)
                    - len(list_intersect(a.shingles, b.shingles))), 6) AS jaccard
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE len(list_intersect(a.shingles, b.shingles))::DOUBLE
          / (len(a.shingles) + len(b.shingles)
             - len(list_intersect(a.shingles, b.shingles))) >= {JACCARD_TAU}
"""


# ---------------------------------------------------------------------------

N_PERM = 128
N_BANDS = 16  # 16 bands x 8 rows
_MERSENNE31 = (1 << 31) - 1


def _minhash_params():
    rng = np.random.Generator(np.random.PCG64(1234))
    a = rng.integers(1, _MERSENNE31, size=N_PERM, dtype=np.int64)
    b = rng.integers(0, _MERSENNE31, size=N_PERM, dtype=np.int64)
    return a, b


def _band_keys(values: np.ndarray, offsets: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """N_BANDS LSH band keys per doc, doc-major, for the docs whose shingle
    hashes are values[offsets[i]:offsets[i + 1]].  Minhash = min over the
    shingles of (a*x+b) mod p per permutation (Mersenne-31 prime; a, x <
    2^31 keeps a*x int64-safe), as ONE (shingles, 128) hash matrix per
    chunk plus a per-doc reduceat; each band's 8 minhashes pack into one
    int64 key with the band index baked in — the whole bucket identity."""
    n_docs = len(offsets) - 1
    # chunk at doc boundaries so the (chunk_shingles, 128) hash matrix
    # stays ~50 MB whatever the block size — one unbounded matrix over
    # a whole 5k-doc block measured 2.5x SLOWER than a per-doc loop
    # (allocator-bound), chunked it is ~2x faster
    mh_parts, lo = [], 0
    while lo < n_docs:
        hi = min(n_docs, max(
            lo + 1, int(np.searchsorted(offsets, offsets[lo] + 50_000))
        ))
        x = (values[offsets[lo]:offsets[hi]] % _MERSENNE31)[:, None]
        h = (a[None, :] * x + b[None, :]) % _MERSENNE31
        mh_parts.append(np.minimum.reduceat(
            h, offsets[lo:hi] - offsets[lo], axis=0
        ).astype(np.int64))
        lo = hi
    mh = np.concatenate(mh_parts or [np.zeros((0, N_PERM), np.int64)])
    mh = mh.reshape(n_docs, N_BANDS, N_PERM // N_BANDS)
    return np.fromiter(
        (_stable_hash64(bytes([bi]) + mh[di, bi].tobytes())
         for di in range(n_docs) for bi in range(N_BANDS)),
        np.int64, n_docs * N_BANDS,
    )


def _list_jaccard(t: pa.Table) -> pa.Table:
    """The MinHash verify kernel: (doc_a, doc_b, sh_a, sh_b) pair rows ->
    the pairs with exact Jaccard >= JACCARD_TAU of their two sorted
    distinct shingle lists.  Every pair's two lists go through ONE lexsort
    by (pair, shingle); a shingle both lists hold is an adjacent equal
    entry, so the intersection sizes are one bincount — no Python loop per
    pair."""
    a, b = t["doc_a"].to_numpy(), t["doc_b"].to_numpy()
    la, lb = t["sh_a"], t["sh_b"]
    na, nb = (pc.list_value_length(x).to_numpy().astype(np.int64)
              for x in (la, lb))
    pos = np.arange(len(a))
    pid = np.concatenate([np.repeat(pos, na), np.repeat(pos, nb)])
    v = np.concatenate([pc.list_flatten(x).to_numpy() for x in (la, lb)])
    order = np.lexsort((v, pid))
    pid, v = pid[order], v[order]
    hit = (pid[1:] == pid[:-1]) & (v[1:] == v[:-1])
    inter = np.bincount(pid[1:][hit], minlength=len(a))
    jac = inter / (na + nb - inter)
    keep = jac >= JACCARD_TAU
    return pa.table({
        "doc_a": pa.array(a[keep], pa.int64()),
        "doc_b": pa.array(b[keep], pa.int64()),
        "jaccard": pa.array(np.round(jac[keep], 6), pa.float64()),
    })


_VERIFY_PAIRS = 1 << 14  # candidate pairs per verify task


def q_minhash_lsh_neardup(sf_dir: str):
    """MinHash+LSH near-dup, filter-then-verify over ONE shingle pass: the
    pass emits each doc's sorted shingle list and its 16 band keys; the
    band keys explode into the op's only shuffle, the band-bucket pair
    expansion (hot buckets capped with a logged count), whose distinct
    pairs are the candidates; each is verified by exact Jaccard from the
    intersection of its two shingle lists (`_list_jaccard`), which come
    from the candidate docs' slice of the pass (`_with_doc_values`:
    broadcast up to DEDUP_BCAST_MAX_DOCS shingles, else joined).
    Probabilistic recall but fully deterministic given the seeded
    permutations (SQL oracle below re-derives every stage); precision is
    exact because candidates are re-verified.  pytest additionally asserts
    high recall vs the exact n-gram op on the planted near-dups."""
    import ray
    import ray.data as rd

    docs = _shingle_pass(
        read_table(sf_dir, "documents", ["doc_id", "text"]), bands=True
    )
    # candidate pks: per-task pre-counted partials, deduped HERE — the
    # deduped candidate set is the designated small side (LSH yields O(n)
    # candidates), so the cross-task distinct costs one np.unique instead
    # of a second all-to-all sort; hot band buckets capped with a logged
    # drop count.
    cand_df = _pair_counts(
        _explode(docs, "bh"), "bh", max_bucket=LSH_MAX_BUCKET, dedupe=False
    ).to_pandas()
    pk = cand_df.get("pk", pd.Series([], dtype="int64")).to_numpy()
    drop_m = pk == _DROP_SENTINEL
    if drop_m.any():
        _log_drops("minhash_lsh", int(cand_df["n"].to_numpy()[drop_m].sum()))
    cand_pk = np.unique(pk[~drop_m])
    if not len(cand_pk):  # no candidate (or every bucket capped)
        return _no_pairs()
    ids_ref = ray.put(np.unique(np.r_[cand_pk >> 32, cand_pk & 0xFFFFFFFF]))

    def keep_cands(t: pa.Table) -> pa.Table:
        m = np.isin(t["doc_id"].to_numpy(), ray.get(ids_ref), assume_unique=True)
        return t.select(["doc_id", "sh"]).filter(pa.array(m))

    @ray.remote
    def n_shingles_of(t: pa.Table) -> int:
        return len(pc.list_flatten(t["sh"])) if len(t) else 0

    # the candidate docs' slice of the pass stays in the object store; only
    # its per-block shingle counts reach the driver
    cand_docs = docs.map_batches(keep_cands, batch_format="pyarrow").materialize()
    refs = cand_docs.to_arrow_refs()
    n_shingles = sum(ray.get([n_shingles_of.remote(r) for r in refs]))
    pairs = rd.from_arrow([
        pa.table({"doc_a": c >> 32, "doc_b": c & 0xFFFFFFFF})
        for c in np.array_split(cand_pk, -(-len(cand_pk) // _VERIFY_PAIRS))
    ])

    out = _with_doc_values(
        pairs, cand_docs, "sh", n_shingles > DEDUP_BCAST_MAX_DOCS
    ).map_batches(_list_jaccard, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


QUERIES["minhash_lsh_neardup"] = q_minhash_lsh_neardup

# Exact oracle: every stage is a deterministic function of the seeded
# permutation literals (inlined below, the same trick as the SRP-LSH
# oracle), so SQL can re-derive the full pipeline: token hash =
# md5_number_upper >> 1 (== _stable_hash64), shingle hash = the same
# wrapping polynomial computed in HUGEINT then mod 2^63 ((x mod 2^64) mod
# 2^63 == x mod 2^63), minhash = min (a*x+b) mod p per permutation, and a
# band BUCKET is just row-vector equality — the md5 band hash only exists
# to pack the 8-tuple into an int64 key, so the oracle compares the tuple
# (as a list) directly.  Candidates = pairs sharing >= 1 band, verified
# with exact Jaccard >= tau, exactly the Ray pipeline's output.  The
# LSH_MAX_BUCKET cap never triggers at oracle scale (bucket <= n_docs).
_MH_A, _MH_B = _minhash_params()
_MH_PERMS_SQL = ", ".join(
    f"({i},{int(a)},{int(b)})" for i, (a, b) in enumerate(zip(_MH_A, _MH_B))
)
ORACLE["minhash_lsh_neardup"] = f"""
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS t
      FROM documents),
    hl AS (
      SELECT doc_id, [(md5_number_upper(x) >> 1)::BIGINT FOR x IN t] AS hs
      FROM toks WHERE len(t) >= {NGRAM}),
    sh AS (
      SELECT DISTINCT doc_id,
             unnest([((hs[i]::HUGEINT * {0x9E3779B1}
                       + hs[i + 1]::HUGEINT * {0x85EBCA77}
                       + hs[i + 2]) % {1 << 63})::BIGINT
                     FOR i IN range(1, len(hs) - 1)]) AS s
      FROM hl),
    mh AS (
      SELECT s.doc_id, p.i // {N_PERM // N_BANDS} AS band, p.i AS perm,
             min((p.a * (s.s % {_MERSENNE31}) + p.b) % {_MERSENNE31}) AS m
      FROM sh s CROSS JOIN (VALUES {_MH_PERMS_SQL}) p(i, a, b)
      GROUP BY s.doc_id, p.i),
    bsig AS (
      SELECT doc_id, band, list(m ORDER BY perm) AS sig
      FROM mh GROUP BY doc_id, band),
    cand AS (
      SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
      FROM bsig a JOIN bsig b
        ON a.band = b.band AND a.sig = b.sig AND a.doc_id < b.doc_id),
    sets AS (
      SELECT doc_id, list(s) AS ss, count(*) AS n FROM sh GROUP BY doc_id)
    SELECT c.da AS doc_a, c.db AS doc_b,
           round(len(list_intersect(x.ss, y.ss))::DOUBLE
                 / (x.n + y.n - len(list_intersect(x.ss, y.ss))), 6) AS jaccard
    FROM cand c
    JOIN sets x ON x.doc_id = c.da
    JOIN sets y ON y.doc_id = c.db
    WHERE len(list_intersect(x.ss, y.ss))::DOUBLE
          / (x.n + y.n - len(list_intersect(x.ss, y.ss))) >= {JACCARD_TAU}
"""


# ---------------------------------------------------------------------------

def _simhash_batch(texts: list) -> np.ndarray:
    """Vectorized SimHash over a batch of documents: one unpackbits over
    the concatenated distinct-token hashes of ALL docs, one reduceat per
    doc — no per-token Python loop (the md5 per distinct token is memoized
    in _token_hashes).  Top bit of the 63-bit token hash is constant, so
    this is effectively a 63-bit simhash; the 4x16-bit pigeonhole blocking
    below is unaffected."""
    per_doc_h, per_doc_f, counts = [], [], np.zeros(len(texts), np.int64)
    for i, text in enumerate(texts):
        toks = _tokens(text)
        if not toks:
            continue
        uh, f = np.unique(_token_hashes(toks), return_counts=True)
        per_doc_h.append(uh)
        per_doc_f.append(f.astype(np.int64))
        counts[i] = len(uh)
    sims = np.zeros(len(texts), dtype=np.uint64)
    if not per_doc_h:
        return sims
    H = np.concatenate(per_doc_h).view(np.uint64)
    F = np.concatenate(per_doc_f)
    bits = np.unpackbits(
        H.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(np.int64)  # (k, 64); column j == (h >> j) & 1
    signed = (bits * 2 - 1) * F[:, None]
    nz = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1][nz]
    acc = np.add.reduceat(signed, starts, axis=0)  # (n_nonempty, 64)
    packed = np.packbits((acc > 0), axis=1, bitorder="little")
    sims[nz] = np.ascontiguousarray(packed).view(np.uint64).ravel()
    return sims


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup: 64-bit simhash, pairs with hamming <= 3 found via
    4x16-bit band blocking (exact by pigeonhole: <=3 differing bits leave
    >=1 band identical).  Fully distributed: the signature rides along in
    the band-bucket rows, hamming is verified with a vectorized XOR
    popcount INSIDE the pair-expansion task, duplicates across bands
    collapse in a native groupby — no driver-side signature table."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def sigs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sh = _simhash_batch(t["text"].to_pylist())
        n = len(ids)
        # band index baked into the bucket key (band<<16 | 16-bit slice)
        bands = np.arange(4, dtype=np.uint64)
        bk = ((bands << np.uint64(16))[None, :]
              | ((sh[:, None] >> (bands * np.uint64(16))[None, :])
                 & np.uint64(0xFFFF)))
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "bk": pa.array(bk.reshape(-1).astype(np.int64)),
                "sh": pa.array(np.repeat(sh, 4).view(np.int64)),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["bk", "doc_id"], kind="mergesort")
        pk, _n, va, vb, dropped = _run_pair_counts(
            df["bk"].to_numpy(), df["doc_id"].to_numpy(),
            max_bucket=LSH_MAX_BUCKET, values=df["sh"].to_numpy(),
        )
        x = np.bitwise_xor(va.view(np.uint64), vb.view(np.uint64))
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(
            axis=1
        ).astype(np.int64)
        m = ham <= 3  # verify in-task: hamming is pair-local
        pk, ham = pk[m], ham[m]
        if dropped:
            pk = np.append(pk, _DROP_SENTINEL)
            ham = np.append(ham, dropped)
        return pd.DataFrame({"pk": pk, "ham": ham})

    from ray.data.aggregate import Min, Sum

    def add_coarse(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_cb", pa.array((t["bk"].to_numpy() % 509).astype(np.int32))
        )

    agg = (
        ds.map_batches(sigs, batch_format="pyarrow")
        .map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_cb")
        .map_groups(pairs, batch_format="pandas")
        .groupby("pk")
        .aggregate(Min("ham"), Sum("ham"))
        .to_pandas()  # verified pairs only — small by construction
    )
    pk = agg["pk"].to_numpy()
    drop_m = pk == _DROP_SENTINEL
    if drop_m.any():
        _log_drops("simhash", int(agg["sum(ham)"].to_numpy()[drop_m].sum()))
        agg, pk = agg[~drop_m], pk[~drop_m]
    out = pd.DataFrame(
        {
            "doc_a": pk >> 32,
            "doc_b": pk & 0xFFFFFFFF,
            "hamming": agg["min(ham)"].to_numpy().astype(np.int64),
        }
    ).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return out.astype({"doc_a": np.int64, "doc_b": np.int64, "hamming": np.int64})


QUERIES["simhash_neardup"] = q_simhash_neardup
# Exact oracle: the 4x16-bit band blocking is EXACT for hamming <= 3 (by
# pigeonhole), so the SQL side can skip the banding entirely and compute the
# full-pairwise hamming over independently re-derived simhashes.  DuckDB's
# md5_number_upper(w) is the first 8 digest bytes little-endian == our
# _stable_hash64 pre-shift; bit 63 of the 63-bit token hash is always 0, so
# the sign accumulator only needs bits 0..62 (j=63 would be acc<0 anyway).
# The LSH_MAX_BUCKET cap never triggers at oracle scale (bucket <= n_docs
# <= 5000 < 1024 only at sf<=0.01 -- the driver's compare scale).
ORACLE["simhash_neardup"] = """
    WITH tf AS (
      SELECT doc_id, w, count(*)::BIGINT AS f
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS w
            FROM documents)
      GROUP BY doc_id, w),
    th AS (
      SELECT doc_id, (md5_number_upper(w) >> 1)::BIGINT AS h, f FROM tf),
    bits AS (
      SELECT doc_id, r.j,
             sum(CASE WHEN (h >> r.j) & 1 = 1 THEN f ELSE -f END) AS acc
      FROM th, range(63) r(j)
      GROUP BY doc_id, r.j),
    sim AS (
      SELECT doc_id,
             sum(CASE WHEN acc > 0 THEN (1::BIGINT << j) ELSE 0 END)::BIGINT AS sh
      FROM bits GROUP BY doc_id),
    alldocs AS (
      SELECT d.doc_id, coalesce(s.sh, 0)::BIGINT AS sh
      FROM documents d LEFT JOIN sim s USING (doc_id))
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           bit_count(xor(a.sh, b.sh))::BIGINT AS hamming
    FROM alldocs a JOIN alldocs b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.sh, b.sh)) <= 3
"""


# ---------------------------------------------------------------------------

# Rows per matmul tile of the exact all-pairs pass.  A (4096, d) float64
# tile is ~4 MB at d=128; a tile-pair task multiplies two of them.
EMB_TILE_ROWS = 4096
# Loud bound: above this tile-pair count the exact op refuses to run the
# quadratic pass and tells the caller to use the ANN path (ops/ann.py).
EMB_MAX_TILE_PAIRS = 4096


def _emb_tile(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(ids, L2-normalized float64 matrix) from an embeddings block."""
    ids = t["vec_id"].to_numpy().astype(np.int64)
    col = t["embedding"].combine_chunks()
    flat = np.asarray(col.flatten(), dtype=np.float64)
    M = flat.reshape(len(ids), -1)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    return ids, M


def q_embedding_cosine_neardup(sf_dir: str):
    """Embedding near-dup: ALL pairs with cosine >= 0.45 over L2-normalized
    vectors (the exact-oracle variant; ANN in ops/ann.py is the recall<1
    scale path).  Exact all-pairs is inherently O(n^2) compute, so the
    shape distributes the QUADRATIC part instead of broadcasting: the
    corpus is re-blocked into ~EMB_TILE_ROWS-row tiles that stay IN the
    object store (driver holds refs only, never a full matrix), and one
    Ray task per upper-triangle tile pair does a bounded (tile x tile)
    matmul reading exactly two tiles.  Memory per task and per the driver
    is O(tile), not O(corpus); pairs (the small output side) return as
    Arrow refs.  A loud EMB_MAX_TILE_PAIRS bound refuses silly scales."""
    import logging

    import ray

    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = emb.count()
    n_tiles = max(1, -(-n // EMB_TILE_ROWS))
    n_pairs = n_tiles * (n_tiles + 1) // 2
    if n_pairs > EMB_MAX_TILE_PAIRS:
        raise ValueError(
            f"embedding_cosine_neardup: {n} rows -> {n_pairs} tile-pair "
            f"tasks exceeds EMB_MAX_TILE_PAIRS={EMB_MAX_TILE_PAIRS}; exact "
            "all-pairs is quadratic — use the ANN ops (ann_srp_lsh_topk / "
            "ann_ivf_topk) at this scale"
        )
    if n_tiles > 1:
        logging.getLogger(__name__).info(
            "embedding_cosine_neardup: %d rows, %d tiles, %d tile-pair "
            "tasks (exact quadratic pass)", n, n_tiles, n_pairs,
        )
    tiles = emb.repartition(n_tiles).materialize()

    @ray.remote
    def tile_pair(blk_a, blk_b, diagonal: bool) -> pa.Table:
        ids_a, A = _emb_tile(blk_a)
        ids_b, B = (ids_a, A) if diagonal else _emb_tile(blk_b)
        S = A @ B.T
        m = S >= COSINE_TAU
        if diagonal:
            # within a tile both (a,b) and (b,a) cells exist: take one
            m &= ids_b[None, :] > ids_a[:, None]
        ri, cj = np.nonzero(m)
        a, b = ids_a[ri], ids_b[cj]
        swap = a > b  # orient by vec_id, not by tile order
        return pa.table(
            {
                "vec_a": np.where(swap, b, a),
                "vec_b": np.where(swap, a, b),
                "cosine": np.round(S[ri, cj], 6),
            }
        )

    refs = tiles.get_internal_block_refs()
    out = [
        tile_pair.remote(refs[i], refs[j] if j > i else refs[i], j == i)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    return ray.data.from_arrow_refs(out)


QUERIES["embedding_cosine_neardup"] = q_embedding_cosine_neardup
ORACLE["embedding_cosine_neardup"] = f"""
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
           round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= {COSINE_TAU}
"""


# ---------------------------------------------------------------------------
# Dedup cluster assignment (connected components over the near-dup graph)
# ---------------------------------------------------------------------------

CLUSTER_ROUNDS = 8  # min-label propagation rounds (bounds component diam)


# Above this many edges the min-label propagation leaves the driver and
# runs as edge-Dataset rounds (two hash joins + a min groupby per round).
# Env-overridable so tests exercise the distributed rounds at small scale.
CLUSTER_DRIVER_EDGE_MAX = int(os.environ.get("RINDEX_CLUSTER_EDGE_MAX",
                                             8_000_000))


def _cluster_labels_driver(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Vectorized driver-side min-label propagation (np.minimum.at per
    round) — the small-edge-set fast path."""
    docs = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(docs, a)
    bi = np.searchsorted(docs, b)
    lab = docs.copy()
    converged = False
    for _ in range(CLUSTER_ROUNDS):
        m = np.minimum(lab[ai], lab[bi])
        new = lab.copy()
        np.minimum.at(new, ai, m)
        np.minimum.at(new, bi, m)
        if (new == lab).all():
            converged = True
            break
        lab = new
    if not converged:
        # one extra probe round: unchanged == converged exactly AT the cap
        m = np.minimum(lab[ai], lab[bi])
        new = lab.copy()
        np.minimum.at(new, ai, m)
        np.minimum.at(new, bi, m)
        if not (new == lab).all():
            raise ValueError(
                f"dedup_clusters: component diameter exceeds "
                f"{CLUSTER_ROUNDS} rounds — raise CLUSTER_ROUNDS"
            )
    return pd.DataFrame({"doc_id": docs, "cluster": lab})


def _cluster_labels_distributed(pairs: pd.DataFrame) -> pd.DataFrame:
    """Edge-Dataset min-label propagation: labels live in a Dataset, each
    round is edges ⋈ labels(doc_a) ⋈ labels(doc_b) -> min-contribution
    emit -> min groupby; nothing corpus-sized touches the driver.  The
    change count per round doubles as the convergence probe (same loud
    contract as the driver path).  Joins are the union+groupby hash join
    (streams.hash_outer_join) — the native Dataset.join's aggregator
    actor pools deadlock on small CPU budgets and multiply per round."""
    import ray.data as rd
    from ray.data.aggregate import Min

    from rindex.ops.streams import hash_outer_join

    # non-empty pandas chunks, converted to Arrow blocks up front: an
    # EMPTY pandas block (repartition padding) would skip every map UDF
    # and ride pandas-typed into the Arrow union/sort, which asserts on
    # mixed block types in sample_boundaries
    chunks = [
        c for c in np.array_split(
            pairs[["doc_a", "doc_b"]].reset_index(drop=True), 8
        ) if len(c)
    ]
    edges = rd.from_pandas(chunks).map_batches(
        lambda t: t, batch_format="pyarrow"
    ).materialize()

    def seed(t: pa.Table) -> pa.Table:
        d = np.concatenate(
            [t["doc_a"].to_numpy(), t["doc_b"].to_numpy()]
        )
        return pa.table({"doc": pa.array(d, pa.int64()),
                         "lbl": pa.array(d, pa.int64())})

    labels = _arrow_mat(
        edges.map_batches(seed, batch_format="pyarrow")
        .groupby("doc").aggregate(Min("lbl", alias_name="lbl"))
    )

    def contrib(df: pd.DataFrame) -> pa.Table:
        # pandas in (the join emits pandas groups), ARROW out — the result
        # unions with the Arrow-blocked labels Dataset, schemas must match
        m = np.minimum(df["la"].to_numpy(np.int64), df["lb"].to_numpy(np.int64))
        return pa.table(
            {
                "doc": pa.array(np.concatenate(
                    [df["doc_a"].to_numpy(np.int64),
                     df["doc_b"].to_numpy(np.int64)]
                ), pa.int64()),
                "lbl": pa.array(np.concatenate([m, m]), pa.int64()),
            }
        )

    for rnd in range(CLUSTER_ROUNDS + 1):
        la = labels.map_batches(
            lambda t: t.rename_columns(["ka", "la"]),
            batch_format="pyarrow",
        )
        lb = labels.map_batches(
            lambda t: t.rename_columns(["kb", "lb"]),
            batch_format="pyarrow",
        )
        joined = hash_outer_join(
            hash_outer_join(
                edges, la, on="doc_a", right_on="ka", how="inner"
            ).materialize(),  # see _jaccard_from_counts: schema() on a
            lb, on="doc_b", right_on="kb", how="inner",  # lazy all-to-all
        )                                                # re-runs the join
        new_labels = _arrow_mat(
            joined.map_batches(contrib, batch_format="pandas")
            .union(labels)
            .groupby("doc").aggregate(Min("lbl", alias_name="lbl"))
        )
        old = labels.map_batches(
            lambda t: t.rename_columns(["ko", "old"]),
            batch_format="pyarrow",
        )
        changed = int(
            hash_outer_join(new_labels, old, on="doc", right_on="ko",
                            how="inner")
            .map_batches(
                lambda df: pd.DataFrame({"c": [int(
                    (df["lbl"].to_numpy() != df["old"].to_numpy()).sum()
                )]}),
                batch_format="pandas",
            )
            .to_pandas()["c"].sum()
        )
        labels = new_labels
        if changed == 0:
            break
    else:
        raise ValueError(
            f"dedup_clusters: component diameter exceeds "
            f"{CLUSTER_ROUNDS} rounds — raise CLUSTER_ROUNDS"
        )
    out = labels.to_pandas().rename(
        columns={"doc": "doc_id", "lbl": "cluster"}
    )
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["cluster"] = out["cluster"].astype(np.int64)
    return out


def q_dedup_clusters_documents(sf_dir: str):
    """Connected components over the near-dup pair graph — the step that
    turns PAIRS into droppable duplicates: every doc in a component gets
    cluster = the component's min doc_id (the canonical representative a
    pipeline keeps).  Pairs come from the fully distributed n-gram Jaccard
    pipeline; below CLUSTER_DRIVER_EDGE_MAX edges the min-label
    propagation runs vectorized driver-side (the pair list is small by
    construction), above it the SAME rounds run distributed as
    edge-Dataset joins (_cluster_labels_distributed) — both paths share
    the loud non-convergence contract and are pinned equal in pytest."""
    pairs = q_ngram_jaccard_neardup(sf_dir)
    if len(pairs) == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "cluster": pd.Series([], dtype="int64")}
        )
    if len(pairs) <= CLUSTER_DRIVER_EDGE_MAX:
        out = _cluster_labels_driver(
            pairs["doc_a"].to_numpy(np.int64),
            pairs["doc_b"].to_numpy(np.int64),
        )
    else:
        out = _cluster_labels_distributed(pairs)
    return out.sort_values("doc_id").reset_index(drop=True)


def _cluster_oracle_sql() -> str:
    rounds = "".join(
        f""",
    l{k + 1} AS MATERIALIZED (
      SELECT e.a AS doc, min(least(la.lbl, lb.lbl)) AS lbl
      FROM e JOIN l{k} la ON la.doc = e.a JOIN l{k} lb ON lb.doc = e.b
      GROUP BY e.a
    )"""
        for k in range(CLUSTER_ROUNDS)
    )
    return f"""
    WITH sh AS (
      SELECT doc_id,
             list_distinct([array_to_string(toks[i:i+{NGRAM - 1}], ' ')
                            FOR i IN range(1, len(toks) - {NGRAM - 2})]) AS shingles
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '[0-9a-z]+') AS toks
            FROM documents)
      WHERE len(toks) >= {NGRAM}
    ),
    pairs AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE len(list_intersect(a.shingles, b.shingles))::DOUBLE
            / (len(a.shingles) + len(b.shingles)
               - len(list_intersect(a.shingles, b.shingles))) >= {JACCARD_TAU}
    ),
    e AS (
      SELECT doc_a AS a, doc_b AS b FROM pairs
      UNION ALL
      SELECT doc_b, doc_a FROM pairs
    ),
    l0 AS (SELECT DISTINCT a AS doc, a AS lbl FROM e){rounds}
    SELECT doc AS doc_id, lbl AS cluster
    FROM l{CLUSTER_ROUNDS}
    ORDER BY doc
    """


QUERIES["dedup_clusters_documents"] = q_dedup_clusters_documents
ORACLE["dedup_clusters_documents"] = _cluster_oracle_sql()


# ---------------------------------------------------------------------------
# Exact substring dedup (Lee et al. 2021, "Deduplicating Training Data
# Makes Language Models Better" — the ExactSubstr variant): flag token
# spans of length >= SUBSTR_K that occur more than once ANYWHERE in the
# corpus, and report per-doc duplicated-span coverage.  Reference anchor
# for the dedup family: SignatureUpdateProcessorFactory (SURVEY.md §2.7);
# the suffix-array algorithm itself is from the paper — here re-expressed
# as the Ray-native k-gram form: every K-token window is a key, a window
# key seen >= 2 times marks its K positions as duplicated, and per-doc
# coverage is the union of the marked windows.
# ---------------------------------------------------------------------------

SUBSTR_K = 16        # span length in tokens (the paper uses 50 BPE tokens;
                     # 16 matches this corpus's 10-99-token docs)
SUBSTR_KEEP_MAX = 0.5  # drop docs with > half their tokens inside dup spans
_SS_P = np.int64(0x9E3779B1)


def _window_hashes(toks: list[str], k: int = SUBSTR_K) -> np.ndarray:
    """In-order (NON-unique) k-gram window hashes: Horner combine of the
    memoized per-token hashes.  Position i of the output is the window
    starting at token i."""
    th = _token_hashes(toks)
    m = len(th) - k + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    acc = th[:m].copy()
    for j in range(1, k):
        acc = (acc * _SS_P + th[j : j + m]) & _MASK63
    return acc


def _span_coverage(starts: np.ndarray, doc_of: np.ndarray, k: int):
    """Union size of intervals [s, s+k) grouped by doc.

    `starts` must be ascending within each doc (window order guarantees
    it).  Per element the union contribution is min(k, next_start - start)
    except the last start of each doc, which contributes k.  Returns
    (docs, coverage) for docs with >= 1 interval."""
    if len(starts) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    last = np.r_[doc_of[1:] != doc_of[:-1], True]
    gaps = np.empty(len(starts), np.int64)
    gaps[:-1] = starts[1:] - starts[:-1]
    gaps[-1] = k
    contrib = np.where(last, k, np.minimum(k, gaps))
    doc_start = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
    return doc_of[doc_start], np.add.reduceat(contrib, doc_start)


def q_substring_dedup_documents(sf_dir: str):
    """Exact substring dedup (Lee et al. 2021): per doc, how many tokens
    sit inside a >=SUBSTR_K-token span that also occurs elsewhere in the
    corpus (or again in the same doc), plus the keep flag.

    Two streaming passes, no corpus-sized driver state:
      1. per-batch PARTIAL window-hash counts -> ONE groupby("g") sum ->
         hashes with total count >= 2.  That duplicated-gram set is the
         designated small side (835 grams at sf0.01; it scales with the
         amount of DUPLICATED text, not the corpus) — ray.put once,
         sorted.  At 10^12-turn scale with a large dup set, swap the
         broadcast for a hash join of the window table against the dup
         grams on g (the ngram_jaccard sizes-lookup precedent,
         DEDUP_BCAST_MAX_DOCS) — the op logs the dup-set size so the
         switchover is observable, never silent.
      2. full scan: per batch, ONE searchsorted of the concatenated
         window hashes against the broadcast set, then the vectorized
         interval-union kernel (`_span_coverage`) turns duplicated window
         starts into per-doc covered-token counts.

    Hashed windows stand in for the gram strings the SQL oracle compares
    (the contamination_check precedent: counts agree absent 63-bit md5
    collisions)."""
    import ray

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partial_counts(t: pa.Table) -> pa.Table:
        hs = [_window_hashes(_tokens(x)) for x in t["text"].to_pylist()]
        flat = np.concatenate(hs) if hs else np.empty(0, np.int64)
        g, c = np.unique(flat, return_counts=True)
        return pa.table({"g": pa.array(g), "c": pa.array(c)})

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("g")
        .sum("c")
    )

    def only_dups(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater_equal(t["sum(c)"], 2)).select(["g"])

    dup = np.sort(
        totals.map_batches(only_dups, batch_format="pyarrow")
        .to_pandas()["g"]
        .to_numpy()
    )
    print(f"[substring_dedup] duplicated {SUBSTR_K}-gram set: {len(dup)}")
    ref = ray.put(dup)

    class _Mark:
        def __init__(self):
            self.dup = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            texts = t["text"].to_pylist()
            toks = [_tokens(x) for x in texts]
            n_tok = np.fromiter((len(x) for x in toks), np.int64, len(toks))
            hs = [_window_hashes(x) for x in toks]
            m = np.fromiter((len(h) for h in hs), np.int64, len(hs))
            flat = np.concatenate(hs) if hs else np.empty(0, np.int64)
            doc_of = np.repeat(np.arange(len(hs), dtype=np.int64), m)
            starts_base = np.concatenate([[0], np.cumsum(m)[:-1]])
            local_pos = np.arange(len(flat), dtype=np.int64) - np.repeat(
                starts_base, m
            )
            b = self.dup
            hit = np.zeros(len(flat), dtype=bool)
            if len(b) and len(flat):
                p = np.searchsorted(b, flat)
                inb = p < len(b)
                hit[inb] = b[p[inb]] == flat[inb]
            docs, cov = _span_coverage(
                local_pos[hit], doc_of[hit], SUBSTR_K
            )
            dup_tokens = np.zeros(len(hs), np.int64)
            dup_tokens[docs] = cov
            frac = np.divide(
                dup_tokens,
                n_tok,
                out=np.zeros(len(hs), np.float64),
                where=n_tok > 0,
            )
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_tokens": pa.array(n_tok),
                    "dup_tokens": pa.array(dup_tokens),
                    "dup_frac": pa.array(np.round(frac, 6)),
                    "keep": pa.array(frac <= SUBSTR_KEEP_MAX),
                }
            )

    return ds.map_batches(_Mark, batch_format="pyarrow", concurrency=pool_cap(min_cap=8))


QUERIES["substring_dedup_documents"] = q_substring_dedup_documents
# string grams in SQL vs 63-bit hashed grams in Ray: identical counts
# absent md5 collisions (the contamination_check precedent).  The keep
# flag compares the RAW double ratio on both sides (same operands ->
# same float64 -> same comparison); the reported dup_frac is round(.,6)
# of that same double.
ORACLE["substring_dedup_documents"] = f"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS l
      FROM documents
    ),
    g2 AS (
      SELECT doc_id, pos,
             array_to_string(l[pos:pos + {SUBSTR_K} - 1], ' ') AS gram
      FROM (SELECT doc_id, unnest(range(1, len(l) - {SUBSTR_K} + 2)) AS pos,
                   l
            FROM t WHERE len(l) >= {SUBSTR_K})
    ),
    dup AS (SELECT gram FROM g2 GROUP BY 1 HAVING count(*) >= 2),
    cov AS (
      SELECT doc_id, count(DISTINCT p) AS dup_tokens
      FROM (SELECT doc_id, unnest(range(pos, pos + {SUBSTR_K})) AS p
            FROM g2 WHERE gram IN (SELECT gram FROM dup))
      GROUP BY 1
    )
    SELECT t.doc_id,
           len(l)::BIGINT AS n_tokens,
           coalesce(dup_tokens, 0)::BIGINT AS dup_tokens,
           CASE WHEN len(l) = 0 THEN 0.0
                ELSE round(coalesce(dup_tokens, 0)::DOUBLE / len(l), 6)
           END AS dup_frac,
           CASE WHEN len(l) = 0 THEN 0.0
                ELSE coalesce(dup_tokens, 0)::DOUBLE / len(l)
           END <= {SUBSTR_KEEP_MAX} AS keep
    FROM t LEFT JOIN cov USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Top-k set-similarity SEARCH (exact Jaccard against a query document) —
# the search form of the near-dup family (cf. "Highly Efficient String
# Similarity Search and Join over Compressed Indexes", ICDE 2022; the
# classic AllPairs/PPJoin candidate argument).  Any document with
# Jaccard > 0 shares a token with the query, so ONE corpus scan with the
# query's token set broadcast computes every non-zero score exactly;
# per-batch partial top-k means only k rows per batch reach the combine.
# ---------------------------------------------------------------------------

SETSIM_QDOC = 7
SETSIM_K = 10


def q_setsim_topk_documents(sf_dir: str):
    """Top-10 documents by exact token-set Jaccard to doc SETSIM_QDOC
    (self excluded), ties doc-asc.  Jaccard is ONE integer division per
    doc — oracle-exact with no rounding discipline needed."""
    import ray

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    qdf = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id == {SETSIM_QDOC}")
        .to_pandas()
    )
    qset = np.unique(np.array(_tokens(qdf["text"].iloc[0]), dtype=str))
    qref = ray.put(qset)

    def part(t: pa.Table) -> pd.DataFrame:
        q = ray.get(qref)
        nq = len(q)
        dids = t["doc_id"].to_numpy(zero_copy_only=False)
        jac = np.zeros(len(dids), np.float64)
        nonempty = np.ones(len(dids), bool)
        for i, text in enumerate(t["text"].to_pylist()):
            toks = np.unique(np.array(_tokens(text), dtype=str))
            if len(toks) == 0:
                nonempty[i] = False  # token-less docs have no Jaccard
                continue
            inter = int(np.isin(toks, q, assume_unique=True).sum())
            jac[i] = inter / (len(toks) + nq - inter)
        m = (dids != SETSIM_QDOC) & nonempty
        df = pd.DataFrame({"doc_id": dids[m], "jaccard": jac[m]})
        return df.sort_values(
            ["jaccard", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(SETSIM_K)

    top = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(
            lambda df: df.sort_values(
                ["jaccard", "doc_id"], ascending=[False, True],
                kind="mergesort",
            ).head(SETSIM_K),
            batch_format="pandas",
        )
        .to_pandas()
        .reset_index(drop=True)
    )
    top["rank"] = np.arange(len(top), dtype=np.int32)
    top["jaccard"] = top["jaccard"].round(6)
    return top[["rank", "doc_id", "jaccard"]]


QUERIES["setsim_topk_documents"] = q_setsim_topk_documents
ORACLE["setsim_topk_documents"] = f"""
    WITH dtok AS (
      SELECT DISTINCT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
      FROM documents
    ),
    q AS (SELECT term FROM dtok WHERE doc_id = {SETSIM_QDOC}),
    qn AS (SELECT count(*)::BIGINT AS nq FROM q),
    sizes AS (SELECT doc_id, count(*)::BIGINT AS n FROM dtok GROUP BY 1),
    inter AS (
      SELECT d.doc_id, count(*)::BIGINT AS i
      FROM dtok d JOIN q USING (term)
      WHERE d.doc_id != {SETSIM_QDOC}
      GROUP BY 1
    ),
    jac AS (
      SELECT s.doc_id,
             coalesce(i.i, 0)::DOUBLE
               / (s.n + qn.nq - coalesce(i.i, 0)) AS j
      FROM sizes s
      LEFT JOIN inter i USING (doc_id)
      CROSS JOIN qn
      WHERE s.doc_id != {SETSIM_QDOC}
    ),
    ranked AS (
      SELECT doc_id, j,
             (row_number() OVER (ORDER BY j DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM jac
    )
    SELECT rank, doc_id, round(j, 6) AS jaccard
    FROM ranked WHERE rank < {SETSIM_K}
"""


# ---------------------------------------------------------------------------
# MinHashFilter — analysis-chain minhash tokens
# ---------------------------------------------------------------------------

MHF_K = 4
MHF_TOP = 20


def q_minhash_filter_documents(sf_dir: str):
    """MinHashFilterFactory (`lucene/analysis/common/src/java/org/apache/
    lucene/analysis/minhash/MinHashFilter.java`): the ANALYSIS-CHAIN
    side of minhash — each doc's token stream shingles (3-grams) and
    emits only the {MHF_K} smallest hashes as synthetic tokens (the
    index-time fuzzy-dup signature field).  Here: the corpus' top
    {MHF_TOP} minhash tokens by document frequency — the vocabulary the
    signature field would hold.  Per-batch partials (<= {MHF_K} rows per
    doc leave the scan), one (hash -> df) groupby, tiny top-k."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        hs = []
        for text in t["text"].to_pylist():
            s = _shingles(text)
            if len(s):
                hs.append(np.sort(s)[:MHF_K])
        out = (
            np.concatenate(hs) if hs else np.empty(0, dtype=np.int64)
        )
        return pa.table({"h": pa.array(out)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Count(alias_name="df"))
        .to_pandas()
        .sort_values(["df", "h"], ascending=[False, True], kind="mergesort")
        .head(MHF_TOP)
        .reset_index(drop=True)
    )
    return agg.rename(columns={"h": "minhash_token"}).astype(
        {"minhash_token": "int64", "df": "int64"}
    )


QUERIES["minhash_filter_documents"] = q_minhash_filter_documents
ORACLE["minhash_filter_documents"] = f"""
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS t
      FROM documents),
    hl AS (
      SELECT doc_id, [(md5_number_upper(x) >> 1)::BIGINT FOR x IN t] AS hs
      FROM toks WHERE len(t) >= {NGRAM}),
    sh AS (
      SELECT DISTINCT doc_id,
             unnest([((hs[i]::HUGEINT * {0x9E3779B1}
                       + hs[i + 1]::HUGEINT * {0x85EBCA77}
                       + hs[i + 2]) % {1 << 63})::BIGINT
                     FOR i IN range(1, len(hs) - 1)]) AS s
      FROM hl),
    kmin AS (
      SELECT doc_id, s FROM (
        SELECT doc_id, s,
               row_number() OVER (PARTITION BY doc_id ORDER BY s ASC) AS rn
        FROM sh)
      WHERE rn <= {MHF_K})
    SELECT s AS minhash_token, count(*)::BIGINT AS df
    FROM kmin GROUP BY s
    ORDER BY df DESC, minhash_token ASC LIMIT {MHF_TOP}
"""
