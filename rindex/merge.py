"""Tiered log-structured segment merging (TieredMergePolicy semantics).

Re-implements the *semantics* of the reference merge policy
(`lucene/core/src/java/org/apache/lucene/index/TieredMergePolicy.java`
#findMerges / MergeScore — defaults segsPerTier=10, maxMergeAtOnce=10,
maxMergedSegmentMB=5120, floorSegmentMB=2): segments are binned into size
tiers; when a tier exceeds segsPerTier, candidate merges of up to
maxMergeAtOnce size-adjacent segments are scored by size skew (more-uniform
merges score better, cheaper amortized write cost) with a mild penalty on
total merged size, and the best non-overlapping candidates run.  Every merge
expunges its members' live-docs sidecars (`rindex.deletes`): explicit
deletes, and the older versions of re-ingested (conv_id, turn_idx) ids that
`append_index` marks deleted when it publishes the newer generation.  The
merge still keeps only the newest version per id, for indexes written
before appends deleted superseded versions; `run_merges(expunge=True)` is
the forceMergeDeletes path that rewrites deletes-bearing slots
unconditionally.

PARTITIONING ASSUMPTION (explicit, per build brief): merges only combine
segments of the SAME hash slot (seg_id) across generations — a conversation
lives entirely in one slot (`hash(conv_id) % num_segments`), so merging
within a slot preserves conversation locality and the (conv_id, turn_idx)
sort invariant, and merged docIDs remain deterministic.  The reference's
global merge graph is unnecessary because slot contents are disjoint by
construction.

Merge execution is expressed Ray-Data-natively: a Dataset of merge specs ->
`map_batches(do_merge, batch_size=1)` (one task per merge, IO-heavy, no
shuffle — member segment files stream from shared storage), then one atomic
manifest swap on the driver (`SegmentInfos#finishCommit` analog).  Merged
postings are byte-identical to a from-scratch build of the union (tests
assert), because the merge re-sorts stored fields by (conv_id, turn_idx),
remaps docIDs, and re-encodes through the same vectorized codec kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from rindex import segments as segio
from rindex.codec import decode_positions
from rindex.build import merge_partials_to_postings, SegmentWriter


@dataclass
class TieredMergePolicy:
    segs_per_tier: float = 10.0
    max_merge_at_once: int = 10
    max_merged_segment_bytes: int = 5 * 1024 * 1024 * 1024
    floor_segment_bytes: int = 2 * 1024 * 1024

    def _size(self, meta: dict) -> int:
        return int(meta["postings_bytes"])

    def _allowed_seg_count(self, sizes: list[int]) -> int:
        """Tier budget: segsPerTier per level, levels grow by
        maxMergeAtOnce (TieredMergePolicy#findMerges 'allowedSegCount')."""
        tot = float(sum(max(s, self.floor_segment_bytes) for s in sizes))
        level = float(self.floor_segment_bytes)
        allowed = 0.0
        while tot > 0:
            count_at_level = tot / level
            if count_at_level < self.segs_per_tier:
                allowed += np.ceil(count_at_level)
                break
            allowed += self.segs_per_tier
            tot -= self.segs_per_tier * level
            level *= self.max_merge_at_once
        return int(allowed)

    def find_merges_for_slot(self, metas: list[dict]) -> list[list[dict]]:
        """Merges for one hash slot's generation list."""
        eligible = [
            m
            for m in metas
            if self._size(m) < self.max_merged_segment_bytes // 2
        ]
        sizes_all = [self._size(m) for m in metas]
        if len(metas) <= self._allowed_seg_count(sizes_all):
            return []
        by_size = sorted(eligible, key=self._size, reverse=True)
        chosen: list[list[dict]] = []
        used: set[int] = set()
        candidates: list[tuple[float, list[dict]]] = []
        for i in range(len(by_size)):
            group: list[dict] = []
            tot = 0
            for j in range(i, len(by_size)):
                s = self._size(by_size[j])
                if len(group) >= self.max_merge_at_once:
                    break
                if tot + s > self.max_merged_segment_bytes:
                    continue
                group.append(by_size[j])
                tot += s
            if len(group) < 2:
                continue
            floored = [max(self._size(m), self.floor_segment_bytes) for m in group]
            # MergeScore semantics: skew = biggest/total (lower = more
            # uniform = better), times a mild total-size penalty.
            skew = max(floored) / sum(floored)
            score = skew * (sum(floored) ** 0.05)
            candidates.append((score, group))
        for _score, group in sorted(candidates, key=lambda c: c[0]):
            ids = {id(m) for m in group}
            if ids & used:
                continue
            used |= ids
            chosen.append(group)
        return chosen

    def find_forced_merges(
        self, manifest: dict, max_segments_per_slot: int = 1
    ) -> list[list[dict]]:
        """forceMerge/optimize semantics (TieredMergePolicy#findForcedMerges):
        compact every slot down to max_segments_per_slot regardless of tier
        budgets (still bounded by max_merge_at_once per merge round)."""
        slots: dict[int, list[dict]] = {}
        for m in manifest["segments"]:
            slots.setdefault(int(m["seg_id"]), []).append(m)
        merges = []
        for _slot, metas in sorted(slots.items()):
            if len(metas) <= max_segments_per_slot:
                continue
            group = sorted(metas, key=self._size, reverse=True)[
                : self.max_merge_at_once
            ]
            if len(group) >= 2:
                merges.append(group)
        return merges

    def find_expunge_merges(self, manifest: dict) -> list[list[dict]]:
        """forceMergeDeletes semantics (TieredMergePolicy
        #findForcedDeletesMerges): every slot carrying deletes is rewritten
        — including single-segment slots, where the 1-member "merge" is
        exactly the rewrite that drops the deleted docs."""
        slots: dict[int, list[dict]] = {}
        for m in manifest["segments"]:
            slots.setdefault(int(m["seg_id"]), []).append(m)
        merges = []
        for _slot, metas in sorted(slots.items()):
            if any(int(m.get("del_count", 0) or 0) > 0 for m in metas):
                # delete-BEARING members first (then size): capping a wide
                # slot at max_merge_at_once by size alone could rewrite
                # only clean segments and leave every delete in place
                group = sorted(
                    metas,
                    key=lambda m: (
                        -(int(m.get("del_count", 0) or 0) > 0),
                        -self._size(m),
                    ),
                )[: self.max_merge_at_once]
                merges.append(group)
        return merges

    def find_merges(self, manifest: dict) -> list[list[dict]]:
        slots: dict[int, list[dict]] = {}
        for m in manifest["segments"]:
            slots.setdefault(int(m["seg_id"]), []).append(m)
        merges = []
        for _slot, metas in sorted(slots.items()):
            merges.extend(self.find_merges_for_slot(metas))
        return merges


def _decode_segment_postings(sdir: str) -> pd.DataFrame:
    """Member segment -> partial-posting rows (one per term, raw packed
    arrays) for `merge_partials_to_postings`.  Columnar access + the
    vectorized whole-posting decoder (decode_posting_fast) — no
    to_pylist() row materialization; the remaining per-term loop is one
    decode call per term, each internally vectorized."""
    from rindex.codec import decode_posting_fast

    tbl = pq.read_table(os.path.join(sdir, "postings.parquet"))
    has_pos = "pos_blob" in tbl.schema.names
    terms = tbl["term"].to_pylist()
    ttfs = tbl["ttf"].to_pylist()
    blobs = tbl["blob"].to_pylist()
    offs = tbl["block_offset"].to_pylist()
    lasts = tbl["block_last_doc"].to_pylist()
    pos_blobs = tbl["pos_blob"].to_pylist() if has_pos else None
    pos_widths = tbl["pos_width"].to_pylist() if has_pos else None
    out = {
        "term": terms, "first_doc": [], "df": [], "ttf": ttfs,
        "docs": [], "tfs": [], "norms": [],
    }
    if has_pos:
        out["pos"] = []
    for i in range(tbl.num_rows):
        row = {
            "blob": blobs[i], "block_offset": offs[i],
            "block_last_doc": lasts[i],
        }
        d, t, n = decode_posting_fast(row)
        out["first_doc"].append(int(d[0]) if len(d) else 0)
        out["df"].append(len(d))
        out["docs"].append(d.astype(np.int32).tobytes())
        out["tfs"].append(t.astype(np.int32).tobytes())
        out["norms"].append(n.astype(np.uint8).tobytes())
        if has_pos:
            pos = decode_positions(pos_blobs[i], int(pos_widths[i]), t)
            out["pos"].append(pos.astype(np.int32).tobytes())
    return pd.DataFrame(out)


def merge_segments(
    index_dir: str, members: list[dict], new_gen: int, cfg: dict
) -> dict:
    """Merge member segments (same slot, ascending gen) into one new
    segment at `new_gen`.  Duplicate (id_cols) rows are superseded by the
    highest VERSION (the `_version_` reorder-handling analog —
    `solr/core/src/java/org/apache/solr/update/DistributedUpdateProcessor`
    semantics: stale versions dropped at compaction).  `new_gen` is only a
    directory-name allocator; ordering uses each member's `version` (fresh
    segments: version == gen; merged segments: max member version), so a
    merge of OLD generations can never outrank an unmerged newer segment
    holding an updated duplicate id — output gens alone would (enumerate
    order assigns {g2,g3}->gen4 and {g0,g1}->gen5, putting stale gen-0
    docs "newer" than the gen-3 update).  Returns new meta."""

    def _ver(m: dict) -> int:
        return int(m.get("version", m.get("gen", 0)))

    seg_id = int(members[0]["seg_id"])
    id_cols = list(cfg["id_cols"])
    members = sorted(members, key=_ver)

    # ---- stored fields: concat, supersede dups by gen, re-sort, new docIDs
    docs_tables = []
    for m in members:
        sdir = segio.seg_dir(index_dir, seg_id, int(m.get("gen", 0)))
        t = pq.read_table(os.path.join(sdir, "docs.parquet"))
        dg = int(m.get("del_gen", 0) or 0)
        if dg > 0:
            # expunge soft deletes: drop the member's deleted docs here, so
            # stored fields, postings (via the remap's -1 default) and every
            # recomputed statistic exclude them — the forceMergeDeletes
            # rewrite (`lucene/core/src/java/org/apache/lucene/index/
            # TieredMergePolicy.java#findForcedDeletesMerges`)
            dd = pq.read_table(
                os.path.join(sdir, f"_liv-g{dg}.parquet")
            )["doc"].to_numpy()
            t = t.filter(
                pa.array(np.isin(t["doc"].to_numpy(), dd, invert=True))
            )
        t = t.append_column(
            "_gen", pa.array(np.full(t.num_rows, _ver(m), np.int32))
        )
        docs_tables.append(t)
    docs = pa.concat_tables(docs_tables)
    df = docs.to_pandas()
    # newest gen wins per id; stable keep="last" after gen-ascending sort
    df = df.sort_values(["_gen"] + id_cols, kind="stable")
    keep_mask = ~df.duplicated(subset=id_cols, keep="last")
    df["_keep"] = keep_mask
    # old (member order, old doc) -> new doc mapping
    df = df.sort_values(id_cols, kind="stable").reset_index(drop=True)
    kept = df[df["_keep"]].reset_index(drop=True)
    kept["_newdoc"] = np.arange(len(kept), dtype=np.int32)
    # build per-member remap arrays old_doc -> new_doc (-1 = superseded)
    remaps: dict[int, np.ndarray] = {}
    for m in members:
        g = int(m.get("gen", 0))
        remap = np.full(int(m["doc_count"]), -1, dtype=np.int64)
        sel = kept[kept["_gen"] == _ver(m)]
        remap[sel["doc"].to_numpy()] = sel["_newdoc"].to_numpy()
        remaps[g] = remap

    # ---- postings: decode members, remap+drop, vectorized re-encode.
    # The remap runs over the member's CONCATENATED posting arrays: one
    # np.repeat(term_idx, df) expansion, one gather through the remap
    # array, one lexsort — the same whole-segment shape as
    # merge_partials_to_postings, no per-term Python loop (the old loop
    # was the last Python-bound merge stage: ~41 s of a 2.9 M-doc
    # forceMerge).
    parts = []
    for m in members:
        g = int(m.get("gen", 0))
        sdir = segio.seg_dir(index_dir, seg_id, g)
        parts.append(_remap_postings_partials(sdir, remaps[g]))
    partials = pd.concat(parts, ignore_index=True)

    # ---- write the merged segment through the standard writer path
    new_sdir = segio.seg_dir(index_dir, seg_id, new_gen)
    os.makedirs(new_sdir, exist_ok=True)
    stored = pa.Table.from_pandas(
        kept.drop(columns=["_gen", "_keep", "doc"])
        .rename(columns={"_newdoc": "doc"})
        [["doc"] + [c for c in kept.columns if c not in ("_gen", "_keep", "doc", "_newdoc")]],
        # the members' types: pandas infers null columns when every member
        # doc is deleted, which a later merge's concat cannot unify
        schema=docs.schema.remove(docs.schema.get_field_index("_gen")),
        preserve_index=False,
    )
    tmp = os.path.join(new_sdir, "docs.parquet") + f".tmp-{os.getpid()}"
    pq.write_table(stored, tmp)
    segio.atomic_rename_file(tmp, os.path.join(new_sdir, "docs.parquet"))

    writer = SegmentWriter(
        index_dir,
        cfg,
        fingerprint="merge:" + "+".join(
            f"g{int(m.get('gen', 0))}" for m in members
        ),
        gen=new_gen,
    )
    table, stats = merge_partials_to_postings(partials)
    writer._write(seg_id, table, stats, n_partials=len(partials))
    # stamp the supersession version: max of member versions, NOT the
    # directory gen (see docstring)
    meta = segio.read_meta(new_sdir)
    meta["version"] = max(_ver(m) for m in members)
    segio.atomic_write_json(os.path.join(new_sdir, "meta.json"), meta)
    return segio.read_meta(new_sdir)


def _remap_postings_partials(sdir: str, remap: np.ndarray) -> pd.DataFrame:
    """Decode one segment's postings, remap docIDs through `remap`
    (old_doc -> new_doc, -1 drops the posting) and repack to the partials
    frame `merge_partials_to_postings` consumes.  One repeat/gather/
    lexsort over the segment's concatenated posting arrays — no per-term
    Python.  Shared by segment MERGE (members -> one segment) and shard
    SPLIT (one segment -> per-part remaps)."""
    p = _decode_segment_postings(sdir)
    has_pos = "pos" in p.columns
    n_terms = len(p)
    dfs = p["df"].to_numpy().astype(np.int64)
    all_docs = np.frombuffer(b"".join(p["docs"]), dtype=np.int32)
    all_tfs = np.frombuffer(b"".join(p["tfs"]), dtype=np.int32)
    all_norms = np.frombuffer(b"".join(p["norms"]), dtype=np.uint8)
    term_idx = np.repeat(np.arange(n_terms, dtype=np.int64), dfs)
    nd = remap[all_docs]
    ok = nd >= 0
    ti_k = term_idx[ok]
    order = np.lexsort((nd[ok], ti_k))  # (term, new_doc) ascending
    ti_s = ti_k[order]
    nd_s = nd[ok][order].astype(np.int32)
    tf_s = all_tfs[ok][order]
    n_s = all_norms[ok][order]
    new_df = np.bincount(ti_s, minlength=n_terms).astype(np.int64)
    new_ttf = np.bincount(
        ti_s, weights=tf_s.astype(np.float64), minlength=n_terms
    ).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(new_df)])
    if has_pos:
        # positions are within-doc (unchanged by the docID remap):
        # gather surviving runs in the new (term, doc) order with one
        # ragged-gather index build — no per-run slicing
        all_pos = np.frombuffer(b"".join(p["pos"]), dtype=np.int32)
        run_starts = np.concatenate(
            [[0], np.cumsum(all_tfs.astype(np.int64))[:-1]]
        )
        sel_runs = np.flatnonzero(ok)[order]
        L = all_tfs[sel_runs].astype(np.int64)
        S = run_starts[sel_runs]
        offs_in_run = (
            np.arange(int(L.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(L) - L, L)
        )
        pos_s = all_pos[np.repeat(S, L) + offs_in_run]
        pos_lens = np.bincount(
            ti_s, weights=L.astype(np.float64), minlength=n_terms
        ).astype(np.int64)
        pos_bounds = np.concatenate([[0], np.cumsum(pos_lens)])
    keep = np.flatnonzero(new_df > 0)
    cols = {
        "term": p["term"].to_numpy()[keep],
        "first_doc": nd_s[bounds[keep]].astype(np.int64),
        "df": new_df[keep],
        "ttf": new_ttf[keep],
        # per-surviving-term repack: contiguous slice + tobytes (memcpy)
        "docs": [
            nd_s[bounds[i]: bounds[i + 1]].tobytes() for i in keep
        ],
        "tfs": [
            tf_s[bounds[i]: bounds[i + 1]].tobytes() for i in keep
        ],
        "norms": [
            n_s[bounds[i]: bounds[i + 1]].tobytes() for i in keep
        ],
    }
    if has_pos:
        cols["pos"] = [
            pos_s[pos_bounds[i]: pos_bounds[i + 1]].tobytes()
            for i in keep
        ]
    return pd.DataFrame(cols)


def run_merges(
    index_dir: str,
    policy: TieredMergePolicy | None = None,
    concurrency: int | None = None,
    force: bool = False,
    expunge: bool = False,
) -> dict:
    """Find + execute merges, publish the new manifest atomically.  Merge
    tasks run as a Dataset pipeline over merge specs (one task per merge,
    like ConcurrentMergeScheduler's background merge threads with a
    bounded pool).  Returns the (possibly unchanged) manifest."""
    import ray.data as rd

    policy = policy or TieredMergePolicy()
    manifest = segio.read_manifest(index_dir)
    if expunge:
        merges = policy.find_expunge_merges(manifest)
    elif force:
        merges = policy.find_forced_merges(manifest)
    else:
        merges = policy.find_merges(manifest)
    if not merges:
        return manifest
    cfg = manifest["config"]
    next_gen = 1 + max(int(m.get("gen", 0)) for m in manifest["segments"])

    import json

    specs = [
        {
            "spec": json.dumps(
                {
                    "index_dir": index_dir,
                    "members": group,
                    # unique gen per merge: two merges may share a slot
                    "new_gen": next_gen + i,
                    "cfg": cfg,
                }
            )
        }
        for i, group in enumerate(merges)
    ]

    def do_merge(batch: pd.DataFrame) -> pd.DataFrame:
        metas = []
        for raw in batch["spec"]:
            spec = json.loads(raw)
            meta = merge_segments(
                spec["index_dir"], spec["members"], int(spec["new_gen"]),
                spec["cfg"],
            )
            metas.append({"seg_id": meta["seg_id"], "gen": meta["gen"]})
        return pd.DataFrame(metas)

    # one BLOCK per merge spec: from_items can pack all specs into a single
    # block, and map_batches runs a block's batches sequentially in one
    # task — without the repartition every merge executes serially
    ds = rd.from_items(specs).repartition(len(specs)).map_batches(
        do_merge, batch_size=1, batch_format="pandas", **(
            {"concurrency": concurrency} if concurrency else {}
        )
    )
    ds.materialize()

    merged_away = {
        (int(m["seg_id"]), int(m.get("gen", 0)))
        for group in merges
        for m in group
    }
    live = [
        m
        for m in manifest["segments"]
        if (int(m["seg_id"]), int(m.get("gen", 0))) not in merged_away
    ]
    for i, group in enumerate(merges):
        sdir = segio.seg_dir(index_dir, int(group[0]["seg_id"]), next_gen + i)
        live.append(segio.read_meta(sdir))
    return segio.write_manifest(index_dir, live, cfg)


def split_index(index_dir: str, out_dirs: list[str]) -> list[dict]:
    """Shard split: partition an index into len(out_dirs) disjoint child
    indexes by a stable hash of the uniqueKey columns — the semantics of
    SPLITSHARD (`solr/core/src/java/org/apache/solr/cloud/api/collections/
    SplitShardCmd.java`: hash-range halves routed by CompositeIdRouter)
    executed the way `lucene/misc/src/java/org/apache/lucene/index/
    PKIndexSplitter.java` splits at the segment level: every source
    segment is rewritten per child with the out-of-range docs dropped.

    Reuses the merge path's vectorized docID-remap kernel
    (`_remap_postings_partials`) with one remap per child: doc order (and
    therefore the id-sorted docID invariant) is preserved within each
    child, live-deletes are expunged during the split (as merges do), and
    each child gets its own lineage-stamped manifest.  The md5 route hash
    stands in for CompositeIdRouter's murmur3 ranges (repo-wide stable-
    hash convention — python hash() is seed-randomized across workers)."""
    from rindex.ops.dedup import _stable_hash64

    man = segio.read_manifest(index_dir)
    cfg = man["config"]
    id_cols = list(cfg["id_cols"])
    n = len(out_dirs)
    metas_per: list[list[dict]] = [[] for _ in range(n)]
    for d in out_dirs:
        os.makedirs(d, exist_ok=True)
    for m in man["segments"]:
        seg_id = int(m["seg_id"])
        gen = int(m.get("gen", 0))
        sdir = segio.seg_dir(index_dir, seg_id, gen)
        docs = pq.read_table(os.path.join(sdir, "docs.parquet"))
        dg = int(m.get("del_gen", 0) or 0)
        if dg > 0:  # expunge soft deletes, the merge-path contract
            dd = pq.read_table(
                os.path.join(sdir, f"_liv-g{dg}.parquet")
            )["doc"].to_numpy()
            docs = docs.filter(
                pa.array(np.isin(docs["doc"].to_numpy(), dd, invert=True))
            )
        dv = docs.to_pandas()
        keys = (
            dv[id_cols].astype(str).agg("|".join, axis=1)
            if len(id_cols) > 1
            else dv[id_cols[0]].astype(str)
        )
        part = np.fromiter(
            (_stable_hash64(k.encode()) % n for k in keys),
            np.int64,
            len(dv),
        )
        for pi in range(n):
            sel = np.flatnonzero(part == pi)  # doc order == id order
            if len(sel) == 0:
                continue
            remap = np.full(int(m["doc_count"]), -1, np.int64)
            old_docs = dv["doc"].to_numpy()[sel]
            remap[old_docs] = np.arange(len(sel), dtype=np.int64)
            child_sdir = segio.seg_dir(out_dirs[pi], seg_id, gen)
            os.makedirs(child_sdir, exist_ok=True)
            child_docs = dv.iloc[sel].copy()
            child_docs["doc"] = np.arange(len(sel), dtype=np.int32)
            tmp = os.path.join(child_sdir, "docs.parquet") + (
                f".tmp-{os.getpid()}"
            )
            pq.write_table(
                pa.Table.from_pandas(child_docs, preserve_index=False), tmp
            )
            segio.atomic_rename_file(
                tmp, os.path.join(child_sdir, "docs.parquet")
            )
            partials = _remap_postings_partials(sdir, remap)
            writer = SegmentWriter(
                out_dirs[pi],
                cfg,
                fingerprint=f"split:{index_dir}:s{seg_id}g{gen}p{pi}/{n}",
                gen=gen,
            )
            table, stats = merge_partials_to_postings(partials)
            writer._write(seg_id, table, stats, n_partials=1)
            meta = segio.read_meta(child_sdir)
            meta["version"] = int(m.get("version", gen))
            segio.atomic_write_json(
                os.path.join(child_sdir, "meta.json"), meta
            )
            metas_per[pi].append(meta)
    out = []
    for pi, d in enumerate(out_dirs):
        out.append(segio.write_manifest(d, metas_per[pi], cfg))
    return out
