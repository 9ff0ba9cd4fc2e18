"""Delete-by-query / delete-by-term with per-segment live-docs sidecars.

Mirrors the reference's soft-delete model (SURVEY.md §1 "Live docs";
reference: `lucene/core/src/java/org/apache/lucene/index/
{PendingDeletes,BufferedUpdatesStream}.java`, the `.liv` generation files of
`codecs/lucene50/Lucene50LiveDocsFormat.java`, and Solr's deleteByQuery in
`solr/core/src/java/org/apache/solr/update/DirectUpdateHandler2.java`):

- Segments stay IMMUTABLE.  A delete writes a new sidecar
  `seg-XXXXX[-gN]/_liv-g{del_gen}.parquet` holding the segment's deleted doc
  ordinals (the liveDocs complement — the deleted set is the small side) and
  bumps `del_gen`/`del_count` on the segment's manifest row; the manifest is
  republished atomically (2-phase, like a SegmentInfos commit).
- Deletes are SOFT: search filters deleted docs out of results, but index
  statistics (df, ttf, avgdl, maxDoc == n_docs for idf) intentionally stay
  STALE until a merge rewrites the segment — exactly Lucene's behavior
  (IndexReader.numDocs vs maxDoc; scores change only after the deleted docs
  are expunged).  `rindex.merge.merge_segments` drops deleted docs and
  recomputes every statistic; `run_merges(expunge=True)` is the
  forceMergeDeletes analog.
- Matching runs in the calling process, one segment after another, like
  the reference writer's `BufferedUpdatesStream` (no scheduler involved):
  a term delete reads only the matched terms' postings rows (row-group
  pruned on the sorted term column); then the manifest is republished once.
- `append_index` is `updateDocument`: the older versions of a new
  generation's ids are marked deleted (`delete_superseded`) in the same
  manifest write that publishes the generation.

Repeated deletes union (idempotent); delete generations are monotonic per
segment so a reader constructed from an old manifest row never sees a
half-written sidecar (sidecars are written tmp+rename before the manifest
names them).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rindex import segments as segio


def _mark_deleted(index_dir: str, meta: dict, matched: np.ndarray) -> dict:
    """Union `matched` (seg-local doc ordinals) into the segment's deleted
    set and write it as the next sidecar generation.  Returns the segment's
    manifest row, unchanged when nothing is newly deleted (idempotence)."""
    from rindex.search import _SegmentReader

    if len(matched) == 0:
        return meta
    sdir = segio.seg_dir(index_dir, meta["seg_id"], meta.get("gen", 0))
    old = _SegmentReader(sdir, meta).deleted_docs()
    new = np.union1d(old, matched) if old is not None else np.unique(matched)
    if len(new) == (0 if old is None else len(old)):
        return meta
    del_gen = int(meta.get("del_gen", 0) or 0) + 1
    path = os.path.join(sdir, f"_liv-g{del_gen}.parquet")
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(pa.table({"doc": pa.array(new.astype(np.int32))}), tmp)
    segio.atomic_rename_file(tmp, path)
    return {**meta, "del_gen": del_gen, "del_count": int(len(new))}


def _segment_delete(spec: dict) -> dict:
    """One segment's match + sidecar write.  `spec` holds index_dir, the
    segment's manifest row (meta) and the delete (kind "terms" with the
    analyzed terms, or kind "filter" with column and value).  Returns the
    segment's updated manifest row."""
    from rindex.codec import decode_posting_fast
    from rindex.search import _SegmentReader, read_postings_rows

    meta = spec["meta"]
    sdir = segio.seg_dir(spec["index_dir"], meta["seg_id"], meta.get("gen", 0))
    kind = spec["kind"]
    if kind == "terms":
        # docs containing ANY of the (already-analyzed) terms
        rows = read_postings_rows(sdir, spec["terms"])
        parts = [decode_posting_fast(r)[0] for r in rows.values() if r]
        matched = np.concatenate(parts or [np.zeros(0, np.int64)])
    elif kind == "filter":
        matched = _SegmentReader(sdir, meta).docs_matching(
            spec["column"], spec["value"]
        )
    else:
        raise ValueError(f"unknown delete kind {kind!r}")
    return _mark_deleted(spec["index_dir"], meta, matched)


def _apply(index_dir: str, spec_base: dict) -> dict:
    """Run the delete on every segment in turn, then republish the manifest
    once with the new del_gen/del_count rows.  Returns the new manifest."""
    manifest = segio.read_manifest(index_dir)
    segments = [
        _segment_delete({**spec_base, "index_dir": index_dir, "meta": m})
        for m in manifest["segments"]
    ]
    return segio.write_manifest(index_dir, segments, manifest["config"])


def delete_superseded(
    index_dir: str, older: list[dict], fresh: list[dict], id_cols: list[str]
) -> list[dict]:
    """`updateDocument` for an appended generation: mark deleted every doc
    of an older (lower version) segment whose id_cols tuple the fresh
    segment of its hash slot holds again.  The slot is
    `hash(id_cols[0]) % num_segments` under the pinned config, so every
    older version lives there.  Returns `older` with updated manifest rows,
    for the caller to publish with `fresh` in one manifest write."""

    def version(m: dict) -> int:
        return int(m.get("version", m.get("gen", 0)))

    def ids(m: dict, cols: list[str]) -> pa.Table:
        sdir = segio.seg_dir(index_dir, m["seg_id"], m.get("gen", 0))
        return pq.read_table(os.path.join(sdir, "docs.parquet"), columns=cols)

    by_slot = {int(m["seg_id"]): m for m in fresh}
    new_ids: dict[int, pa.Table] = {}
    out = []
    for m in older:
        slot = int(m["seg_id"])
        new = by_slot.get(slot)
        if new is None or version(m) >= version(new):
            out.append(m)
            continue
        if slot not in new_ids:
            new_ids[slot] = ids(new, id_cols)
        old = ids(m, ["doc"] + id_cols)
        hit = old.join(
            new_ids[slot].cast(old.select(id_cols).schema),
            keys=id_cols, join_type="left semi",
        )
        out.append(_mark_deleted(index_dir, m, hit["doc"].to_numpy()))
    return out


def delete_by_terms(index_dir: str, text: str) -> dict:
    """Delete every doc containing ANY analyzed term of `text` (the
    deleteByQuery analog for a term query)."""
    from rindex.analysis import get_analyzer

    manifest = segio.read_manifest(index_dir)
    analyzer = manifest["config"].get("analyzer", "standard")
    terms = sorted(set(get_analyzer(analyzer).tokens(text)))
    if not terms:
        return manifest
    return _apply(index_dir, {"kind": "terms", "terms": terms})


def delete_by_filter(index_dir: str, column: str, value) -> dict:
    """Delete every doc whose stored field `column` == value (the
    deleteByQuery analog for a filter clause)."""
    return _apply(index_dir, {"kind": "filter", "column": column, "value": value})


def num_docs(index_dir: str) -> tuple[int, int]:
    """(live docs, max docs) — IndexReader.numDocs() vs maxDoc()."""
    manifest = segio.read_manifest(index_dir)
    max_doc = int(manifest["totals"]["doc_count"])
    deleted = sum(int(m.get("del_count", 0) or 0) for m in manifest["segments"])
    return max_doc - deleted, max_doc
