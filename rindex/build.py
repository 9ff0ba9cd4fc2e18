"""Ray-Data-native inverted-index build pipeline.

Reference lifecycle re-expressed (SURVEY.md §3.1 "Ray mapping"):

    read_parquet(transcripts)
      -> map_batches(assign segment = hash(conv_id) % num_segments)   [stateless]
      -> groupby("seg").map_groups(sort by (conv_id, turn_idx),
                                   assign segment-local docIDs,
                                   write docs.parquet = stored fields) [shuffle 1]
      -> map_batches(Tokenize*)  analyzer chain, per-(doc,term) tf     [stateless]
      -> [mode="term_shuffle"]  groupby(["seg","term","salt"])
             .map_groups(pack_partial)                                 [shuffle 2]
         [mode="local"]        partial postings packed per batch (combiner)
      -> groupby("seg").map_groups(SegmentWriter, concurrency=...)     [shuffle 3/2]
      -> driver: collect manifest rows -> atomic manifest.json publish

Design notes for 100 TB scale:
  * The document-side partition key is hash(conv_id): a conversation lives
    entirely in one segment (block-join locality, deterministic docIDs), and
    `num_segments` is FIXED config, so segment contents are identical at any
    parallelism level (N=1 == N=8 golden equivalence, SURVEY.md §5e).
  * Hot-term skew (`the`-class Zipf heads) is handled by *doc-range salting*:
    the groupby(term) shuffle key is (seg, term, salt) with
    salt = doc // salt_range, so no single reducer sees an unbounded group
    and — because salts are ordered, disjoint docID ranges — the second
    phase merges salted partials by cheap ordered concatenation, never a
    re-sort (SURVEY.md §7.1.5; reference contrast: FreqProxTermsWriter keeps
    term skew node-local, we must handle it in the shuffle).
  * mode="local" is the DWPT-style combiner path
    (`lucene/core/src/java/org/apache/lucene/index/DocumentsWriterPerThread.java`
    semantics): each tokenize batch emits one packed partial posting per
    (seg, term) — the wide shuffle then moves ~9 bytes/posting in one row
    per term per batch instead of one row per token occurrence.  Both modes
    produce byte-identical segments (the writer re-encodes from merged raw
    arrays), which tests assert.
  * Per-segment writers are an actor pool (stateful stage: config + reusable
    buffers), the `Lucene84PostingsWriter`+`BlockTreeTermsWriter` analog.
  * Resume: segments whose `_SUCCESS` lineage matches (config hash, input
    fingerprint) are filtered out at the first map_batches, so finished
    partitions cost zero downstream work.
"""

from __future__ import annotations

import os
import zlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from rindex.analysis import get_analyzer
from rindex.codec import encode_norms
from rindex.schema import (
    BLOCK_SIZE, DEFAULT_NUM_SEGMENTS, POSITION_INCREMENT_GAP, SALT_RANGE,
)
from rindex import segments as segio

TERMS_PER_ROW_GROUP = 1024  # postings.parquet row-group size -> term pruning
TERM_BUCKETS = 32  # term-shuffle reduce groups per segment (`_add_bucket`)
TOKENIZE_BATCH_ROWS = 1024  # docs per tokenize task batch


def hash_partition(values, num_segments: int) -> np.ndarray:
    """Stable cross-process partitioner (crc32 of the utf-8 key).

    Measured AGAINST vectorized alternatives before keeping the loop:
    zlib.crc32 (C, tiny keys) runs 0.26 us/row — 2x faster than
    pd.util.hash_array on int64 (1.5 s / 3 M rows; categorize overhead)
    and 3x faster than a numpy splitmix64 chain (uint64 multiplies are
    slow paths, 2.2 s / 3 M).  At ~1 KB docs this is <1% of ingest."""
    return np.fromiter(
        (zlib.crc32(str(v).encode()) % num_segments for v in values),
        dtype=np.int32,
        count=len(values),
    )


def _build_config(
    analyzer_name: str,
    num_segments: int,
    id_cols: tuple[str, ...],
    text_col: str,
    salt_range: int,
    keep_cols: tuple[str, ...] = (),
    with_positions: bool = False,
) -> dict:
    cfg = {
        "analyzer": analyzer_name,
        "num_segments": num_segments,
        "block_size": BLOCK_SIZE,
        "id_cols": list(id_cols),
        "text_col": text_col,
        "salt_range": salt_range,
        "keep_cols": list(keep_cols),
    }
    # key present only when enabled so non-positional config hashes (and
    # therefore existing checkpoints) are unchanged
    if with_positions:
        cfg["with_positions"] = True
    return cfg


def _make_assign_seg(key_col: str, num_segments: int, done_segs: frozenset):
    """Stage 1 (stateless task): add `seg`; drop rows of committed segments."""
    done = np.fromiter(done_segs, dtype=np.int32) if done_segs else None

    def assign_seg(batch: pa.Table) -> pa.Table:
        seg = hash_partition(batch[key_col].to_pylist(), num_segments)
        batch = batch.append_column("seg", pa.array(seg, pa.int32()))
        if done is not None:
            batch = batch.filter(pa.array(~np.isin(seg, done)))
        return batch

    return assign_seg


def _make_assign_docids(
    index_dir: str,
    id_cols: tuple[str, ...],
    text_col: str,
    keep_cols: list[str],
    gen: int = 0,
):
    """Stage 2 (per segment group): stable sort -> docIDs -> stored fields."""

    def assign(group: pa.Table) -> pa.Table:
        seg_id = int(group["seg"][0].as_py())
        group = group.sort_by([(c, "ascending") for c in id_cols])
        doc = pa.array(np.arange(len(group), dtype=np.int32), pa.int32())
        sdir = segio.seg_dir(index_dir, seg_id, gen)
        os.makedirs(sdir, exist_ok=True)
        stored_cols = {"doc": doc}
        for c in list(id_cols) + keep_cols + [text_col]:
            if c not in stored_cols:
                stored_cols[c] = group[c]
        docs_path = os.path.join(sdir, "docs.parquet")
        tmp = docs_path + f".tmp-{os.getpid()}"
        pq.write_table(pa.table(stored_cols), tmp)
        segio.atomic_rename_file(tmp, docs_path)
        return pa.table(
            {
                "seg": group["seg"],
                "doc": doc,
                "text": group[text_col],
            }
        )

    return assign


def _make_tokenize_local(analyzer_name: str, with_positions: bool = False):
    """Stage 3, combiner mode (stateless task): per batch, analyze text and
    emit one packed partial posting row per (seg, term).  Analyzer state is
    tiny (compiled regex) and module-level-cached per worker process, so a
    task — not an actor pool — is the right shape: an actor pool here would
    reserve CPUs away from the shuffle stages (classic starvation)."""

    return _make_tokenize_partials(
        analyzer_name, salt_range=None, with_positions=with_positions
    )


def _make_tokenize_partials_vec(salt_range: int | None):
    """Arrow-native tokenize+combine for the STANDARD analyzer (the hot
    path of the headline build): split_pattern_regex + dictionary_encode +
    np.unique replace the per-doc Python regex/Counter loop, with an exact
    per-candidate fallback to `standard_tokenize` for apostrophe-bearing or
    overlong candidates (the only places the split-on-complement regex
    differs from the analyzer's token regex).  Byte-identical output to the
    Python path (tests assert).  Custom analyzers and positional builds use
    the general `_make_tokenize_partials`."""
    from rindex.analysis import standard_tokenize
    from rindex.schema import MAX_TOKEN_LEN

    def tokenize_partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_docs = batch.num_rows
        if n_docs == 0:
            return _pack_acc({}, {})
        segs = batch["seg"].to_numpy()
        gdocs = batch["doc"].to_numpy().astype(np.int64)
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if pa.types.is_list(texts.type) or pa.types.is_large_list(texts.type):
            # multi-valued text: for a NON-positional build, joining values
            # with one space is tf/dl-identical to per-value tokenization
            # (the standard tokenizer never merges tokens across a space),
            # so the hot vectorized path stays vectorized for multi-valued
            # corpora too; positional builds route to the general path
            # where the position gap applies
            texts = pc.fill_null(pc.binary_join(texts, " "), "")
        # null text rows tokenize as empty (the Python path's `text or ""`)
        texts = pc.fill_null(texts, "")
        low = pc.utf8_lower(texts)
        # rows containing non-ASCII route to the exact Python tokenizer
        # (the UAX#29-ish unicode path in rindex.analysis) — the split
        # regex below is ASCII-only; such rows are rare in the target
        # corpus so the batch stays vectorized (one regex scan decides)
        ex_d: list[int] = []
        ex_t: list[str] = []
        na = pc.match_substring_regex(low, r"[^\x00-\x7f]").to_numpy(
            zero_copy_only=False
        )
        if na.any():
            if isinstance(low, pa.ChunkedArray):
                low = low.combine_chunks()
            for i in np.flatnonzero(na):
                for tt in standard_tokenize(low[i].as_py()):
                    ex_d.append(int(i))
                    ex_t.append(tt)
            low = pc.if_else(pa.array(na), pa.scalar("", pa.string()), low)
        splits = pc.split_pattern_regex(low, "[^0-9a-z']+")
        flat = pc.list_flatten(splits)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        lens = pc.list_value_length(splits).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        d_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        tlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        bad = pc.match_substring(flat, "'").to_numpy(zero_copy_only=False) | (
            tlen > MAX_TOKEN_LEN
        )
        good = (tlen > 0) & ~bad
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices).astype(np.int64)
        dic = enc.dictionary
        d_all, c_all = d_of[good], codes[good]
        if bad.any():
            # exact fallback for the rare candidates the split regex
            # over-captures; resolve their tokens against the dictionary
            # (shares the ex_d/ex_t lists with the non-ASCII row fallback)
            for i in np.flatnonzero(bad):
                for tt in standard_tokenize(flat[i].as_py()):
                    ex_d.append(int(d_of[i]))
                    ex_t.append(tt)
        if ex_t:
            ex_arr = pa.array(ex_t, pa.string())
            pos = pc.index_in(ex_arr, value_set=dic)
            pos_np = pos.to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            new_mask = np.isnan(pos_np)
            if new_mask.any():
                new_terms = pc.unique(ex_arr.filter(pa.array(new_mask)))
                dic = pa.concat_arrays(
                    [dic.cast(pa.string()), new_terms.cast(pa.string())]
                )
                pos = pc.index_in(ex_arr, value_set=dic)
                pos_np = pos.to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
            d_all = np.concatenate([d_all, np.asarray(ex_d, np.int64)])
            c_all = np.concatenate([c_all, pos_np.astype(np.int64)])
        if len(d_all) == 0:
            # zero valid tokens in the whole batch (blank/punctuation-only
            # rows): emit no partials, like the Python path
            return _pack_acc({}, {})
        # tf per (doc, term)
        n_codes = len(dic) + 1
        key = d_all * n_codes + c_all
        uk, tf = np.unique(key, return_counts=True)
        ud = uk // n_codes
        uc = uk % n_codes
        # norms from per-doc token counts
        dls = np.bincount(d_all, minlength=n_docs)
        norm_of_doc = encode_norms(dls)
        # row key: (seg, salt, code) of each (doc, term) entry
        seg_of = segs[ud].astype(np.int64)
        gdoc_of = gdocs[ud]
        salt_of = (
            np.zeros(len(ud), np.int64)
            if salt_range is None
            else gdoc_of // salt_range
        )
        n_salts = int(salt_of.max()) + 1 if len(salt_of) else 1
        rowkey = (seg_of * n_salts + salt_of) * n_codes + uc
        order = np.lexsort((gdoc_of, rowkey))
        rk_s = rowkey[order]
        starts = np.flatnonzero(
            np.concatenate([[True], rk_s[1:] != rk_s[:-1]])
        )
        bounds = np.append(starts, len(rk_s))
        docs_s = gdoc_of[order].astype(np.int32)
        tfs_s = tf[order].astype(np.int32)
        norms_s = norm_of_doc[ud[order]]
        dfs = np.diff(bounds)
        ttfs = np.add.reduceat(tfs_s.astype(np.int64), starts)
        row_code = uc[order][starts]
        row_seg = seg_of[order][starts].astype(np.int32)
        row_salt = (
            np.full(len(starts), -1, np.int32)
            if salt_range is None
            else salt_of[order][starts].astype(np.int32)
        )
        terms_arr = pc.take(dic, pa.array(row_code, pa.int64()))
        db, tb, nb = docs_s.tobytes(), tfs_s.tobytes(), norms_s.tobytes()
        docs_col = [db[4 * a: 4 * b] for a, b in zip(bounds[:-1], bounds[1:])]
        tfs_col = [tb[4 * a: 4 * b] for a, b in zip(bounds[:-1], bounds[1:])]
        norms_col = [nb[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        return pa.table(
            {
                "seg": pa.array(row_seg, pa.int32()),
                "term": terms_arr.cast(pa.string()),
                "salt": pa.array(row_salt, pa.int32()),
                "first_doc": pa.array(docs_s[starts].astype(np.int32), pa.int32()),
                "df": pa.array(dfs.astype(np.int64), pa.int64()),
                "ttf": pa.array(ttfs, pa.int64()),
                "docs": pa.array(docs_col, pa.binary()),
                "tfs": pa.array(tfs_col, pa.binary()),
                "norms": pa.array(norms_col, pa.binary()),
            }
        )

    return tokenize_partials


def _make_tokenize_partials(
    analyzer_name: str, salt_range: int | None, with_positions: bool = False
):
    """Shared combiner: per batch, analyze text and emit one packed partial
    posting row per (seg, term[, doc-range salt]).  With salt_range set
    (term-shuffle mode), a hot term's partials split at doc-range boundaries
    so downstream shuffle rows stay bounded.  with_positions additionally
    packs within-doc token positions per partial (IndexOptions
    DOCS_AND_FREQS_AND_POSITIONS analog)."""

    def tokenize_partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        analyzer = get_analyzer(analyzer_name)
        segs = batch["seg"].to_numpy()
        docs = batch["doc"].to_numpy()
        ttype = batch["text"].type
        multivalued = pa.types.is_list(ttype) or pa.types.is_large_list(ttype)
        if multivalued:
            # multi-valued text field (Solr multiValued=true TextField):
            # each row is a LIST of values; tokens concatenate across
            # values, positions jump by POSITION_INCREMENT_GAP between
            # values (phrases can't match across value boundaries —
            # `lucene/core/src/java/org/apache/lucene/document/FieldType.java`
            # positionIncrementGap), dl = total token count (gaps don't
            # contribute to norms)
            texts = batch["text"].to_pylist()
        else:
            texts = pc.utf8_lower(batch["text"]).to_pylist()
        # accumulate per (seg, term, salt): lists of (doc, tf[, positions])
        acc: dict[tuple[int, str, int], list] = {}
        dls = np.zeros(len(texts), dtype=np.int64)
        for i, text in enumerate(texts):
            s = int(segs[i])
            d = int(docs[i])
            salt = -1 if salt_range is None else d // salt_range
            values = (text or []) if multivalued else [text]
            if with_positions:
                per_term: dict[str, list[int]] = {}
                pos_off = 0
                for v in values:
                    toks = analyzer.tokens(v or "")
                    dls[i] += len(toks)
                    for p, term in enumerate(toks):
                        per_term.setdefault(term, []).append(pos_off + p)
                    pos_off += len(toks) + POSITION_INCREMENT_GAP
                for term, plist in per_term.items():
                    acc.setdefault((s, term, salt), []).append(
                        (d, len(plist), plist)
                    )
            else:
                tf: Counter = Counter()
                for v in values:
                    tf.update(analyzer.term_freqs(v or ""))
                dls[i] = sum(tf.values())
                for term, f in tf.items():
                    acc.setdefault((s, term, salt), []).append((d, f))
        norms_all = encode_norms(dls)
        # key by (seg, doc): docIDs are segment-local ordinals, so a batch
        # spanning segments can contain the same ordinal twice
        doc_to_norm = {
            (int(s), int(d)): int(n)
            for s, d, n in zip(segs, docs, norms_all)
        }
        return _pack_acc(acc, doc_to_norm, with_positions)

    return tokenize_partials


def _pack_acc(
    acc: dict, doc_to_norm: dict, with_positions: bool = False
) -> pa.Table:
    seg_col, term_col, salt_col, first_col = [], [], [], []
    df_col, ttf_col = [], []
    docs_col, tfs_col, norms_col, pos_col = [], [], [], []
    for (s, term, salt), pairs in acc.items():
        # plain tuple sort (C compare): doc is unique within a partial so
        # the comparison never reaches the positions list element
        pairs.sort()
        d = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=len(pairs))
        t = np.fromiter((p[1] for p in pairs), dtype=np.int32, count=len(pairs))
        n = np.fromiter(
            (doc_to_norm[(s, int(x))] for x in d), dtype=np.uint8, count=len(d)
        )
        seg_col.append(s)
        term_col.append(term)
        salt_col.append(salt)
        first_col.append(int(d[0]))
        df_col.append(len(d))
        ttf_col.append(int(t.sum()))
        docs_col.append(d.tobytes())
        tfs_col.append(t.tobytes())
        norms_col.append(n.tobytes())
        if with_positions:
            pos_col.append(
                np.fromiter(
                    (p for pair in pairs for p in pair[2]),
                    dtype=np.int32,
                    count=int(t.sum()),
                ).tobytes()
            )
    cols = {
        "seg": pa.array(seg_col, pa.int32()),
        "term": pa.array(term_col, pa.string()),
        "salt": pa.array(salt_col, pa.int32()),
        "first_doc": pa.array(first_col, pa.int32()),
        "df": pa.array(df_col, pa.int64()),
        "ttf": pa.array(ttf_col, pa.int64()),
        "docs": pa.array(docs_col, pa.binary()),
        "tfs": pa.array(tfs_col, pa.binary()),
        "norms": pa.array(norms_col, pa.binary()),
    }
    if with_positions:
        cols["pos"] = pa.array(pos_col, pa.binary())
    return pa.table(cols)


def _add_bucket(batch: pa.Table) -> pa.Table:
    """Term-shuffle mode: the explicit groupby(term) shuffle key is
    (seg, bucket) with bucket = crc32(term) % TERM_BUCKETS — a COARSE term
    partition, so one reduce group holds ~1/TERM_BUCKETS of a segment's
    postings and the per-group merge is one vectorized kernel call instead
    of per-term Python (the map_groups-per-term shape costs ~1 ms/group in
    scheduler+slicing overhead, which at Zipf vocab sizes dominates the
    whole build)."""
    b = np.fromiter(
        (zlib.crc32(t.encode()) % TERM_BUCKETS for t in batch["term"].to_pylist()),
        dtype=np.int32,
        count=len(batch),
    )
    return batch.append_column("bucket", pa.array(b, pa.int32()))


def _merge_bucket(group: pd.DataFrame) -> pa.Table:
    """Per (seg, bucket) reduce: vectorized merge+encode of all partials of
    the bucket's terms -> final encoded posting rows (term-sorted within)."""
    seg_id = int(group["seg"].iloc[0])
    table, _stats = merge_partials_to_postings(group, with_partial_counts=True)
    return table.append_column(
        "seg", pa.array(np.full(table.num_rows, seg_id, dtype=np.int32))
    )


ENCODE_CHUNK_POSTINGS = 250_000


def merge_partials_to_postings(
    group: pd.DataFrame, with_partial_counts: bool = False
) -> tuple[pa.Table, dict]:
    """Vectorized merge of packed partial postings into the final term-sorted
    postings table.  No per-term Python: one lexsort over all postings + one
    `encode_postings_batch` pass (the whole-segment codec kernel), with the
    output table assembled zero-copy from offset buffers.

    Above ENCODE_CHUNK_POSTINGS total postings the work splits at term
    boundaries and recurses per chunk (outputs concatenate term-sorted):
    the bit-pack kernel builds O(total_bits) int64 index arrays, and one
    11M-posting segment merge was measured 30x slower than the same volume
    in bounded chunks (allocation/cache blowup) — this is what the build's
    (seg, bucket) reduce gets for free from bucketing."""
    if len(group) > 1 and group["df"].sum() > ENCODE_CHUNK_POSTINGS:
        g = group.sort_values(["term", "first_doc"], kind="mergesort")
        terms = g["term"].to_numpy()
        # split at term boundaries into roughly equal-posting chunks
        cum = g["df"].to_numpy().cumsum()
        n_chunks = int(cum[-1] // ENCODE_CHUNK_POSTINGS) + 1
        targets = [cum[-1] * (i + 1) / n_chunks for i in range(n_chunks - 1)]
        cuts = []
        for tgt in targets:
            i = int(np.searchsorted(cum, tgt))
            i = min(i, len(g) - 1)
            # advance to the end of the current term run
            t = terms[i]
            while i + 1 < len(g) and terms[i + 1] == t:
                i += 1
            cuts.append(i + 1)
        bounds = sorted(set([0] + cuts + [len(g)]))
        if len(bounds) <= 2:
            # could not split (one giant term run) -> encode directly
            return _merge_partials_encode(g, with_partial_counts)
        tables, statss = [], []
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a == b:
                continue
            tb, st = _merge_partials_encode(g.iloc[a:b], with_partial_counts)
            tables.append(tb)
            statss.append(st)
        table = pa.concat_tables(tables).combine_chunks()
        stats = {
            "sum_ttf": sum(s["sum_ttf"] for s in statss),
            "max_partials_per_term": max(
                s["max_partials_per_term"] for s in statss
            ),
            "n_multi_partial_terms": sum(
                s["n_multi_partial_terms"] for s in statss
            ),
        }
        return table, stats

    return _merge_partials_encode(group, with_partial_counts)


def _merge_partials_encode(
    group: pd.DataFrame, with_partial_counts: bool = False
) -> tuple[pa.Table, dict]:
    """Direct (non-chunked) vectorized merge+encode of packed partials."""
    from rindex.codec import encode_postings_batch

    if len(group) == 0:
        from rindex.schema import POSTINGS_SCHEMA

        return POSTINGS_SCHEMA.empty_table(), {
            "sum_ttf": 0, "max_partials_per_term": 0, "n_multi_partial_terms": 0,
        }
    has_pos = "pos" in group.columns
    term_vals = group["term"].to_numpy()
    terms, codes = np.unique(term_vals, return_inverse=True)
    part_dfs = group["df"].to_numpy().astype(np.int64)
    first_docs = group["first_doc"].to_numpy()
    # order partials by (term, first_doc) so same-term runs concatenate in
    # ascending doc-range order (the doc-range-salt guarantee)
    order = np.lexsort((first_docs, codes))
    codes_o = codes[order]
    dfs_o = part_dfs[order]
    docs_bytes = group["docs"].to_numpy()[order]
    tfs_bytes = group["tfs"].to_numpy()[order]
    norms_bytes = group["norms"].to_numpy()[order]
    big_docs = np.frombuffer(b"".join(docs_bytes), dtype=np.int32).astype(np.int64)
    big_tfs = np.frombuffer(b"".join(tfs_bytes), dtype=np.int32).astype(np.int64)
    big_norms = np.frombuffer(b"".join(norms_bytes), dtype=np.uint8)
    term_of = np.repeat(codes_o, dfs_o)
    # batch boundaries may interleave doc ranges in combiner mode: always
    # sort (stable; already near-sorted so cost is low)
    so = np.lexsort((big_docs, term_of))
    if has_pos:
        # gather each doc entry's position run under the same permutation
        # (occurrence-granular: run start/length from the pre-sort tfs)
        pos_bytes = group["pos"].to_numpy()[order]
        big_pos = np.frombuffer(b"".join(pos_bytes), dtype=np.int32).astype(
            np.int64
        )
        starts_pre = np.concatenate([[0], np.cumsum(big_tfs)[:-1]])
        lens_s = big_tfs[so]
        occ_idx = np.repeat(starts_pre[so], lens_s) + (
            np.arange(int(lens_s.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(lens_s) - lens_s, lens_s)
        )
        big_pos = big_pos[occ_idx]
    big_docs, big_tfs, big_norms = big_docs[so], big_tfs[so], big_norms[so]
    n_terms = len(terms)
    per_term_df = np.bincount(codes_o, weights=dfs_o, minlength=n_terms).astype(
        np.int64
    )
    term_bounds = np.concatenate([[0], np.cumsum(per_term_df)])
    enc = encode_postings_batch(term_bounds, big_docs, big_tfs, big_norms)
    nb = enc["block_counts"].astype(np.int32)
    blk_bounds = np.concatenate([[0], np.cumsum(nb)]).astype(np.int32)

    def list_arr(values: np.ndarray, typ) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            pa.array(blk_bounds, pa.int32()), pa.array(values, typ)
        )

    blob_arr = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        n_terms,
        [
            None,
            pa.py_buffer(enc["blob_offsets"].astype(np.int64).tobytes()),
            pa.py_buffer(enc["blob_data"].tobytes()),
        ],
    )
    if len(enc["blob_data"]) < 2**31 - 1:
        blob_arr = blob_arr.cast(pa.binary())  # POSTINGS_SCHEMA type; >2GB
        # segments keep large_binary (parquet stores both as BYTE_ARRAY)
    cols = {
        "term": pa.array(terms, pa.string()),
        "df": pa.array(enc["df"], pa.int64()),
        "ttf": pa.array(enc["ttf"], pa.int64()),
        "block_first_doc": list_arr(enc["block_first_doc"], pa.int32()),
        "block_last_doc": list_arr(enc["block_last_doc"], pa.int32()),
        "block_max_tf": list_arr(enc["block_max_tf"], pa.int32()),
        "block_min_norm": list_arr(enc["block_min_norm"], pa.uint8()),
        "block_offset": list_arr(enc["block_offset"], pa.int64()),
        "blob": blob_arr,
    }
    if has_pos:
        from rindex.codec import encode_positions_batch

        cum_occ = np.concatenate([[0], np.cumsum(big_tfs)])
        occ_term_bounds = cum_occ[term_bounds]
        run_mask = np.zeros(int(cum_occ[-1]), dtype=bool)
        run_mask[cum_occ[:-1]] = True
        p_data, p_off, p_width = encode_positions_batch(
            occ_term_bounds, run_mask, big_pos
        )
        cols["pos_blob"] = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            n_terms,
            [
                None,
                pa.py_buffer(p_off.astype(np.int64).tobytes()),
                pa.py_buffer(p_data.tobytes()),
            ],
        ).cast(pa.binary())
        cols["pos_width"] = pa.array(p_width.astype(np.uint8), pa.uint8())
    table = pa.table(cols)
    partials_per_term = np.bincount(codes_o, minlength=n_terms)
    if with_partial_counts:
        table = table.append_column(
            "term_n_partials", pa.array(partials_per_term, pa.int32())
        )
    stats = {
        "sum_ttf": int(enc["ttf"].sum()),
        "max_partials_per_term": int(partials_per_term.max()),
        "n_multi_partial_terms": int((partials_per_term > 1).sum()),
    }
    return table, stats


class SegmentWriter:
    """Stage 4 (actor pool): merge a segment's partial postings per term,
    block-encode once, write term-sorted postings.parquet + meta.json +
    `_SUCCESS`, and emit one manifest row.  The reference analog is the
    codec write path (`Lucene84PostingsWriter` + `BlockTreeTermsWriter`)."""

    def __init__(self, index_dir: str, cfg: dict, fingerprint: str, gen: int = 0):
        self.index_dir = index_dir
        self.cfg = cfg
        self.cfg_hash = segio.config_hash(cfg)
        self.fingerprint = fingerprint
        self.gen = gen

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        seg_id = int(group["seg"].iloc[0])
        n_partials = len(group)
        table, stats = merge_partials_to_postings(group)
        return self._write(seg_id, table, stats, n_partials)

    def _write(
        self, seg_id: int, table: pa.Table, stats: dict, n_partials: int
    ) -> pd.DataFrame:
        sdir = segio.seg_dir(self.index_dir, seg_id, self.gen)
        dfs = table["df"].to_numpy() if table.num_rows else np.zeros(0)
        post_path = os.path.join(sdir, "postings.parquet")
        tmp = post_path + f".tmp-{os.getpid()}"
        pq.write_table(table, tmp, row_group_size=TERMS_PER_ROW_GROUP)
        segio.atomic_rename_file(tmp, post_path)
        doc_count = pq.ParquetFile(
            os.path.join(sdir, "docs.parquet")
        ).metadata.num_rows
        postings_bytes = os.path.getsize(post_path)
        meta = {
            "seg_id": seg_id,
            "gen": int(self.gen),
            "doc_count": int(doc_count),
            "max_doc": int(doc_count),
            "sum_dl": int(stats["sum_ttf"]),
            "n_terms": int(table.num_rows),
            "postings_bytes": int(postings_bytes),
            "total_postings": int(dfs.sum()),
            "max_df": int(dfs.max()) if len(dfs) else 0,
            "n_partials": int(n_partials),
            "max_partials_per_term": int(stats["max_partials_per_term"]),
            "n_multi_partial_terms": int(stats["n_multi_partial_terms"]),
            "lineage": {
                "config_hash": self.cfg_hash,
                "input_fingerprint": self.fingerprint,
            },
        }
        segio.atomic_write_json(os.path.join(sdir, "meta.json"), meta)
        segio.write_success(
            sdir,
            {
                "config_hash": self.cfg_hash,
                "input_fingerprint": self.fingerprint,
            },
        )
        return pd.DataFrame([{"seg_id": seg_id}])


class EncodedSegmentWriter(SegmentWriter):
    """Term-shuffle-mode stage 5: the bucket reducers already merged and
    encoded; this writer just term-sorts the segment's encoded rows and
    writes the files (pure IO — the encode CPU was distributed across the
    (seg, bucket) reduce)."""

    def __call__(self, group: pa.Table) -> pd.DataFrame:  # type: ignore[override]
        seg_id = int(group["seg"][0].as_py())
        group = group.sort_by("term")
        pc_counts = group["term_n_partials"].to_numpy()
        stats = {
            "sum_ttf": int(
                np.asarray(group["ttf"].to_numpy(zero_copy_only=False)).sum()
            ),
            "max_partials_per_term": int(pc_counts.max()) if len(pc_counts) else 0,
            "n_multi_partial_terms": int((pc_counts > 1).sum()),
        }
        n_partials = int(pc_counts.sum())
        table = group.drop_columns(["seg", "term_n_partials"])
        return self._write(seg_id, table, stats, n_partials)


def build_index(
    source,
    index_dir: str,
    *,
    num_segments: int = DEFAULT_NUM_SEGMENTS,
    analyzer_name: str = "standard",
    mode: str = "term_shuffle",
    id_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
    text_col: str = "text",
    keep_cols: tuple[str, ...] = ("role", "tool", "ts"),
    salt_range: int = SALT_RANGE,
    resume: bool = True,
    input_files: list[str] | None = None,
    generation: int = 0,
    with_positions: bool = False,
) -> dict:
    """Build an index from a Ray Dataset (or parquet path/dir).  Returns the
    published manifest dict.  Does NOT call ray.init().

    generation > 0 appends a new micro-batch of segments (one per hash
    slot) to an existing index — the soft-commit/NRT micro-batching analog
    (`DirectUpdateHandler2#commit` + `DirectoryReader#openIfChanged`,
    SURVEY.md §2.9): each build round is one segment generation, and the
    manifest swap makes it visible atomically.  A re-ingested
    (conv_id, turn_idx) replaces its older versions like `updateDocument`:
    they are marked deleted in the same manifest swap
    (`rindex.deletes.delete_superseded`), and the next merge of the slot
    drops them."""
    import ray.data as rd

    if isinstance(source, (str, list)):
        paths = source
        if isinstance(paths, str) and os.path.isdir(paths):
            input_files = input_files or [
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith(".parquet")
            ]
        elif isinstance(paths, str):
            input_files = input_files or [paths]
        elif isinstance(paths, list):
            input_files = input_files or paths
        cols = list(dict.fromkeys(list(id_cols) + list(keep_cols) + [text_col]))
        ds = rd.read_parquet(paths, columns=cols)
    else:
        ds = source

    if num_segments == "auto":
        # segment count must GROW with the corpus: fixed 16 segments at 8x
        # the headline volume halved build throughput (180k-doc sort+write
        # groups bottleneck on 16-way parallelism).  ~45k docs/segment
        # measured fastest; derived from input metadata only, so the value
        # is deterministic for a given input at any parallelism level.
        if input_files:
            n_rows = sum(
                pq.read_metadata(f).num_rows for f in input_files
            )
            num_segments = max(
                DEFAULT_NUM_SEGMENTS, int(np.ceil(n_rows / 45_000))
            )
        else:
            num_segments = DEFAULT_NUM_SEGMENTS

    cfg = _build_config(
        analyzer_name, num_segments, id_cols, text_col, salt_range, keep_cols,
        with_positions,
    )
    cfg_hash = segio.config_hash(cfg)
    fingerprint = segio.input_fingerprint(input_files)
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)

    done = frozenset(
        s
        for s in range(num_segments)
        if resume
        and segio.segment_done(
            segio.seg_dir(index_dir, s, generation), cfg_hash, fingerprint
        )
    )

    if len(done) < num_segments:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 4))
        # The writer is IO-bound (term_shuffle mode: encode already
        # happened in the bucket reduce) — a small actor pool; a large
        # one reserves CPUs away from the tokenize/shuffle stages for
        # the whole pipeline lifetime and starves them (measured: 2x).
        writer_concurrency = max(2, min(num_segments, ncpu // 8))
        # the pool holds its CPUs for the whole pipeline: leave the upstream
        # tasks at least one whole CPU, or on a 1-2 CPU session they never
        # schedule and the build never returns (1 CPU per writer from 3 CPUs
        # up with the default pool)
        writer_cpus = min(1.0, max(0, ncpu - 1) / writer_concurrency)
        ds = ds.map_batches(
            _make_assign_seg(id_cols[0], num_segments, done),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        ds = ds.groupby("seg").map_groups(
            _make_assign_docids(
                index_dir, id_cols, text_col, list(keep_cols), generation
            ),
            batch_format="pyarrow",
        )
        if mode == "local":
            tok_fn = (
                _make_tokenize_partials_vec(None)
                if analyzer_name == "standard" and not with_positions
                else _make_tokenize_local(analyzer_name, with_positions)
            )
            partials = ds.map_batches(
                tok_fn,
                batch_format="pyarrow",
                batch_size=TOKENIZE_BATCH_ROWS,
                zero_copy_batch=True,
            )
            written = partials.groupby("seg").map_groups(
                SegmentWriter,
                fn_constructor_args=(index_dir, cfg, fingerprint, generation),
                batch_format="pandas",
                concurrency=writer_concurrency,
                num_cpus=writer_cpus,
            )
        elif mode == "term_shuffle":
            tok_fn = (
                _make_tokenize_partials_vec(salt_range)
                if analyzer_name == "standard" and not with_positions
                else _make_tokenize_partials(
                    analyzer_name, salt_range, with_positions
                )
            )
            partials = ds.map_batches(
                tok_fn,
                batch_format="pyarrow",
                batch_size=TOKENIZE_BATCH_ROWS,
                zero_copy_batch=True,
            ).map_batches(
                _add_bucket,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            merged = partials.groupby(["seg", "bucket"]).map_groups(
                _merge_bucket, batch_format="pandas"
            )
            written = merged.groupby("seg").map_groups(
                EncodedSegmentWriter,
                fn_constructor_args=(index_dir, cfg, fingerprint, generation),
                batch_format="pyarrow",
                concurrency=writer_concurrency,
                num_cpus=writer_cpus,
            )
        else:
            raise ValueError(f"unknown mode {mode!r}")
        written.materialize()  # execute the pipeline (manifest rows are tiny)

    metas = []
    for s in range(num_segments):
        sdir = segio.seg_dir(index_dir, s, generation)
        if segio.segment_done(sdir, cfg_hash, fingerprint):
            metas.append(segio.read_meta(sdir))
    if generation > 0:
        # append: keep every live segment of other generations, with the
        # older versions of the new generation's ids marked deleted
        from rindex.deletes import delete_superseded

        prior = segio.read_manifest(index_dir)["segments"]
        older = [m for m in prior if m.get("gen", 0) != generation]
        metas = delete_superseded(index_dir, older, metas, list(id_cols)) + metas
    return segio.write_manifest(index_dir, metas, cfg)


def append_index(source, index_dir: str, **kwargs) -> dict:
    """One incremental micro-batch: index `source` as the next segment
    generation of an existing index (topic/checkpoint-style incremental
    runs — SURVEY.md §2.9).  Ids already in the index are updated: their
    older versions are deleted when the new generation is published.
    Returns the new manifest."""
    prior = segio.read_manifest(index_dir)
    next_gen = 1 + max(int(m.get("gen", 0)) for m in prior["segments"])
    cfg = prior["config"]
    for key, val in (
        ("num_segments", cfg["num_segments"]),
        ("analyzer_name", cfg["analyzer"]),
        ("id_cols", tuple(cfg["id_cols"])),
        ("text_col", cfg["text_col"]),
        ("salt_range", cfg["salt_range"]),
        ("keep_cols", tuple(cfg.get("keep_cols", ("role", "tool", "ts")))),
        ("with_positions", bool(cfg.get("with_positions", False))),
    ):
        # a caller-supplied override that disagrees with the index's stored
        # config would create mixed generations in one slot (e.g. positional
        # + non-positional segments that crash at merge) — refuse loudly
        if key in kwargs:
            got = kwargs[key]
            got_n = tuple(got) if isinstance(got, (list, tuple)) else got
            if got_n != val:
                raise ValueError(
                    f"append_index: {key}={got!r} conflicts with the "
                    f"index's stored config value {val!r}; incremental "
                    "generations must share the build config"
                )
        kwargs.setdefault(key, val)
    return build_index(source, index_dir, generation=next_gen, **kwargs)
