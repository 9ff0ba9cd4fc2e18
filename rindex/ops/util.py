"""Shared helpers for the operator suite."""

from __future__ import annotations

import os
import threading

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.schema import pool_cap


def cache_dir(sf_dir: str, tag: str) -> str:
    """Per-(sf_dir, tag) scratch directory under the ONE cache root —
    every op module keys private indexes/wire files this way (a cache-root
    or key-scheme change edits exactly one place)."""
    import hashlib

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    return os.path.join("/tmp", "rindex_cache", f"{tag}-{key}")


_READ_LOCK = threading.Lock()


def read_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """Pruned parquet read (columns pushed down to the scan).

    Datasource CONSTRUCTION is serialized: Ray's ParquetDatasource probes
    fsspec's lazily-imported http module, whose import FAILS here (no
    aiohttp) and therefore never caches — two threads racing that import
    see a partially-initialized module and die with a plain ImportError
    Ray doesn't catch.  Construction is milliseconds (schema inference);
    execution stays fully concurrent."""
    import ray.data as rd

    with _READ_LOCK:
        return rd.read_parquet(
            os.path.join(sf_dir, f"{name}.parquet"), columns=columns
        )


def broadcast_join(ds, small_df: pd.DataFrame, on, how: str = "inner"):
    """Broadcast hash join: the small side is put in the object store ONCE
    and merged per batch — no shuffle (SURVEY.md §2.4 hashJoin/fetch()
    mapping; the reference builds the small side in memory the same way,
    `solr/solrj/.../io/stream/HashJoinStream.java`)."""
    import ray

    ref = ray.put(small_df)

    class _Join:
        def __init__(self):
            self.small = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.small, on=on, how=how)

    return ds.map_batches(_Join, batch_format="pandas", concurrency=pool_cap(min_cap=4))


def broadcast_semi_filter(ds, keys, col: str, anti: bool = False):
    """Semi / anti join via a broadcast key set
    (`io/stream/{IntersectStream,ComplementStream}.java` mapping)."""
    import numpy as np
    import ray

    ref = ray.put(np.asarray(sorted(set(keys))))

    def f(batch: pa.Table) -> pa.Table:
        import numpy as np

        ks = ray.get(ref)
        vals = batch[col].to_numpy()
        if len(ks) == 0:
            hit = np.zeros(len(vals), dtype=bool)  # empty set matches nothing
        else:
            pos = np.searchsorted(ks, vals)
            pos = np.clip(pos, 0, len(ks) - 1)
            hit = ks[pos] == vals
        if anti:
            hit = ~hit
        return batch.filter(pa.array(hit))

    return ds.map_batches(f, batch_format="pyarrow")


# Coarse-bucket shuffle modulus: a reduce task of `bucket_map_groups` owns
# ~1/N_BUCKETS of the groups.  Never changes results (each group is
# processed whole), only reduce-task sizing.
N_BUCKETS = 127


def md5_key(col: str):
    """`bucket_map_groups` key for a column whose values are not small
    ints: the first 4 bytes of md5(str(value)), little-endian.  Python's
    hash() is seed-randomized across Ray workers and would split a group
    across buckets; only DISTINCT values are hashed (dictionary encode +
    gather)."""
    import hashlib

    def key(t: pa.Table) -> np.ndarray:
        enc = t[col].combine_chunks().dictionary_encode()
        hs = np.array(
            [
                int.from_bytes(hashlib.md5(str(v).encode()).digest()[:4], "little")
                for v in enc.dictionary.to_pylist()
            ],
            dtype=np.int64,
        )
        return hs[enc.indices.to_numpy(zero_copy_only=False)]

    return key


def add_bucket_column(t: pa.Table, key, n_buckets: int) -> pa.Table:
    """`t` plus the int32 shuffle column `_gb` = key % n_buckets, where
    `key` is an integer column name or a function table -> int array.
    Schema metadata is dropped: Ray's block-schema unification hashes the
    schemas, and one carrying metadata (parquet's pandas dict) is
    unhashable, so every reduce would log and take the slow path."""
    k = key(t) if callable(key) else t[key].to_numpy(zero_copy_only=False)
    gb = (np.asarray(k) % n_buckets).astype(np.int32)
    return t.replace_schema_metadata(None).append_column("_gb", pa.array(gb))


def bucket_map_groups(ds, key, fn, n_buckets: int):
    """The ops' one coarse-bucket shuffle: rows are bucketed by
    `key % n_buckets` (see `add_bucket_column`), one sort-based
    `groupby("_gb").map_groups` brings each bucket to one task, and `fn`
    gets the bucket's rows as a pandas frame without `_gb`.  A bucket
    holds whole groups of `key`, so `fn` may finish every group it sees.
    Sort-based on purpose: a hash-shuffle `repartition(keys=)` is ~10x
    slower on these small groups (ROADMAP item 6).  `_gb` is dropped from
    the Arrow group, before the pandas conversion: a pandas drop copies
    the frame, once per bucket, and the near-dup ops run 509 buckets per
    shuffle."""
    return (
        ds.map_batches(lambda t: add_bucket_column(t, key, n_buckets),
                       batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_gb")
        .map_groups(lambda t: fn(t.drop_columns(["_gb"]).to_pandas()),
                    batch_format="pyarrow")
    )


def to_pandas_sorted(ds, by: list[str]) -> pd.DataFrame:
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return df.sort_values(by).reset_index(drop=True)


def dictionary_stats(index_dir: str, columns: list[str]) -> pd.DataFrame:
    """Aggregate the index TERM DICTIONARY across live segments: one row
    per term with the requested stat columns summed (df/ttf are additive
    across segments).  Dictionary columns only — postings blobs never
    projected; accumulation is ONE vectorized pandas groupby, no
    per-term Python.  The dictionary is the designated small side
    (vocabulary-sized) — every op that needs corpus df/ttf reads it
    through this ONE helper so a segment-layout change edits one place."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from rindex.segments import read_manifest, seg_dir

    man = read_manifest(index_dir)
    parts = [
        pq.read_table(
            os.path.join(
                seg_dir(index_dir, m["seg_id"], m.get("gen", 0)),
                "postings.parquet",
            ),
            columns=["term"] + columns,
        )
        for m in man["segments"]
    ]
    df = pa.concat_tables(parts).to_pandas()
    if not columns:
        return df.drop_duplicates("term").reset_index(drop=True)
    return df.groupby("term", as_index=False)[columns].sum()


def live_id_rows(reader, docs, *values) -> list[tuple]:
    """[(doc_id, *values)] for the live docs of `docs` — one reader's
    ascending docIDs, each with its aligned `values` — ids fetched once;
    a reader's docID order is its id order, so the rows come sorted by
    doc_id (`rindex.search._rows_by_id`)."""
    from rindex.search import _rows_by_id

    docs = np.asarray(docs, dtype=np.int64)
    live = np.isin(docs, reader.drop_deleted(docs))
    vals = list(zip(*(np.asarray(v)[live] for v in values)))
    return [(i, *v) for i, v in _rows_by_id(reader, ["doc_id"], docs[live], vals)]
