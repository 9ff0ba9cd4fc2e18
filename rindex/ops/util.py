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
