"""BM25 scoring kernel (k1=1.2, b=0.75), Lucene-8.x semantics.

Formula re-implemented from the reference
(`lucene/core/src/java/org/apache/lucene/search/similarities/BM25Similarity.java`,
8.x — the (k1+1) numerator factor was removed in 8.0 / LUCENE-8563):

    idf(t)   = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(t) = idf(t) * tf / (tf + k1 * (1 - b + b * dl / avgdl))

with N = docCount, avgdl = sumTotalTermFreq / docCount (exact), and dl the
*lossy* SmallFloat-decoded field length (rindex/codec.py int_to_byte4 —
"lucene-lossy" mode, the tested contract per FIXTURES.md §3).  All math is
float64; exact-float64-dl mode is available via `lossy=False`.

Collection stats are GLOBAL across segments (Lucene computes idf/avgdl from
CollectionStatistics over the whole IndexSearcher, not per segment), so the
searcher sums df/ttf/doc_count over every live segment before scoring.
"""

from __future__ import annotations

import numpy as np

from rindex.codec import NORM_DECODE_TABLE
from rindex.schema import B, K1


def idf(df: int | np.ndarray, n_docs: int) -> np.ndarray:
    df = np.asarray(df, dtype=np.float64)
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def norm_len_cache(avgdl: float, k1: float = K1, b: float = B) -> np.ndarray:
    """256-entry cache of k1*(1-b+b*dl/avgdl) per norm byte (the reference's
    BM25Scorer `cache[]`, but kept as the denominator addend in float64)."""
    dl = NORM_DECODE_TABLE.astype(np.float64)
    return k1 * (1.0 - b + b * dl / avgdl)
