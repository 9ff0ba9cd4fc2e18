"""Reference computations made apart from the engine.

The naive BM25 shares only the analyzer with rindex: it builds its own
inverted lists from the analyzed tokens with numpy, re-derives Lucene's lossy
SmallFloat field-length norm (`intToByte4`) from its definition, and scores
with the Lucene 8 BM25 formula (k1 = 1.2, b = 0.75, no (k1 + 1) factor):

    idf   = ln(1 + (N - df + 0.5) / (df + 0.5))
    score = idf * tf / (tf + k1 * (1 - b + b * dl / avgdl))

with dl the norm-decoded length, avgdl the exact mean length, and N, df
taken over every document of the index.  Phrases are found by scanning each
candidate document's token list for the adjacent token run.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

K1 = 1.2
B = 0.75
SCORE_RTOL = 1e-9


# ------------------------------------------------------------ SmallFloat

def byte4_to_int(b: int) -> int:
    """Decode one norm byte.  Bytes 0..23 are exact lengths; above that the
    byte holds a float with a 3-bit mantissa (implicit leading one) and the
    exponent in the high bits, offset by 24."""
    if b < 24:
        return b
    v = b - 24
    exp, mant = (v >> 3) - 1, v & 7
    return 24 + (mant if exp < 0 else (8 | mant) << exp)


NORM_TABLE = np.array([byte4_to_int(b) for b in range(256)], dtype=np.int64)


def int_to_byte4(n: int) -> int:
    """The largest norm byte whose decoded length does not exceed n."""
    if n < 0:
        raise ValueError("lengths are non-negative")
    return int(np.searchsorted(NORM_TABLE, n, side="right") - 1)


def lossy_lengths(dl: np.ndarray) -> np.ndarray:
    return NORM_TABLE[np.searchsorted(NORM_TABLE, dl, side="right") - 1]


# ------------------------------------------------------------ BM25

class NaiveBM25:
    """Exhaustive BM25 over a fixed list of analyzed documents."""

    def __init__(self, ids: list[tuple], tokens: list[list[str]]):
        self.ids = ids
        self.tokens = tokens
        self.n_docs = len(tokens)
        dl = np.fromiter((len(t) for t in tokens), np.int64, self.n_docs)
        self.sum_dl = int(dl.sum())
        self.avgdl = self.sum_dl / max(1, self.n_docs)
        self.dl_lossy = lossy_lengths(dl).astype(np.float64)
        flat = pa.array([t for doc in tokens for t in doc], pa.string())
        enc = pc.dictionary_encode(flat)
        term_ids = enc.indices.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(self.n_docs, dtype=np.int64), dl)
        key = term_ids * self.n_docs + doc_of
        uniq, tf = np.unique(key, return_counts=True)
        self._docs = uniq % self.n_docs
        self._tfs = tf.astype(np.float64)
        t_of = uniq // self.n_docs
        n_terms = len(enc.dictionary)
        self._bounds = np.searchsorted(t_of, np.arange(n_terms + 1))
        self._term_id = {t: i for i, t in enumerate(enc.dictionary.to_pylist())}

    def postings(self, term: str):
        i = self._term_id.get(term)
        if i is None:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self._docs[lo:hi], self._tfs[lo:hi]

    def idf(self, df: int) -> float:
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _term_scores(self, docs, tfs, df: int) -> np.ndarray:
        norm = K1 * (1.0 - B + B * self.dl_lossy[docs] / self.avgdl)
        return self.idf(df) * tfs / (tfs + norm)

    def scores(self, terms: list[str], mode: str) -> dict[tuple, float]:
        """id -> score for every matching doc of an OR / AND query.
        Duplicate terms count once per occurrence; absent terms drop out
        of OR and empty an AND."""
        mult: dict[str, int] = {}
        for t in terms:
            mult[t] = mult.get(t, 0) + 1
        acc = np.zeros(self.n_docs)
        hits = np.zeros(self.n_docs, np.int64)
        live = 0
        for t, m in mult.items():
            docs, tfs = self.postings(t)
            if len(docs) == 0:
                if mode == "and":
                    return {}
                continue
            live += 1
            acc[docs] += m * self._term_scores(docs, tfs, len(docs))
            hits[docs] += 1
        if live == 0:
            return {}
        match = np.flatnonzero(hits == live if mode == "and" else hits > 0)
        return {self.ids[d]: float(acc[d]) for d in match}

    def phrase_scores(self, terms: list[str]) -> dict[tuple, tuple[int, float]]:
        """id -> (phrase freq, score); the phrase is scored as one pseudo
        term with df = docs holding the phrase and tf = its frequency."""
        if not terms:
            return {}
        cand = None
        for t in set(terms):
            docs, _ = self.postings(t)
            cand = docs if cand is None else np.intersect1d(cand, docs)
        n = len(terms)
        freq = {}
        for d in cand:
            toks = self.tokens[d]
            f = sum(
                1 for i in range(len(toks) - n + 1) if toks[i: i + n] == terms
            )
            if f:
                freq[int(d)] = f
        if not freq:
            return {}
        docs = np.array(sorted(freq), np.int64)
        tfs = np.array([freq[d] for d in docs], np.float64)
        s = self._term_scores(docs, tfs, len(docs))
        return {self.ids[d]: (freq[d], float(x)) for d, x in zip(docs, s)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(1.0, abs(a), abs(b))


def check_topk(got: list[tuple], want: dict[tuple, float], k: int) -> str | None:
    """None when `got` ([(rank, *id, score)]) is a correct top-k of the
    reference scores `want`; else a one-line reason.  Ties within the score
    tolerance may come in either order."""
    ranked = sorted(want.values(), reverse=True)[:k]
    if len(got) != len(ranked):
        return f"{len(got)} hits, want {len(ranked)}"
    seen = set()
    for i, row in enumerate(got):
        rid, s = tuple(row[1:-1]), float(row[-1])
        if rid in seen:
            return f"id {rid} returned twice"
        seen.add(rid)
        if rid not in want:
            return f"id {rid} does not match the query"
        if not _close(s, want[rid]):
            return f"id {rid} score {s!r}, want {want[rid]!r}"
        if not _close(s, ranked[i]):
            return f"rank {i} score {s!r}, want {ranked[i]!r}"
    return None


def check_phrase_topk(got: list[tuple], want: dict[tuple, tuple[int, float]],
                      k: int) -> str | None:
    """Like check_topk for [(rank, *id, phrase_freq, score)] rows."""
    scores = {i: s for i, (_f, s) in want.items()}
    err = check_topk([r[:-2] + (r[-1],) for r in got], scores, k)
    if err:
        return err
    for r in got:
        rid = tuple(r[1:-2])
        if int(r[-2]) != want[rid][0]:
            return f"id {rid} phrase freq {r[-2]}, want {want[rid][0]}"
    return None
