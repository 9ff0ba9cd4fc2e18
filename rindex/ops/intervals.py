"""Lucene 8 Intervals query framework — minimal-interval semantics over
positional postings, the flagship 8.0 search feature DISTINCT from the
spans family (spans enumerate per-start chains; intervals enumerate the
MINIMAL interval set — no matching interval properly nested inside
another — per Clarke, Cormack & Burkowski's GCL algebra, the published
basis Lucene cites).

Reference surfaces:
- `lucene/queries/src/java/org/apache/lucene/queries/intervals/
  Intervals.java` — the source combinators: `ordered`, `unordered`,
  `maxgaps`, `containing`, `notContaining`.
- `IntervalQuery.java` / `IntervalScorer.java` — matching docs are those
  with >= 1 surviving interval.
- `OrderedIntervalsSource.java` — ordered minimal intervals: for each
  start the greedy forward chain gives the least end; keeping the LAST
  start per distinct end removes nested candidates (ends are monotone in
  starts, so domination is exactly end-collision).
- `UnorderedIntervalsSource.java` — unordered minimal covering
  intervals: every minimal interval pairs an occurrence with its NEAREST
  partner on one side, then a dominance sweep removes nested candidates.
- `FilteredIntervalsSource.java` (maxgaps) — a minimal interval survives
  if its internal gap count (width - n_terms for single-term sources) is
  <= maxgaps; filtering happens AFTER minimality.
- `ContainingIntervalsSource.java` / `NotContainingIntervalsSource.java`
  — keep big intervals that do / do not enclose a small-source match.

Scale notes: candidate docs come from the postings intersection (never a
corpus scan); per-doc work is numpy (searchsorted chains, vectorized
dominance sweeps) over that doc's position run only.  The enumeration
reports (n_intervals, min_width) per doc — a strictly stronger check
than span min-width alone, since the minimal-set COUNT is sensitive to
the exact algebra.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from rindex.ops.analysis_ext import TOKEN_SQL_RE

QUERIES: dict = {}
ORACLE: dict = {}


# ---------------------------------------------------------------------------
# minimal-interval kernels (pure numpy, per-doc position arrays)
# ---------------------------------------------------------------------------

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.int64))


def minimal_ordered(pa: np.ndarray, pb: np.ndarray):
    """Minimal intervals of ordered(a, b): greedy chain each a-position to
    the least b-position strictly after it; ends are then non-decreasing
    in starts, so a candidate is nested-dominated iff a later start chains
    to the SAME end — keep the last start per distinct end."""
    nxt = np.searchsorted(pb, pa, side="right")
    valid = nxt < len(pb)
    if not valid.any():
        return _EMPTY
    s = pa[valid]
    e = pb[nxt[valid]]
    keep = np.ones(len(e), dtype=bool)
    keep[:-1] = e[1:] != e[:-1]
    return s[keep], e[keep]


def minimal_unordered(pa: np.ndarray, pb: np.ndarray):
    """Minimal intervals of unordered(a, b), distinct terms: candidates
    are each a-position paired with its nearest b on either side (any
    interval pairing a NON-nearest b strictly contains the nearest-b
    interval); a vectorized dominance sweep then drops nested candidates
    (within equal starts keep the least end; across strictly increasing
    starts keep those whose end beats every later end)."""
    if len(pa) == 0 or len(pb) == 0:
        return _EMPTY
    right = np.searchsorted(pb, pa, side="right")
    cands = []
    ok = right < len(pb)
    if ok.any():
        cands.append(np.stack([pa[ok], pb[right[ok]]], axis=1))
    left = right - 1
    ok = left >= 0
    if ok.any():
        cands.append(np.stack([pb[left[ok]], pa[ok]], axis=1))
    if not cands:
        return _EMPTY
    c = np.unique(np.concatenate(cands, axis=0), axis=0)  # lex (s, e)
    s, e = c[:, 0], c[:, 1]
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    s, e = s[first], e[first]  # per start, the least end survives
    suff = np.minimum.accumulate(e[::-1])[::-1]
    keep = np.ones(len(s), dtype=bool)
    keep[:-1] = suff[1:] > e[:-1]
    return s[keep], e[keep]


def filter_containing(s, e, pc_: np.ndarray, invert: bool = False):
    """containing / notContaining: does [s, e] enclose a position of the
    small source?  One searchsorted pair against the doc's sorted filter
    positions."""
    if len(s) == 0:
        return s, e
    if len(pc_) == 0:
        has = np.zeros(len(s), dtype=bool)
    else:
        has = np.searchsorted(pc_, e, side="right") > np.searchsorted(
            pc_, s, side="left"
        )
    keep = ~has if invert else has
    return s[keep], e[keep]


def _candidate_runs(sf_dir: str, must: list[str], may: list[str]):
    """The positional documents index's one reader, the docs holding every
    `must` term (ascending docIDs, the postings intersection), and each
    must/may term's position run per such doc (`_doc_runs`)."""
    from functools import reduce

    from rindex.ops.fulltext import documents_index_pos
    from rindex.search import IndexSearcher, _doc_runs

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    posts = r.positions_for(must + may)
    common = np.zeros(0, np.int64)
    if all(posts[t] is not None for t in must):
        common = reduce(np.intersect1d, (posts[t][0] for t in must))
    return r, common, {t: _doc_runs(p, common) for t, p in posts.items()}


def _interval_scan(sf_dir: str, term_a: str, term_b: str, ordered: bool,
                   maxgaps: int | None = None, containing: str | None = None,
                   not_containing: str | None = None) -> pd.DataFrame:
    """Shared scan: intersect the two terms' postings, enumerate minimal
    intervals per candidate doc, apply the filter combinators, emit
    (doc_id, n_intervals, min_width)."""
    from rindex.ops.util import live_id_rows

    r, common, runs = _candidate_runs(
        sf_dir, [term_a, term_b] + ([containing] if containing else []),
        [not_containing] if not_containing else [],
    )
    minimal = minimal_ordered if ordered else minimal_unordered
    match_docs, match_n, match_w = [], [], []
    for i, d in enumerate(common):
        s, e = minimal(runs[term_a][i], runs[term_b][i])
        if maxgaps is not None and len(s):
            keep = (e - s + 1) - 2 <= maxgaps
            s, e = s[keep], e[keep]
        if containing is not None:
            s, e = filter_containing(s, e, runs[containing][i])
        if not_containing is not None:
            s, e = filter_containing(s, e, runs[not_containing][i],
                                     invert=True)
        if len(s):
            match_docs.append(d)
            match_n.append(len(s))
            match_w.append(int((e - s).min()) + 1)
    rows = live_id_rows(r, match_docs, match_n, match_w)
    return pd.DataFrame(
        {"doc_id": [r[0] for r in rows],
         "n_intervals": pd.array([r[1] for r in rows], dtype="int64"),
         "min_width": pd.array([r[2] for r in rows], dtype="int64")}
    )


_TOKS_CTE = f"""
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term,
         generate_subscripts(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}'), 1) AS p
  FROM documents
)"""


# ---------------------------------------------------------------------------
# maxgaps(6, ordered(hash, join))
# ---------------------------------------------------------------------------

IVAL_A, IVAL_B, IVAL_MAXGAPS = "hash", "join", 6


def q_intervals_ordered_maxgaps_documents(sf_dir: str):
    """IntervalQuery maxgaps(6, ordered("hash", "join")): per matching doc
    the count of surviving minimal ordered intervals and the least width.
    Minimality first, gap filter after (FilteredIntervalsSource)."""
    return _interval_scan(sf_dir, IVAL_A, IVAL_B, ordered=True,
                          maxgaps=IVAL_MAXGAPS)


QUERIES["intervals_ordered_maxgaps_documents"] = (
    q_intervals_ordered_maxgaps_documents
)
ORACLE["intervals_ordered_maxgaps_documents"] = f"""
WITH {_TOKS_CTE},
chain AS (
  SELECT a.doc_id, a.p AS s, min(b.p) AS e
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.term = '{IVAL_B}' AND b.p > a.p
  WHERE a.term = '{IVAL_A}'
  GROUP BY a.doc_id, a.p
),
minimal AS (SELECT doc_id, max(s) AS s, e FROM chain GROUP BY doc_id, e),
q AS (SELECT * FROM minimal WHERE (e - s + 1) - 2 <= {IVAL_MAXGAPS})
SELECT doc_id, count(*)::BIGINT AS n_intervals,
       min(e - s + 1)::BIGINT AS min_width
FROM q GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# containing(unordered(merge, join), hash)
# ---------------------------------------------------------------------------

CONT_A, CONT_B, CONT_INNER = "merge", "join", "hash"


def q_intervals_unordered_containing_documents(sf_dir: str):
    """IntervalQuery containing(unordered("merge", "join"), "hash"):
    minimal unordered covering intervals that enclose >= 1 'hash'
    position (ContainingIntervalsSource over UnorderedIntervalsSource)."""
    return _interval_scan(sf_dir, CONT_A, CONT_B, ordered=False,
                          containing=CONT_INNER)


QUERIES["intervals_unordered_containing_documents"] = (
    q_intervals_unordered_containing_documents
)
ORACLE["intervals_unordered_containing_documents"] = f"""
WITH {_TOKS_CTE},
cand AS (
  SELECT a.doc_id, least(a.p, b.p) AS s, greatest(a.p, b.p) AS e
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.term = '{CONT_B}'
  WHERE a.term = '{CONT_A}'
),
minimal AS (
  SELECT DISTINCT doc_id, s, e FROM cand c1
  WHERE NOT EXISTS (
    SELECT 1 FROM cand c2 WHERE c2.doc_id = c1.doc_id
      AND c2.s >= c1.s AND c2.e <= c1.e
      AND NOT (c2.s = c1.s AND c2.e = c1.e))
),
wc AS (
  SELECT m.* FROM minimal m WHERE EXISTS (
    SELECT 1 FROM toks c WHERE c.doc_id = m.doc_id
      AND c.term = '{CONT_INNER}' AND c.p BETWEEN m.s AND m.e)
)
SELECT doc_id, count(*)::BIGINT AS n_intervals,
       min(e - s + 1)::BIGINT AS min_width
FROM wc GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# notContaining(maxgaps(8, ordered(sort, table)), key)
# ---------------------------------------------------------------------------

NC_A, NC_B, NC_EXCL, NC_MAXGAPS = "sort", "table", "key", 8


def q_intervals_not_containing_documents(sf_dir: str):
    """IntervalQuery notContaining(maxgaps(8, ordered("sort", "table")),
    "key"): minimal ordered intervals within the gap bound whose range
    holds NO 'key' occurrence (NotContainingIntervalsSource)."""
    return _interval_scan(sf_dir, NC_A, NC_B, ordered=True,
                          maxgaps=NC_MAXGAPS, not_containing=NC_EXCL)


QUERIES["intervals_not_containing_documents"] = (
    q_intervals_not_containing_documents
)
ORACLE["intervals_not_containing_documents"] = f"""
WITH {_TOKS_CTE},
chain AS (
  SELECT a.doc_id, a.p AS s, min(b.p) AS e
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.term = '{NC_B}' AND b.p > a.p
  WHERE a.term = '{NC_A}'
  GROUP BY a.doc_id, a.p
),
minimal AS (SELECT doc_id, max(s) AS s, e FROM chain GROUP BY doc_id, e),
q AS (
  SELECT m.* FROM minimal m
  WHERE (e - s + 1) - 2 <= {NC_MAXGAPS} AND NOT EXISTS (
    SELECT 1 FROM toks c WHERE c.doc_id = m.doc_id
      AND c.term = '{NC_EXCL}' AND c.p BETWEEN m.s AND m.e)
)
SELECT doc_id, count(*)::BIGINT AS n_intervals,
       min(e - s + 1)::BIGINT AS min_width
FROM q GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# before(ordered(hash, join), window) / after(ordered(hash, join), merge)
# ---------------------------------------------------------------------------

BA_A, BA_B = "hash", "join"
BA_BEFORE_REF, BA_AFTER_REF = "window", "merge"


def q_intervals_before_after_documents(sf_dir: str):
    """Intervals.before / Intervals.after (`lucene/queries/src/java/org/
    apache/lucene/queries/intervals/Intervals.java`): minimal ordered
    (hash, join) intervals that END before some '{BA_BEFORE_REF}'
    occurrence (before) or START after some '{BA_AFTER_REF}' occurrence
    (after).  Per doc: surviving-interval counts for both combinators;
    docs where either survives.  Same positional scan as the other
    interval ops."""
    from rindex.ops.util import live_id_rows

    r, common, runs = _candidate_runs(
        sf_dir, [BA_A, BA_B], [BA_BEFORE_REF, BA_AFTER_REF]
    )
    out_d, out_b, out_a = [], [], []
    for i, d in enumerate(common):
        s, e = minimal_ordered(runs[BA_A][i], runs[BA_B][i])
        if len(s) == 0:
            continue
        ref_b, ref_a = runs[BA_BEFORE_REF][i], runs[BA_AFTER_REF][i]
        n_before = int((e < ref_b.max()).sum()) if len(ref_b) else 0
        n_after = int((s > ref_a.min()).sum()) if len(ref_a) else 0
        if n_before or n_after:
            out_d.append(d)
            out_b.append(n_before)
            out_a.append(n_after)
    rows = live_id_rows(r, out_d, out_b, out_a)
    return pd.DataFrame(
        {"doc_id": [r[0] for r in rows],
         "n_before": pd.array([r[1] for r in rows], dtype="int64"),
         "n_after": pd.array([r[2] for r in rows], dtype="int64")}
    )


QUERIES["intervals_before_after_documents"] = (
    q_intervals_before_after_documents
)
ORACLE["intervals_before_after_documents"] = f"""
WITH {_TOKS_CTE},
chain AS (
  SELECT a.doc_id, a.p AS s, min(b.p) AS e
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.term = '{BA_B}' AND b.p > a.p
  WHERE a.term = '{BA_A}'
  GROUP BY a.doc_id, a.p
),
minimal AS (SELECT doc_id, max(s) AS s, e FROM chain GROUP BY doc_id, e),
refs AS (
  SELECT doc_id,
         max(CASE WHEN term = '{BA_BEFORE_REF}' THEN p END) AS max_bref,
         min(CASE WHEN term = '{BA_AFTER_REF}' THEN p END) AS min_aref
  FROM toks WHERE term IN ('{BA_BEFORE_REF}', '{BA_AFTER_REF}')
  GROUP BY doc_id
),
counts AS (
  SELECT m.doc_id,
         sum(CASE WHEN r.max_bref IS NOT NULL AND m.e < r.max_bref
                  THEN 1 ELSE 0 END)::BIGINT AS n_before,
         sum(CASE WHEN r.min_aref IS NOT NULL AND m.s > r.min_aref
                  THEN 1 ELSE 0 END)::BIGINT AS n_after
  FROM minimal m LEFT JOIN refs r USING (doc_id)
  GROUP BY m.doc_id
)
SELECT doc_id, n_before, n_after FROM counts
WHERE n_before > 0 OR n_after > 0 ORDER BY doc_id
"""
