"""TermAutomatonQuery: proximity search where the accepted token
sequences are defined by a finite automaton over terms, with ANY («*»)
transitions — the generalization of phrase + synonym-graph queries.

Reference surface: `lucene/sandbox/src/java/org/apache/lucene/search/
TermAutomatonQuery.java` (+ `TokenStreamToTermAutomatonQuery.java`,
`TermAutomatonScorer.java`).  Lucene builds a term-labeled automaton
(state graph, transitions carry term ids or ANY), intersects it with the
positional postings of the involved terms per segment, and counts
accepting paths as the doc's frequency.  The canonical producer is a
token stream with synonyms/holes: e.g. «(hash|merge) [any]? join».

Engine shape (Ray-Data-first, no per-row Python):
- The automaton is a DAG of transitions (from_state, label|None=ANY,
  to_state) with from < to (states topologically numbered), accept set,
  start state 0.  Constraints asserted: no ANY out of the start state
  (would match every position) and no ANY into an accept state (an ANY
  consuming a past-the-end position could accept spuriously; a trailing
  term transition self-verifies existence by intersecting postings).
- Each involved term contributes ONE flat sorted int64 key array
  doc*stride + pos from the positional postings of the index's one
  reader (`_flat_doc_pos`, the same composite-key trick the
  ComplexPhrase / span family uses).  The NFA frontier S[q] is a sorted
  key array meaning "state q reachable, next unconsumed position = key".
  A term transition is ONE np.intersect1d against the term's occurrence
  keys (+1 shift); an ANY transition is a +1 shift.  Accepting keys
  across accept states are unioned and counted per doc with np.unique —
  freq = number of distinct match END positions (Lucene enumerates
  distinct accepting positions for the scorer's freq as well).
- Work is O(Σ df·tf of the automaton's terms), never the corpus.

At 100 TB the shape is unchanged: postings for a handful of terms are
read per segment (Parquet row-group pruned by the sorted term
dictionary), frontier arrays are bounded by those postings' sizes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from rindex.ops.analysis_ext import TOKEN_SQL_RE

QUERIES: dict = {}
ORACLE: dict = {}

# (hash|merge) (ANY)? join — accepts "hash join", "merge join",
# "hash <tok> join", "merge <tok> join"
TA_TRANSITIONS: list[tuple[int, str | None, int]] = [
    (0, "hash", 1),
    (0, "merge", 1),
    (1, None, 2),
    (1, "join", 3),
    (2, "join", 3),
]
TA_ACCEPT = frozenset({3})


def run_term_automaton(
    reader,
    transitions: list[tuple[int, str | None, int]],
    accept: frozenset,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a term automaton against one positional reader.
    Returns (local_docs, freqs) — distinct accepting end positions per
    doc.  Pure numpy set algebra; no Python loop over rows/positions."""
    for f, lab, t in transitions:
        if not f < t:
            raise ValueError("automaton states must be topological (f < t)")
        if lab is None and f == 0:
            raise ValueError("ANY out of the start state is unbounded")
        if lab is None and t in accept:
            raise ValueError("ANY into an accept state is unverifiable")
    from rindex.ops.lucene8 import _flat_doc_pos

    terms = sorted({lab for _, lab, _ in transitions if lab is not None})
    posts = reader.positions_for(terms)
    flat = {t: _flat_doc_pos(posts, [t]) for t in terms}
    maxpos = max((int(p.max()) for _, p in flat.values() if len(p)), default=0)
    stride = np.int64(maxpos + 3)
    keys = {t: np.sort(d * stride + p) for t, (d, p) in flat.items()}
    n_states = max(t for _, _, t in transitions) + 1
    frontier: list[np.ndarray | None] = [None] * n_states
    for f, lab, t in transitions:
        if f != 0:
            continue
        nxt = keys[lab] + 1
        frontier[t] = (
            nxt if frontier[t] is None else np.union1d(frontier[t], nxt)
        )
    for f, lab, t in sorted(
        (x for x in transitions if x[0] != 0), key=lambda x: x[0]
    ):
        src = frontier[f]
        if src is None or not len(src):
            continue
        if lab is None:
            # consuming past-the-end positions is pruned by the next term
            # transition (no postings exist there); crossing into the next
            # doc's key space is impossible while pos + 1 < stride, and a
            # trailing term intersect rejects the stride boundary itself
            nxt = src + 1
        else:
            nxt = np.intersect1d(src, keys[lab], assume_unique=False) + 1
        frontier[t] = (
            nxt if frontier[t] is None else np.union1d(frontier[t], nxt)
        )
    acc = [frontier[a] for a in accept if frontier[a] is not None]
    if not acc:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ends = np.unique(np.concatenate(acc))
    docs = ends // stride
    uniq, cnt = np.unique(docs, return_counts=True)
    return uniq, cnt


def q_term_automaton_documents(sf_dir: str):
    """TermAutomatonQuery for «(hash|merge) (any)? join»: doc_id + number
    of distinct accepting end positions (the scorer freq)."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    rows = live_id_rows(r, *run_term_automaton(r, TA_TRANSITIONS, TA_ACCEPT))
    out = pd.DataFrame(rows, columns=["doc_id", "ta_freq"])
    out["doc_id"] = out["doc_id"].astype("int64")
    out["ta_freq"] = out["ta_freq"].astype("int64")
    return out


QUERIES["term_automaton_documents"] = q_term_automaton_documents
# distinct end positions j (1-based): join at j, with hash|merge at j-1
# (no gap) or at j-2 (one ANY token)
ORACLE["term_automaton_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l) + 1),
               j -> l[j] = 'join'
                    AND ((j >= 2 AND l[j - 1] IN ('hash', 'merge'))
                         OR (j >= 3 AND l[j - 2] IN ('hash', 'merge')))
           ))::BIGINT AS ta_freq
    FROM (SELECT doc_id,
                 regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l) + 1),
              j -> l[j] = 'join'
                   AND ((j >= 2 AND l[j - 1] IN ('hash', 'merge'))
                        OR (j >= 3 AND l[j - 2] IN ('hash', 'merge'))))) > 0
    ORDER BY doc_id
"""
