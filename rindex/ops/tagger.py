"""Solr Text Tagger — dictionary-based entity tagging over indexed text.

Reference: `solr/core/src/java/org/apache/solr/handler/tagger/
TaggerRequestHandler.java` (the SolrTextTagger contribution, Solr 7.4+):
given a dictionary of (possibly multi-word) names, emit every occurrence
in the input text, resolving overlaps with the default
`overlaps=LONGEST_DOMINANT_RIGHT` policy (the sibling
text_tagger_documents in ops/search_ext.py is the no-overlap-policy
regex tagger; this one resolves dominated unigrams) — a longer tag starting at a
position dominates shorter tags inside its span.

Engine shape: the dictionary terms' POSITIONAL postings are probed once
on the index's one reader (`positions_for` — never a corpus scan);
multi-word entries match by the same composite doc*stride+pos adjacency
kernel the phrase family uses (`_followed_by`); dominated unigram
occurrences are suppressed with one np.isin against the covered-position
key set.  All vectorized — the tagger is a postings consumer exactly like the
reference (which runs the dictionary FST over the analyzed token
stream).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from rindex.ops.analysis_ext import TOKEN_SQL_RE

QUERIES: dict = {}
ORACLE: dict = {}

# tag name -> token sequence; bigrams dominate their constituent unigrams
TAG_DICT = {
    "HASH_JOIN": ("hash", "join"),
    "MERGE_JOIN": ("merge", "join"),
    "JOIN": ("join",),
    "SPARK": ("spark",),
}


def _keys(d: np.ndarray, p: np.ndarray, stride: np.int64) -> np.ndarray:
    return d * stride + p


def q_text_tagger_overlaps_documents(sf_dir: str):
    """See module docstring.  Output: (doc_id, tag, n) occurrence counts
    after LONGEST_DOMINANT_RIGHT suppression — 'join' occurrences consumed
    by a 'hash join' / 'merge join' bigram are not reported as JOIN."""
    from rindex.ops.fulltext import documents_index_pos
    from rindex.ops.lucene8 import _flat_doc_pos, _followed_by
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    terms = sorted({t for seq in TAG_DICT.values() for t in seq})
    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    posts = r.positions_for(terms)
    fd = {t: _flat_doc_pos(posts, [t]) for t in terms}
    maxp = max((int(p.max()) for _, p in fd.values() if len(p)), default=0)
    stride = np.int64(maxp + 2)
    per_tag: dict[str, np.ndarray] = {}  # tag -> doc of each occurrence
    covered = [np.empty(0, np.int64)]  # composite keys of multi-word tags
    for tag, seq in TAG_DICT.items():
        if len(seq) == 2:
            d, p = _followed_by(posts, seq[:1], seq[1:])
            per_tag[tag] = d
            covered += [_keys(d, p, stride), _keys(d, p + 1, stride)]
    covered_keys = np.concatenate(covered)
    for tag, seq in TAG_DICT.items():
        if len(seq) == 1:
            d, p = fd[seq[0]]
            per_tag[tag] = d[~np.isin(_keys(d, p, stride), covered_keys)]

    # one (doc, tag) key space, tags in name order: counts come out sorted
    # by (doc_id, tag) and the ids are fetched once
    tags = sorted(per_tag)
    key, n = np.unique(
        np.concatenate([per_tag[t] * len(tags) + i for i, t in enumerate(tags)]),
        return_counts=True,
    )
    rows = live_id_rows(r, key // len(tags), key % len(tags), n)
    out = pd.DataFrame(
        [(d, tags[t], c) for d, t, c in rows], columns=["doc_id", "tag", "n"]
    )
    out["n"] = out["n"].astype("int64")
    return out


QUERIES["text_tagger_overlaps_documents"] = q_text_tagger_overlaps_documents


def _tagger_oracle() -> str:
    return f"""
    WITH toks AS (
      SELECT doc_id,
             regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
      FROM documents
    ),
    counts AS (
      SELECT doc_id,
        len(list_filter(range(1, len(l)),
            i -> l[i] = 'hash' AND l[i + 1] = 'join'))::BIGINT AS hash_join,
        len(list_filter(range(1, len(l)),
            i -> l[i] = 'merge' AND l[i + 1] = 'join'))::BIGINT AS merge_join,
        len(list_filter(range(1, len(l) + 1),
            i -> l[i] = 'join'
                 AND (i = 1 OR (l[i - 1] <> 'hash' AND l[i - 1] <> 'merge'))
            ))::BIGINT AS join_solo,
        len(list_filter(range(1, len(l) + 1),
            i -> l[i] = 'spark'))::BIGINT AS spark
      FROM toks
    ),
    unpivoted AS (
      SELECT doc_id, 'HASH_JOIN' AS tag, hash_join AS n FROM counts
      UNION ALL
      SELECT doc_id, 'MERGE_JOIN', merge_join FROM counts
      UNION ALL
      SELECT doc_id, 'JOIN', join_solo FROM counts
      UNION ALL
      SELECT doc_id, 'SPARK', spark FROM counts
    )
    SELECT doc_id, tag, n FROM unpivoted WHERE n > 0
    ORDER BY doc_id, tag
    """


ORACLE["text_tagger_overlaps_documents"] = _tagger_oracle()
