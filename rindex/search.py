"""BM25 top-k query engine: term lookup, exhaustive + block-max WAND.

Reference search path re-expressed (SURVEY.md §3.2):
  * Query AST — Term / And / Or over analyzed terms (`TermQuery`,
    `BooleanQuery` MUST / SHOULD; `lucene/core/src/java/org/apache/lucene/
    search/BooleanQuery.java`).  Duplicate clauses score additively, like
    duplicate SHOULD/MUST clauses in the reference.
  * Collection stats are GLOBAL: df summed over segments, N and avgdl from
    the manifest totals (Lucene `CollectionStatistics` — idf identical on a
    1-segment and an N-segment index).
  * Term dictionary lookup — postings.parquet is term-sorted with small row
    groups, so a `term in (...)` Parquet filter prunes row groups via
    column statistics (the BlockTree/FST analog at coarse granularity).
  * One doc space — a multi-segment index is scored through a fused
    reader (`_FusedReader`, the composite-reader analog): every live
    segment remapped into one docID space ordered by id_cols, so each
    kernel runs once per query, not once per segment.
  * Scoring — vectorized numpy over decoded blocks:
      - `exhaustive`: full postings scored, np.bincount accumulation
        (baseline, and the WAND-equivalence oracle inside the engine).
      - `wand`: block-max pruning (`WANDScorer`/`ImpactsDISI`/`MaxScoreCache`
        semantics — `lucene/core/src/java/org/apache/lucene/search/
        WANDScorer.java`): per-block upper bounds from (max_tf, min_norm)
        impacts; doc-range intervals whose summed upper bound is below the
        current top-k threshold are skipped without decoding.  Processing
        intervals in descending upper-bound order grows the threshold fast.
        Skips use a STRICT < threshold comparison so score-ties are never
        lost (tie-break correctness).
  * Collect — one collector (`_collect`, the `TopScoreDocCollector`
    analog) takes a kernel's (doc, score) pairs: top-k preselect, sort by
    (score desc, doc asc), limit k, one id fetch.  docID order IS id_cols
    order, by build construction in a segment and by construction in the
    fused space, so the doc-asc tie-break is the id tie-break.
  * Field fetch — winning docIDs only, from docs.parquet (stored fields),
    the two-round-trip GET_FIELDS pattern.

Scale notes: one searcher holds only per-term cached posting rows (LRU-ish
dict), never a whole segment; at cluster scale, queries fan out as a Ray
actor-pool `map_batches` over a query Dataset (`search_queries`), each actor
serving all segments of a manifest; `score_matches_dataset` fans one query's
full match set out as one Ray task per segment.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rindex.analysis import get_analyzer
from rindex.bm25 import idf as bm25_idf  # noqa: F401 (re-export for oracles)
from rindex.bm25 import norm_len_cache  # noqa: F401
from rindex.similarity import get_similarity
from rindex.codec import decode_block
from rindex import segments as segio


@dataclass
class Query:
    terms: list[str]  # analyzed terms, order preserved (duplicates allowed)
    mode: str = "or"  # "or" | "and"
    k: int = 10
    # MUST_NOT clauses: docs containing ANY of these terms are excluded
    # (non-scoring — reference: BooleanWeight + ReqExclScorer,
    # `lucene/core/src/java/org/apache/lucene/search/ReqExclScorer.java`)
    exclude: list[str] = None  # type: ignore[assignment]
    # FILTER clause(s) on stored fields: (column, value) or a list of them
    # (ANDed) — matches must have docs.parquet[column] == value for every
    # clause; contributes no score (the `fq` / BooleanClause.Occur.FILTER
    # analog)
    field_filter: tuple[str, str] | list[tuple[str, str]] | None = None
    # per-term boost weights (`term^2` QueryParser syntax): the summed
    # boost over a term's occurrences replaces its duplicate-clause
    # multiplicity in scoring (BoostQuery semantics —
    # `lucene/core/src/java/org/apache/lucene/search/BoostQuery.java`)
    boosts: dict[str, float] | None = None
    # quoted-phrase SHOULD clauses: (analyzed terms, boost).  Scored like
    # PhraseWeight (tf = phrase freq, df = docs containing the phrase) and
    # summed with the term clauses; in "and" mode each phrase is required.
    phrases: list[tuple[list[str], float]] | None = None
    # synonym groups (SynonymQuery —
    # `lucene/core/src/java/org/apache/lucene/search/SynonymQuery.java`):
    # each (terms, boost) group scores as ONE pseudo-term with blended
    # stats — per-doc tf = SUM of the members' tfs, docFreq = MAX of the
    # members' global dfs, ttf = sum (Lucene's SynonymWeight blending) —
    # so scores stay comparable to a single un-expanded term.
    synonyms: list[tuple[list[str], float]] | None = None
    # minimum-should-match (BooleanQuery#setMinimumNumberShouldMatch / the
    # dismax `mm` param): in "or" mode a doc must match at least this many
    # DISTINCT query terms.  0/None = no constraint; counts original
    # clauses, so terms absent corpus-wide still count toward the bar
    # (Lucene semantics: an unsatisfiable SHOULD clause is never matched).
    min_match: int = 0


def _filters_list(q: "Query") -> list[tuple[str, str]]:
    ff = q.field_filter
    if ff is None:
        return []
    if isinstance(ff, tuple) and len(ff) == 2 and isinstance(ff[0], str):
        return [ff]
    return list(ff)


def parse_query(text: str, qtype: str = "or", k: int = 10, analyzer_name: str = "standard") -> Query:
    terms = get_analyzer(analyzer_name).tokens(text)
    mode = "and" if qtype == "and" else "or"
    return Query(terms=terms, mode=mode, k=k)


def parse_query_string(
    qs: str, k: int = 10, analyzer_name: str = "standard"
) -> Query:
    """Mini query-string parser (the lucene-QParser surface subset the
    engine supports — reference: classic QueryParser syntax,
    `solr/core/src/java/org/apache/solr/search/LuceneQParserPlugin.java` +
    `ExtendedDismaxQParser.java` for the boost/phrase surface):

      term term        -> OR of analyzed terms (SHOULD)
      +term            -> required; if ANY + clause is present ALL scored
                          clauses (terms and phrases) are evaluated as a
                          conjunction (documented simplification of
                          MUST+SHOULD mixing: the engine's AND mode
                          requires every scored clause)
      -term            -> MUST_NOT (non-scoring exclusion)
      term^2.5         -> boost: the term's weight multiplier; duplicate
                          occurrences of a term sum their boosts
                          (duplicate SHOULD-clause semantics)
      "a phrase"[^B]   -> exact-phrase SHOULD clause, scored like
                          PhraseQuery (tf = phrase freq), optional boost
      field:value      -> FILTER clause on a stored field (non-scoring; a
                          leading '+' is accepted and redundant).  Multiple
                          filters AND together."""
    analyzer = get_analyzer(analyzer_name)
    weights: dict[str, float] = {}
    order: list[str] = []
    exclude: list[str] = []
    phrases: list[tuple[list[str], float]] = []
    filters: list[tuple[str, str]] = []
    has_required = False

    def add_term(t: str, boost: float) -> None:
        if t not in weights:
            order.append(t)
            weights[t] = 0.0
        weights[t] += boost

    for m in re.finditer(
        r'([+-]?)(?:"([^"]*)"(?:\^([\d.]+))?|(\S+))', qs
    ):
        prefix, phrase, pboost, tok = m.groups()
        if phrase is not None:
            if prefix == "-":
                raise ValueError(
                    f"negated phrase not supported: {m.group(0)!r}"
                )
            if prefix == "+":
                has_required = True
            if pboost and not re.fullmatch(r"\d+\.?\d*|\.\d+", pboost):
                # the [\d.]+ group swallows the WHOLE numeric-looking
                # suffix so '"a b"^1.2.3' cannot shed a junk '.3' token;
                # reject it loudly like the term path
                raise ValueError(f"malformed boost: {m.group(0)!r}")
            pterms = analyzer.tokens(phrase)
            if not pterms:
                raise ValueError(f"empty phrase: {m.group(0)!r}")
            if len(pterms) == 1:  # one-word "phrase" is just a term
                add_term(pterms[0], float(pboost) if pboost else 1.0)
            else:
                phrases.append((pterms, float(pboost) if pboost else 1.0))
            continue
        body = tok
        boost = 1.0
        if "^" in body:
            head, _, tail = body.rpartition("^")
            if head and re.fullmatch(r"\d+\.?\d*|\.\d+", tail):
                if prefix == "-":
                    raise ValueError(
                        f"boost on a MUST_NOT clause is meaningless: "
                        f"{m.group(0)!r}"
                    )
                body, boost = head, float(tail)
            elif head and re.fullmatch(r"[\d.]+", tail):
                # numeric-LOOKING but not a float literal ('1.2.3'): reject
                # loudly — silently analyzing it would inject junk terms
                # (Lucene's parser rejects malformed boosts the same way)
                raise ValueError(f"malformed boost: {m.group(0)!r}")
        is_field = False
        if ":" in body and not body.startswith(":"):
            col_, val_ = body.split(":", 1)
            # only identifier-shaped field names with a non-URL-ish value
            # are filters — '12:30' or 'http://x' must stay query text, not
            # become a filter on a nonexistent stored column
            is_field = bool(
                re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", col_)
            ) and val_ != "" and not val_.startswith("/")
        if is_field:
            if prefix == "-":
                raise ValueError(
                    f"negated field filter not supported: {m.group(0)!r}"
                )
            if boost != 1.0:
                raise ValueError(
                    f"boost on a filter clause is meaningless: "
                    f"{m.group(0)!r}"
                )
            filters.append(tuple(body.split(":", 1)))
        elif prefix == "-" and body:
            exclude.extend(analyzer.tokens(body))
        else:
            if prefix == "+" and body:
                has_required = True
            for t in analyzer.tokens(body):
                add_term(t, boost)
    ff: tuple | list | None
    ff = filters[0] if len(filters) == 1 else (filters or None)
    return Query(
        terms=order,
        mode="and" if has_required else "or",
        k=k,
        exclude=exclude or None,
        field_filter=ff,
        boosts=weights or None,
        phrases=phrases or None,
    )


def parse_boolean_query(qs: str, analyzer_name: str = "standard"):
    """Parse a nested boolean query — the QueryParser parenthesis surface
    (`lucene/queryparser/.../classic/QueryParser.jj` operator grammar):

        expr   := and_e (OR and_e)*
        and_e  := unary (AND unary)*
        unary  := NOT unary | '(' expr ')' | TERM

    into ('or', [..]) / ('and', [..]) / ('not', node) / ('term', t) nodes.
    Operators are upper-case keywords; terms run through the analyzer
    (a term analyzing to 0 or >1 tokens is rejected — phrase syntax is the
    quoted form in parse_query_string).  Lucene cannot match pure
    negation, so NOT is only legal as an AND operand with at least one
    positive sibling (\"a AND NOT b\"); a NOT anywhere else is rejected
    loudly rather than silently matching nothing."""
    toks = re.findall(r"\(|\)|[^\s()]+", qs)
    analyzer = get_analyzer(analyzer_name)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def expr():
        parts = [and_e()]
        while peek() == "OR":
            take()
            parts.append(and_e())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def and_e():
        parts = [unary()]
        while peek() == "AND":
            take()
            parts.append(unary())
        if len(parts) == 1:
            return parts[0]
        if all(p[0] == "not" for p in parts):
            raise ValueError(f"pure-negative conjunction in {qs!r}")
        return ("and", parts)

    def unary():
        t = peek()
        if t is None:
            raise ValueError(f"unexpected end of query in {qs!r}")
        if t == "NOT":
            take()
            return ("not", unary())
        if t == "(":
            take()
            node = expr()
            if peek() != ")":
                raise ValueError(f"missing ')' in {qs!r}")
            take()
            return node
        if t in (")", "AND", "OR"):
            raise ValueError(f"unexpected {t!r} in {qs!r}")
        take()
        terms = analyzer.tokens(t)
        if len(terms) != 1:
            raise ValueError(
                f"term {t!r} analyzes to {len(terms)} tokens; "
                f"boolean leaves must be single terms"
            )
        return ("term", terms[0])

    tree = expr()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {qs!r}")

    def check_not(node, parent_kind):
        if node[0] == "not":
            if parent_kind != "and":
                raise ValueError(
                    f"NOT is only legal as an AND operand (got it under "
                    f"{parent_kind!r}) in {qs!r}"
                )
            check_not(node[1], "not")
        elif node[0] in ("and", "or"):
            for ch in node[1]:
                check_not(ch, node[0])

    check_not(tree, "root")
    return tree


def parse_simple_query(
    qs: str,
    analyzer_name: str = "standard",
    expand=None,
    default_op: str = "and",
):
    """SimpleQueryParser (`lucene/queryparser/src/java/org/apache/lucene/
    queryparser/simple/SimpleQueryParser.java`): the NEVER-THROWING
    end-user syntax.  Grammar (left-associative, no precedence — the
    reference folds clauses onto the accumulated query strictly left to
    right):

        a b            -> default operator (AND here, configurable)
        a | b          -> OR           a + b   -> AND
        -a             -> NOT          ( ... ) -> group
        "a b"          -> exact phrase (PhraseWeight scoring downstream)
        pre*           -> prefix query, CONSTANT_SCORE_REWRITE: expanded
                          via the `expand('prefix', body)` dictionary
                          callback into a ('const', terms) leaf that
                          matches any expansion and contributes a flat
                          1.0 to the score (PrefixQuery's default rewrite)
        term~N         -> fuzzy, same constant-score expansion via
                          `expand('fuzzy', (body, N))`

    Returns a tree for IndexSearcher.search_boolean — nodes ('and'|'or',
    [children]), ('not', child), leaves ('term', t) / ('const', terms) /
    ('phrase', terms) — or None for a query with no positive clause
    (Lucene's pure-negative / empty case: matches nothing).  On a SYNTAX
    error the parser DEGRADES instead of raising (the class contract):
    operator punctuation is stripped and the surviving words are joined
    with the default operator."""
    analyzer = get_analyzer(analyzer_name)

    def leaf_for(word: str):
        if word.endswith("*") and len(word) > 1 and expand is not None:
            return ("const", tuple(expand("prefix", word[:-1].lower())))
        fm = re.fullmatch(r"(.+)~(\d+)", word)
        if fm and expand is not None:
            return ("const", tuple(expand("fuzzy", (fm.group(1).lower(),
                                                    int(fm.group(2))))))
        terms = analyzer.tokens(word)
        if not terms:
            return None
        if len(terms) == 1:
            return ("term", terms[0])
        return (default_op, [("term", t) for t in terms])

    def parse_strict():
        toks = re.findall(r'"[^"]*"|\(|\)|\||\+|[^\s()|+]+', qs)
        pos = 0

        def peek():
            return toks[pos] if pos < len(toks) else None

        def take():
            nonlocal pos
            t = toks[pos]
            pos += 1
            return t

        def unary():
            t = peek()
            if t is None:
                raise ValueError("unexpected end")
            if t.startswith("-") and t != "-":
                take()
                toks.insert(pos, t[1:])
                return ("not", unary())
            if t == "(":
                take()
                node = expr()
                if peek() != ")":
                    raise ValueError("missing ')'")
                take()
                return node
            if t in (")", "|", "+", "-"):
                raise ValueError(f"unexpected {t!r}")
            take()
            if t.startswith('"'):
                pterms = analyzer.tokens(t.strip('"'))
                if not pterms:
                    return None
                if len(pterms) == 1:
                    return ("term", pterms[0])
                return ("phrase", tuple(pterms))
            return leaf_for(t)

        def expr():
            node = unary()
            while True:
                t = peek()
                if t is None or t == ")":
                    break
                if t in ("|", "+"):
                    take()
                    kind = "or" if t == "|" else "and"
                else:
                    kind = default_op
                rhs = unary()
                if rhs is None:
                    continue
                if node is None:
                    node = rhs
                    continue
                if node[0] == kind and isinstance(node[1], list):
                    node[1].append(rhs)
                else:
                    node = (kind, [node, rhs])
            return node

        tree = expr()
        if pos != len(toks):
            raise ValueError("trailing tokens")
        return tree

    try:
        tree = parse_strict()
    except Exception:
        # degradation path: strip operator punctuation, keep the words
        toks = analyzer.tokens(re.sub(r'[()|+"~*-]', " ", qs))
        if not toks:
            return None
        tree = (
            ("term", toks[0])
            if len(toks) == 1
            else (default_op, [("term", t) for t in toks])
        )

    def has_positive(node):
        if node is None:
            return False
        k = node[0]
        if k in ("term", "phrase"):
            return True
        if k == "const":
            return bool(node[1])
        if k == "not":
            return False
        return any(has_positive(ch) for ch in node[1])

    return tree if has_positive(tree) else None


class _SegTableRegistry:
    """Node-local shared cache of loaded postings tables (detached actor).

    Every QuerySearcher actor on a node used to read+hold its OWN copy of
    each segment's postings table, so a 12-actor pool held 12 private
    copies of identical hot state — wasted heap AND duplicated DRAM/L3
    footprint (the measured cause of the query-throughput plateau
    degrading past ~12 actors).  This registry loads each table ONCE,
    `ray.put`s it into the object store, and hands out the ObjectRef;
    plasma-backed Arrow tables are read zero-copy from shared memory by
    every actor on the node.  The reference analog is a single shared
    `SolrIndexSearcher` serving all request threads
    (`solr/core/src/java/org/apache/solr/search/SolrIndexSearcher.java`)
    rather than one searcher per thread.

    Cache key includes (mtime_ns, size) so a segment rewritten in place
    (tests, merges) is never served stale."""

    def __init__(self):
        self._refs: dict = {}

    def get_or_load(self, path: str, key: tuple, cols: tuple):
        import ray as _ray

        k = (path, key, cols)  # cols in the key: the postings col-set and
        # the positional superset are DIFFERENT cached tables of one file
        if k not in self._refs:
            t = pq.read_table(path, columns=list(cols)).combine_chunks()
            self._refs = {
                kk: v
                for kk, v in self._refs.items()
                if not (kk[0] == path and kk[1] != key)
            }  # drop stale generations of the same file
            self._refs[k] = _ray.put(t)
        return self._refs[k]


def _shared_postings_table(path: str, cols) -> "pa.Table | None":
    """Fetch `path` as a zero-copy shared Arrow table via the registry
    actor, or None when Ray isn't initialised / sharing is disabled
    (RINDEX_SHARED_SEG=0) — caller falls back to a private read."""
    if os.environ.get("RINDEX_SHARED_SEG", "1") != "1":
        return None
    try:
        import ray as _ray

        if not _ray.is_initialized():
            return None
        st = os.stat(path)
        reg = _ray.remote(_SegTableRegistry).options(
            name="rindex_seg_registry",
            namespace="rindex",  # explicit namespace: repeated driver
            # sessions on one cluster find and reuse the same registry
            # instead of leaking one detached actor per anonymous session
            get_if_exists=True,
            lifetime="detached",
            num_cpus=0,
        ).remote()
        ref = _ray.get(
            reg.get_or_load.remote(
                path, (st.st_mtime_ns, st.st_size), tuple(cols)
            )
        )
        return _ray.get(ref)
    except Exception:
        return None  # any Ray hiccup degrades to the private-read path


def read_postings_rows(sdir: str, terms: list[str]) -> dict[str, dict | None]:
    """term -> the segment's posting row (None when absent).  Reads only
    the row groups whose term min/max statistics can hold one of `terms`
    (a group without statistics is read), then an `is_in` filter: a plain
    ParquetFile read, as `pq.read_table(filters=)` spends ~1 ms a call
    setting up an Arrow dataset."""
    import bisect

    pf = pq.ParquetFile(os.path.join(sdir, "postings.parquet"))
    want = sorted(set(terms))
    col = pf.metadata.schema.names.index("term")
    groups = []
    for g in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(g).column(col).statistics
        known = st is not None and st.has_min_max
        i = bisect.bisect_left(want, st.min) if known else -1
        if i < 0 or (i < len(want) and want[i] <= st.max):
            groups.append(g)
    tbl = pf.read_row_groups(groups, columns=_SegmentReader._COLS)
    tbl = tbl.filter(pc.is_in(tbl["term"], pa.array(want, tbl["term"].type)))
    found = {row["term"]: row for row in tbl.to_pylist()}
    return {t: found.get(t) for t in terms}


class _SegmentReader:
    """Lazy per-segment postings + stored-field access with a term cache."""

    # Segments whose postings.parquet is under this load the whole term
    # dictionary+postings into actor memory once (SolrIndexSearcher-style
    # hot searcher state); larger segments fall back to per-term row-group
    # pruned reads so one reader never holds an unbounded table.
    FULL_CACHE_BYTES = 256 << 20

    _COLS = [
        "term", "df", "ttf", "block_first_doc", "block_last_doc",
        "block_max_tf", "block_min_norm", "block_offset", "blob",
    ]

    def __init__(self, sdir: str, meta: dict):
        self.sdir = sdir
        self.meta = meta
        self.max_doc = int(meta["max_doc"])
        self._term_cache: dict[str, dict | None] = {}
        self._ids_cache: pa.Table | None = None
        self._tbl: pa.Table | None = None
        self._terms_np: np.ndarray | None = None
        self._has_positions: bool | None = None
        self._pos_cache: dict[str, tuple | None] = {}
        self._decoded_cache: dict = {}
        self._decoded_bytes = 0

    def _ensure_loaded(self) -> bool:
        if self._tbl is None:
            if int(self.meta.get("postings_bytes", 1 << 62)) > self.FULL_CACHE_BYTES:
                return False
            path = os.path.join(self.sdir, "postings.parquet")
            # node-shared zero-copy table when Ray is up (one physical copy
            # serves every searcher actor on the node); private read as the
            # standalone fallback
            self._tbl = _shared_postings_table(path, self._COLS)
            if self._tbl is None:
                self._tbl = pq.read_table(
                    path, columns=self._COLS
                ).combine_chunks()
            self._terms_np = self._tbl["term"].to_numpy(zero_copy_only=False)
        return True

    def postings_for(self, terms: list[str]) -> dict[str, dict | None]:
        missing = sorted(t for t in set(terms) if t not in self._term_cache)
        if missing:
            self._term_cache.update(self._load_postings(missing))
        return {t: self._term_cache[t] for t in set(terms)}

    def _load_postings(self, terms: list[str]) -> dict[str, dict | None]:
        """term -> posting row (None when absent), uncached."""
        if self._ensure_loaded():
            tnp = self._terms_np
            out = {}
            for t in terms:
                i = int(np.searchsorted(tnp, t))
                hit = i < len(tnp) and tnp[i] == t
                out[t] = self._tbl.slice(i, 1).to_pylist()[0] if hit else None
            return out
        return read_postings_rows(self.sdir, terms)

    def positions_for(
        self, terms: list[str]
    ) -> dict[str, tuple | None]:
        """term -> (docs, tfs, positions, norms) for a positional segment
        (`with_positions=True` build — the PostingsEnum.nextPosition analog,
        reference `lucene/core/src/java/org/apache/lucene/index/
        PostingsEnum.java`).  Positions are flat, runs in doc order (a doc's
        run located by the tf prefix sum).  Raises if the segment was built
        without positions.  Decoded positions are cached per term (read-only
        arrays) within the reader's DECODED_CACHE_MAX_BYTES budget."""
        uniq = sorted(set(terms))
        fresh = self._load_positions(
            [t for t in uniq if t not in self._pos_cache]
        )
        for t, got in fresh.items():
            if got is None:
                self._pos_cache[t] = None
            else:
                self._cache_arrays(self._pos_cache, t, got)
        return {t: fresh[t] if t in fresh else self._pos_cache[t] for t in uniq}

    def _load_positions(self, terms: list[str]) -> dict[str, tuple | None]:
        """positions_for without the cache."""
        from rindex.codec import decode_posting_fast, decode_positions

        path = os.path.join(self.sdir, "postings.parquet")
        if self._has_positions is None:
            self._has_positions = "pos_blob" in pq.read_schema(path).names
        if not self._has_positions:
            raise ValueError(
                f"segment {self.sdir} was built without positions "
                "(build_index(with_positions=True))"
            )
        uniq = sorted(set(terms))
        out: dict[str, tuple | None] = dict.fromkeys(uniq)
        if not uniq:
            return out
        tbl = self._pos_table(path)
        if tbl is not None:
            # cached whole-table path (node-shared): binary-search the term
            # column instead of a per-query filtered parquet read — phrase /
            # span queries call this once per query
            tnp = self._pos_terms_np
            rows = []
            for t in uniq:
                i = int(np.searchsorted(tnp, t))
                if i < len(tnp) and tnp[i] == t:
                    rows.append(tbl.slice(i, 1).to_pylist()[0])
        else:
            rows = pq.read_table(
                path,
                filters=[("term", "in", uniq)],
                columns=self._COLS + ["pos_blob", "pos_width"],
            ).to_pylist()
        for row in rows:
            docs, tfs, norms = decode_posting_fast(row)
            pos = decode_positions(row["pos_blob"], int(row["pos_width"]), tfs)
            out[row["term"]] = (docs, tfs, pos, norms)
        return out

    def _pos_table(self, path: str):
        """Whole positional postings table, cached per reader and shared
        per node via the registry; None above the size gate (fall back to
        per-term filtered reads so one reader never holds an unbounded
        table)."""
        if getattr(self, "_pos_tbl", None) is None:
            try:
                if os.path.getsize(path) > self.FULL_CACHE_BYTES:
                    return None
            except OSError:
                return None
            cols = self._COLS + ["pos_blob", "pos_width"]
            t = _shared_postings_table(path, cols)
            if t is None:
                t = pq.read_table(path, columns=cols).combine_chunks()
            self._pos_tbl = t
            self._pos_terms_np = t["term"].to_numpy(zero_copy_only=False)
        return self._pos_tbl

    # decoded-postings cache: only lists this long are cached (short lists
    # decode in ~µs; hot stopword-class lists dominate repeated-query cost);
    # byte-budgeted so a reader's heap stays bounded regardless of df
    DECODED_CACHE_MIN_DF = 4096
    DECODED_CACHE_MAX_BYTES = 64 << 20

    def decoded(self, term: str, row: dict):
        """(docs, tfs, norms) with an LRU-less high-df cache — the
        query/filter-cache analog (`solr/core/src/java/org/apache/solr/
        search/SolrIndexSearcher.java` caches): scores are recomputed per
        query (idf differs) but the expensive bit-unpack is reused."""
        from rindex.codec import decode_posting_fast

        hit = self._decoded_cache.get(term)
        if hit is not None:
            return hit
        out = decode_posting_fast(row)
        if int(row["df"]) >= self.DECODED_CACHE_MIN_DF:
            self._cache_arrays(self._decoded_cache, term, out)
        return out

    def _cache_arrays(self, cache: dict, key, arrays: tuple) -> None:
        """Keep `arrays` in `cache` while the reader's decoded-array bytes
        stay within DECODED_CACHE_MAX_BYTES (one budget per reader)."""
        nbytes = sum(int(a.nbytes) for a in arrays)
        if self._decoded_bytes + nbytes <= self.DECODED_CACHE_MAX_BYTES:
            for a in arrays:
                a.flags.writeable = False  # shared by every later caller
            cache[key] = arrays
            self._decoded_bytes += nbytes

    def deleted_docs(self) -> np.ndarray | None:
        """Reader-local deleted doc ordinals (the liveDocs COMPLEMENT — the
        reference keeps a live bitset per segment, `lucene/core/src/java/
        org/apache/lucene/index/PendingDeletes.java` +
        `codecs/lucene50/Lucene50LiveDocsFormat.java` generation files);
        deletes are soft sidecars, the segment files stay immutable and
        index stats (df/ttf/avgdl/maxDoc) stay STALE until an expunging
        merge rewrites the segment — exactly the reference's semantics.
        None when the segment has no deletes (the common fast path)."""
        if not hasattr(self, "_deleted"):
            dg = int(self.meta.get("del_gen", 0) or 0)
            if dg <= 0:
                self._deleted = None
            else:
                path = os.path.join(self.sdir, f"_liv-g{dg}.parquet")
                self._deleted = (
                    pq.read_table(path)["doc"].to_numpy().astype(np.int64)
                )
        return self._deleted

    def drop_deleted(self, docs: np.ndarray) -> np.ndarray:
        """Filter reader-local doc ordinals to live docs only."""
        dd = self.deleted_docs()
        if dd is None or len(docs) == 0:
            return docs
        return docs[np.isin(docs, dd, invert=True)]

    def docs_matching(self, column: str, value) -> np.ndarray:
        """Reader-local doc ordinals whose stored field `column` == value
        (FILTER-clause support; cached per (column, value) — the
        filter-cache analog, `solr/core/src/java/org/apache/solr/search/
        SolrIndexSearcher.java` filterCache)."""
        if not hasattr(self, "_filter_cache"):
            self._filter_cache: dict = {}
        key = (column, str(value))
        if key not in self._filter_cache:
            path = os.path.join(self.sdir, "docs.parquet")
            ftype = pq.read_schema(path).field(column).type
            if pa.types.is_list(ftype) or pa.types.is_large_list(ftype):
                # multi-valued stored field (Solr multiValued=true): a doc
                # matches when ANY element equals the value.  Flatten once,
                # map match positions back to docs via the list offsets —
                # no per-row Python.
                tbl = pq.read_table(path, columns=["doc", column])
                la = tbl[column].combine_chunks()
                offsets = la.offsets.to_numpy()
                pos = np.nonzero(
                    pc.equal(la.flatten(), value).to_numpy(
                        zero_copy_only=False
                    )
                )[0]
                rows = np.unique(
                    np.searchsorted(offsets, pos, side="right") - 1
                )
                self._filter_cache[key] = (
                    tbl["doc"].to_numpy()[rows].astype(np.int64)
                )
            else:
                tbl = pq.read_table(
                    path, columns=["doc"], filters=[(column, "==", value)]
                )
                self._filter_cache[key] = tbl["doc"].to_numpy().astype(np.int64)
        return self._filter_cache[key]

    def parent_blocks(self, parent_col: str):
        """(block_last_doc asc, parent_values) — the parent bitset of
        block-join search, derived from the reader's doc order and cached
        on the reader (the BitSetProducer/CachingWrapperFilter analog,
        `lucene/join/src/java/org/apache/lucene/search/join/
        QueryBitSetProducer.java`).  Valid only when the index was built
        parent-first (parent_col == id_cols[0]): docs are sorted by
        id_cols, so each parent's children form one contiguous docID run —
        Lucene's index-time block contract.  Fails loud on a non-contiguous
        layout instead of returning wrong joins."""
        if not hasattr(self, "_blocks_cache"):
            self._blocks_cache: dict = {}
        if parent_col not in self._blocks_cache:
            docs, vals = self._load_parent_values(parent_col)
            if len(vals) == 0:
                self._blocks_cache[parent_col] = (
                    np.zeros(0, dtype=np.int64), vals
                )
                return self._blocks_cache[parent_col]
            change = np.nonzero(vals[1:] != vals[:-1])[0]
            starts = np.concatenate([[0], change + 1])
            last = docs[np.concatenate([change, [len(vals) - 1]])].astype(
                np.int64
            )
            pvals = vals[starts]
            if len(np.unique(pvals)) != len(pvals):
                raise ValueError(
                    f"parent_blocks: {parent_col!r} runs are not contiguous "
                    f"in docID order — build the index with "
                    f"id_cols=({parent_col!r}, ...) so children share one "
                    "docID block"
                )
            self._blocks_cache[parent_col] = (last, pvals)
        return self._blocks_cache[parent_col]

    def _load_parent_values(self, parent_col: str) -> tuple:
        """(docs asc, parent_col value per doc), uncached."""
        tbl = pq.read_table(
            os.path.join(self.sdir, "docs.parquet"),
            columns=["doc", parent_col],
        )
        return (
            tbl["doc"].to_numpy(),
            tbl[parent_col].to_numpy(zero_copy_only=False),
        )

    def fetch_ids(self, docs: np.ndarray, id_cols: list[str]) -> dict:
        """doc -> tuple(id values), reading only needed row groups (docs are
        sorted in docs.parquet, so min/max stats prune)."""
        taken = self._id_rows(np.asarray(docs, dtype=np.int64), id_cols)
        cols = [taken[c].to_pylist() for c in id_cols]
        return dict(zip((int(d) for d in docs), zip(*cols)))

    def _id_rows(self, docs: np.ndarray, id_cols: list[str]) -> pa.Table:
        """The docs.parquet rows of `docs`, in order."""
        if self._ids_cache is None and self.max_doc > 2_000_000:
            tbl = pq.read_table(
                os.path.join(self.sdir, "docs.parquet"),
                columns=["doc"] + id_cols,
                filters=[("doc", "in", [int(d) for d in docs])],
            )
        else:
            tbl = self._id_table(id_cols)
        return tbl.take(pa.array(np.searchsorted(tbl["doc"].to_numpy(), docs)))

    def _id_table(self, id_cols: list[str]) -> pa.Table:
        """docs.parquet's doc column plus `id_cols`, read once per reader
        (re-read with the union of columns when a caller asks for more).
        One chunk per column: Arrow's take concatenates a chunked column
        on every call."""
        have = [] if self._ids_cache is None else self._ids_cache.column_names
        if not set(id_cols) <= set(have):
            cols = list(dict.fromkeys(["doc"] + have + list(id_cols)))
            self._ids_cache = pq.read_table(
                os.path.join(self.sdir, "docs.parquet"), columns=cols
            ).combine_chunks()
        return self._ids_cache


def _run_gather(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the runs [starts[i], starts[i] + lens[i]), in order."""
    total = int(lens.sum())
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(total)


class _FusedReader(_SegmentReader):
    """Every live segment as ONE doc space — the composite-reader analog
    (`lucene/core/src/java/org/apache/lucene/index/ReaderUtil.java` docBase
    leaves, `MultiPostingsEnum`), so a query runs each kernel once instead
    of once per segment.

    A doc's fused docID is the rank of its id_cols tuple across the whole
    index (a stable sort, so equal tuples — an append before a merge — keep
    manifest order).  That is exactly the docID a 1-segment build assigns,
    so every kernel's doc-asc tie-break already equals the collector's id
    tie-break.  Built lazily: the docID maps and the id table on first use,
    each term's fused posting (decode every segment's list, remap, sort,
    re-encode) on the term's first lookup, cached in the term cache, and
    its fused positions on first use, cached like a segment's.  Segment
    readers are read through their uncached loaders, so nothing is held
    twice.  Postings keep deleted docs (df/ttf stay stale until a merge,
    like a segment's); deleted_docs() bans them."""

    def __init__(self, readers: list[_SegmentReader], id_cols: list[str]):
        super().__init__(None, {"max_doc": sum(r.max_doc for r in readers)})
        self.readers = readers
        self.id_cols = list(id_cols)
        self._filter_cache: dict = {}
        self._maps: list[np.ndarray] | None = None
        self._ids: pa.Table | None = None

    def _doc_maps(self) -> list[np.ndarray]:
        """Per segment: local docID -> fused docID."""
        if self._maps is None:
            tbls = [r._id_table(self.id_cols) for r in self.readers]
            for r, t in zip(self.readers, tbls):
                if t.num_rows != r.max_doc:
                    raise ValueError(
                        f"segment {r.sdir}: docs.parquet holds {t.num_rows} "
                        f"rows for max_doc {r.max_doc}"
                    )
            ids = pa.concat_tables(
                [t.select(self.id_cols) for t in tbls]
                or [pa.table({c: pa.nulls(0) for c in self.id_cols})]
            )
            order = pc.sort_indices(
                ids, sort_keys=[(c, "ascending") for c in self.id_cols]
            ).to_numpy()
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            maps, off = [], 0
            for t in tbls:
                m = np.empty(t.num_rows, dtype=np.int64)
                m[t["doc"].to_numpy()] = rank[off: off + t.num_rows]
                maps.append(m)
                off += t.num_rows
            self._ids = ids.take(pa.array(order)).combine_chunks()
            self._maps = maps
        return self._maps

    def _remap_concat(self, per_seg: list) -> tuple:
        """[(segment index, (docs, *arrays))] -> the fused docs, the order
        that sorts them, and each other array concatenated (unsorted)."""
        maps = self._doc_maps()
        docs = np.concatenate([maps[i][p[0]] for i, p in per_seg])
        rest = [
            np.concatenate([p[j] for _, p in per_seg])
            for j in range(1, len(per_seg[0][1]))
        ]
        return docs, np.argsort(docs, kind="stable"), rest

    def _load_postings(self, terms: list[str]) -> dict[str, dict | None]:
        from rindex.codec import decode_posting_fast, encode_postings_batch

        per_seg = [r._load_postings(terms) for r in self.readers]
        out: dict[str, dict | None] = dict.fromkeys(terms)
        fused = []  # (term, docs, tfs, norms), docs ascending
        for t in terms:
            parts = [
                (i, decode_posting_fast(p[t]))
                for i, p in enumerate(per_seg)
                if p[t] is not None
            ]
            if parts:
                docs, o, (tfs, norms) = self._remap_concat(parts)
                fused.append((t, docs[o], tfs[o], norms[o]))
        if not fused:
            return out
        bounds = np.cumsum([0] + [len(f[1]) for f in fused])
        enc = encode_postings_batch(
            bounds, *(np.concatenate([f[j] for f in fused]) for j in (1, 2, 3))
        )
        blk = np.concatenate([[0], np.cumsum(enc["block_counts"])])
        blobs = enc["blob_offsets"]
        for i, (t, docs, tfs, norms) in enumerate(fused):
            b = slice(blk[i], blk[i + 1])
            out[t] = {
                "term": t,
                "df": int(enc["df"][i]),
                "ttf": int(enc["ttf"][i]),
                "blob": enc["blob_data"][blobs[i]: blobs[i + 1]].tobytes(),
                **{
                    c: enc[c][b]
                    for c in (
                        "block_first_doc", "block_last_doc", "block_max_tf",
                        "block_min_norm", "block_offset",
                    )
                },
            }
            if len(docs) >= self.DECODED_CACHE_MIN_DF:
                self._cache_arrays(self._decoded_cache, t, (docs, tfs, norms))
        return out

    def _load_positions(self, terms: list[str]) -> dict[str, tuple | None]:
        per_seg = [r._load_positions(terms) for r in self.readers]
        out: dict[str, tuple | None] = dict.fromkeys(terms)
        for t in terms:
            parts = [(i, p[t]) for i, p in enumerate(per_seg) if p[t] is not None]
            if parts:
                docs, o, (tfs, pos, norms) = self._remap_concat(parts)
                run = _run_gather((np.cumsum(tfs) - tfs)[o], tfs[o])
                out[t] = (docs[o], tfs[o], pos[run], norms[o])
        return out

    def deleted_docs(self) -> np.ndarray | None:
        if not hasattr(self, "_deleted"):
            maps = self._doc_maps()
            parts = [
                maps[i][dd]
                for i, r in enumerate(self.readers)
                if (dd := r.deleted_docs()) is not None
            ]
            self._deleted = np.sort(np.concatenate(parts)) if parts else None
        return self._deleted

    def docs_matching(self, column: str, value) -> np.ndarray:
        key = (column, str(value))
        if key not in self._filter_cache:
            maps = self._doc_maps()
            self._filter_cache[key] = np.sort(np.concatenate([
                np.zeros(0, dtype=np.int64),
                *(maps[i][r.docs_matching(column, value)]
                  for i, r in enumerate(self.readers)),
            ]))
        return self._filter_cache[key]

    def _load_parent_values(self, parent_col: str) -> tuple:
        maps = self._doc_maps()
        parts = [r._load_parent_values(parent_col) for r in self.readers]
        docs = np.concatenate([maps[i][d] for i, (d, _) in enumerate(parts)])
        o = np.argsort(docs, kind="stable")
        return docs[o], np.concatenate([v for _, v in parts])[o]

    def _id_table(self, id_cols: list[str]) -> pa.Table:
        self._doc_maps()
        return self._ids.append_column(
            "doc", pa.array(np.arange(self._ids.num_rows))
        )

    def _id_rows(self, docs: np.ndarray, id_cols: list[str]) -> pa.Table:
        self._doc_maps()
        return self._ids.take(pa.array(docs))


def _weight_val(x):
    """Normalize a similarity term weight: python float for the scalar
    channel (every classic similarity), a float64 vector for similarities
    whose score is linear in SEVERAL per-term constants (DFR basic model G:
    score = w0/(tfn+1) + w1*tfn/(tfn+1)).  Query-term multiplicity and
    boosts compose by scalar-multiplying the whole vector — score stays
    linear in it, exactly like the scalar channel."""
    a = np.asarray(x, np.float64)
    return float(a) if a.ndim == 0 else a


def _topk_preselect(d: np.ndarray, s: np.ndarray, k: int, *rest):
    """Exact top-k preselection: np.partition finds the k-th largest score
    in O(n), then only entries with score >= that value (ties INCLUDED, so
    the subsequent doc-asc tie-break lexsort stays rank-exact) survive —
    replaces a full O(n log n) lexsort over ~1M candidates with O(n).
    `rest` are arrays aligned with d, filtered alike."""
    if len(d) <= 4 * k or k <= 0:
        return (d, s, *rest)
    kth = np.partition(s, len(s) - k)[len(s) - k]
    m = s >= kth
    return (d[m], s[m], *(r[m] for r in rest))


def _collect(reader, id_cols, docs, scores, k, freqs=None) -> list[tuple]:
    """The TopScoreDocCollector: the k best (docs, scores) by score desc,
    doc asc, their ids fetched once, as rows (rank, *id_cols, [freq,]
    score).  A reader's docID order is its id_cols order, so the doc-asc
    tie-break is the id tie-break."""
    extra = () if freqs is None else (freqs,)
    docs, scores, *extra = _topk_preselect(docs, scores, k, *extra)
    sel = np.lexsort((docs, -scores))[:k]
    if len(sel) == 0:
        return []
    docs, scores = docs[sel], scores[sel]
    ids = reader.fetch_ids(docs, id_cols)
    mid = [(int(f),) for f in extra[0][sel]] if extra else [()] * len(sel)
    return [
        (rank, *ids[int(d)], *m, float(sc))
        for rank, (d, m, sc) in enumerate(zip(docs, mid, scores))
    ]


def _rows_by_id(reader, id_cols, docs, values) -> list[tuple]:
    """[(*id_cols, value)] per doc of `docs` — ascending docIDs, so the
    rows come sorted by id."""
    if len(docs) == 0:
        return []
    docs = np.asarray(docs, dtype=np.int64)
    ids = reader.fetch_ids(docs, id_cols)
    return [(*ids[int(d)], v) for d, v in zip(docs, values)]


def _doc_runs(post: tuple | None, docs: np.ndarray) -> list[np.ndarray]:
    """Per doc of `docs`: a term's int64 positions in that doc, from
    positions_for's (docs, tfs, positions); empty where the doc (or the
    whole reader: post None) lacks the term."""
    if post is None:
        return [np.zeros(0, dtype=np.int64)] * len(docs)
    pdocs, tfs, pos = post[:3]
    at = np.minimum(np.searchsorted(pdocs, docs), len(pdocs) - 1)
    lens = np.where(pdocs[at] == docs, tfs[at], 0)
    starts = (np.cumsum(tfs) - tfs)[at]
    pos = np.asarray(pos, dtype=np.int64)
    return [pos[s: s + n] for s, n in zip(starts, lens)]


def _min_cover(plists: list[np.ndarray]) -> int:
    """Width of the shortest window holding one position of every
    (non-empty) list: a sweep over the merged, term-tagged positions that
    advances the window start while every term stays covered."""
    need = len(plists)
    tags = np.repeat(np.arange(need), [len(p) for p in plists])
    flat = np.concatenate(plists)
    o = np.argsort(flat, kind="stable")
    flat, tags = flat[o], tags[o]
    count = np.zeros(need, dtype=np.int64)
    covered, lo, best = 0, 0, None
    for hi in range(len(flat)):
        if count[tags[hi]] == 0:
            covered += 1
        count[tags[hi]] += 1
        while covered == need:
            span = int(flat[hi] - flat[lo] + 1)
            if best is None or span < best:
                best = span
            count[tags[lo]] -= 1
            if count[tags[lo]] == 0:
                covered -= 1
            lo += 1
    return best


def _ordered_chains(start: np.ndarray, rest: list[np.ndarray]):
    """Greedy minimal ordered chains, every start at once: from each start
    position, link each list of `rest` in turn at its smallest position
    strictly after the running end (one searchsorted per list; greedy
    linking gives the minimal end per start).  Returns (start, end, ok),
    ok marking the starts whose chain completes."""
    end = start.copy()
    ok = np.ones(len(start), dtype=bool)
    for pl in rest:
        nxt = np.searchsorted(pl, end, side="right")
        valid = nxt < len(pl)
        end = np.where(valid, pl[np.minimum(nxt, len(pl) - 1)], end)
        ok &= valid
    return start, end, ok


class IndexSearcher:
    def __init__(self, index_dir: str, algo: str = "wand",
                 similarity="bm25"):
        self.index_dir = index_dir
        self.manifest = segio.read_manifest(index_dir)
        cfg = self.manifest["config"]
        self.analyzer_name = cfg["analyzer"]
        self.id_cols = list(cfg["id_cols"])
        self.algo = algo
        self.n_docs = int(self.manifest["totals"]["doc_count"])
        self.sum_dl = int(self.manifest["totals"]["sum_dl"])
        self.avgdl = self.sum_dl / max(1, self.n_docs)
        self.sim = get_similarity(similarity)
        # 256-entry per-norm-byte factors from the plugged similarity
        self.cache = self.sim.norm_cache(self.avgdl)
        self.readers = [
            _SegmentReader(segio.seg_dir(index_dir, m["seg_id"], m.get("gen", 0)), m)
            for m in self.manifest["segments"]
        ]
        self._fused: _FusedReader | None = None

    def reader(self) -> _SegmentReader:
        """The one reader every entry point scores: the lone segment of a
        1-segment index as is, else every live segment fused into one doc
        space (an index with no segments fuses to an empty one).  Only
        code whose output is per segment by design reads `self.readers`:
        `score_matches_dataset`, which runs a Ray task per segment, and
        the ops `cms.build_segment_blooms`, `q_bloom_segment_skip_documents`
        and `q_realtime_get_documents`."""
        if len(self.readers) == 1:
            return self.readers[0]
        if self._fused is None:
            self._fused = _FusedReader(self.readers, self.id_cols)
        return self._fused

    def warm(self, concurrency: int = 8) -> "IndexSearcher":
        """Preload every segment's term dictionary + postings table with a
        thread pool (parquet reads are IO-bound and release the GIL in
        Arrow).  Cold first-query latency is otherwise dominated by the
        serial segment loads (measured p99 ~600ms vs p50 ~10ms at sf0.1);
        the reference warms searchers the same way (`SolrIndexSearcher`
        firstSearcher/newSearcher warming queries,
        `solr/core/src/java/org/apache/solr/search/SolrIndexSearcher.java`).
        A multi-segment index also builds its fused reader's docID maps and
        id table here, not on the first query."""
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=concurrency) as ex:
            list(ex.map(lambda r: r._ensure_loaded(), self.readers))
        if len(self.readers) > 1:
            self.reader()._doc_maps()
        return self

    # ---- stats ----
    def global_df(self, terms: list[str]) -> dict[str, int]:
        posts = self.reader().postings_for(terms)
        return {t: int(row["df"]) if row else 0 for t, row in posts.items()}

    def global_ttf(self, terms: list[str]) -> dict[str, int]:
        """Index-wide total term frequency (CollectionStatistics'
        totalTermFreq — needed by collection-stats similarities)."""
        posts = self.reader().postings_for(terms)
        return {t: int(row["ttf"]) if row else 0 for t, row in posts.items()}

    def term_weights(self, order: list[str], df: dict) -> dict[str, float]:
        """Per-term Similarity weight map.  Collection-stats similarities
        (needs_cstats, e.g. LMDirichlet) also receive ttf and the total
        token count (manifest sum_dl — exact, not lossy)."""
        if getattr(self.sim, "needs_cstats", False):
            ttf = self.global_ttf(order)
            return {
                t: _weight_val(
                    self.sim.term_weight_cstats(
                        df[t], ttf[t], self.n_docs, self.sum_dl
                    )
                )
                for t in order
            }
        return {
            t: _weight_val(self.sim.term_weight(df[t], self.n_docs))
            for t in order
        }

    def _pseudo_term_weight(self, df: int, ttf: float) -> float:
        """Clause weight for a synthetic term (a phrase: df = phrase-match
        doc count, ttf = total phrase frequency — the PhraseWeight
        contract), routed through whichever stats channel the plugged
        similarity uses."""
        if getattr(self.sim, "needs_cstats", False):
            return _weight_val(
                self.sim.term_weight_cstats(
                    df, ttf, self.n_docs, self.sum_dl
                )
            )
        return _weight_val(self.sim.term_weight(df, self.n_docs))

    # ---- scoring ----
    def _term_plan(self, q: Query):
        """Per unique term (query order of first occurrence): multiplicity,
        global idf.  Terms with global df=0 are dropped for OR; for AND they
        make the result empty."""
        order: list[str] = []
        mult: dict[str, int] = {}
        for t in q.terms:
            if t not in mult:
                order.append(t)
            mult[t] = mult.get(t, 0) + 1
        if q.boosts:
            # parser-supplied weights: summed per-occurrence boosts replace
            # the raw duplicate count (BoostQuery semantics)
            mult = {t: q.boosts.get(t, m) for t, m in mult.items()}
        df = self.global_df(order)
        if q.mode == "and" and any(df[t] == 0 for t in order):
            return [], mult, df
        order = [t for t in order if df[t] > 0]
        return order, mult, df

    def _banned_for(self, reader, q) -> np.ndarray | None:
        """Reader-local docs excluded by MUST_NOT terms / FILTER clause
        (ReqExclScorer + filter-clause semantics: non-scoring).  Cached per
        (exclude-set, filter) on the reader — the repeated-query cost is
        otherwise an O(max_doc) complement rebuild per query."""
        filters = _filters_list(q)
        deleted = reader.deleted_docs()
        if not q.exclude and not filters:
            return deleted
        key = (
            tuple(sorted(set(q.exclude))) if q.exclude else (),
            tuple(filters),
        )
        if not hasattr(reader, "_banned_cache"):
            reader._banned_cache = {}
        hit = reader._banned_cache.get(key)
        if hit is not None:
            return hit
        # deletes ban like MUST_NOT: constant per reader generation, so
        # caching the union under the (exclude, filter) key stays valid
        parts = [] if deleted is None else [deleted]
        if q.exclude:
            posts = reader.postings_for(sorted(set(q.exclude)))
            for t in sorted(set(q.exclude)):
                row = posts.get(t)
                if row is not None:
                    parts.append(reader.decoded(t, row)[0])
        for col, val in filters:  # ANDed: each filter bans its complement
            allowed = reader.docs_matching(col, val)
            parts.append(
                np.setdiff1d(
                    np.arange(reader.max_doc, dtype=np.int64), allowed
                )
            )
        banned = np.unique(np.concatenate(parts)) if parts else None
        if len(reader._banned_cache) < 64:
            reader._banned_cache[key] = banned
        return banned

    def _segment_match_scores(
        self, reader, q, order, mult, idf_map, clauses=()
    ):
        """ALL matching (docs, scores) of a reader, unranked — the dense
        accumulator shared by the exhaustive kernel, phrase/synonym
        queries and block join (which must see every matching child, not a
        top-k cut).  `clauses` are extra scored (weight, (docs, tfs,
        norms)) pseudo-terms — phrase and synonym clauses — each required
        in "and" mode like a term.  Scores sum in query-term order, then
        clause order: bit-identical across every consumer."""
        posts = reader.postings_for(order)
        # conjunction = "match all"; mm = "match at least min_match" — one
        # hit-count scatter serves both (for plain OR every positive score
        # marks a match: idf > 0, tf > 0, so no counter is needed)
        need = (
            len(order) + len(clauses) if q.mode == "and"
            else max(0, int(q.min_match or 0))
        )
        acc = np.zeros(reader.max_doc, dtype=np.float64)
        hits = np.zeros(reader.max_doc, dtype=np.int64) if need > 1 else None
        scored = [
            (idf_map[t] * mult[t], reader.decoded(t, posts[t]))
            for t in order if posts.get(t) is not None
        ] + list(clauses)
        for w, (d, tf_arr, nrm) in scored:
            acc[d] += self.sim.score(
                w, tf_arr.astype(np.float64), self.cache[nrm]
            )
            if hits is not None:
                hits[d] += 1
        if not scored or len(scored) < need:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        banned = self._banned_for(reader, q)
        if hits is not None:
            if banned is not None and len(banned):
                hits[banned] = -(10**9)
            cand = np.nonzero(hits >= need)[0]
        else:
            if banned is not None and len(banned):
                acc[banned] = 0.0
            cand = np.nonzero(acc)[0]
        cand = cand[acc[cand] > 0]  # the score>0 hit contract
        return cand, acc[cand]

    def _search_segment_exhaustive(self, reader, q, order, mult, idf_map, k):
        """Every match, scored densely; the collector cuts to k."""
        return self._segment_match_scores(reader, q, order, mult, idf_map)

    def _search_segment_single_term(self, reader, q, order, mult, idf_map, k):
        """Impact-ordered top-k for a SINGLE-term query: process blocks in
        descending upper-bound order (per-block (max_tf, min_norm) impacts)
        and stop once the next block's bound is strictly below the k-th
        best score — the ImpactsEnum/TopScoreDocCollector early-termination
        path (reference: `lucene/core/src/java/org/apache/lucene/index/
        ImpactsEnum.java`, LUCENE-4198 impacts).  Ties at the threshold are
        still processed (ub >= theta) so doc-asc tie-break stays exact."""
        t = order[0]
        row = reader.postings_for([t]).get(t)
        if row is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        banned = self._banned_for(reader, q)
        weight = idf_map[t] * mult[t]
        mtf = np.asarray(row["block_max_tf"], dtype=np.float64)
        mn = np.asarray(row["block_min_norm"], dtype=np.int64)
        ubs = self.sim.score(weight, mtf, self.cache[mn])
        n_blocks = len(ubs)
        lasts = row["block_last_doc"]
        blob = row["blob"]
        offs = row["block_offset"]

        def decode_blocks(bs):
            parts_d, parts_s = [], []
            for b in bs:
                prev = int(lasts[b - 1]) if b > 0 else -1
                d, tf, nrm = decode_block(blob, int(offs[b]), prev)
                tff = tf.astype(np.float64)
                parts_d.append(d)
                parts_s.append(self.sim.score(weight, tff, self.cache[nrm]))
            return np.concatenate(parts_d), np.concatenate(parts_s)

        def topk(d, s):
            if banned is not None and len(banned) and len(d):
                ok = ~np.isin(d, banned)
                d, s = d[ok], s[ok]
            pos = s > 0  # the score>0 hit contract (see the AND path)
            d, s = d[pos], s[pos]
            d, s = _topk_preselect(d, s, k)
            sel = np.lexsort((d, -s))[:k]
            return d[sel], s[sel]

        order_b = np.argsort(-ubs, kind="stable")
        n_seed = max(1, (k + 127) // 128 + 1)
        if n_seed > 0.25 * n_blocks:
            # k covers most of the list (match-all-style request): one
            # cached vectorized whole-list pass beats per-block decoding
            d, tf, nrm = reader.decoded(t, row)
            tff = tf.astype(np.float64)
            return topk(d, self.sim.score(weight, tff, self.cache[nrm]))
        seed = order_b[:n_seed]
        d0, s0 = topk(*decode_blocks(seed.tolist()))
        if len(d0) >= k:
            theta = s0.min()
            # ties at theta must still be processed for doc-asc tie-break
            rest = [
                int(b) for b in order_b[len(seed):] if ubs[b] >= theta
            ]
        else:
            rest = [int(b) for b in order_b[len(seed):]]
        if not rest:
            return d0, s0
        if len(rest) > 0.25 * n_blocks:
            # bounds don't discriminate -> ONE vectorized whole-list pass
            # (cached) is cheaper than per-block decoding
            d, tf, nrm = reader.decoded(t, row)
            tff = tf.astype(np.float64)
            return topk(d, self.sim.score(weight, tff, self.cache[nrm]))
        d1, s1 = decode_blocks(rest)
        return topk(
            np.concatenate([d0, d1]), np.concatenate([s0, s1])
        )

    def _search_segment_wand(self, reader, q, order, mult, idf_map, k):
        """Block-max WAND, driver/pivot formulation (reference semantics:
        `lucene/core/src/java/org/apache/lucene/search/WANDScorer.java` +
        `ImpactsDISI`): establish the score threshold theta by fully scoring
        the highest-upper-bound term's postings (with other terms'
        contributions looked up block-wise on demand), then only docs
        containing at least one DRIVER term — a term outside whose exclusion
        the remaining upper bounds cannot reach theta — are candidates.
        Everything is vectorized per posting list; non-driver (stopword-
        class) lists are decoded only for the blocks candidate docs fall
        into, which is what makes rare+common mixed queries cheap."""
        posts = reader.postings_for(order)
        rows = [(t, posts.get(t)) for t in order]
        if q.mode == "and" and any(r is None for _, r in rows):
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        rows = [(t, r) for t, r in rows if r is not None]
        if not rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        n_terms = len(rows)
        firsts = [np.asarray(r["block_first_doc"], dtype=np.int64) for _, r in rows]
        lasts = [np.asarray(r["block_last_doc"], dtype=np.int64) for _, r in rows]
        # per-block upper bounds from impacts (max_tf, min_norm); the term
        # bound is the max over its blocks (globally valid)
        ubs = []
        for (t, r), f in zip(rows, firsts):
            mtf = np.asarray(r["block_max_tf"], dtype=np.float64)
            mn = np.asarray(r["block_min_norm"], dtype=np.int64)
            ubs.append(self.sim.score(idf_map[t] * mult[t], mtf, self.cache[mn]))
        term_ub = np.array([u.max() for u in ubs])

        decoded: dict[tuple[int, int], tuple] = {}  # (term_i, block) -> (d, s)

        def get_block(ti: int, b: int):
            key = (ti, b)
            if key not in decoded:
                t, r = rows[ti]
                prev = int(r["block_last_doc"][b - 1]) if b > 0 else -1
                d, tf, nrm = decode_block(r["blob"], int(r["block_offset"][b]), prev)
                tff = tf.astype(np.float64)
                s = self.sim.score(idf_map[t] * mult[t], tff, self.cache[nrm])
                decoded[key] = (d, s)
            return decoded[key]

        full_cache: dict[int, tuple] = {}  # term_i -> (docs, scores)

        def decode_all(ti: int):
            # seeds full_cache: the driver term's whole-list decode was
            # previously repeated inside score_candidates' lookup
            hit = full_cache.get(ti)
            if hit is not None:
                return hit
            t, r = rows[ti]
            d, tf, nrm = reader.decoded(t, r)
            tff = tf.astype(np.float64)
            out = (d, self.sim.score(idf_map[t] * mult[t], tff, self.cache[nrm]))
            full_cache[ti] = out
            return out

        def lookup(ti: int, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Contribution of term ti at the (sorted unique) candidate
            docs.  Decodes only the blocks candidates fall into — unless
            the candidates touch most of the list's blocks, where ONE
            whole-list vectorized decode beats the per-block loop.
            Returns (scores, present mask)."""
            out = np.zeros(len(cand))
            present = np.zeros(len(cand), dtype=bool)
            bi = np.searchsorted(firsts[ti], cand, side="right") - 1
            ok = (bi >= 0) & (lasts[ti][np.clip(bi, 0, None)] >= cand)
            needed = np.unique(bi[ok])
            if ti in full_cache or len(needed) > 0.25 * len(firsts[ti]):
                if ti not in full_cache:
                    full_cache[ti] = decode_all(ti)
                d, s = full_cache[ti]
                pos = np.clip(np.searchsorted(d, cand), 0, len(d) - 1)
                hit = d[pos] == cand
                out[hit] = s[pos[hit]]
                present[hit] = True
                return out, present
            for b in needed:
                sel = np.flatnonzero(ok & (bi == b))
                d, s = get_block(ti, int(b))
                pos = np.clip(np.searchsorted(d, cand[sel]), 0, len(d) - 1)
                hit = d[pos] == cand[sel]
                out[sel[hit]] = s[pos[hit]]
                present[sel[hit]] = True
            return out, present

        def score_candidates(cand: np.ndarray):
            """Sum contributions in QUERY TERM ORDER (same float addition
            sequence as the exhaustive kernel and the oracle — scores must
            be bit-identical across algorithms)."""
            total = np.zeros(len(cand))
            npresent = np.zeros(len(cand), dtype=np.int64)
            for ti in range(n_terms):
                c, p = lookup(ti, cand)
                total += c
                npresent += p
            return total, npresent

        banned = self._banned_for(reader, q)

        def drop_banned(d: np.ndarray):
            if banned is None or len(banned) == 0 or len(d) == 0:
                return np.ones(len(d), dtype=bool)
            return ~np.isin(d, banned, assume_unique=False)

        if q.mode == "and":
            # conjunction: candidates are exactly the rarest list's docs
            ta = int(np.argmin([int(r["df"]) for _, r in rows]))
            docs_a, _ = decode_all(ta)
            total, npres = score_candidates(docs_a)
            # total > 0: the engine-wide hit contract (a similarity with a
            # max(0,.) clamp — LMDirichlet — can score a matched doc 0;
            # every kernel and every oracle excludes it, WHERE s > 0)
            keep = (npres == n_terms) & drop_banned(docs_a) & (total > 0)
            docs_a, total = docs_a[keep], total[keep]
            sel = np.lexsort((docs_a, -total))[:k]
            return docs_a[sel], total[sel]

        # OR phase A: full scores at the max-ub term's docs -> theta
        ta = int(np.argmax(term_ub))
        docs_a, _ = decode_all(ta)
        ok_a = drop_banned(docs_a)
        docs_a = docs_a[ok_a]
        total_a, _ = score_candidates(docs_a)
        sel = np.lexsort((docs_a, -total_a))[:k]
        best_docs, best_scores = docs_a[sel], total_a[sel]
        theta = best_scores.min() if len(best_docs) >= k else -np.inf

        # OR phase B: drivers = minimal ub-descending prefix such that the
        # remaining terms' bounds sum below theta; docs in no driver list
        # cannot reach theta
        ub_order = np.argsort(-term_ub, kind="stable")
        suffix = np.concatenate([np.cumsum(term_ub[ub_order][::-1])[::-1][1:], [0.0]])
        n_drivers = 1
        while n_drivers < n_terms and suffix[n_drivers - 1] >= theta:
            n_drivers += 1
        drivers = [int(ub_order[i]) for i in range(n_drivers)]
        extra = [ti for ti in drivers if ti != ta]
        if extra:
            cand = np.unique(np.concatenate([decode_all(ti)[0] for ti in extra]))
            cand = cand[~np.isin(cand, docs_a, assume_unique=True)]
            cand = cand[drop_banned(cand)]
            if len(cand):
                total_b, _ = score_candidates(cand)
                best_docs = np.concatenate([best_docs, cand])
                best_scores = np.concatenate([best_scores, total_b])
        pos = best_scores > 0  # the score>0 hit contract (see AND path)
        best_docs, best_scores = best_docs[pos], best_scores[pos]
        sel = np.lexsort((best_docs, -best_scores))[:k]
        return best_docs[sel], best_scores[sel]

    def search(
        self,
        text: str,
        k: int = 10,
        mode: str = "or",
        algo: str | None = None,
        exclude: str | None = None,
        field_filter: tuple[str, str] | None = None,
        min_match: int = 0,
    ) -> list[tuple]:
        """Returns [(rank, *id_cols, score)].  `exclude` is a MUST_NOT
        clause (analyzed; matching docs dropped, non-scoring);
        `field_filter=(column, value)` is a non-scoring FILTER clause on a
        stored field; `min_match` is BooleanQuery minimumNumberShouldMatch
        (OR mode only: docs must match >= that many distinct terms)."""
        q = Query(
            terms=get_analyzer(self.analyzer_name).tokens(text),
            mode=mode,
            k=k,
            exclude=(
                get_analyzer(self.analyzer_name).tokens(exclude)
                if exclude
                else None
            ),
            field_filter=field_filter,
            min_match=min_match,
        )
        return self.search_query(q, algo=algo)

    # A query term is "selective" when its df is below this fraction of the
    # corpus; WAND's block skipping only pays for its per-block bookkeeping
    # when at least one selective term drives the score threshold up.  For
    # all-common-term (stopword-heavy) queries the bulk-vectorized
    # exhaustive kernel is 2-3x faster (measured at sf0.1), so the planner
    # falls back — the cost-estimation shape of the reference's scorer
    # selection (`lucene/core/src/java/org/apache/lucene/search/
    # BooleanWeight.java#scorerSupplier` choosing BooleanScorer vs WAND by
    # cost()).
    WAND_SELECTIVITY = 0.03

    def search_query(self, q: Query, algo: str | None = None) -> list[tuple]:
        planned = algo is None  # explicit algo= is honored verbatim (tests
        # compare wand vs exhaustive directly); the planner only steers the
        # searcher-default path
        algo = algo or self.algo
        order, mult, df = self._term_plan(q)
        if q.mode == "and" and q.terms and not order:
            return []  # a required term is absent corpus-wide
        mm = max(0, int(q.min_match or 0))
        if mm > 1:
            if q.phrases or q.synonyms:
                raise ValueError(
                    "min_match with phrase/synonym clauses is not supported"
                )
            if len(order) < mm:
                return []  # fewer matchable clauses than the bar
            # mm needs the per-doc hit COUNT — only the dense exhaustive
            # kernel scatters it (Lucene routes minShouldMatch>0 off the
            # plain WAND path the same way: MinShouldMatchSumScorer)
            if not planned and algo != "exhaustive":
                raise ValueError(
                    f"min_match requires the exhaustive kernel, got {algo!r}"
                )
            algo = "exhaustive"
        if q.phrases or q.synonyms:
            return self._search_with_phrases(q, order, mult, df)
        if not order:
            return []
        idf_map = self.term_weights(order, df)
        if planned and algo == "wand":
            min_sel = min(df[t] for t in order) / max(1, self.n_docs)
            if min_sel > self.WAND_SELECTIVITY:
                algo = "exhaustive"
        if planned and len(order) == 1 and mm <= 1:
            # single-term: impact-ordered early termination beats both
            # kernels regardless of df
            algo = "single"
        kernel = {
            "wand": self._search_segment_wand,
            "exhaustive": self._search_segment_exhaustive,
            "single": self._search_segment_single_term,
        }[algo]
        reader = self.reader()
        docs, scores = kernel(reader, q, order, mult, idf_map, q.k)
        return _collect(reader, self.id_cols, docs, scores, q.k)

    def search_block_join(
        self,
        text: str,
        parent_col: str,
        k: int = 10,
        mode: str = "or",
        score_mode: str = "max",
    ) -> list[tuple]:
        """ToParentBlockJoinQuery over real index blocks: score every
        matching CHILD doc (dense kernel, no top-k cut), map each child to
        its parent block via the segment's cached parent boundaries, and
        aggregate child scores per parent with ScoreMode `max`/`total`/
        `avg`/`none` (reference: `lucene/join/src/java/org/apache/lucene/
        search/join/ToParentBlockJoinQuery.java` BlockJoinScorer).  Returns
        [(rank, parent_value, score, n_children_matched)] — ties break
        score desc then parent asc.  The reader's docIDs follow id_cols, so
        with parent_col == id_cols[0] each parent is one docID block, also
        when its children sit in several segments."""
        if score_mode not in ("max", "total", "avg", "none"):
            raise ValueError(f"unknown score_mode {score_mode!r}")
        q = Query(
            terms=get_analyzer(self.analyzer_name).tokens(text),
            mode=mode,
            k=k,
        )
        order, mult, df = self._term_plan(q)
        if not order:
            return []
        idf_map = self.term_weights(order, df)
        reader = self.reader()
        cand, scores = self._segment_match_scores(
            reader, q, order, mult, idf_map
        )
        if len(cand) == 0:
            return []
        last, pvals = reader.parent_blocks(parent_col)
        b = np.searchsorted(last, cand, side="left")
        nb = len(last)
        cnt = np.bincount(b, minlength=nb)
        if score_mode in ("total", "avg"):
            agg = np.bincount(b, weights=scores, minlength=nb)
            if score_mode == "avg":
                agg = np.divide(agg, cnt, out=np.zeros(nb), where=cnt > 0)
        elif score_mode == "max":
            agg = np.full(nb, -np.inf)
            np.maximum.at(agg, b, scores)
        else:  # none: parent matches, score carries no child signal
            agg = np.zeros(nb)
        hit = np.nonzero(cnt)[0]
        pv, sc, ct = pvals[hit], agg[hit], cnt[hit]
        sel = np.lexsort((pv, -sc))[:k]
        return [
            (rank, pv[i], float(sc[i]), int(ct[i]))
            for rank, i in enumerate(sel)
        ]

    def _phrase_matches(self, terms) -> tuple | None:
        """(docs, phrase_freqs float64, norms) of an exact phrase, None
        when nothing matches."""
        docs, freqs, norms = self._segment_phrase(self.reader(), list(terms))
        if not docs:
            return None
        return (
            np.asarray(docs, dtype=np.int64),
            np.asarray(freqs, dtype=np.float64),
            np.asarray(norms, dtype=np.uint8),
        )

    def _phrase_plan(self, q: Query):
        """Per phrase clause: (clause weight, sparse matches) — the weight
        is the idf from df = phrase-match count, times the parsed boost
        (the PhraseWeight contract: docFreq comes from the phrase's own
        matches).  Returns None when an absent phrase makes an AND query
        empty; OR-mode absent phrases are dropped.  Synonym groups
        (SynonymQuery) produce entries of the SAME shape, with per-doc tf
        summed across members and the weight from blended stats (df = max
        of members' dfs, ttf = sum), so the kernel treats them
        identically."""
        plan = []
        reader = self.reader()
        for pterms, boost in q.phrases or []:
            got = self._phrase_matches(pterms)
            if got is None:
                if q.mode == "and":
                    return None
                continue
            w = self._pseudo_term_weight(len(got[0]), float(got[1].sum()))
            plan.append((w * boost, got))
        for sterms, boost in q.synonyms or []:
            gdf = self.global_df(sterms)
            df_s = max(gdf[t] for t in sterms)
            if df_s == 0:
                if q.mode == "and":
                    return None
                continue
            ttf_s = sum(self.global_ttf(sterms).values())
            posts = reader.postings_for(sterms)
            parts = [reader.decoded(t, posts[t]) for t in sterms if posts[t]]
            u, inv = np.unique(
                np.concatenate([p[0] for p in parts]), return_inverse=True
            )
            tf_u = np.zeros(len(u), dtype=np.float64)
            np.add.at(tf_u, inv, np.concatenate([p[1] for p in parts]))
            nrm_u = np.zeros(len(u), dtype=np.uint8)
            nrm_u[inv] = np.concatenate([p[2] for p in parts])  # doc-level
            w = self._pseudo_term_weight(df_s, float(ttf_s)) * boost
            plan.append((w, (u, tf_u, nrm_u)))
        return plan

    def _search_with_phrases(self, q: Query, order, mult, df) -> list[tuple]:
        """Combined term + phrase scoring: phrase clauses force the dense
        exhaustive kernel (WAND's per-block bounds can't see phrase
        contributions), each phrase adding sim.score(w_p, phrase_freq,
        norm) on its matching docs; in AND mode every scored clause (term
        or phrase) is required — the engine's documented MUST semantics."""
        plan = self._phrase_plan(q)
        if plan is None or (not order and not plan):
            return []
        idf_map = self.term_weights(order, df)
        reader = self.reader()
        docs, scores = self._segment_match_scores(
            reader, q, order, mult, idf_map, clauses=plan
        )
        return _collect(reader, self.id_cols, docs, scores, q.k)

    def explain(self, text: str, id_values: tuple, mode: str = "or") -> dict:
        """Score breakdown for one document (the Explanation analog —
        reference: `lucene/core/src/java/org/apache/lucene/search/
        IndexSearcher.java#explain` + BM25Similarity explain): per matched
        term, tf, df, idf, lossy dl, and the term's contribution; `total`
        is bit-identical to the score search() produces for the doc
        (asserted in tests).  id_values is the doc's id-column tuple; a
        deleted doc, or a version an append superseded, matches nothing."""
        from rindex.codec import NORM_DECODE_TABLE

        q = Query(
            terms=get_analyzer(self.analyzer_name).tokens(text),
            mode=mode, k=1,
        )
        miss = {"matched": False, "total": 0.0, "details": []}
        order, mult, df = self._term_plan(q)
        if not order:
            return miss
        idf_map = self.term_weights(order, df)
        reader = self.reader()
        tbl = reader._id_table(self.id_cols)
        mask = None
        for c, v in zip(self.id_cols, id_values):
            eq = pc.equal(tbl[c], v)
            mask = eq if mask is None else pc.and_(mask, eq)
        live = reader.drop_deleted(tbl["doc"].filter(mask).to_numpy())
        if len(live) == 0:
            return miss
        local = int(live[0])
        posts = reader.postings_for(order)
        detail, total = [], 0.0
        for t in order:
            d, tf_arr, nrm = reader.decoded(t, posts[t])
            at = int(np.searchsorted(d, local))
            if at >= len(d) or d[at] != local:
                continue
            tf = float(tf_arr[at])
            contrib = float(
                self.sim.score(
                    idf_map[t] * mult[t], tf, self.cache[nrm[at:at + 1]][0]
                )
            )
            total += contrib
            detail.append(
                {
                    "term": t, "tf": tf, "df": int(df[t]),
                    "idf": idf_map[t], "boost_mult": mult[t],
                    "lossy_dl": int(NORM_DECODE_TABLE[int(nrm[at])]),
                    "contribution": contrib,
                }
            )
        if not detail or (q.mode == "and" and len(detail) < len(order)):
            return miss
        return {"matched": True, "total": total, "details": detail}

    def search_boolean(self, tree, k: int = 10) -> list[tuple]:
        """Nested BooleanQuery tree search (Lucene QueryParser parentheses:
        `(a OR b) AND c AND NOT d` — `lucene/core/src/java/org/apache/
        lucene/search/BooleanQuery.java` + BooleanScorer).  Lucene
        semantics: the TREE decides the match predicate; the score is the
        sum of EVERY matching positive scorer (leaves under NOT never
        score — MUST_NOT clauses are non-scoring).  Dense evaluation per
        segment: one boolean mask per sub-tree (term masks scattered from
        the decoded doc lists, NOT = complement, AND/OR = elementwise),
        the score accumulator shared with the exhaustive kernel's
        term-order summation.  Trees are validated by parse_boolean_query
        (NOT only as an AND operand, never all operands)."""
        leaves: dict[str, int] = {}
        const_scoring: list[tuple] = []   # ('const', terms) leaves that score
        phrase_nodes: dict[tuple, bool] = {}  # terms -> any scoring occurrence

        def collect(node, under_not):
            if node[0] == "term":
                if not under_not:
                    leaves[node[1]] = leaves.get(node[1], 0) + 1
            elif node[0] == "const":
                if not under_not:
                    const_scoring.append(tuple(node[1]))
            elif node[0] == "phrase":
                key = tuple(node[1])
                phrase_nodes[key] = phrase_nodes.get(key, False) or (
                    not under_not
                )
            elif node[0] == "not":
                collect(node[1], True)
            else:
                for ch in node[1]:
                    collect(ch, under_not)

        collect(tree, False)

        def all_terms(node):
            if node[0] == "term":
                return [node[1]]
            if node[0] == "const":
                return list(node[1])
            if node[0] == "phrase":
                return []  # phrase leaves read positional postings below
            if node[0] == "not":
                return all_terms(node[1])
            out = []
            for ch in node[1]:
                out.extend(all_terms(ch))
            return out

        order = list(leaves)
        df = self.global_df(order)
        idf_map = self.term_weights([t for t in order if df[t] > 0], df)
        # phrase leaves: matches + PhraseWeight stats up front (df = the
        # phrase-match count — the PhraseWeight contract)
        phrase_plan: dict[tuple, tuple] = {}
        for pterms, scoring in phrase_nodes.items():
            got = self._phrase_matches(pterms)
            w = (
                self._pseudo_term_weight(len(got[0]), float(got[1].sum()))
                if (scoring and got is not None)
                else 0.0
            )
            phrase_plan[pterms] = (w, got)
        reader = self.reader()
        posts = reader.postings_for(sorted(set(all_terms(tree))))
        acc = np.zeros(reader.max_doc, dtype=np.float64)
        masks: dict[str, np.ndarray] = {}

        def term_mask(t):
            m = masks.get(t)
            if m is None:
                m = np.zeros(reader.max_doc, dtype=bool)
                row = posts.get(t)
                if row is not None:
                    m[reader.decoded(t, row)[0]] = True
                masks[t] = m
            return m

        for t in order:
            if df[t] == 0:
                continue
            d, tf_arr, nrm = reader.decoded(t, posts[t])
            acc[d] += self.sim.score(
                idf_map[t] * leaves[t],
                tf_arr.astype(np.float64),
                self.cache[nrm],
            )
        # scoring phrase leaves: sim.score(w_p, phrase_freq, norm)
        for w_p, got in phrase_plan.values():
            if got is not None and w_p:
                pd_, pf_, pn_ = got
                acc[pd_] += self.sim.score(w_p, pf_, self.cache[pn_])

        def const_mask(terms):
            m = np.zeros(reader.max_doc, dtype=bool)
            for t in terms:
                m |= term_mask(t)
            return m

        # constant-score leaves (prefix/fuzzy CONSTANT_SCORE_REWRITE): a
        # flat 1.0 where the expansion matches
        for cterms in const_scoring:
            acc[const_mask(cterms)] += 1.0

        def ev(node):
            if node[0] == "term":
                return term_mask(node[1])
            if node[0] == "const":
                return const_mask(node[1])
            if node[0] == "phrase":
                m = np.zeros(reader.max_doc, dtype=bool)
                got = phrase_plan[tuple(node[1])][1]
                if got is not None:
                    m[got[0]] = True
                return m
            if node[0] == "not":
                return ~ev(node[1])
            parts = [ev(ch) for ch in node[1]]
            out = parts[0].copy()
            for p in parts[1:]:
                if node[0] == "and":
                    out &= p
                else:
                    out |= p
            return out

        matched = ev(tree)
        deleted = reader.deleted_docs()
        if deleted is not None and len(deleted):
            matched[deleted] = False
        cand = np.nonzero(matched & (acc > 0))[0]
        return _collect(reader, self.id_cols, cand, acc[cand], k)

    def search_phrase(self, text: str) -> list[tuple]:
        """Exact PhraseQuery (slop=0) evaluated on positional postings:
        conjunct the phrase terms' doc lists, then intersect position sets
        with per-term offsets (term j must appear at p + j) — the
        ExactPhraseMatcher algorithm re-expressed in numpy (reference:
        `lucene/core/src/java/org/apache/lucene/search/
        ExactPhraseMatcher.java`).  Requires a with_positions index.

        Returns [( *id_cols, phrase_freq )] sorted by id columns."""
        terms = get_analyzer(self.analyzer_name).tokens(text)
        if not terms:
            return []
        reader = self.reader()
        docs, freqs, _norms = self._segment_phrase(reader, terms)
        return _rows_by_id(reader, self.id_cols, docs, freqs)

    def _segment_phrase(self, reader, terms):
        """A reader's exact-phrase matches -> (docs, phrase_freqs, norm
        bytes) as lists — the norm comes from the first term's postings
        (norms are doc-level, identical on every term of the doc)."""
        posts = reader.positions_for(terms)
        if any(posts[t] is None for t in terms):
            return [], [], []
        common = posts[terms[0]][0]
        for t in terms[1:]:
            common = np.intersect1d(common, posts[t][0])
        common = reader.drop_deleted(common)
        if len(common) == 0:
            return [], [], []
        # one key join over every shared doc at once: term j at position p
        # of doc d keys (d << 32) | (p - j), so a phrase start is a key all
        # terms share (positions within a doc are unique, so keys are)
        keys = None
        for j, t in enumerate(terms):
            docs, tfs, pos = posts[t][:3]
            at = np.searchsorted(docs, common)
            lens = tfs[at]
            start = pos[_run_gather((np.cumsum(tfs) - tfs)[at], lens)] - j
            k = (np.repeat(common, lens) << 32) | start
            k = k[start >= 0]
            keys = k if keys is None else np.intersect1d(
                keys, k, assume_unique=True
            )
            if len(keys) == 0:
                return [], [], []
        match_docs, match_freq = np.unique(keys >> 32, return_counts=True)
        d0, n0 = posts[terms[0]][0], posts[terms[0]][3]
        match_norm = n0[np.searchsorted(d0, match_docs)]
        return match_docs.tolist(), match_freq.tolist(), match_norm.tolist()

    def search_phrase_topk(self, text: str, k: int = 10) -> list[tuple]:
        """SCORED exact-phrase query: BM25 with tf = phrase frequency and
        df = number of docs containing the phrase — exactly how the
        reference scores PhraseQuery (`lucene/core/src/java/org/apache/
        lucene/search/PhraseWeight.java`: phraseFreq into
        Similarity.score(), docFreq from the phrase's matches).  Norms are
        the same lossy doc-level bytes as term scoring.

        Returns [(rank, *id_cols, phrase_freq, score)]."""
        terms = get_analyzer(self.analyzer_name).tokens(text)
        got = self._phrase_matches(terms) if terms else None
        if got is None:
            return []
        docs, pf, nrm = got
        w = self._pseudo_term_weight(len(docs), float(pf.sum()))
        scores = self.sim.score(w, pf, self.cache[nrm])
        hit = scores > 0  # score>0 hit contract (clamping similarities)
        return _collect(
            self.reader(), self.id_cols, docs[hit], scores[hit], k,
            freqs=pf[hit],
        )

    def _positional(self, terms: list[str]):
        """(reader, live docs holding every term, {term: per-doc int64
        positions}) — the preamble of the proximity and span queries."""
        reader = self.reader()
        uniq = list(dict.fromkeys(terms))
        posts = reader.positions_for(uniq)
        if any(posts[t] is None for t in uniq):
            return reader, np.zeros(0, dtype=np.int64), {}
        docs = posts[uniq[0]][0]
        for t in uniq[1:]:
            docs = np.intersect1d(docs, posts[t][0])
        docs = reader.drop_deleted(docs)
        return reader, docs, {t: _doc_runs(posts[t], docs) for t in uniq}

    def _min_cover_rows(self, terms: list[str], accept) -> list[tuple]:
        """[(*id_cols, width)] of the live docs whose shortest window
        holding one occurrence of every term has an `accept`ed width."""
        reader, docs, runs = self._positional(terms)
        keep, widths = [], []
        for i, d in enumerate(docs):
            best = _min_cover([runs[t][i] for t in terms])
            if accept(best):
                keep.append(d)
                widths.append(best)
        return _rows_by_id(reader, self.id_cols, keep, widths)

    def search_proximity(self, text: str, window: int) -> list[tuple]:
        """Proximity query on positional postings: docs where ONE occurrence
        of EVERY query term fits inside a span of <= `window` tokens
        (min-cover sweep over the merged position lists — the sloppy-
        PhraseQuery shape, reference `lucene/core/src/java/org/apache/
        lucene/search/SloppyPhraseMatcher.java`; our match condition is the
        simpler symmetric window, documented for the oracle).

        Returns [( *id_cols, min_span )] sorted by id columns."""
        terms = list(dict.fromkeys(get_analyzer(self.analyzer_name).tokens(text)))
        if not terms:
            return []
        return self._min_cover_rows(terms, lambda best: best <= window)

    def search_span_near(
        self, text: str, slop: int, in_order: bool = True
    ) -> list[tuple]:
        """SpanNearQuery (`lucene/core/src/java/org/apache/lucene/search/
        spans/SpanNearQuery.java`).  inOrder=True: the query terms must
        appear IN ORDER, and the minimal ordered span's width minus the
        term count must be <= slop (Lucene's ordered-span slop contract).
        Per candidate doc the minimal chain is found greedily
        (`_ordered_chains`: every occurrence of term 1 starts a chain, so
        the min over starts is the true minimum width).

        inOrder=False: any arrangement counts — the minimal COVERING span
        holding one occurrence of every term (the search_proximity
        min-cover sweep) with the same width - n <= slop contract
        (NearSpansUnordered's SpanTotalLengthEndPositionWindow).  Distinct
        terms required (duplicate clauses need per-clause disjoint
        matching, which the distinct-term corpus queries never hit —
        loud, not wrong).

        Returns [( *id_cols, min_width )] sorted by id columns."""
        terms = get_analyzer(self.analyzer_name).tokens(text)
        if len(terms) < 2:
            raise ValueError("span_near needs >= 2 terms")
        if not in_order:
            if len(set(terms)) != len(terms):
                raise ValueError(
                    "span_near(in_order=False) requires distinct terms"
                )
            return self._min_cover_rows(
                terms, lambda best: best - len(terms) <= slop
            )
        reader, docs, runs = self._positional(terms)
        keep, widths = [], []
        for i, d in enumerate(docs):
            start, end, ok = _ordered_chains(
                runs[terms[0]][i], [runs[t][i] for t in terms[1:]]
            )
            if not ok.any():
                continue
            width = int((end[ok] - start[ok]).min()) + 1
            if width - len(terms) <= slop:
                keep.append(d)
                widths.append(width)
        return _rows_by_id(reader, self.id_cols, keep, widths)

    def search_span_not(
        self, include_text: str, exclude: str, slop: int
    ) -> list[tuple]:
        """SpanNotQuery (`lucene/core/src/java/org/apache/lucene/search/
        spans/SpanNotQuery.java`): spans of the ordered include query that
        do NOT overlap any occurrence of the exclude term.  Include spans
        are the per-start minimal ordered chains (the same greedy
        enumeration search_span_near uses) that meet width - n <= slop;
        a span survives if no exclude position lies inside [start, end]
        (two searchsorted's against the doc's sorted exclude positions —
        overlap killing stays whole-array).  Docs where the exclude term
        is absent keep all their spans.

        Returns [( *id_cols, min_width )] over surviving spans."""
        terms = get_analyzer(self.analyzer_name).tokens(include_text)
        if len(terms) < 2:
            raise ValueError("span_not include needs >= 2 terms")
        exc = get_analyzer(self.analyzer_name).tokens(exclude)
        if len(exc) != 1:
            raise ValueError("span_not takes exactly one exclude term")
        reader, docs, runs = self._positional(terms)
        excl = _doc_runs(reader.positions_for(exc)[exc[0]], docs)
        keep, widths = [], []
        for i, d in enumerate(docs):
            start, end, ok = _ordered_chains(
                runs[terms[0]][i], [runs[t][i] for t in terms[1:]]
            )
            ok &= (end - start + 1) - len(terms) <= slop
            inside = (
                np.searchsorted(excl[i], end, side="right")
                - np.searchsorted(excl[i], start, side="left")
            ) > 0
            ok &= ~inside
            if ok.any():
                keep.append(d)
                widths.append(int((end[ok] - start[ok] + 1).min()))
        return _rows_by_id(reader, self.id_cols, keep, widths)

    def search_span_first(self, text: str, end: int) -> list[tuple]:
        """SpanFirstQuery (`lucene/core/src/java/org/apache/lucene/search/
        spans/SpanFirstQuery.java`): the term must occur within the first
        `end` positions of the field (span end <= end, i.e. 0-based
        position < end).  One positional-postings read; the first
        position per doc is the head of its position run (positions are
        stored in token order).

        Returns [( *id_cols, first_pos )] (0-based) sorted by id cols."""
        terms = get_analyzer(self.analyzer_name).tokens(text)
        if len(terms) != 1:
            raise ValueError("span_first takes exactly one term")
        reader = self.reader()
        got = reader.positions_for(terms)[terms[0]]
        if got is None:
            return []
        docs, tfs, pos = got[:3]
        first = np.asarray(pos, dtype=np.int64)[np.cumsum(tfs) - tfs]
        keep = first < end
        docs, first = docs[keep], first[keep]
        live = np.isin(docs, reader.drop_deleted(docs))
        return _rows_by_id(
            reader, self.id_cols, docs[live], first[live].tolist()
        )

    def _valid_chains2(self, a: str, b: str, slop: int):
        """Minimal ordered (a, b) chains within slop: yields (doc, s, e)
        with s = a-positions whose FIRST b after them closes a span of
        width - 2 <= slop (the same per-start greedy enumeration the other
        span kernels use).  s is ascending and e nondecreasing
        (first-b-after is monotone in the start), which SpanWithin's
        coverage test relies on."""
        _reader, docs, runs = self._positional([a, b])
        for i, d in enumerate(docs):
            s, e, ok = _ordered_chains(runs[a][i], [runs[b][i]])
            ok &= (e - s + 1) - 2 <= slop
            if ok.any():
                yield int(d), s[ok], e[ok]

    def _little_counts(self, what, little, big_a, big_b, slop, count):
        """[(*id_cols, n)] over the docs holding an ordered (big_a, big_b)
        chain within slop, n = count(chain starts, chain ends, the doc's
        `little` positions) when > 0."""
        lt = get_analyzer(self.analyzer_name).tokens(little)
        if len(lt) != 1:
            raise ValueError(f"{what} takes exactly one little term")
        reader = self.reader()
        lpost = reader.positions_for(lt)[lt[0]]
        if lpost is None:
            return []
        chains = list(self._valid_chains2(big_a, big_b, slop))
        docs = np.array([c[0] for c in chains], dtype=np.int64)
        keep, ns = [], []
        for (d, s, e), pl in zip(chains, _doc_runs(lpost, docs)):
            n = int(count(s, e, pl).sum())
            if n:
                keep.append(d)
                ns.append(n)
        return _rows_by_id(reader, self.id_cols, keep, ns)

    def search_span_within(
        self, little: str, big_a: str, big_b: str, slop: int
    ) -> list[tuple]:
        """SpanWithinQuery (`lucene/core/src/java/org/apache/lucene/search/
        spans/SpanWithinQuery.java`): occurrences of `little` that lie
        INSIDE some ordered (big_a, big_b) span within slop.  Coverage per
        little position is one searchsorted against the chain starts —
        with e nondecreasing, the latest chain starting at or before p is
        the only one that can cover p.

        Returns [( *id_cols, n_within )] over docs with >= 1 enclosed
        occurrence."""

        def covered(s, e, pl):
            idx = np.searchsorted(s, pl, side="right") - 1
            return (idx >= 0) & (e[np.maximum(idx, 0)] >= pl)

        return self._little_counts(
            "span_within", little, big_a, big_b, slop, covered
        )

    def search_span_containing(
        self, big_a: str, big_b: str, little: str, slop: int
    ) -> list[tuple]:
        """SpanContainingQuery (`lucene/core/src/java/org/apache/lucene/
        search/spans/SpanContainingQuery.java`): ordered (big_a, big_b)
        spans within slop that CONTAIN an occurrence of `little` — the
        dual of span_within; the containment test per chain is two
        searchsorted's against the doc's sorted little positions.

        Returns [( *id_cols, n_containing )]."""

        def contains(s, e, pl):
            return (
                np.searchsorted(pl, e, side="right")
                - np.searchsorted(pl, s, side="left")
            ) > 0

        return self._little_counts(
            "span_containing", little, big_a, big_b, slop, contains
        )

    def search_span_or_near(
        self, or_text: str, then_text: str, slop: int
    ) -> list[tuple]:
        """SpanOrQuery composed inside an ordered SpanNearQuery
        (`lucene/core/src/java/org/apache/lucene/search/spans/
        SpanOrQuery.java` — spanNear([spanOr(a, b, ...), c], slop,
        inOrder=true), the canonical compositional use): the first leg's
        start positions are the MERGED position union of the OR group's
        members present in the doc, then the greedy minimal chain to the
        second leg exactly as search_span_near's ordered kernel
        (width - 2 <= slop, two top-level clauses).

        Returns [( *id_cols, min_width )] sorted by id columns."""
        az = get_analyzer(self.analyzer_name)
        or_terms = list(dict.fromkeys(az.tokens(or_text)))
        then_terms = az.tokens(then_text)
        if len(or_terms) < 2 or len(then_terms) != 1:
            raise ValueError(
                "span_or_near takes >= 2 OR terms and exactly one "
                "then-term"
            )
        then = then_terms[0]
        reader = self.reader()
        posts = reader.positions_for(or_terms + [then])
        avail = [t for t in or_terms if posts[t] is not None]
        if posts[then] is None or not avail:
            return []
        union = np.unique(np.concatenate([posts[t][0] for t in avail]))
        docs = reader.drop_deleted(np.intersect1d(union, posts[then][0]))
        starts = [_doc_runs(posts[t], docs) for t in avail]
        keep, widths = [], []
        for i, (d, pl) in enumerate(zip(docs, _doc_runs(posts[then], docs))):
            start = np.sort(np.concatenate([s[i] for s in starts]))
            start, end, ok = _ordered_chains(start, [pl])
            if not ok.any():
                continue
            width = int((end[ok] - start[ok]).min()) + 1
            if width - 2 <= slop:
                keep.append(d)
                widths.append(width)
        return _rows_by_id(reader, self.id_cols, keep, widths)

    def search_table(self, queries: pa.Table, algo: str | None = None) -> pa.Table:
        """Run a QUERY_SCHEMA table, return a TOPK_SCHEMA-shaped table whose
        id columns are the index's configured id_cols."""
        rows = []
        for qid, qtype, text, k in zip(
            queries["query_id"].to_pylist(),
            queries["qtype"].to_pylist(),
            queries["text"].to_pylist(),
            queries["k"].to_pylist(),
        ):
            mode = "and" if qtype == "and" else "or"
            for r in self.search(text, k=k, mode=mode, algo=algo):
                rows.append((qid, *r))
        n_id = len(self.id_cols)
        cols = list(zip(*rows)) if rows else [[] for _ in range(3 + n_id)]
        id_types = {c: None for c in self.id_cols}
        if not rows and self.readers:
            sch = pq.read_schema(
                os.path.join(self.readers[0].sdir, "docs.parquet")
            )
            id_types = {c: sch.field(c).type for c in self.id_cols}
        out = {
            "query_id": pa.array(cols[0], pa.string()),
            "rank": pa.array(cols[1], pa.int32()),
        }
        for i, c in enumerate(self.id_cols):
            out[c] = pa.array(cols[2 + i], id_types[c])
        out["score"] = pa.array(cols[2 + n_id], pa.float64())
        return pa.table(out)

    def score_matches_dataset(
        self,
        text: str,
        mode: str = "or",
        exclude: str | None = None,
        field_filter: tuple[str, str] | None = None,
    ):
        """ALL matching (id_cols..., score) rows as a ray.data.Dataset —
        one scoring task per segment, results land in the object store,
        never on the driver (the distributed analog of `search(k=huge)`;
        the reference keeps full match sets segment-side the same way —
        `BulkScorer#score` feeds per-leaf collectors, never a global list,
        `lucene/core/src/java/org/apache/lucene/search/BulkScorer.java`).

        The query PLAN (term order, multiplicities, similarity weights) is
        computed once on the driver from per-term stats (tiny) and shipped
        in the task closure; each task rebuilds only ITS segment's reader
        (manifest read + lazy per-segment load) and runs the same dense
        exhaustive kernel as the in-process path, so scores are
        bit-identical to `search(algo="exhaustive")`."""
        import ray.data as rd

        analyzer = get_analyzer(self.analyzer_name)
        q = Query(
            terms=analyzer.tokens(text),
            mode=mode,
            k=0,
            exclude=analyzer.tokens(exclude) if exclude else None,
            field_filter=field_filter,
        )
        order, mult, df = self._term_plan(q)
        n_id = len(self.id_cols)
        id_schema = pq.read_schema(
            os.path.join(self.readers[0].sdir, "docs.parquet")
        ) if self.readers else None
        empty = pa.table(
            {
                **{
                    c: pa.array([], id_schema.field(c).type if id_schema
                                else pa.string())
                    for c in self.id_cols
                },
                "score": pa.array([], pa.float64()),
            }
        )
        if (q.mode == "and" and q.terms and not order) or not order:
            return rd.from_arrow(empty)
        idf_map = self.term_weights(order, df)
        index_dir, sim_name, id_cols = (
            self.index_dir, self.sim.name, self.id_cols,
        )
        n_seg = len(self.readers)

        def score_seg(batch: pa.Table) -> pa.Table:
            # fresh searcher per task: manifest-only cost; lazy readers
            # mean just the assigned segments load
            s = IndexSearcher(index_dir, algo="exhaustive",
                              similarity=sim_name)
            parts = []
            for so in batch["seg_ord"].to_pylist():
                reader = s.readers[so]
                docs, scores = s._segment_match_scores(
                    reader, q, order, mult, idf_map
                )
                if len(docs) == 0:
                    continue
                # vectorized id fetch: docs.parquet is doc-sorted, so a
                # searchsorted + Arrow take resolves every match at once
                # (fetch_ids' dict path is per-row, sized for top-k cuts)
                tbl = pq.read_table(
                    os.path.join(reader.sdir, "docs.parquet"),
                    columns=["doc"] + list(id_cols),
                )
                pos = np.searchsorted(tbl["doc"].to_numpy(), docs)
                taken = tbl.select(list(id_cols)).take(pa.array(pos))
                parts.append(
                    taken.append_column("score", pa.array(scores, pa.float64()))
                )
            return pa.concat_tables(parts) if parts else empty

        return (
            rd.from_items([{"seg_ord": i} for i in range(n_seg)])
            .repartition(n_seg)  # from_items packs ONE block; fan out
            .map_batches(score_seg, batch_format="pyarrow")
        )


class DisMaxSearcher:
    """Multi-field dismax search (Solr qf + tie): per query term, a
    DisjunctionMaxQuery over field-scoped term queries — score = max over
    fields + tie * (sum of the other fields) — summed across terms
    (reference: `lucene/core/src/java/org/apache/lucene/search/
    DisjunctionMaxQuery.java` + `solr/core/src/java/org/apache/solr/
    search/DisMaxQParser.java` qf/tie params).

    Each field is its own index (Lucene keeps per-field postings, norms
    and stats separately — FieldInfos/per-field terms dictionaries),
    scored through its one reader.  A reader's docIDs are the id_cols
    rank, so field indexes built over the same rows are doc-aligned at any
    segment counts; __init__ verifies that every field's id columns are
    equal in docID order.  Per-field idf, dl, avgdl — exactly Lucene's
    per-field stats."""

    def __init__(
        self,
        field_dirs: dict[str, str],
        qf: dict[str, float] | None = None,
        tie: float = 0.0,
        similarity: str = "bm25",
        blend_df: bool = False,
    ):
        if not field_dirs:
            raise ValueError("DisMaxSearcher needs at least one field")
        self.fields = list(field_dirs)
        self.searchers = {
            f: IndexSearcher(d, similarity=similarity)
            for f, d in field_dirs.items()
        }
        self.qf = {f: float((qf or {}).get(f, 1.0)) for f in self.fields}
        self.tie = float(tie)
        # BlendedTermQuery (`lucene/core/src/java/org/apache/lucene/search/
        # BlendedTermQuery.java#blend`): adjust every field's per-term df up
        # to the MAX df across the fields before idf, so a term scores with
        # the same rarity everywhere and no field dominates just because
        # the term is sparse there (the ES cross_fields problem).  A field
        # still only contributes where it actually CONTAINS the term.
        self.blend_df = bool(blend_df)
        first = self.searchers[self.fields[0]]
        self.id_cols = first.id_cols
        self.analyzer_name = first.analyzer_name

        def ids(s):
            return s.reader()._id_table(s.id_cols).select(s.id_cols)

        want = ids(first)
        for f in self.fields[1:]:
            s = self.searchers[f]
            if s.id_cols != first.id_cols or not ids(s).equals(want):
                raise ValueError(
                    f"field index {f!r} is not aligned with "
                    f"{self.fields[0]!r}: its id columns differ in docID "
                    "order — indexes must be built over the same rows"
                )

    def search(self, text: str, k: int = 10) -> list[tuple]:
        """[(rank, *id_cols, score)] — OR across terms (dismax mm=0)."""
        terms_all = get_analyzer(self.analyzer_name).tokens(text)
        order: list[str] = []
        mult: dict[str, int] = {}
        for t in terms_all:
            if t not in mult:
                order.append(t)
            mult[t] = mult.get(t, 0) + 1
        # per-field stats: idf from the FIELD's df and doc count
        # (blend_df=True replaces each field's df with the cross-field max,
        # keeping the present-in-field gate on the FIELD's own df)
        dfs = {f: self.searchers[f].global_df(order) for f in self.fields}
        bdf = {t: max(dfs[f][t] for f in self.fields) for t in order}
        idf: dict[str, dict[str, float]] = {}
        for f in self.fields:
            s = self.searchers[f]
            df = dfs[f]
            idf[f] = {
                t: float(
                    s.sim.term_weight(bdf[t] if self.blend_df else df[t],
                                      s.n_docs)
                ) * self.qf[f]
                for t in order
                if df[t] > 0
            }
        order = [t for t in order if any(t in idf[f] for f in self.fields)]
        if not order:
            return []
        readers = {f: self.searchers[f].reader() for f in self.fields}
        max_doc = readers[self.fields[0]].max_doc
        acc = np.zeros(max_doc, dtype=np.float64)
        dense = np.zeros(max_doc, dtype=np.float64)  # reused per (t,f)
        for t in order:
            m = np.zeros(max_doc, dtype=np.float64)
            ssum = np.zeros(max_doc, dtype=np.float64)
            for f in self.fields:
                w = idf[f].get(t)
                if w is None:
                    continue
                s = self.searchers[f]
                d, tf_arr, nrm = readers[f].decoded(
                    t, readers[f].postings_for([t])[t]
                )
                sc = s.sim.score(
                    w * mult[t], tf_arr.astype(np.float64), s.cache[nrm]
                )
                dense[:] = 0.0
                dense[d] = sc
                np.maximum(m, dense, out=m)
                ssum += dense
            acc += m + self.tie * (ssum - m)
        # deletes may have been applied to ANY of the doc-aligned field
        # indexes — a doc deleted in one field is deleted, so filter
        # through every field's live-docs, not just the first's
        cand = np.nonzero(acc)[0]
        for r in readers.values():
            cand = r.drop_deleted(cand)
        return _collect(
            readers[self.fields[0]], self.id_cols, cand, acc[cand], k
        )


class QuerySearcher:
    """Actor-pool stage: serve query batches against one index (manifest +
    term caches held per actor — the `SolrIndexSearcher` + query-cache
    analog).  Use with `queries_ds.map_batches(QuerySearcher,
    fn_constructor_args=(index_dir,), concurrency=N, batch_format="pyarrow")`."""

    def __init__(self, index_dir: str, algo: str = "wand",
                 similarity="bm25"):
        # warm in the constructor: segment loads happen once per ACTOR at
        # pool spin-up, not on the first served batch
        self.searcher = IndexSearcher(
            index_dir, algo=algo, similarity=similarity
        ).warm()

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.searcher.search_table(batch)


def search_queries(
    index_dir: str,
    queries,
    *,
    algo: str = "wand",
    concurrency: int | tuple = (1, 4),
    batch_size: int = 16,
):
    """Distributed query serving: Dataset of queries -> Dataset of top-k."""
    return queries.map_batches(
        QuerySearcher,
        fn_constructor_args=(index_dir, algo),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
