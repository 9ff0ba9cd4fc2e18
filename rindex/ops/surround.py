"""Surround query parser — proximity boolean algebra compiled to the
span/match kernels (`lucene/queryparser/src/java/org/apache/lucene/
queryparser/surround/parser/QueryParser.java` + `.../query/*.java`).

Grammar (the core of the surround language):

    expr := 'AND' '(' expr {',' expr} ')'
          | 'OR'  '(' expr {',' expr} ')'
          | 'NOT' '(' expr ',' expr ')'          -- a AND NOT b
          | INT 'W' '(' term ',' term ')'        -- ordered within N
          | INT 'N' '(' term ',' term ')'        -- unordered within N
          | term

One parse tree, TWO backends (the streamlang two-target discipline):
`_plan()` evaluates leaves against the engine — term leaves stream their
distributed match sets, proximity leaves run the positional span kernels —
then ONE coarse-bucket reduce evaluates the boolean tree per doc over the
leaf-membership bitmask, vectorized.  `_tree_sql()` renders the SAME tree as
composable DuckDB set algebra (INTERSECT / UNION / EXCEPT over per-leaf
subqueries), so the op and its oracle can never diverge structurally.

Distance semantics: surround's `NW`/`NN` distance N allows spans of width
up to N + (arity - 1) - 1, i.e. slop = N - 1 in this engine's span terms.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from rindex.ops.util import N_BUCKETS, bucket_map_groups

QUERIES: dict = {}
ORACLE: dict = {}

SURROUND_QUERY = "AND(8W(hash, join, key), NOT(OR(window, sort), spark))"

_TOK = re.compile(r"\s*([A-Za-z0-9]+|\(|\)|,)")


class _P:
    def __init__(self, s: str):
        self.toks = _TOK.findall(s)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def eat(self, want=None):
        if self.i >= len(self.toks):
            raise ValueError(
                f"surround: unexpected end of input (wanted {want or 'a token'!r})"
            )
        t = self.toks[self.i]
        if want is not None and t != want:
            raise ValueError(f"surround: expected {want!r}, got {t!r}")
        self.i += 1
        return t

    def expr(self):
        t = self.eat()
        m = re.fullmatch(r"(\d+)([WN])", t)
        if t in ("AND", "OR"):
            self.eat("(")
            kids = [self.expr()]
            while self.peek() == ",":
                self.eat(",")
                kids.append(self.expr())
            self.eat(")")
            return (t.lower(), kids)
        if t == "NOT":
            self.eat("(")
            a = self.expr()
            self.eat(",")
            b = self.expr()
            self.eat(")")
            return ("not", [a, b])
        if m:
            self.eat("(")
            terms = [self.eat().lower()]
            while self.peek() == ",":
                self.eat(",")
                terms.append(self.eat().lower())
            self.eat(")")
            ordered = m.group(2) == "W"
            if len(terms) < 2:
                raise ValueError("surround: NW/NN need >= 2 terms")
            return ("near", int(m.group(1)), ordered, tuple(terms))
        return ("term", t.lower())


def parse_surround(s: str):
    p = _P(s)
    tree = p.expr()
    if p.peek() is not None:
        raise ValueError(f"surround: trailing input at {p.peek()!r}")
    return tree


def _leaves(tree, acc):
    if tree[0] in ("and", "or", "not"):
        for k in tree[1]:
            _leaves(k, acc)
    else:
        if tree not in acc:
            acc.append(tree)
    return acc


def _run_surround(sf_dir: str, query: str):
    """Shared runner: leaves stream as tagged (doc_id, leaf) rows — term
    leaves from the distributed match sets, proximity leaves from the
    positional span kernels — and one coarse-bucket reduce evaluates the
    tree per doc over the membership bitmask."""
    import ray.data as rd

    from rindex.ops.fulltext import documents_index_pos
    from rindex.search import IndexSearcher

    tree = parse_surround(query)
    leaves = _leaves(tree, [])
    idx = documents_index_pos(sf_dir)
    searcher = IndexSearcher(idx)

    parts = []
    for li, leaf in enumerate(leaves):
        if leaf[0] == "term":
            ds = searcher.score_matches_dataset(leaf[1], mode="or")

            def tag(df: pd.DataFrame, _li=li) -> pd.DataFrame:
                return pd.DataFrame(
                    {
                        "doc_id": df["doc_id"].to_numpy(np.int64),
                        "leaf": np.full(len(df), _li, np.int64),
                    }
                )

            parts.append(ds.map_batches(tag, batch_format="pandas"))
        else:
            _, n, ordered, terms = leaf
            hits = searcher.search_span_near(
                " ".join(terms), slop=n - 1, in_order=ordered
            )
            df = pd.DataFrame(
                {
                    "doc_id": np.array([h[0] for h in hits], np.int64),
                    "leaf": np.full(len(hits), li, np.int64),
                }
            )
            parts.append(rd.from_pandas(df))

    tagged = parts[0].union(*parts[1:])

    n_leaves = len(leaves)

    def evaluate(g: pd.DataFrame) -> pd.DataFrame:
        dids, inv = np.unique(
            g["doc_id"].to_numpy(np.int64), return_inverse=True
        )
        mask = np.zeros((len(dids), n_leaves), bool)
        mask[inv, g["leaf"].to_numpy(np.int64)] = True

        def ev(t):
            if t[0] == "and":
                out = ev(t[1][0])
                for k in t[1][1:]:
                    out = out & ev(k)
                return out
            if t[0] == "or":
                out = ev(t[1][0])
                for k in t[1][1:]:
                    out = out | ev(k)
                return out
            if t[0] == "not":
                return ev(t[1][0]) & ~ev(t[1][1])
            return mask[:, leaves.index(t)]

        return pd.DataFrame({"doc_id": dids[ev(tree)]})

    return bucket_map_groups(tagged, "doc_id", evaluate, N_BUCKETS).sort("doc_id")


def q_surround_query_documents(sf_dir: str):
    """Docs matching the surround expression '{SURROUND_QUERY}' (ordered
    N-ary NW leaf + boolean algebra)."""
    return _run_surround(sf_dir, SURROUND_QUERY)


def _chain_expr(prev: str, terms, depth: int = 0) -> str:
    """Greedy ordered chain end position in SQL: at each step the FIRST
    occurrence of the next term after the previous position (the span
    kernel's per-start minimal-chain enumeration).  DuckDB lambdas have no
    let-binding, so each step binds its scalar through a singleton-list
    transform; lambda variables are depth-unique (a reused name would
    shadow and turn 'j > prev' into the always-false 'j > j')."""
    if not terms:
        return prev
    t, rest = terms[0], terms[1:]
    v = f"j{depth}"
    jmin = (f"list_min(list_transform(list_filter(range(1, len(l) + 1), "
            f"{v} -> l[{v}] = '{t}' AND {v} > {prev}), {v} -> {v}))")
    return (f"list_min(list_transform(list_filter([{jmin}], "
            f"{v} -> {v} IS NOT NULL), "
            f"{v} -> {_chain_expr(v, rest, depth + 1)}))")


def _leaf_sql(leaf) -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    toks = (f"SELECT doc_id, regexp_extract_all(lower(text), "
            f"'{TOKEN_SQL_RE}') AS l FROM documents")
    if leaf[0] == "term":
        return (f"SELECT DISTINCT doc_id FROM ({toks}) "
                f"WHERE list_contains(l, '{leaf[1]}')")
    _, n, ordered, terms = leaf
    slop = n - 1
    if ordered:
        a, rest = terms[0], list(terms[1:])
        end = _chain_expr("i", rest)
        width = (
            "list_min(list_filter(list_transform("
            f"list_filter(range(1, len(l) + 1), i -> l[i] = '{a}'),"
            f" i -> {end} - i + 1), x -> x IS NOT NULL))"
        )
    else:
        # N-ary minimal covering span: min over the cross product of the
        # terms' position lists of (greatest - least + 1) — the SQL twin
        # of the engine's merged-sweep min-cover (depth-unique lambda
        # vars v0..vk; occurrence counts are tiny so the cross is cheap)
        vs = [f"v{i}" for i in range(len(terms))]
        span = (f"greatest({', '.join(vs)}) - least({', '.join(vs)}) + 1")
        expr = span
        for v, t in reversed(list(zip(vs, terms))):
            pos = (f"list_filter(range(1, len(l) + 1), "
                   f"{v} -> l[{v}] = '{t}')")
            expr = f"list_min(list_transform({pos}, {v} -> {expr}))"
        width = f"list_min(list_filter([{expr}], x -> x IS NOT NULL))"
    return (f"SELECT doc_id FROM (SELECT doc_id, {width} AS w FROM ({toks})) "
            f"WHERE w IS NOT NULL AND w - {len(terms)} <= {slop}")


def _tree_sql(tree) -> str:
    if tree[0] == "and":
        return " INTERSECT ".join(f"({_tree_sql(k)})" for k in tree[1])
    if tree[0] == "or":
        return " UNION ".join(f"({_tree_sql(k)})" for k in tree[1])
    if tree[0] == "not":
        return (f"({_tree_sql(tree[1][0])}) EXCEPT "
                f"({_tree_sql(tree[1][1])})")
    return _leaf_sql(tree)


def _surround_oracle_sql() -> str:
    return (f"SELECT doc_id FROM ({_tree_sql(parse_surround(SURROUND_QUERY))})"
            " ORDER BY doc_id")


QUERIES["surround_query_documents"] = q_surround_query_documents
ORACLE["surround_query_documents"] = _surround_oracle_sql()


SURROUND_UNORDERED_QUERY = "NOT(9N(hash, join, key), spark)"


def q_surround_unordered_documents(sf_dir: str):
    """Docs matching '{SURROUND_UNORDERED_QUERY}' — the unordered N-ary
    (min-cover) leaf path through the same two-backend compiler."""
    return _run_surround(sf_dir, SURROUND_UNORDERED_QUERY)


QUERIES["surround_unordered_documents"] = q_surround_unordered_documents
ORACLE["surround_unordered_documents"] = (
    f"SELECT doc_id FROM "
    f"({_tree_sql(parse_surround(SURROUND_UNORDERED_QUERY))}) "
    "ORDER BY doc_id"
)
