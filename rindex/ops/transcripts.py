"""Conversation-level operators over the transcripts-shaped view.

The engine's north-star input is a Parquet table of multi-turn transcripts
with columns (conv_id, turn_idx, role, text, tool, ts) — the shape
rindex/fixtures.py synthesizes and rindex/build.py indexes.  The driver's
oracle views expose only the ten TPC-H-ish tables, so these ops derive the
SAME deterministic transcript structure from `documents` on BOTH sides
(Ray and DuckDB) — pure arithmetic on doc_id, no randomness:

    conv_id  = doc_id // 5                 (5-turn conversations)
    turn_idx = doc_id % 5
    role     = turn_idx even ? 'user' : 'assistant'
    tool     = doc_id%7==0 ? 'search' : doc_id%7==3 ? 'bash' : ''

Every transform below is the conversation-granularity analog of an
operation the reference applies at document granularity:

 * flatten   — stored-field assembly / ExportWriter row render
   (`solr/core/src/java/org/apache/solr/handler/export/ExportWriter.java`)
   as a chat-template render `role + ': ' + text` joined by turn order.
 * stats     — per-group StatsComponent
   (`solr/core/src/java/org/apache/solr/handler/component/
   StatsComponent.java`) keyed by conversation.
 * window    — positional context assembly: each assistant turn paired
   with its preceding turn (lag-1 within conversation, stable turn order).
 * dedup     — SignatureUpdateProcessor at conversation granularity
   (`solr/core/src/java/org/apache/solr/update/processor/
   SignatureUpdateProcessorFactory.java`): md5 over the turn-ordered
   lowercased text stream.
 * search    — conversation retrieval by max-turn pooling of BM25 turn
   scores (MaxP passage pooling, Dai & Callan 2019; the reference analog
   is block-join score mode ScoreMode.Max,
   `lucene/join/src/java/org/apache/lucene/search/join/
   ToParentBlockJoinQuery.java`).
 * renumber  — stable turn re-ordering invariant: drop tool-bearing turns,
   renumber densely per conversation with turn order preserved.

Partitioning: conversations are tiny groups, so every group step is one
`bucket_map_groups` over conv_id % N_BUCKETS (one reduce task owns
~1/N_BUCKETS of the CONVERSATIONS) — at 10^12 turns raise the modulus,
nothing else changes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.ops.util import N_BUCKETS, bucket_map_groups, read_table
from rindex.schema import B, K1, pool_cap

QUERIES: dict = {}
ORACLE: dict = {}

TURNS_PER_CONV = 5
# N_BUCKETS, the conv-bucket shuffle modulus, is read from this module at
# call time by every conversation op: a reduce task sees
# ~n_convs/N_BUCKETS conversations (the skew tests patch it to the
# extremes and assert identical output).

# Shared CTE — the documents -> transcripts mapping, verbatim mirror of
# _derive() below.  Any edit must change both.
T_CTE = f"""transcripts AS (
      SELECT doc_id,
             doc_id // {TURNS_PER_CONV} AS conv_id,
             (doc_id % {TURNS_PER_CONV})::INT AS turn_idx,
             CASE WHEN (doc_id % {TURNS_PER_CONV}) % 2 = 0
                  THEN 'user' ELSE 'assistant' END AS role,
             CASE WHEN doc_id % 7 = 0 THEN 'search'
                  WHEN doc_id % 7 = 3 THEN 'bash'
                  ELSE '' END AS tool,
             text
      FROM documents
    )"""


def _derive(t: pa.Table) -> pa.Table:
    """Append conv_id/turn_idx/role/tool derived from doc_id (the Ray-side
    mirror of T_CTE).  Vectorized numpy on the zero-copy doc_id column."""
    did = t["doc_id"].to_numpy(zero_copy_only=False)
    conv = did // TURNS_PER_CONV
    ti = (did % TURNS_PER_CONV).astype(np.int32)
    role = np.where(ti % 2 == 0, "user", "assistant")
    m7 = did % 7
    tool = np.where(m7 == 0, "search", np.where(m7 == 3, "bash", ""))
    t = t.append_column("conv_id", pa.array(conv, pa.int64()))
    t = t.append_column("turn_idx", pa.array(ti, pa.int32()))
    t = t.append_column("role", pa.array(role, pa.string()))
    t = t.append_column("tool", pa.array(tool, pa.string()))
    return t


def _fp_key(t: pa.Table) -> np.ndarray:
    """Shuffle key of a hex fingerprint column: its first 32 bits."""
    return np.array([int(f[:8], 16) for f in t["fp"].to_pylist()], np.int64)


def _conv_view(sf_dir: str, columns=("doc_id", "text")):
    ds = read_table(sf_dir, "documents", list(columns))
    return ds.map_batches(_derive, batch_format="pyarrow", zero_copy_batch=True)


# --- conversation flatten: chat-template render ---------------------------


def q_conv_flatten_documents(sf_dir: str):
    """Per-conversation chat render: 'role: text' lines joined by turn
    order, plus turn count and rendered length.  One shuffle (conv bucket);
    each reduce task renders ~1/N_BUCKETS of the conversations vectorized."""
    ds = _conv_view(sf_dir)

    def flatten(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        line = g["role"] + ": " + g["text"].fillna("")
        grp = line.groupby(g["conv_id"].to_numpy(), sort=True)
        rendered = grp.agg("\n".join)
        n_turns = grp.size()
        return pd.DataFrame(
            {
                "conv_id": rendered.index.to_numpy(np.int64),
                "n_turns": n_turns.to_numpy(np.int64),
                "rendered": rendered.to_numpy(object),
                "n_chars": np.fromiter(
                    (len(x) for x in rendered), np.int64, len(rendered)
                ),
            }
        )

    return bucket_map_groups(ds, "conv_id", flatten, N_BUCKETS)


QUERIES["conv_flatten_documents"] = q_conv_flatten_documents
ORACLE["conv_flatten_documents"] = f"""
    WITH {T_CTE},
    flat AS (
      SELECT conv_id,
             count(*)::BIGINT AS n_turns,
             string_agg(role || ': ' || coalesce(text, ''), chr(10)
                        ORDER BY turn_idx) AS rendered
      FROM transcripts GROUP BY conv_id
    )
    SELECT conv_id, n_turns, rendered, length(rendered)::BIGINT AS n_chars
    FROM flat
"""


# --- per-conversation stats ------------------------------------------------


def _stats_partial(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby("conv_id", as_index=False).agg(
        n_turns=("conv_id", "size"),
        n_user=("is_user", "sum"),
        n_assistant=("is_assistant", "sum"),
        n_tool_calls=("is_tool", "sum"),
        total_chars=("n_chars", "sum"),
    )


def q_conv_stats_documents(sf_dir: str):
    """Per-conversation stats (StatsComponent keyed by conversation):
    turn/role counts, tool-call count, char totals, mean turn length.
    Partial aggregation inside map_batches, ONE small combine shuffle."""
    import pyarrow.compute as pc

    def indicators(t: pa.Table) -> pa.Table:
        t = _derive(t)
        role = t["role"]
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "is_user": pc.cast(pc.equal(role, "user"), pa.int64()),
                "is_assistant": pc.cast(
                    pc.equal(role, "assistant"), pa.int64()
                ),
                "is_tool": pc.cast(pc.not_equal(t["tool"], ""), pa.int64()),
                "n_chars": pc.cast(
                    pc.utf8_length(pc.coalesce(t["text"], "")), pa.int64()
                ),
            }
        )

    ds = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(_stats_partial, batch_format="pandas")
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("conv_id", as_index=False).agg(
            n_turns=("n_turns", "sum"),
            n_user=("n_user", "sum"),
            n_assistant=("n_assistant", "sum"),
            n_tool_calls=("n_tool_calls", "sum"),
            total_chars=("total_chars", "sum"),
        )
        out["avg_turn_chars"] = (
            out["total_chars"].to_numpy(np.float64)
            / out["n_turns"].to_numpy(np.int64)
        )
        return out

    return bucket_map_groups(ds, "conv_id", combine, N_BUCKETS)


QUERIES["conv_stats_documents"] = q_conv_stats_documents
ORACLE["conv_stats_documents"] = f"""
    WITH {T_CTE}
    SELECT conv_id,
           count(*)::BIGINT AS n_turns,
           sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END)::BIGINT AS n_user,
           sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)::BIGINT
             AS n_assistant,
           sum(CASE WHEN tool <> '' THEN 1 ELSE 0 END)::BIGINT
             AS n_tool_calls,
           sum(length(coalesce(text, '')))::BIGINT AS total_chars,
           sum(length(coalesce(text, '')))::DOUBLE / count(*)
             AS avg_turn_chars
    FROM transcripts GROUP BY conv_id
"""


# --- turn-window context assembly ------------------------------------------


def q_conv_window_context_documents(sf_dir: str):
    """Each assistant turn paired with its immediately preceding turn
    (lag-1 within the conversation under stable turn order) — the context-
    assembly step of a training-data pipeline over transcripts."""
    ds = _conv_view(sf_dir)

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        same = g["conv_id"].eq(g["conv_id"].shift(1))
        prev_role = g["role"].shift(1).where(same)
        prev_text = g["text"].shift(1).where(same)
        m = g["role"].eq("assistant").to_numpy()
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64)[m],
                "conv_id": g["conv_id"].to_numpy(np.int64)[m],
                "turn_idx": g["turn_idx"].to_numpy(np.int32)[m],
                "prev_role": prev_role.to_numpy(object)[m],
                "prev_text": prev_text.to_numpy(object)[m],
                "text": g["text"].to_numpy(object)[m],
            }
        )

    return bucket_map_groups(ds, "conv_id", window, N_BUCKETS)


QUERIES["conv_window_context_documents"] = q_conv_window_context_documents
ORACLE["conv_window_context_documents"] = f"""
    WITH {T_CTE},
    w AS (
      SELECT doc_id, conv_id, turn_idx, role, text,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prev_role,
             lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prev_text
      FROM transcripts
    )
    SELECT doc_id, conv_id, turn_idx, prev_role, prev_text, text
    FROM w WHERE role = 'assistant'
"""


# --- conversation-level exact dedup -----------------------------------------


def q_conv_dedup_documents(sf_dir: str):
    """Conversation-granularity exact dedup: md5 over the turn-ordered
    lowercased text stream (chr(31) joints), keep the lowest conv_id per
    fingerprint.  Two small shuffles: conv bucket to assemble fingerprints,
    fingerprint bucket to elect survivors."""
    ds = _conv_view(sf_dir)

    def fingerprint(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        low = g["text"].fillna("").str.lower()
        joined = low.groupby(g["conv_id"].to_numpy(), sort=True).agg(
            "\x1f".join
        )
        fps = [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in joined
        ]
        return pd.DataFrame(
            {
                "conv_id": joined.index.to_numpy(np.int64),
                "fp": np.array(fps, dtype=object),
            }
        )

    fp = bucket_map_groups(ds, "conv_id", fingerprint, N_BUCKETS)

    def elect(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("fp", as_index=False).agg(
            keep_conv_id=("conv_id", "min"), n_convs=("conv_id", "size")
        )
        out["n_convs"] = out["n_convs"].astype(np.int64)
        return out

    return bucket_map_groups(fp, _fp_key, elect, N_BUCKETS)


QUERIES["conv_dedup_documents"] = q_conv_dedup_documents
ORACLE["conv_dedup_documents"] = f"""
    WITH {T_CTE},
    fp AS (
      SELECT conv_id,
             md5(string_agg(lower(coalesce(text, '')), chr(31)
                            ORDER BY turn_idx)) AS fp
      FROM transcripts GROUP BY conv_id
    )
    SELECT fp, min(conv_id)::BIGINT AS keep_conv_id,
           count(*)::BIGINT AS n_convs
    FROM fp GROUP BY fp
"""


# --- conversation retrieval: max-turn BM25 pooling --------------------------

CONV_QUERIES: list[tuple[str, str]] = [
    ("v00", "spark hash"),
    ("v01", "filter"),
    ("v02", "scan join"),
]
CONV_TOP_K = 10


def q_conv_search_topk_documents(sf_dir: str):
    """Conversation retrieval: BM25 turn scores max-pooled per conversation
    (MaxP pooling / block-join ScoreMode.Max), top-10 conversations per
    query.  Exact: score_matches_dataset streams ALL matching turn scores
    as a Dataset (never the driver), the max-pool is a per-batch partial
    max + one tiny combine, and only pooled rows reach the ranking."""
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    pooled_parts = []
    for qid, text in CONV_QUERIES:
        ds = searcher.score_matches_dataset(text, mode="or")

        def pool(df: pd.DataFrame, _qid=qid) -> pd.DataFrame:
            conv = df["doc_id"].to_numpy(np.int64) // TURNS_PER_CONV
            out = (
                pd.DataFrame({"conv_id": conv, "s": df["score"].to_numpy()})
                .groupby("conv_id", as_index=False)["s"]
                .max()
            )
            out.insert(0, "query_id", _qid)
            return out

        pooled_parts.append(ds.map_batches(pool, batch_format="pandas"))

    # ONE execution for all queries: union the lazy per-query pools, then
    # a single conv-bucket combine with per-(query, bucket) partial top-k
    pooled = pooled_parts[0].union(*pooled_parts[1:])

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["query_id", "conv_id"], as_index=False)["s"].max()
        # partial top-k per (query, bucket): the global top-10 pooled
        # convs of a query are contained in the union of its buckets' tops
        out = (
            out.sort_values(["query_id", "s", "conv_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False)
            .head(CONV_TOP_K)
        )
        return out

    allq = bucket_map_groups(pooled, "conv_id", combine, N_BUCKETS).to_pandas()
    allq = allq.sort_values(
        ["query_id", "s", "conv_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    allq = allq.groupby("query_id", sort=False).head(CONV_TOP_K)
    allq["rank"] = (
        allq.groupby("query_id", sort=False).cumcount().astype(np.int32)
    )
    allq["score"] = allq["s"].round(6)
    return allq[["query_id", "rank", "conv_id", "score"]].reset_index(
        drop=True
    )


def _conv_search_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE, norm_vals_sql

    norm_vals = norm_vals_sql()
    q_rows = ",".join(
        f"('{qid}', '{t}')"
        for qid, text in CONV_QUERIES
        for t in text.split()
    )
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    stats AS (
      SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
             (SELECT sum(dl) FROM dl)::DOUBLE
               / (SELECT count(*) FROM documents) AS avgdl
    ),
    norm_table AS (SELECT unnest([{norm_vals}]) AS v),
    lossy AS (
      SELECT doc_id, (SELECT max(v) FROM norm_table WHERE v <= dl.dl)::DOUBLE AS ldl
      FROM dl
    ),
    df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_rows}),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY 1, 2
    ),
    pooled AS (
      SELECT query_id, doc_id // {TURNS_PER_CONV} AS conv_id, max(s) AS s
      FROM scores GROUP BY 1, 2
    ),
    ranked AS (
      SELECT query_id, conv_id, s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY s DESC, conv_id ASC) - 1)::INTEGER
               AS rank
      FROM pooled
    )
    SELECT query_id, rank, conv_id, round(s, 6) AS score
    FROM ranked WHERE rank < {CONV_TOP_K}
    """


QUERIES["conv_search_topk_documents"] = q_conv_search_topk_documents
ORACLE["conv_search_topk_documents"] = _conv_search_oracle_sql()


# --- stable turn renumbering after tool-turn removal ------------------------


def q_conv_renumber_documents(sf_dir: str):
    """Stable turn compaction: drop tool-bearing turns, renumber the
    remaining turns densely per conversation with the original order
    preserved (the per-turn stable-ordering invariant of the input
    contract)."""
    import pyarrow.compute as pc

    ds = (
        _conv_view(sf_dir, columns=("doc_id",))
        .map_batches(
            lambda t: t.filter(pc.equal(t["tool"], "")),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    def renumber(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        new_idx = g.groupby("conv_id", sort=False).cumcount().astype(np.int32)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "conv_id": g["conv_id"].to_numpy(np.int64),
                "turn_idx": g["turn_idx"].to_numpy(np.int32),
                "new_turn_idx": new_idx.to_numpy(np.int32),
            }
        )

    return bucket_map_groups(ds, "conv_id", renumber, N_BUCKETS)


# --- agent echo-loop detection ----------------------------------------------

_TOKEN_RE = None  # compiled lazily per worker


def _token_set(text: str):
    global _TOKEN_RE
    if _TOKEN_RE is None:
        import re

        _TOKEN_RE = re.compile(r"[0-9a-z]+")
    return set(_TOKEN_RE.findall((text or "").lower()))


def q_conv_echo_loop_documents(sf_dir: str):
    """Agent echo-loop detector: Jaccard similarity between CONSECUTIVE
    assistant turns in a conversation (token sets, shared [0-9a-z]+ regex);
    a conversation whose max consecutive-assistant Jaccard >= 0.5 is a
    suspected loop — the transcript-granularity analog of the Gopher
    repetition gates (repetition_stats_documents).  Jaccard is ONE integer
    division per pair, so values match the oracle bit-exactly."""
    ds = _conv_view(sf_dir)

    def loops(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["role"].eq("assistant")].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort"
        )
        conv = g["conv_id"].to_numpy(np.int64)
        sets = [_token_set(t) for t in g["text"]]
        rows: dict[int, tuple[int, float]] = {}
        for i in range(len(conv) - 1):
            if conv[i] != conv[i + 1]:
                continue
            a, b = sets[i], sets[i + 1]
            uni = len(a | b)
            jac = (len(a & b) / uni) if uni else 0.0
            n, mx = rows.get(conv[i], (0, 0.0))
            rows[conv[i]] = (n + 1, max(mx, jac))
        if not rows:
            return pd.DataFrame(
                {
                    "conv_id": pd.array([], dtype=np.int64),
                    "n_pairs": pd.array([], dtype=np.int64),
                    "max_jaccard": pd.array([], dtype=np.float64),
                    "is_loop": pd.array([], dtype=np.int32),
                }
            )
        cids = np.fromiter(rows, np.int64, len(rows))
        n_pairs = np.array([rows[c][0] for c in cids], np.int64)
        mj = np.array([rows[c][1] for c in cids], np.float64)
        return pd.DataFrame(
            {
                "conv_id": cids,
                "n_pairs": n_pairs,
                "max_jaccard": mj,
                "is_loop": (mj >= 0.5).astype(np.int32),
            }
        )

    return bucket_map_groups(ds, "conv_id", loops, N_BUCKETS)


QUERIES["conv_echo_loop_documents"] = q_conv_echo_loop_documents
ORACLE["conv_echo_loop_documents"] = f"""
    WITH {T_CTE},
    a_turns AS (
      SELECT conv_id, turn_idx, text FROM transcripts
      WHERE role = 'assistant'
    ),
    pairs AS (
      SELECT x.conv_id, x.turn_idx,
             lower(coalesce(x.text, '')) AS t1,
             lower(coalesce(y.text, '')) AS t2
      FROM a_turns x
      JOIN a_turns y
        ON x.conv_id = y.conv_id AND y.turn_idx = x.turn_idx + 2
    ),
    tok1 AS (
      SELECT DISTINCT conv_id, turn_idx,
             unnest(regexp_extract_all(t1, '[0-9a-z]+')) AS tok
      FROM pairs
    ),
    tok2 AS (
      SELECT DISTINCT conv_id, turn_idx,
             unnest(regexp_extract_all(t2, '[0-9a-z]+')) AS tok
      FROM pairs
    ),
    sizes AS (
      SELECT p.conv_id, p.turn_idx,
             (SELECT count(*) FROM tok1
              WHERE tok1.conv_id = p.conv_id
                AND tok1.turn_idx = p.turn_idx) AS n1,
             (SELECT count(*) FROM tok2
              WHERE tok2.conv_id = p.conv_id
                AND tok2.turn_idx = p.turn_idx) AS n2,
             (SELECT count(*) FROM tok1
              JOIN tok2 USING (conv_id, turn_idx, tok)
              WHERE tok1.conv_id = p.conv_id
                AND tok1.turn_idx = p.turn_idx) AS ninter
      FROM pairs p
    ),
    jac AS (
      SELECT conv_id,
             CASE WHEN n1 + n2 - ninter = 0 THEN 0.0
                  ELSE ninter::DOUBLE / (n1 + n2 - ninter) END AS j
      FROM sizes
    )
    SELECT conv_id,
           count(*)::BIGINT AS n_pairs,
           max(j) AS max_jaccard,
           (max(j) >= 0.5)::INT AS is_loop
    FROM jac GROUP BY conv_id
"""


# --- tool transition counts ---------------------------------------------------


def q_conv_tool_transitions_documents(sf_dir: str):
    """Tool-call transition matrix: within each conversation order the
    tool-bearing turns and count (from_tool -> to_tool) adjacencies
    corpus-wide — the Markov-chain summary of agent tool usage.  Partial
    counts per conversation bucket; the final combine sees at most
    n_buckets x |tools|^2 tiny rows."""
    import pyarrow.compute as pc

    ds = (
        _conv_view(sf_dir, columns=("doc_id",))
        .map_batches(
            lambda t: t.filter(pc.not_equal(t["tool"], "")),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        same = g["conv_id"].eq(g["conv_id"].shift(-1))
        nxt = g["tool"].shift(-1)
        m = same.to_numpy()
        df = pd.DataFrame(
            {
                "from_tool": g["tool"].to_numpy(object)[m],
                "to_tool": nxt.to_numpy(object)[m],
            }
        )
        out = df.groupby(["from_tool", "to_tool"], as_index=False).size()
        out = out.rename(columns={"size": "n"})
        # return a TYPED arrow table: single-tool conversations yield EMPTY
        # partials, and size-0 pandas object columns trip Ray's block-size
        # estimator (np.vectorize on 0 rows) — arrow schemas don't
        return pa.Table.from_pandas(
            out,
            schema=pa.schema(
                [
                    ("from_tool", pa.string()),
                    ("to_tool", pa.string()),
                    ("n", pa.int64()),
                ]
            ),
            preserve_index=False,
        )

    partials = bucket_map_groups(ds, "conv_id", partial, N_BUCKETS)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["from_tool", "to_tool"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    return partials.repartition(1).map_batches(final, batch_format="pandas")


QUERIES["conv_tool_transitions_documents"] = q_conv_tool_transitions_documents
ORACLE["conv_tool_transitions_documents"] = f"""
    WITH {T_CTE},
    tl AS (
      SELECT conv_id, turn_idx, tool FROM transcripts WHERE tool <> ''
    ),
    tr AS (
      SELECT conv_id, tool AS from_tool,
             lead(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS to_tool
      FROM tl
    )
    SELECT from_tool, to_tool, count(*)::BIGINT AS n
    FROM tr WHERE to_tool IS NOT NULL
    GROUP BY from_tool, to_tool
"""


QUERIES["conv_renumber_documents"] = q_conv_renumber_documents
ORACLE["conv_renumber_documents"] = f"""
    WITH {T_CTE}
    SELECT doc_id, conv_id, turn_idx,
           (row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1)::INT
             AS new_turn_idx
    FROM transcripts WHERE tool = ''
"""


# --- response-latency analytics ----------------------------------------------

# Deterministic per-turn timestamp (microseconds): strictly increasing in
# doc_id (jitter < the 1 s base step), mirrored verbatim in SQL below.
_TS_BASE_US = 1_767_225_600_000_000  # epoch_us('2026-01-01 00:00:00')


def q_conv_latency_documents(sf_dir: str):
    """Per-conversation latency analytics: wall duration and the mean
    assistant response latency (gap from the previous turn), from the
    derived monotone turn timestamps.  Integer microsecond arithmetic end
    to end; the only floats are the two final divisions, computed with the
    identical scalar tree on both sides."""
    ds = _conv_view(sf_dir, columns=("doc_id",))

    def lat(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        did = g["doc_id"].to_numpy(np.int64)
        ts = _TS_BASE_US + did * 1_000_000 + ((did * 37) % 4) * 200_000
        conv = g["conv_id"].to_numpy(np.int64)
        first = np.concatenate([[True], conv[1:] != conv[:-1]])
        gap = np.where(first, 0, ts - np.roll(ts, 1))
        is_assist = g["role"].eq("assistant").to_numpy()
        df = pd.DataFrame(
            {"conv_id": conv, "ts": ts, "gap": gap,
             "a_gap": np.where(is_assist & ~first, gap, 0),
             "n_a": (is_assist & ~first).astype(np.int64)}
        )
        out = df.groupby("conv_id", as_index=False).agg(
            n_turns=("conv_id", "size"),
            t_min=("ts", "min"), t_max=("ts", "max"),
            sum_a=("a_gap", "sum"), n_a=("n_a", "sum"),
        )
        res = pd.DataFrame({"conv_id": out["conv_id"].to_numpy(np.int64)})
        res["n_turns"] = out["n_turns"].to_numpy(np.int64)
        res["duration_s"] = (
            (out["t_max"] - out["t_min"]).to_numpy(np.float64) / 1000000.0
        )
        n_a = out["n_a"].to_numpy(np.int64)
        with np.errstate(invalid="ignore"):
            mean_gap = np.where(
                n_a > 0,
                out["sum_a"].to_numpy(np.float64) / np.maximum(n_a, 1),
                np.nan,
            )
        res["avg_assistant_latency_s"] = mean_gap / 1000000.0
        return res

    return bucket_map_groups(ds, "conv_id", lat, N_BUCKETS)


QUERIES["conv_latency_documents"] = q_conv_latency_documents
ORACLE["conv_latency_documents"] = f"""
    WITH {T_CTE},
    ts AS (
      SELECT conv_id, turn_idx, role,
             {_TS_BASE_US} + doc_id * 1000000 + ((doc_id * 37) % 4) * 200000
               AS t_us
      FROM transcripts
    ),
    g AS (
      SELECT conv_id, role, t_us,
             t_us - lag(t_us) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS gap
      FROM ts
    )
    SELECT conv_id,
           count(*)::BIGINT AS n_turns,
           (max(t_us) - min(t_us))::DOUBLE / 1000000.0 AS duration_s,
           (sum(CASE WHEN role = 'assistant' AND gap IS NOT NULL
                     THEN gap ELSE 0 END)::DOUBLE
            / nullif(sum(CASE WHEN role = 'assistant' AND gap IS NOT NULL
                              THEN 1 ELSE 0 END), 0)) / 1000000.0
             AS avg_assistant_latency_s
    FROM g GROUP BY conv_id
"""


# --- end-to-end conversation curation pipeline -------------------------------

CONV_MIN_CHARS = 1100  # length gate: ~P10 of the driver corpus
CONV_LOOP_JAC = 0.9    # drop gate: near-identical consecutive assistant turns
                       # (stricter than the echo op's 0.5 LABEL threshold —
                       # the tiny synthetic vocabulary makes random turns
                       # overlap heavily, median consecutive Jaccard ~0.62)


def q_conv_curation_pipeline_documents(sf_dir: str):
    """Flagship conversation-granularity curation: dedup (fingerprint
    election) -> echo-loop gate -> length gate -> deterministic
    train/val/test split, with per-stage accounting.  ONE corpus scan
    computes every per-conversation signal (fingerprint, char volume,
    max consecutive-assistant Jaccard); one fingerprint-bucket shuffle
    elects dedup survivors; each conversation is then labeled with its
    drop reason or split and ONE tiny groupby yields the accounting —
    no stage re-scans the corpus (the conv-level mirror of
    curation_pipeline_documents)."""
    from rindex.ops.analysis_ext import split_bucket100, split_of_buckets

    ds = _conv_view(sf_dir)

    def signals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(np.int64)
        low = g["text"].fillna("").str.lower()
        joined = low.groupby(conv, sort=True).agg("\x1f".join)
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in joined]
        chars = (
            g["text"].fillna("").str.len().groupby(conv, sort=True).sum()
        )
        # max consecutive-assistant Jaccard per conv (echo-loop signal)
        a = g[g["role"].eq("assistant")]
        aconv = a["conv_id"].to_numpy(np.int64)
        sets = [_token_set(t) for t in a["text"]]
        mj: dict[int, float] = {}
        for i in range(len(aconv) - 1):
            if aconv[i] != aconv[i + 1]:
                continue
            x, y = sets[i], sets[i + 1]
            uni = len(x | y)
            j = (len(x & y) / uni) if uni else 0.0
            if j > mj.get(aconv[i], 0.0):
                mj[aconv[i]] = j
        cids = joined.index.to_numpy(np.int64)
        return pd.DataFrame(
            {
                "conv_id": cids,
                "fp": np.array(fps, dtype=object),
                "chars": chars.to_numpy(np.int64),
                "max_jac": np.array(
                    [mj.get(c, 0.0) for c in cids], np.float64
                ),
            }
        )

    per = bucket_map_groups(ds, "conv_id", signals, N_BUCKETS)

    def label(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby("fp")["conv_id"].transform("min")
        cid = g["conv_id"].to_numpy(np.int64)
        cat = np.where(
            cid != keep.to_numpy(np.int64),
            "dup",
            np.where(
                g["max_jac"].to_numpy() >= CONV_LOOP_JAC,
                "loop",
                np.where(
                    g["chars"].to_numpy() < CONV_MIN_CHARS,
                    "short",
                    split_of_buckets(split_bucket100(cid)),
                ),
            ),
        )
        return pd.DataFrame({"cat": cat.astype(object)})

    cats = (
        bucket_map_groups(per, _fp_key, label, N_BUCKETS)
        .groupby("cat")
        .count()
        .to_pandas()
        .set_index("cat")["count()"]
    )
    n = {k: int(cats.get(k, 0)) for k in
         ("dup", "loop", "short", "train", "val", "test")}
    total = sum(n.values())
    rows = [
        ("total", total),
        ("after_dedup", total - n["dup"]),
        ("after_loop_filter", total - n["dup"] - n["loop"]),
        ("after_length_gate", n["train"] + n["val"] + n["test"]),
        ("train", n["train"]),
        ("val", n["val"]),
        ("test", n["test"]),
    ]
    return pd.DataFrame(
        {
            "stage": [r[0] for r in rows],
            "n_convs": np.array([r[1] for r in rows], np.int64),
        }
    )


QUERIES["conv_curation_pipeline_documents"] = q_conv_curation_pipeline_documents


def _conv_curation_oracle_sql() -> str:
    from rindex.ops.analysis_ext import SPLIT_BUCKET_SQL, SPLIT_FRACS

    return f"""
    WITH {T_CTE},
    per AS (
      SELECT conv_id,
             md5(string_agg(lower(coalesce(text, '')), chr(31)
                            ORDER BY turn_idx)) AS fp,
             sum(length(coalesce(text, '')))::BIGINT AS chars
      FROM transcripts GROUP BY conv_id
    ),
    a_turns AS (
      SELECT conv_id, turn_idx, text FROM transcripts
      WHERE role = 'assistant'
    ),
    pairs AS (
      SELECT x.conv_id, x.turn_idx,
             lower(coalesce(x.text, '')) AS t1,
             lower(coalesce(y.text, '')) AS t2
      FROM a_turns x
      JOIN a_turns y
        ON x.conv_id = y.conv_id AND y.turn_idx = x.turn_idx + 2
    ),
    tok1 AS (
      SELECT DISTINCT conv_id, turn_idx,
             unnest(regexp_extract_all(t1, '[0-9a-z]+')) AS tok
      FROM pairs
    ),
    tok2 AS (
      SELECT DISTINCT conv_id, turn_idx,
             unnest(regexp_extract_all(t2, '[0-9a-z]+')) AS tok
      FROM pairs
    ),
    sizes AS (
      SELECT p.conv_id, p.turn_idx,
             (SELECT count(*) FROM tok1
              WHERE tok1.conv_id = p.conv_id
                AND tok1.turn_idx = p.turn_idx) AS n1,
             (SELECT count(*) FROM tok2
              WHERE tok2.conv_id = p.conv_id
                AND tok2.turn_idx = p.turn_idx) AS n2,
             (SELECT count(*) FROM tok1
              JOIN tok2 USING (conv_id, turn_idx, tok)
              WHERE tok1.conv_id = p.conv_id
                AND tok1.turn_idx = p.turn_idx) AS ninter
      FROM pairs p
    ),
    jac AS (
      SELECT conv_id,
             max(CASE WHEN n1 + n2 - ninter = 0 THEN 0.0
                      ELSE ninter::DOUBLE / (n1 + n2 - ninter) END) AS mj
      FROM sizes GROUP BY conv_id
    ),
    elect AS (SELECT fp, min(conv_id) AS keep FROM per GROUP BY fp),
    lab AS (
      SELECT p.conv_id,
             CASE WHEN p.conv_id != e.keep THEN 'dup'
                  WHEN coalesce(j.mj, 0) >= {CONV_LOOP_JAC} THEN 'loop'
                  WHEN p.chars < {CONV_MIN_CHARS} THEN 'short'
                  WHEN b < {SPLIT_FRACS["train"]} THEN 'train'
                  WHEN b < {SPLIT_FRACS["train"] + SPLIT_FRACS["val"]}
                    THEN 'val'
                  ELSE 'test' END AS cat
      FROM (SELECT per.*, {SPLIT_BUCKET_SQL} AS b
            FROM (SELECT per.*, md5(conv_id::VARCHAR) AS h FROM per) per) p
      JOIN elect e USING (fp)
      LEFT JOIN jac j USING (conv_id)
    )
    SELECT 'total' AS stage, (SELECT count(*) FROM per)::BIGINT AS n_convs
    UNION ALL
    SELECT 'after_dedup',
           (SELECT count(*) FROM lab WHERE cat != 'dup')::BIGINT
    UNION ALL
    SELECT 'after_loop_filter',
           (SELECT count(*) FROM lab
            WHERE cat NOT IN ('dup', 'loop'))::BIGINT
    UNION ALL
    SELECT 'after_length_gate',
           (SELECT count(*) FROM lab
            WHERE cat IN ('train', 'val', 'test'))::BIGINT
    UNION ALL
    SELECT s.s, coalesce(c.n, 0)::BIGINT
    FROM (VALUES ('train'), ('val'), ('test')) s(s)
    LEFT JOIN (SELECT cat, count(*) AS n FROM lab
               WHERE cat IN ('train', 'val', 'test')
               GROUP BY cat) c ON c.cat = s.s
    """


ORACLE["conv_curation_pipeline_documents"] = _conv_curation_oracle_sql()


# --- conversation-atomic context packing --------------------------------------

PACK_BUDGET_CHARS = 4000
PACK_SHARD_CONVS = 20  # first-fit runs sequentially WITHIN a shard


def q_conv_packing_documents(sf_dir: str):
    """Context-window packing with CONVERSATION atomicity: conversations
    (in conv_id order) are greedily first-fit packed into
    {PACK_BUDGET_CHARS}-char windows, never splitting a conversation —
    the SFT-data analog of GPT-style sequence packing (which cuts the
    token stream mid-document, ops/textstats.py).  First-fit is
    inherently sequential, so the pack runs PER SHARD of
    {PACK_SHARD_CONVS} conversations: each reduce task owns whole shards
    and walks them in order; windows are (shard, win) pairs.  At 10^12
    turns the shard width is the only knob — the sequential walk never
    exceeds one shard."""
    import pyarrow.compute as pc

    def chars_per_conv(t: pa.Table) -> pd.DataFrame:
        t = _derive(t)
        df = pd.DataFrame(
            {
                "conv_id": t["conv_id"].to_numpy(zero_copy_only=False),
                "c": pc.utf8_length(
                    pc.coalesce(t["text"], "")
                ).to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby("conv_id", as_index=False)["c"].sum()
        out["shard"] = out["conv_id"].to_numpy(np.int64) // PACK_SHARD_CONVS
        return out

    per = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(chars_per_conv, batch_format="pyarrow",
                     zero_copy_batch=True)
    )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        # combine per-batch char partials, then first-fit walk per shard
        g = (
            g.groupby(["shard", "conv_id"], as_index=False)["c"].sum()
            .sort_values(["shard", "conv_id"], kind="mergesort")
        )
        shard = g["shard"].to_numpy(np.int64)
        chars = g["c"].to_numpy(np.int64)
        win = np.zeros(len(g), np.int64)
        fill = w = 0
        for i in range(len(g)):
            if i > 0 and shard[i] != shard[i - 1]:
                fill = w = 0
            if fill and fill + chars[i] > PACK_BUDGET_CHARS:
                w += 1
                fill = 0
            fill += chars[i]
            win[i] = w
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"].to_numpy(np.int64),
                "shard": shard,
                "win": win,
                "chars": chars,
            }
        )

    return bucket_map_groups(per, "shard", pack, N_BUCKETS)


QUERIES["conv_packing_documents"] = q_conv_packing_documents
ORACLE["conv_packing_documents"] = f"""
    WITH RECURSIVE {T_CTE},
    per AS (
      SELECT conv_id, conv_id // {PACK_SHARD_CONVS} AS shard,
             sum(length(coalesce(text, '')))::BIGINT AS chars
      FROM transcripts GROUP BY conv_id
    ),
    seq AS (
      SELECT conv_id, shard, chars,
             row_number() OVER (PARTITION BY shard ORDER BY conv_id) AS rn
      FROM per
    ),
    r AS (
      SELECT shard, rn, conv_id, chars, chars AS fill, 0::BIGINT AS win
      FROM seq WHERE rn = 1
      UNION ALL
      SELECT p.shard, p.rn, p.conv_id, p.chars,
             CASE WHEN r.fill + p.chars > {PACK_BUDGET_CHARS}
                  THEN p.chars ELSE r.fill + p.chars END,
             CASE WHEN r.fill + p.chars > {PACK_BUDGET_CHARS}
                  THEN r.win + 1 ELSE r.win END
      FROM r JOIN seq p ON p.shard = r.shard AND p.rn = r.rn + 1
    )
    SELECT conv_id, shard, win, chars FROM r
"""


# --- conversation language consistency ----------------------------------------


def q_conv_lang_consistency_documents(sf_dir: str):
    """Language consistency per conversation: run the stopword-profile
    language-ID model (the LangDetect URP mapping, loaded once per actor)
    over every turn, then aggregate per conversation — distinct predicted
    languages, the majority language (count desc, lang asc) and a mixed
    flag.  Mixed-language conversations are a standard drop/route signal
    in multilingual chat curation."""
    from rindex.ops.textstats import LangIdKernel

    ds = _conv_view(sf_dir)

    langs = ds.map_batches(
        LangIdKernel,
        fn_constructor_args=("conv_id",),
        batch_format="pandas",
        batch_size=1024,
        concurrency=pool_cap(min_cap=2),
    )

    def consistency(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["conv_id", "pred_lang"], as_index=False)
            .size()
            .sort_values(["conv_id", "size", "pred_lang"],
                         ascending=[True, False, True], kind="mergesort")
        )
        major = cnt.groupby("conv_id", sort=True).first()
        n_langs = cnt.groupby("conv_id", sort=True).size()
        return pd.DataFrame(
            {
                "conv_id": major.index.to_numpy(np.int64),
                "n_langs": n_langs.to_numpy(np.int64),
                "majority_lang": major["pred_lang"].to_numpy(object),
                "is_mixed": (n_langs.to_numpy(np.int64) > 1).astype(np.int32),
            }
        )

    return bucket_map_groups(langs, "conv_id", consistency, N_BUCKETS)


QUERIES["conv_lang_consistency_documents"] = q_conv_lang_consistency_documents


def _conv_lang_oracle_sql() -> str:
    from rindex.ops.textstats import _STOPSETS_SQL

    return f"""
    WITH {T_CTE},
    toks AS (
      SELECT doc_id, conv_id,
             list_distinct(regexp_extract_all(lower(coalesce(text, '')),
                                              '[0-9a-z]+')) AS t
      FROM transcripts),
    scores AS (
      SELECT doc_id, conv_id, l.lang, len(list_intersect(t, l.sw)) AS sc
      FROM toks CROSS JOIN (VALUES {_STOPSETS_SQL}) l(lang, sw)),
    best AS (
      SELECT doc_id, conv_id,
             CASE WHEN sc > 0 THEN lang ELSE 'und' END AS pred_lang
      FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
                                         ORDER BY sc DESC, lang DESC) AS rn
            FROM scores) WHERE rn = 1),
    cnt AS (
      SELECT conv_id, pred_lang, count(*) AS n
      FROM best GROUP BY 1, 2),
    major AS (
      SELECT conv_id, pred_lang,
             row_number() OVER (PARTITION BY conv_id
                                ORDER BY n DESC, pred_lang ASC) AS rn
      FROM cnt)
    SELECT c.conv_id,
           count(*)::BIGINT AS n_langs,
           max(m.pred_lang) AS majority_lang,
           (count(*) > 1)::INT AS is_mixed
    FROM cnt c
    JOIN major m ON m.conv_id = c.conv_id AND m.rn = 1
    GROUP BY c.conv_id
    """


ORACLE["conv_lang_consistency_documents"] = _conv_lang_oracle_sql()


# --- conversation-level benchmark contamination --------------------------------


def q_conv_contamination_documents(sf_dir: str):
    """Benchmark contamination rolled up to CONVERSATION granularity: a
    conversation is quarantined when any of its turns shares an n-gram
    with the held-out benchmark set — the drop unit in chat-data curation
    is the conversation, not the turn.  Delegates the gram machinery to
    contamination_check_documents (one broadcast benchmark set, one
    corpus scan); the rollup runs over the result-bounded contaminated-turn
    table."""
    from rindex.ops.textstats import q_contamination_check_documents

    per_doc = q_contamination_check_documents(sf_dir)
    conv = per_doc["doc_id"].to_numpy(np.int64) // TURNS_PER_CONV
    df = pd.DataFrame(
        {"conv_id": conv, "n_hit": per_doc["n_hit"].to_numpy(np.int64)}
    )
    out = df.groupby("conv_id", as_index=False).agg(
        n_turns_hit=("n_hit", "size"), total_hits=("n_hit", "sum")
    )
    out["n_turns_hit"] = out["n_turns_hit"].astype(np.int64)
    out["total_hits"] = out["total_hits"].astype(np.int64)
    return out


QUERIES["conv_contamination_documents"] = q_conv_contamination_documents


def _conv_contamination_oracle_sql() -> str:
    from rindex.ops.textstats import ORACLE as _TS_ORACLE

    inner = _TS_ORACLE["contamination_check_documents"]
    return f"""
    SELECT doc_id // {TURNS_PER_CONV} AS conv_id,
           count(*)::BIGINT AS n_turns_hit,
           sum(n_hit)::BIGINT AS total_hits
    FROM ({inner})
    GROUP BY 1
    """


ORACLE["conv_contamination_documents"] = _conv_contamination_oracle_sql()


# ---------------------------------------------------------------------------
# context-window truncation — the inference-time "keep the most recent
# turns that fit the budget" shape (contrast with conv_packing, which
# packs WHOLE conversations into training sequences)
# ---------------------------------------------------------------------------

CTX_BUDGET = 300  # token budget for the kept suffix


def q_conv_truncate_context_documents(sf_dir: str):
    """Context-window truncation: per conversation, keep the maximal
    SUFFIX of turns whose total token count fits CTX_BUDGET (most-recent-
    first, the chat-serving contract); emit kept_turns/kept_tokens per
    conversation.  Conversations whose last turn alone exceeds the budget
    keep nothing and are absent.  Token counts are vectorized per batch
    (one Arrow count_substring_regex — text never crosses the shuffle);
    the suffix scan is a segment reverse-cumsum inside each conv-bucket
    group."""
    import pyarrow.compute as pc

    ds = _conv_view(sf_dir)

    def tokcount(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.utf8_lower(t["text"]), "[0-9a-z]+"
        ).cast(pa.int64())
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "n_tok": n,
            }
        )

    def truncate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["conv_id", "turn_idx"], ascending=[True, False], kind="mergesort"
        )
        conv = g["conv_id"].to_numpy(np.int64)
        n = g["n_tok"].to_numpy(np.int64)
        new = np.ones(len(conv), bool)
        new[1:] = conv[1:] != conv[:-1]
        cs = np.cumsum(n)
        seg_starts = np.flatnonzero(new)
        counts = np.diff(np.append(seg_starts, len(conv)))
        rcum = cs - np.repeat(cs[seg_starts] - n[seg_starts], counts)
        keep = rcum <= CTX_BUDGET
        kept = pd.DataFrame({"conv_id": conv[keep], "n_tok": n[keep]})
        out = kept.groupby("conv_id", as_index=False).agg(
            kept_turns=("n_tok", "size"), kept_tokens=("n_tok", "sum")
        )
        out["kept_turns"] = out["kept_turns"].astype(np.int64)
        out["kept_tokens"] = out["kept_tokens"].astype(np.int64)
        return out

    ds = ds.map_batches(tokcount, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_map_groups(ds, "conv_id", truncate, N_BUCKETS)


QUERIES["conv_truncate_context_documents"] = q_conv_truncate_context_documents
ORACLE["conv_truncate_context_documents"] = f"""
    WITH {T_CTE},
    t AS (
      SELECT conv_id, turn_idx,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '[0-9a-z]+'))::BIGINT AS n_tok
      FROM transcripts
    ),
    c AS (
      SELECT conv_id, n_tok,
             sum(n_tok) OVER (PARTITION BY conv_id
                              ORDER BY turn_idx DESC) AS rcum
      FROM t
    )
    SELECT conv_id, count(*) AS kept_turns, sum(n_tok)::BIGINT AS kept_tokens
    FROM c WHERE rcum <= {CTX_BUDGET}
    GROUP BY conv_id ORDER BY conv_id
"""


# ---------------------------------------------------------------------------
# reply copy-rate — what fraction of an assistant reply's vocabulary is
# copied from the user turn it answers (groundedness/parroting metric)
# ---------------------------------------------------------------------------


def q_conv_reply_overlap_documents(sf_dir: str):
    """Reply copy-rate: for each (user turn t, assistant turn t+1) pair,
    |distinct assistant tokens ∩ distinct user tokens| / |distinct
    assistant tokens|; per conversation the pair count and mean rate.
    High mean = the assistant parrots the user (a curation signal next to
    the echo-loop detector).  Rates are exact small-integer ratios;
    the mean of <= 2 such doubles is order-free, rounded 6dp."""
    ds = _conv_view(sf_dir)

    def overlap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(np.int64)
        role = g["role"].to_numpy()
        texts = g["text"].tolist()
        rows: dict[int, list[float]] = {}
        for i in range(len(conv) - 1):
            if (
                conv[i] != conv[i + 1]
                or role[i] != "user"
                or role[i + 1] != "assistant"
            ):
                continue
            at = _token_set(texts[i + 1])
            if not at:
                continue
            ut = _token_set(texts[i])
            rows.setdefault(int(conv[i]), []).append(len(at & ut) / len(at))
        if not rows:
            return pd.DataFrame(
                {
                    "conv_id": pd.array([], dtype=np.int64),
                    "n_pairs": pd.array([], dtype=np.int64),
                    "mean_copy_rate": pd.array([], dtype=np.float64),
                }
            )
        cids = np.fromiter(rows, np.int64, len(rows))
        return pd.DataFrame(
            {
                "conv_id": cids,
                "n_pairs": np.array([len(rows[c]) for c in cids], np.int64),
                "mean_copy_rate": np.round(
                    [float(np.mean(rows[c])) for c in cids], 6
                ),
            }
        )

    return bucket_map_groups(ds, "conv_id", overlap, N_BUCKETS)


QUERIES["conv_reply_overlap_documents"] = q_conv_reply_overlap_documents
ORACLE["conv_reply_overlap_documents"] = f"""
    WITH {T_CTE},
    pairs AS (
      SELECT u.conv_id,
             list_distinct(regexp_extract_all(lower(coalesce(a.text, '')),
                                              '[0-9a-z]+')) AS at,
             list_distinct(regexp_extract_all(lower(coalesce(u.text, '')),
                                              '[0-9a-z]+')) AS ut
      FROM transcripts u
      JOIN transcripts a
        ON u.conv_id = a.conv_id AND a.turn_idx = u.turn_idx + 1
      WHERE u.role = 'user' AND a.role = 'assistant'
    ),
    rates AS (
      SELECT conv_id,
             len(list_filter(at, x -> list_contains(ut, x)))::DOUBLE
               / len(at) AS rate
      FROM pairs WHERE len(at) > 0
    )
    SELECT conv_id, count(*) AS n_pairs,
           round(avg(rate), 6) AS mean_copy_rate
    FROM rates GROUP BY conv_id ORDER BY conv_id
"""


# --- role-alternation validation (post tool-drop) --------------------------


def q_conv_role_alternation_documents(sf_dir: str):
    """Training-data hygiene: after dropping tool-bearing turns (the
    renumber convention), conversations must alternate user/assistant;
    adjacent same-role turns are violations.  Per conversation: kept-turn
    count, violation count, validity flag.  One conv-bucket shuffle;
    the adjacency check is a vectorized shift-compare per reduce task."""
    ds = _conv_view(sf_dir, columns=("doc_id",))

    def check(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"] == ""].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort"
        )
        conv = g["conv_id"].to_numpy(np.int64)
        role = g["role"].to_numpy(object)
        same_conv = np.concatenate([[False], conv[1:] == conv[:-1]])
        viol = same_conv & np.concatenate([[False], role[1:] == role[:-1]])
        df = pd.DataFrame(
            {"conv_id": conv, "v": viol.astype(np.int64)}
        )
        out = df.groupby("conv_id", as_index=False).agg(
            n_kept=("conv_id", "size"), n_violations=("v", "sum")
        )
        out["is_valid"] = out["n_violations"] == 0
        out["conv_id"] = out["conv_id"].astype("int64")
        out["n_kept"] = out["n_kept"].astype("int64")
        out["n_violations"] = out["n_violations"].astype("int64")
        return out

    return bucket_map_groups(ds, "conv_id", check, N_BUCKETS)


QUERIES["conv_role_alternation_documents"] = q_conv_role_alternation_documents
ORACLE["conv_role_alternation_documents"] = f"""
    WITH {T_CTE},
    kept AS (
      SELECT conv_id, turn_idx, role,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prev_role
      FROM transcripts WHERE tool = ''
    )
    SELECT conv_id, count(*)::BIGINT AS n_kept,
           sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END)::BIGINT
             AS n_violations,
           sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) = 0
             AS is_valid
    FROM kept GROUP BY conv_id ORDER BY conv_id
"""


# --- session split by inactivity gap ---------------------------------------

SESSION_GAP_US = 1_100_000  # gaps strictly above this start a new session


def q_conv_session_split_documents(sf_dir: str):
    """Sessionization WITHIN conversations: a turn whose gap from the
    previous turn exceeds the inactivity threshold starts a new session
    (the events-table sessionize op applied to the transcript view; the
    reference analog is date-gap bucketing,
    `solr/solrj/.../io/stream/TimeSeriesStream.java` gap semantics).
    Output per conversation: session count and the longest session.
    Cumulative-sum-over-break-flags per reduce task, one shuffle."""
    ds = _conv_view(sf_dir, columns=("doc_id",))

    def split(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        did = g["doc_id"].to_numpy(np.int64)
        ts = _TS_BASE_US + did * 1_000_000 + ((did * 37) % 4) * 200_000
        conv = g["conv_id"].to_numpy(np.int64)
        first = np.concatenate([[True], conv[1:] != conv[:-1]])
        gap = np.where(first, 0, ts - np.roll(ts, 1))
        brk = first | (gap > SESSION_GAP_US)
        sess = np.cumsum(brk)  # global session ids, contiguous per conv
        df = pd.DataFrame({"conv_id": conv, "sess": sess})
        per_sess = df.groupby(["conv_id", "sess"]).size().reset_index(
            name="n"
        )
        out = per_sess.groupby("conv_id", as_index=False).agg(
            n_sessions=("sess", "size"), max_session_len=("n", "max")
        )
        for c in ("conv_id", "n_sessions", "max_session_len"):
            out[c] = out[c].astype("int64")
        return out

    return bucket_map_groups(ds, "conv_id", split, N_BUCKETS)


QUERIES["conv_session_split_documents"] = q_conv_session_split_documents
ORACLE["conv_session_split_documents"] = f"""
    WITH {T_CTE},
    ts AS (
      SELECT conv_id, turn_idx,
             {_TS_BASE_US} + doc_id * 1000000 + ((doc_id * 37) % 4) * 200000
               AS t_us
      FROM transcripts
    ),
    gaps AS (
      SELECT conv_id, turn_idx,
             t_us - lag(t_us) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS gap
      FROM ts
    ),
    sess AS (
      SELECT conv_id,
             sum(CASE WHEN gap IS NULL OR gap > {SESSION_GAP_US}
                      THEN 1 ELSE 0 END)
               OVER (PARTITION BY conv_id ORDER BY turn_idx) AS sid
      FROM gaps
    ),
    per_sess AS (
      SELECT conv_id, sid, count(*)::BIGINT AS n
      FROM sess GROUP BY conv_id, sid
    )
    SELECT conv_id, count(*)::BIGINT AS n_sessions,
           max(n)::BIGINT AS max_session_len
    FROM per_sess GROUP BY conv_id ORDER BY conv_id
"""


# --- head+tail sampling (middle truncation) ---------------------------------

HEAD_K = 2
TAIL_K = 1


def q_conv_head_tail_documents(sf_dir: str):
    """Middle truncation: keep the first HEAD_K and last TAIL_K non-tool
    turns of every conversation (the long-context recipe that preserves
    instructions + outcome and drops the middle).  Emits kept turns with
    a part marker; turns in both windows (short conversations) are kept
    once, marked 'head'.  One shuffle; per-task vectorized rank from both
    ends."""
    ds = _conv_view(sf_dir, columns=("doc_id",))

    def sample(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"] == ""].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort"
        )
        conv = g["conv_id"].to_numpy(np.int64)
        n = len(conv)
        first = np.concatenate([[True], conv[1:] != conv[:-1]])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        r_asc = np.arange(n) - np.repeat(starts, sizes)
        r_desc = np.repeat(sizes, sizes) - 1 - r_asc
        head = r_asc < HEAD_K
        tail = r_desc < TAIL_K
        keep = head | tail
        part = np.where(head, "head", "tail")
        out = pd.DataFrame(
            {
                "conv_id": conv[keep],
                "turn_idx": g["turn_idx"].to_numpy(np.int32)[keep],
                "doc_id": g["doc_id"].to_numpy(np.int64)[keep],
                "part": part[keep],
            }
        )
        return out

    return bucket_map_groups(ds, "conv_id", sample, N_BUCKETS)


QUERIES["conv_head_tail_documents"] = q_conv_head_tail_documents
ORACLE["conv_head_tail_documents"] = f"""
    WITH {T_CTE},
    ranked AS (
      SELECT conv_id, turn_idx, doc_id,
             row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1
               AS r_asc,
             row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx DESC)
               - 1 AS r_desc
      FROM transcripts WHERE tool = ''
    )
    SELECT conv_id, turn_idx::INT AS turn_idx, doc_id,
           CASE WHEN r_asc < {HEAD_K} THEN 'head' ELSE 'tail' END AS part
    FROM ranked
    WHERE r_asc < {HEAD_K} OR r_desc < {TAIL_K}
    ORDER BY conv_id, turn_idx
"""


# --- SFT loss-mask accounting ----------------------------------------------


def q_conv_loss_mask_documents(sf_dir: str):
    """SFT loss-masking accounting: in assistant-supervised fine-tuning
    the loss is computed ONLY on assistant tokens of non-tool turns;
    user/tool tokens are context (masked).  Per conversation: trained
    tokens, masked tokens, trained fraction — the budgeting numbers a
    training-data pipeline reports before packing.

    Shape: per-batch partial (conv_id, trained, masked) integer sums
    (tokenize once, role/tool masks vectorized), ONE conv-bucket combine;
    output rows = conversations."""
    import pyarrow.compute as pc

    from rindex.analysis import get_analyzer
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        n = np.fromiter(
            (len(az.tokens(x or "")) for x in t["text"].to_pylist()),
            np.int64, len(t),
        )
        role = t["role"].to_numpy(zero_copy_only=False)
        tool = t["tool"].to_numpy(zero_copy_only=False)
        trained_mask = (role == "assistant") & (tool == "")
        d = pd.DataFrame(
            {
                "conv_id": t["conv_id"].to_numpy(zero_copy_only=False),
                "trained": np.where(trained_mask, n, 0),
                "masked": np.where(trained_mask, 0, n),
            }
        ).groupby("conv_id", as_index=False).sum()
        return pa.table(
            {
                "conv_id": pa.array(d["conv_id"].to_numpy(np.int64)),
                "trained": pa.array(d["trained"].to_numpy(np.int64)),
                "masked": pa.array(d["masked"].to_numpy(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("conv_id")
        .aggregate(Sum("trained", alias_name="trained_tokens"),
                   Sum("masked", alias_name="masked_tokens"))
        .sort("conv_id")
        .to_pandas()
    )
    tot = agg["trained_tokens"] + agg["masked_tokens"]
    agg["trained_frac"] = np.where(
        tot > 0, np.round(agg["trained_tokens"] / tot, 6), 0.0
    )
    for c in ("trained_tokens", "masked_tokens"):
        agg[c] = agg[c].astype("int64")
    return agg


QUERIES["conv_loss_mask_documents"] = q_conv_loss_mask_documents


def _conv_loss_mask_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    per AS (
      SELECT conv_id,
             sum(CASE WHEN role = 'assistant' AND tool = ''
                      THEN len(regexp_extract_all(lower(coalesce(text, '')),
                                                  '{TOKEN_SQL_RE}'))
                      ELSE 0 END)::BIGINT AS trained_tokens,
             sum(CASE WHEN role = 'assistant' AND tool = ''
                      THEN 0
                      ELSE len(regexp_extract_all(lower(coalesce(text, '')),
                                                  '{TOKEN_SQL_RE}'))
                      END)::BIGINT AS masked_tokens
      FROM transcripts GROUP BY conv_id
    )
    SELECT conv_id, trained_tokens, masked_tokens,
           CASE WHEN trained_tokens + masked_tokens > 0
                THEN round(trained_tokens::DOUBLE
                           / (trained_tokens + masked_tokens), 6)
                ELSE 0.0 END AS trained_frac
    FROM per ORDER BY conv_id
    """


ORACLE["conv_loss_mask_documents"] = _conv_loss_mask_oracle()


# --- assistant template detection: repeated reply prefixes -----------------

TPL_PREFIX_LEN = 3    # leading tokens forming the template key
TPL_MIN_CONVS = 2     # a prefix is a "template" if >= this many convs use it
TPL_TOP = 20


def q_conv_template_documents(sf_dir: str):
    """Assistant-reply template detection: group assistant turns by their
    leading-{TPL_PREFIX_LEN}-token prefix and report prefixes used across
    many DISTINCT conversations — the canned-reply / templated-response
    screen a transcript curation pipeline runs before SFT sampling (the
    document-side analog is SignatureUpdateProcessor's near-template
    clustering; conv_dedup catches whole-conversation copies, this
    catches per-turn boilerplate).

    Shape: per-batch PARTIAL aggregation to distinct (prefix, conv_id)
    pairs with turn counts, then ONE groupby-prefix reduce; only the
    already-aggregated template rows (small by definition — a template
    repeats) reach the driver for the final top-k sort."""
    from rindex.analysis import get_analyzer

    ds = _conv_view(sf_dir)

    def part(t: pa.Table) -> pa.Table:
        role = t["role"].to_numpy(zero_copy_only=False)
        keep = role == "assistant"
        texts = t["text"].to_pylist()
        convs = t["conv_id"].to_numpy(zero_copy_only=False)
        az = get_analyzer("standard")
        pf, cv = [], []
        for k, x, c in zip(keep, texts, convs):
            if not k:
                continue
            toks = az.tokens(x or "")
            if len(toks) >= TPL_PREFIX_LEN:
                pf.append(" ".join(toks[:TPL_PREFIX_LEN]))
                cv.append(c)
        if not pf:
            return pa.table(
                {
                    "prefix": pa.array([], pa.string()),
                    "conv_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        d = (
            pd.DataFrame({"prefix": pf, "conv_id": np.array(cv, np.int64)})
            .groupby(["prefix", "conv_id"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "prefix": pa.array(d["prefix"], pa.string()),
                "conv_id": pa.array(d["conv_id"], pa.int64()),
                "n": pa.array(d["size"].astype(np.int64)),
            }
        )

    parts = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)

    def reduce_prefix(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("prefix", as_index=False).agg(
            n_turns=("n", "sum"), n_convs=("conv_id", "nunique")
        )
        agg = agg[agg["n_convs"] >= TPL_MIN_CONVS]
        return agg

    tpl = parts.groupby("prefix").map_groups(
        reduce_prefix, batch_format="pandas"
    )
    # distributed top-k: only TPL_TOP rows ever reach the driver, even if
    # a pathological corpus makes "templates" corpus-proportional
    out = tpl.sort(
        ["n_turns", "prefix"], descending=[True, False]
    ).limit(TPL_TOP).to_pandas()
    if out.empty:  # all groups below threshold: keep a stable schema
        out = pd.DataFrame(
            {"prefix": pd.Series(dtype=object),
             "n_turns": pd.Series(dtype="int64"),
             "n_convs": pd.Series(dtype="int64")}
        )
    out["n_turns"] = out["n_turns"].astype("int64")
    out["n_convs"] = out["n_convs"].astype("int64")
    return out.reset_index(drop=True)


QUERIES["conv_template_documents"] = q_conv_template_documents


def _conv_template_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    toks AS (
      SELECT conv_id,
             regexp_extract_all(lower(coalesce(text, '')),
                                '{TOKEN_SQL_RE}') AS l
      FROM transcripts WHERE role = 'assistant'
    ),
    pref AS (
      SELECT conv_id,
             array_to_string(l[1:{TPL_PREFIX_LEN}], ' ') AS prefix
      FROM toks WHERE len(l) >= {TPL_PREFIX_LEN}
    ),
    agg AS (
      SELECT prefix, count(*)::BIGINT AS n_turns,
             count(DISTINCT conv_id)::BIGINT AS n_convs
      FROM pref GROUP BY prefix
    )
    SELECT prefix, n_turns, n_convs
    FROM agg WHERE n_convs >= {TPL_MIN_CONVS}
    ORDER BY n_turns DESC, prefix
    LIMIT {TPL_TOP}
"""


ORACLE["conv_template_documents"] = _conv_template_oracle()


# --- topic-shift segmentation over turn embeddings --------------------------

# Rational cosine threshold tau = TOPIC_NUM / TOPIC_DEN: a pair of
# consecutive turns is a topic boundary when cos(e_t, e_{t-1}) < tau.
# Evaluated EXACTLY on floor(x*1000) int64-quantized vectors:
#   cos < tau  <=>  dot <= 0  OR  DEN^2*dot^2 < NUM^2*|a|^2*|b|^2
# (all int64; max |m|<=~500, dim 64 keeps every product under 2^63).
TOPIC_NUM = 1
TOPIC_DEN = 20


def q_conv_topic_shift_embeddings(sf_dir: str):
    """Topic-shift segmentation: consecutive turn embeddings within a
    conversation are compared by cosine; a drop below tau marks a segment
    boundary (TextTiling-style embedding segmentation, Hearst 1997; the
    reference-side analog is index-time document blocking for block join
    — `lucene/join/.../ToParentBlockJoinQuery.java` parents delimit
    child runs the way boundaries delimit topic runs).

    Shape: ONE quantize map_batches pass, ONE conv-bucket shuffle, then a
    fully vectorized lag-dot kernel per bucket (each conversation lives in
    exactly one bucket; adjacent-row products across the whole bucket with
    conv-boundary masking — no per-conversation Python).  Rows out =
    conversations with >=1 consecutive pair."""
    import re

    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        m = np.floor(
            np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
            * 1000.0
        ).astype(np.int64)
        conv = vid // TURNS_PER_CONV
        cols = {"vec_id": vid, "conv_id": conv}
        for i in range(m.shape[1]):
            cols[f"c{i}"] = m[:, i]
        return pa.table(cols)

    dim_re = re.compile(r"^c\d+$")

    def seg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        dims = [c for c in g.columns if dim_re.match(c)]
        m = g[dims].to_numpy(np.int64)
        conv = g["conv_id"].to_numpy(np.int64)
        vid = g["vec_id"].to_numpy(np.int64)
        same = (conv[1:] == conv[:-1]) & (vid[1:] == vid[:-1] + 1)
        dot = np.sum(m[1:] * m[:-1], axis=1)
        na = np.sum(m[1:] * m[1:], axis=1)
        nb = np.sum(m[:-1] * m[:-1], axis=1)
        shift = (dot <= 0) | (
            TOPIC_DEN * TOPIC_DEN * dot * dot < TOPIC_NUM * TOPIC_NUM * na * nb
        )
        d = pd.DataFrame(
            {"conv_id": conv[1:][same], "s": shift[same].astype(np.int64)}
        )
        if d.empty:
            return pd.DataFrame(
                {"conv_id": pd.Series(dtype="int64"),
                 "n_pairs": pd.Series(dtype="int64"),
                 "n_shifts": pd.Series(dtype="int64"),
                 "n_segments": pd.Series(dtype="int64")}
            )
        agg = d.groupby("conv_id", as_index=False).agg(
            n_pairs=("s", "size"), n_shifts=("s", "sum")
        )
        agg["n_segments"] = agg["n_shifts"] + 1
        for c in agg.columns:
            agg[c] = agg[c].astype("int64")
        return agg

    out = bucket_map_groups(
        emb.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True),
        "conv_id", seg, N_BUCKETS,
    ).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_topic_shift_embeddings"] = q_conv_topic_shift_embeddings
ORACLE["conv_topic_shift_embeddings"] = f"""
    WITH q AS (
      SELECT vec_id, vec_id // {TURNS_PER_CONV} AS conv_id,
             generate_subscripts(embedding, 1) AS i,
             floor(unnest(embedding)::DOUBLE * 1000.0)::BIGINT AS m
      FROM embeddings
    ),
    pair AS (
      SELECT a.conv_id,
             sum(a.m * b.m)::BIGINT AS dot,
             sum(a.m * a.m)::BIGINT AS na,
             sum(b.m * b.m)::BIGINT AS nb
      FROM q a JOIN q b
        ON a.conv_id = b.conv_id AND a.i = b.i AND b.vec_id = a.vec_id - 1
      GROUP BY a.conv_id, a.vec_id
    ),
    fl AS (
      SELECT conv_id,
             CASE WHEN dot <= 0
                    OR {TOPIC_DEN * TOPIC_DEN} * dot * dot
                       < {TOPIC_NUM * TOPIC_NUM} * na * nb
                  THEN 1 ELSE 0 END AS s
      FROM pair
    )
    SELECT conv_id, count(*)::BIGINT AS n_pairs, sum(s)::BIGINT AS n_shifts,
           (sum(s) + 1)::BIGINT AS n_segments
    FROM fl GROUP BY conv_id ORDER BY conv_id
"""


# --- DPO-style preference-pair construction ---------------------------------


def q_conv_dpo_pairs_documents(sf_dir: str):
    """DPO preference-pair construction: per conversation the assistant
    turns are candidate completions; the one with the most DISTINCT tokens
    (lexical-richness heuristic; ties break to the earlier turn) is
    `chosen`, the poorest (ties to the later turn) is `rejected` — the
    deterministic skeleton of preference-pair mining over transcripts
    (Rafailov et al. 2023 DPO data shape).  Conversations need >=2
    candidates.

    Shape: per-batch scoring partial (tokenize once, distinct-count per
    assistant turn), ONE conv-bucket shuffle, vectorized per-bucket
    argmax/argmin by sort-and-first.  Rows out = conversations."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        t = _derive(t)
        role = t["role"].to_numpy(zero_copy_only=False)
        keep = role == "assistant"
        az = get_analyzer("standard")
        texts = t["text"].to_pylist()
        sc = np.fromiter(
            (len(set(az.tokens(x or ""))) if k else 0
             for k, x in zip(keep, texts)),
            np.int64, len(t),
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        ti = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(conv[keep], pa.int64()),
                "turn_idx": pa.array(ti[keep], pa.int64()),
                "score": pa.array(sc[keep], pa.int64()),
            }
        )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        nc = g.groupby("conv_id")["score"].transform("size")
        g = g[nc >= 2]
        if g.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64")
                 for c in ("conv_id", "chosen_turn", "chosen_score",
                           "rejected_turn", "rejected_score", "margin")}
            )
        ch = (
            g.sort_values(["conv_id", "score", "turn_idx"],
                          ascending=[True, False, True])
            .groupby("conv_id", as_index=False).first()
            .rename(columns={"turn_idx": "chosen_turn",
                             "score": "chosen_score"})
        )
        rj = (
            g.sort_values(["conv_id", "score", "turn_idx"],
                          ascending=[True, True, False])
            .groupby("conv_id", as_index=False).first()
            .rename(columns={"turn_idx": "rejected_turn",
                             "score": "rejected_score"})
        )
        out = ch.merge(rj[["conv_id", "rejected_turn", "rejected_score"]],
                       on="conv_id")
        out["margin"] = out["chosen_score"] - out["rejected_score"]
        out = out[["conv_id", "chosen_turn", "chosen_score",
                   "rejected_turn", "rejected_score", "margin"]]
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    out = (
        bucket_map_groups(
            ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", pick, N_BUCKETS,
        )
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_dpo_pairs_documents"] = q_conv_dpo_pairs_documents


def _conv_dpo_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    cand AS (
      SELECT conv_id, turn_idx::BIGINT AS turn_idx,
             len(list_distinct(regexp_extract_all(
                 lower(coalesce(text, '')), '{TOKEN_SQL_RE}')))::BIGINT
               AS score
      FROM transcripts WHERE role = 'assistant'
    ),
    ch AS (
      SELECT conv_id, turn_idx AS chosen_turn, score AS chosen_score,
             row_number() OVER (PARTITION BY conv_id
                                ORDER BY score DESC, turn_idx ASC) AS rn,
             count(*) OVER (PARTITION BY conv_id) AS nc
      FROM cand
    ),
    rj AS (
      SELECT conv_id, turn_idx AS rejected_turn, score AS rejected_score,
             row_number() OVER (PARTITION BY conv_id
                                ORDER BY score ASC, turn_idx DESC) AS rn
      FROM cand
    )
    SELECT c.conv_id, c.chosen_turn, c.chosen_score,
           r.rejected_turn, r.rejected_score,
           (c.chosen_score - r.rejected_score)::BIGINT AS margin
    FROM ch c JOIN rj r ON c.conv_id = r.conv_id AND r.rn = 1
    WHERE c.rn = 1 AND c.nc >= 2
    ORDER BY c.conv_id
"""


ORACLE["conv_dpo_pairs_documents"] = _conv_dpo_oracle()


# --- full-history context-growth accounting ---------------------------------


def q_conv_context_growth_documents(sf_dir: str):
    """Context-growth accounting: when every assistant call re-feeds the
    full history, the prompt cost of a conversation is the sum over
    assistant turns of the token count of all PRIOR turns (the quadratic
    serving-cost number an agent-transcript pipeline budgets before
    context-window truncation; conv_truncate_context is the mitigation,
    this op is the measurement).  amp_ppm = floor(refeed_tokens * 1e6 /
    total_tokens) keeps the amplification ratio exact-integer on both
    sides.

    Shape: per-batch token-count partial, ONE conv-bucket shuffle, per-
    bucket vectorized grouped cumsum.  Rows out = conversations."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        n = np.fromiter(
            (len(az.tokens(x or "")) for x in t["text"].to_pylist()),
            np.int64, len(t),
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        role = t["role"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.int64()),
                "turn_idx": t["turn_idx"],
                "n": pa.array(n),
                "is_a": pa.array((role == "assistant").astype(np.int64)),
            }
        )

    def grow(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"])
        ctx = g.groupby("conv_id")["n"].cumsum() - g["n"]
        g = g.assign(ctx=ctx, refeed=ctx * g["is_a"])
        agg = g.groupby("conv_id", as_index=False).agg(
            total_tokens=("n", "sum"),
            assistant_calls=("is_a", "sum"),
            refeed_tokens=("refeed", "sum"),
        )
        tot = agg["total_tokens"].to_numpy(np.int64)
        ref = agg["refeed_tokens"].to_numpy(np.int64)
        agg["amp_ppm"] = np.where(tot > 0, ref * 1_000_000 // np.maximum(tot, 1), 0)
        for c in agg.columns:
            agg[c] = agg[c].astype("int64")
        return agg

    out = (
        bucket_map_groups(
            ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", grow, N_BUCKETS,
        )
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_context_growth_documents"] = q_conv_context_growth_documents


def _conv_context_growth_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    tok AS (
      SELECT conv_id, turn_idx, role,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '{TOKEN_SQL_RE}'))::BIGINT AS n
      FROM transcripts
    ),
    cum AS (
      SELECT conv_id, role, n,
             coalesce(sum(n) OVER (PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                      0)::BIGINT AS ctx
      FROM tok
    ),
    agg AS (
      SELECT conv_id, sum(n)::BIGINT AS total_tokens,
             sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)::BIGINT
               AS assistant_calls,
             sum(CASE WHEN role = 'assistant' THEN ctx ELSE 0 END)::BIGINT
               AS refeed_tokens
      FROM cum GROUP BY conv_id
    )
    SELECT conv_id, total_tokens, assistant_calls, refeed_tokens,
           CASE WHEN total_tokens > 0
                THEN (refeed_tokens * 1000000) // total_tokens
                ELSE 0 END::BIGINT AS amp_ppm
    FROM agg ORDER BY conv_id
"""


ORACLE["conv_context_growth_documents"] = _conv_context_growth_oracle()


# --- tool-chain runs (gaps-and-islands over tool-bearing turns) --------------


def q_conv_tool_chain_documents(sf_dir: str):
    """Tool-chain accounting: within each conversation, consecutive
    tool-bearing turns form a chain (an agent loop calling tools
    back-to-back); report per conversation the tool-turn count, the number
    of chains, and the longest chain — the agent-trace depth metric a
    transcript pipeline budgets before deciding a context-truncation
    policy.  Classic gaps-and-islands, vectorized.

    Shape: per-batch flag partial, ONE conv-bucket shuffle, per-bucket
    vectorized run-length encoding (run boundaries from adjacent-row
    compares across the whole bucket — no per-conversation Python).
    Rows out = conversations with >=1 tool turn."""
    ds = read_table(sf_dir, "documents", ["doc_id"])

    def part(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        conv = did // TURNS_PER_CONV
        ti = (did % TURNS_PER_CONV).astype(np.int64)
        m7 = did % 7
        is_tool = ((m7 == 0) | (m7 == 3)).astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.int64()),
                "turn_idx": pa.array(ti),
                "is_tool": pa.array(is_tool),
            }
        )

    def rle(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"])
        conv = g["conv_id"].to_numpy(np.int64)
        ti = g["turn_idx"].to_numpy(np.int64)
        m = g["is_tool"].to_numpy(np.int64).astype(bool)
        if not m.any():
            return pd.DataFrame(
                {c: pd.Series(dtype="int64")
                 for c in ("conv_id", "n_tool_turns", "n_chains",
                           "max_chain")}
            )
        cont = np.zeros(len(g), bool)
        if len(g) > 1:
            cont[1:] = (
                (conv[1:] == conv[:-1]) & (ti[1:] == ti[:-1] + 1)
                & m[1:] & m[:-1]
            )
        start = m & ~cont
        run_id = np.cumsum(start) - 1          # valid on tool rows only
        lens = np.bincount(run_id[m])          # length per run
        run_conv = conv[start]                 # conv per run
        d = pd.DataFrame({"conv_id": run_conv, "len": lens})
        agg = d.groupby("conv_id", as_index=False).agg(
            n_tool_turns=("len", "sum"),
            n_chains=("len", "size"),
            max_chain=("len", "max"),
        )
        for c in agg.columns:
            agg[c] = agg[c].astype("int64")
        return agg

    out = (
        bucket_map_groups(
            ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", rle, N_BUCKETS,
        )
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_tool_chain_documents"] = q_conv_tool_chain_documents
ORACLE["conv_tool_chain_documents"] = f"""
    WITH {T_CTE},
    tl AS (
      SELECT conv_id, turn_idx,
             turn_idx - row_number() OVER (PARTITION BY conv_id
                                           ORDER BY turn_idx) AS isl
      FROM transcripts WHERE tool <> ''
    ),
    runs AS (
      SELECT conv_id, isl, count(*)::BIGINT AS len
      FROM tl GROUP BY conv_id, isl
    )
    SELECT conv_id, sum(len)::BIGINT AS n_tool_turns,
           count(*)::BIGINT AS n_chains, max(len)::BIGINT AS max_chain
    FROM runs GROUP BY conv_id ORDER BY conv_id
"""


# --- turn-length drift (exact integer least-squares slope) ------------------


def q_conv_length_drift_documents(sf_dir: str):
    """Turn-length drift: the least-squares slope of token count over
    turn index per conversation — do replies grow (context accretion) or
    shrink (degeneration/truncation) as the conversation proceeds?  The
    slope is kept EXACT integer on both sides: with x=turn_idx,
    y=tokens, num = n*Σxy − Σx*Σy, den = n*Σx² − (Σx)² > 0, and
    slope_ppm = sign(num) * (|num|*10⁶ // den) (truncating division —
    DuckDB `//` truncates toward zero, numpy floors, so both sides use
    the sign/abs form).

    Shape: per-batch partial sums per conversation, ONE combinable
    groupby-Sum (no map_groups), final O(n_convs) formula.  Rows out =
    conversations with >=2 turns."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        y = np.fromiter(
            (len(az.tokens(x or "")) for x in t["text"].to_pylist()),
            np.int64, len(t),
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        x = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = pd.DataFrame(
            {
                "conv_id": conv,
                "n": 1,
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
            }
        ).groupby("conv_id", as_index=False).sum()
        return pa.table({c: pa.array(d[c].to_numpy(np.int64))
                         for c in d.columns})

    agg = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("conv_id")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
        )
        .to_pandas()
    )
    agg = agg[agg["n"] >= 2].copy()
    n = agg["n"].to_numpy(np.int64)
    sx = agg["sx"].to_numpy(np.int64)
    sy = agg["sy"].to_numpy(np.int64)
    num = n * agg["sxy"].to_numpy(np.int64) - sx * sy
    den = n * agg["sxx"].to_numpy(np.int64) - sx * sx
    out = pd.DataFrame(
        {
            "conv_id": agg["conv_id"].astype("int64"),
            "n_turns": n,
            "total_tokens": sy,
            "slope_ppm": np.sign(num) * (np.abs(num) * 1_000_000 // den),
        }
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_length_drift_documents"] = q_conv_length_drift_documents


def _conv_length_drift_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    tok AS (
      SELECT conv_id, turn_idx::BIGINT AS x,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '{TOKEN_SQL_RE}'))::BIGINT AS y
      FROM transcripts
    ),
    s AS (
      SELECT conv_id, count(*)::BIGINT AS n, sum(x)::BIGINT AS sx,
             sum(y)::BIGINT AS sy, sum(x * y)::BIGINT AS sxy,
             sum(x * x)::BIGINT AS sxx
      FROM tok GROUP BY conv_id HAVING count(*) >= 2
    )
    SELECT conv_id, n AS n_turns, sy AS total_tokens,
           (sign(n * sxy - sx * sy)
            * (abs(n * sxy - sx * sy) * 1000000
               // (n * sxx - sx * sx)))::BIGINT AS slope_ppm
    FROM s ORDER BY conv_id
"""


ORACLE["conv_length_drift_documents"] = _conv_length_drift_oracle()


# --- conversation self-retrieval MRR (BM25 retrieval eval) -------------------

MRR_SAMPLE_MOD = 17   # query convs: conv_id % 17 == 0 (deterministic sample)
MRR_MAX_Q = 8         # hard cap on query count (eval stays O(1) vs corpus)
MRR_QLEN = 6          # query = first 6 tokens of the conversation's turn 0


def q_conv_self_retrieval_documents(sf_dir: str):
    """Conversation self-retrieval eval: for a deterministic sample of
    conversations, the opening user turn's first {MRR_QLEN} tokens form a
    BM25 query; conversations are ranked by max-pooled turn score (the
    conv_search pooling) and the rank of the SOURCE conversation is
    reported with its exact reciprocal rank (rr_ppm = 10^6 // rank) —
    the known-item retrieval-quality probe (MRR) a transcript pipeline
    runs to validate its index before large-scale retrieval jobs.

    Shape: queries are a bounded sample (filter + sort + limit, <=
    {MRR_MAX_Q} tiny rows to the driver); per query ONE scoring pass
    (per-segment tasks, scores stay in the object store), max-pool as
    per-batch partial + groupby combine, then the pooled per-conv scores
    (already aggregate-sized) yield the self score (1-row filter) and a
    distributed better-than count.  Rows out = sampled queries."""
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    from rindex.analysis import get_analyzer

    def _pick_queries(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = (did % TURNS_PER_CONV == 0) & (
            (did // TURNS_PER_CONV) % MRR_SAMPLE_MOD == 0
        )
        return t.filter(pa.array(keep))

    qsrc = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_pick_queries, batch_format="pyarrow",
                     zero_copy_batch=True)
        .sort("doc_id")
        .limit(MRR_MAX_Q)
        .to_pandas()
    )
    az = get_analyzer("standard")

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    rows = []
    for _, r in qsrc.iterrows():
        qid = int(r["doc_id"]) // TURNS_PER_CONV
        toks = az.tokens(r["text"] or "")[:MRR_QLEN]
        terms = list(dict.fromkeys(toks))
        if not terms:
            continue
        ds = searcher.score_matches_dataset(" ".join(terms), mode="or")

        def pool(df: pd.DataFrame) -> pd.DataFrame:
            conv = df["doc_id"].to_numpy(np.int64) // TURNS_PER_CONV
            return (
                pd.DataFrame({"conv_id": conv, "s": df["score"].to_numpy()})
                .groupby("conv_id", as_index=False)["s"]
                .max()
            )

        pooled = (
            ds.map_batches(pool, batch_format="pandas")
            .groupby("conv_id")
            .max("s")
        ).materialize()  # aggregate-sized (convs with >=1 matching turn)
        def _self_only(t: pa.Table, _qid=qid) -> pa.Table:
            c = t["conv_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(c == _qid))

        self_row = pooled.map_batches(
            _self_only, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        s_self = float(self_row["max(s)"].iloc[0])

        def better(t: pa.Table, _s=s_self, _qid=qid) -> pa.Table:
            s = t["max(s)"].to_numpy(zero_copy_only=False)
            c = t["conv_id"].to_numpy(zero_copy_only=False)
            # self conv excluded: the oracle recomputes the pooled CTE for
            # both sides of its self-join, and parallel float-sum order can
            # flip strict > on the SELF row; non-self gaps are real (>1e-5)
            n = int(np.count_nonzero(
                (c != _qid) & ((s > _s) | ((s == _s) & (c < _qid)))
            ))
            return pa.table({"n": pa.array([n], pa.int64())})

        n_better = (
            pooled.map_batches(better, batch_format="pyarrow").sum("n")
        )
        rank = int(n_better) + 1
        rows.append((qid, rank, 1_000_000 // rank))

    out = pd.DataFrame(
        rows, columns=["query_id", "self_rank", "rr_ppm"]
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("query_id").reset_index(drop=True)


QUERIES["conv_self_retrieval_documents"] = q_conv_self_retrieval_documents


def _conv_self_retrieval_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE, norm_vals_sql

    norm_vals = norm_vals_sql()
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    stats AS (
      SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
             (SELECT sum(dl) FROM dl)::DOUBLE
               / (SELECT count(*) FROM documents) AS avgdl
    ),
    norm_table AS (SELECT unnest([{norm_vals}]) AS v),
    lossy AS (
      SELECT doc_id,
             (SELECT max(v) FROM norm_table WHERE v <= dl.dl)::DOUBLE AS ldl
      FROM dl
    ),
    df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
    qsrc AS (
      SELECT doc_id // {TURNS_PER_CONV} AS query_id,
             regexp_extract_all(lower(coalesce(text, '')),
                                '{TOKEN_SQL_RE}') AS l
      FROM documents
      WHERE doc_id % {TURNS_PER_CONV} = 0
        AND (doc_id // {TURNS_PER_CONV}) % {MRR_SAMPLE_MOD} = 0
      ORDER BY doc_id LIMIT {MRR_MAX_Q}
    ),
    q AS (
      SELECT DISTINCT query_id, term FROM (
        SELECT query_id, unnest(l[1:{MRR_QLEN}]) AS term FROM qsrc
      )
    ),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY 1, 2
    ),
    pooled AS (
      SELECT query_id, doc_id // {TURNS_PER_CONV} AS conv_id, max(s) AS s
      FROM scores GROUP BY 1, 2
    ),
    selfs AS (
      SELECT query_id, s AS s_self FROM pooled WHERE conv_id = query_id
    )
    SELECT p.query_id,
           (1 + count(*) FILTER (WHERE p.conv_id <> p.query_id
                                 AND (p.s > f.s_self
                                      OR (p.s = f.s_self
                                          AND p.conv_id < p.query_id))))::BIGINT
             AS self_rank,
           (1000000 // (1 + count(*) FILTER (WHERE p.conv_id <> p.query_id
                                 AND (p.s > f.s_self
                                      OR (p.s = f.s_self
                                          AND p.conv_id < p.query_id)))))::BIGINT
             AS rr_ppm
    FROM pooled p JOIN selfs f USING (query_id)
    GROUP BY p.query_id
    ORDER BY p.query_id
"""


ORACLE["conv_self_retrieval_documents"] = _conv_self_retrieval_oracle()


# --- recency-weighted conversation retrieval --------------------------------

RECENCY_DECAY_POW2 = 1   # per-step decay 2^-1 = 0.5: EXACT in binary float


def q_conv_recency_search_documents(sf_dir: str):
    """Recency-weighted conversation retrieval: each turn's BM25 score is
    damped by 0.5^(T-1-turn_idx) before the per-conversation max-pool, so
    LATE turns dominate — the conversation analog of Solr's
    `recip(ms(NOW,date))` recency boost (the doc-level variant is
    edismax_boost in ops/fulltext.py; reference
    `solr/core/src/java/org/apache/solr/util/DateMathParser.java` +
    boost function composition).  The damp factors are powers of two, so
    Ray and DuckDB multiply bit-identical doubles and ranks stay exact.

    Shape: identical to conv_search_topk — one scoring pass per fixed
    query, per-batch partial damp+pool, ONE conv-bucket combine with
    per-bucket top-k."""
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    pooled_parts = []
    for qid, text in CONV_QUERIES:
        ds = searcher.score_matches_dataset(text, mode="or")

        def pool(df: pd.DataFrame, _qid=qid) -> pd.DataFrame:
            did = df["doc_id"].to_numpy(np.int64)
            conv = did // TURNS_PER_CONV
            ti = did % TURNS_PER_CONV
            damp = np.ldexp(
                1.0,
                -RECENCY_DECAY_POW2 * (TURNS_PER_CONV - 1 - ti).astype(np.int64),
            )
            out = (
                pd.DataFrame(
                    {"conv_id": conv,
                     "s": df["score"].to_numpy() * damp}
                )
                .groupby("conv_id", as_index=False)["s"]
                .max()
            )
            out.insert(0, "query_id", _qid)
            return out

        pooled_parts.append(ds.map_batches(pool, batch_format="pandas"))

    pooled = pooled_parts[0].union(*pooled_parts[1:])

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["query_id", "conv_id"], as_index=False)["s"].max()
        out = (
            out.sort_values(["query_id", "s", "conv_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False)
            .head(CONV_TOP_K)
        )
        return out

    allq = bucket_map_groups(pooled, "conv_id", combine, N_BUCKETS).to_pandas()
    allq = allq.sort_values(
        ["query_id", "s", "conv_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    allq = allq.groupby("query_id", sort=False).head(CONV_TOP_K)
    allq["rank"] = (
        allq.groupby("query_id", sort=False).cumcount().astype(np.int32)
    )
    allq["score"] = allq["s"].round(6)
    return allq[["query_id", "rank", "conv_id", "score"]].reset_index(
        drop=True
    )


QUERIES["conv_recency_search_documents"] = q_conv_recency_search_documents


def _conv_recency_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE, norm_vals_sql

    norm_vals = norm_vals_sql()
    q_rows = ",".join(
        f"('{qid}', '{t}')"
        for qid, text in CONV_QUERIES
        for t in text.split()
    )
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    stats AS (
      SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
             (SELECT sum(dl) FROM dl)::DOUBLE
               / (SELECT count(*) FROM documents) AS avgdl
    ),
    norm_table AS (SELECT unnest([{norm_vals}]) AS v),
    lossy AS (
      SELECT doc_id, (SELECT max(v) FROM norm_table WHERE v <= dl.dl)::DOUBLE AS ldl
      FROM dl
    ),
    df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_rows}),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY 1, 2
    ),
    pooled AS (
      SELECT query_id, doc_id // {TURNS_PER_CONV} AS conv_id,
             max(s * power(2.0, -{RECENCY_DECAY_POW2}
                 * ({TURNS_PER_CONV} - 1 - doc_id % {TURNS_PER_CONV}))) AS s
      FROM scores GROUP BY 1, 2
    ),
    ranked AS (
      SELECT query_id, conv_id, s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY s DESC, conv_id ASC) - 1)::INTEGER
               AS rank
      FROM pooled
    )
    SELECT query_id, rank, conv_id, round(s, 6) AS score
    FROM ranked WHERE rank < {CONV_TOP_K}
    """


ORACLE["conv_recency_search_documents"] = _conv_recency_oracle_sql()


# --- conversation self-repetition (bigram novelty vs full prior history) ----


def q_conv_self_repetition_documents(sf_dir: str):
    """Self-repetition audit: for each assistant turn, the fraction of its
    DISTINCT bigrams already present in ANY prior turn of the same
    conversation — the full-history generalization of conv_echo_loop
    (which compares adjacent turns only); a model looping on itself shows
    high repeated-bigram mass late in the conversation.  Per conversation:
    total distinct assistant bigrams, how many were already seen, and the
    exact repeated fraction rep_ppm = repeated * 10^6 // total.

    Shape: per-batch bigram extraction partial (tokenize once per turn),
    ONE conv-bucket shuffle, per-bucket vectorized first-seen logic (sort
    by (conv, bigram, turn); a bigram occurrence is 'repeated' when an
    EARLIER turn in the same conversation already produced it).  Rows out
    = conversations with >=1 assistant bigram."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        ti = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        role = t["role"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        cv, tn, bg, ia = [], [], [], []
        for c, x, i, r in zip(conv, texts, ti, role):
            toks = az.tokens(x or "")
            # distinct bigrams of THIS turn (set semantics per turn)
            bs = {f"{a} {b}" for a, b in zip(toks, toks[1:])}
            for s in bs:
                cv.append(c)
                tn.append(i)
                bg.append(s)
                ia.append(1 if r == "assistant" else 0)
        return pa.table(
            {
                "conv_id": pa.array(np.array(cv, np.int64)),
                "turn_idx": pa.array(np.array(tn, np.int64)),
                "bigram": pa.array(bg, pa.string()),
                "is_a": pa.array(np.array(ia, np.int64)),
            }
        )

    def rep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "bigram", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(np.int64)
        bgr = g["bigram"].to_numpy()
        # first occurrence of (conv, bigram) is novel; later turns repeat it
        first = np.ones(len(g), bool)
        if len(g) > 1:
            first[1:] = ~((conv[1:] == conv[:-1]) & (bgr[1:] == bgr[:-1]))
        is_a = g["is_a"].to_numpy(np.int64).astype(bool)
        d = pd.DataFrame(
            {
                "conv_id": conv[is_a],
                "total": 1,
                "repeated": (~first[is_a]).astype(np.int64),
            }
        )
        if d.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64")
                 for c in ("conv_id", "total_bigrams", "repeated_bigrams",
                           "rep_ppm")}
            )
        agg = d.groupby("conv_id", as_index=False).agg(
            total_bigrams=("total", "sum"),
            repeated_bigrams=("repeated", "sum"),
        )
        agg["rep_ppm"] = (
            agg["repeated_bigrams"] * 1_000_000 // agg["total_bigrams"]
        )
        for c in agg.columns:
            agg[c] = agg[c].astype("int64")
        return agg

    out = (
        bucket_map_groups(
            ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", rep, N_BUCKETS,
        )
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


QUERIES["conv_self_repetition_documents"] = q_conv_self_repetition_documents


def _conv_self_repetition_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    tk AS (
      SELECT conv_id, turn_idx, role,
             regexp_extract_all(lower(coalesce(text, '')),
                                '{TOKEN_SQL_RE}') AS l
      FROM transcripts
    ),
    bg AS (
      SELECT DISTINCT conv_id, turn_idx, role,
             l[i] || ' ' || l[i + 1] AS bigram
      FROM tk, unnest(range(1, len(l))) AS t(i)
      WHERE len(l) >= 2
    ),
    firsts AS (
      SELECT conv_id, bigram, min(turn_idx) AS first_turn
      FROM bg GROUP BY conv_id, bigram
    ),
    marked AS (
      SELECT b.conv_id,
             CASE WHEN b.turn_idx > f.first_turn THEN 1 ELSE 0 END AS rep
      FROM bg b JOIN firsts f USING (conv_id, bigram)
      WHERE b.role = 'assistant'
    )
    SELECT conv_id, count(*)::BIGINT AS total_bigrams,
           sum(rep)::BIGINT AS repeated_bigrams,
           (sum(rep) * 1000000 // count(*))::BIGINT AS rep_ppm
    FROM marked GROUP BY conv_id ORDER BY conv_id
"""


ORACLE["conv_self_repetition_documents"] = _conv_self_repetition_oracle()


# --- conversation near-dup: 3-gram Jaccard at conversation granularity ----

CONV_JACCARD_TAU = 0.1


def q_conv_near_dedup_documents(sf_dir: str):
    """Conversation-level near-dup pairs: 3-gram Jaccard >= {tau} over the
    turn-ordered CONCATENATED conversation text (shingles span turn
    boundaries — two conversations that split the same content across
    different turn breaks still match).  conv_dedup catches byte-identical
    conversations; this is the near-miss screen a transcript pipeline runs
    before SFT sampling (document-side analog: ngram_jaccard_neardup;
    reference analog: SignatureUpdateProcessor's fuzzy TextProfile mode,
    `solr/core/src/java/org/apache/solr/update/processor/
    SignatureUpdateProcessorFactory.java`).

    Shape: ONE conv-bucket shuffle assembles per-conversation text
    (~1/{nb} of conversations per reduce task, vectorized join); the
    dedup module's shingle pass (`_shingle_pass`) turns each conversation
    into its sorted shingle list, and the exploded lists feed the same
    fully-distributed co-occurrence count as the doc-level op — pair
    multiplicity IS the intersection size, per-conv sizes are the list
    lengths (broadcast below DEDUP_BCAST_MAX_DOCS, hash-joined above it).
    Three shuffles; nothing corpus-sized reaches the driver."""
    from rindex.ops.dedup import (
        _explode, _jaccard_from_counts, _pair_counts, _shingle_pass,
    )

    ds = _conv_view(sf_dir)

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        joined = g.groupby("conv_id", sort=True)["text"].agg(
            lambda s: " ".join(x or "" for x in s)
        )
        return pd.DataFrame(
            {"conv_id": joined.index.to_numpy(np.int64),
             "text": joined.to_numpy()}
        )

    docs = _shingle_pass(
        bucket_map_groups(ds, "conv_id", assemble, N_BUCKETS),
        id_col="conv_id",
    )
    counts = _pair_counts(_explode(docs, "sh"), "sh")
    res = _jaccard_from_counts(counts, docs, CONV_JACCARD_TAU, "conv_ngram")
    res = res.rename(columns={"doc_a": "conv_a", "doc_b": "conv_b"})
    return res.sort_values(["conv_a", "conv_b"]).reset_index(drop=True)


q_conv_near_dedup_documents.__doc__ = q_conv_near_dedup_documents.__doc__.format(
    tau=CONV_JACCARD_TAU, nb="N_BUCKETS"
)

QUERIES["conv_near_dedup_documents"] = q_conv_near_dedup_documents
ORACLE["conv_near_dedup_documents"] = f"""
    WITH {T_CTE},
    cv AS (
      SELECT conv_id,
             string_agg(coalesce(text, ''), ' ' ORDER BY turn_idx) AS tx
      FROM transcripts GROUP BY conv_id
    ),
    sh AS (
      SELECT conv_id,
             list_distinct([array_to_string(toks[i:i+2], ' ')
                            FOR i IN range(1, len(toks) - 1)]) AS shingles
      FROM (SELECT conv_id,
                   regexp_extract_all(lower(tx), '[0-9a-z]+') AS toks
            FROM cv)
      WHERE len(toks) >= 3
    )
    SELECT a.conv_id AS conv_a, b.conv_id AS conv_b,
           round(len(list_intersect(a.shingles, b.shingles))::DOUBLE
                 / (len(a.shingles) + len(b.shingles)
                    - len(list_intersect(a.shingles, b.shingles))), 6)
             AS jaccard
    FROM sh a JOIN sh b ON a.conv_id < b.conv_id
    WHERE len(list_intersect(a.shingles, b.shingles))::DOUBLE
          / (len(a.shingles) + len(b.shingles)
             - len(list_intersect(a.shingles, b.shingles)))
          >= {CONV_JACCARD_TAU}
"""


# --- refusal / marker-lexicon audit ----------------------------------------

# PII regexes shared with textstats.q_pii_redact_documents (same derived
# contact-line corpus augmentation; kept literal here so the oracle SQL
# f-strings below stay self-contained).
_CONV_EMAIL_RE = r"[0-9a-z._%+-]+@[0-9a-z.-]+\.[a-z]{2,}"
_CONV_PHONE_RE = r"\+1-555-[0-9]{4}"

# Marker lexicon for the assistant-turn audit.  On a real corpus this is
# the refusal/deflection phrase list ("I cannot", "as an AI", ...); the
# driver's synthetic vocabulary has no such phrases, so the default
# markers are corpus words the flag actually splits on — the OPERATOR
# (substring-lexicon incidence rollup per source) is what is under test.
REFUSAL_MARKERS = ("slow", "dup")
_REFUSAL_RE = "(" + "|".join(REFUSAL_MARKERS) + ")"


def q_conv_refusal_audit_documents(sf_dir: str):
    """Refusal-style lexicon audit: fraction of ASSISTANT turns per source
    whose text contains a marker phrase — the rollup every RLHF/SFT
    curation pass runs to spot over-refusing sources (the reference analog
    is a terms-filter facet: facet counts over a query filter,
    `solr/core/src/java/org/apache/solr/request/SimpleFacets.java`).
    Vectorized: one re2 match per batch, per-batch (source, n, n_flag)
    partials, one tiny groupby (rows = n_sources)."""
    import pyarrow.compute as pc

    ds = _conv_view(sf_dir, columns=("doc_id", "text", "source"))

    def partial(t: pa.Table) -> pa.Table:
        m = pc.equal(t["role"], "assistant")
        sub = t.filter(m)
        flag = pc.match_substring_regex(
            pc.utf8_lower(pc.coalesce(sub["text"], pa.scalar(""))),
            _REFUSAL_RE,
        )
        df = pd.DataFrame(
            {
                "source": sub["source"].to_pandas(),
                "n_assistant": 1,
                "n_flagged": flag.to_pandas().astype(np.int64),
            }
        )
        out = df.groupby("source", as_index=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .sum(["n_assistant", "n_flagged"])
        .to_pandas()
        .rename(
            columns={
                "sum(n_assistant)": "n_assistant",
                "sum(n_flagged)": "n_flagged",
            }
        )
    )
    agg["flag_rate"] = agg["n_flagged"].to_numpy(np.float64) / agg[
        "n_assistant"
    ].to_numpy(np.float64)
    return agg.sort_values("source", kind="mergesort").reset_index(drop=True)


QUERIES["conv_refusal_audit_documents"] = q_conv_refusal_audit_documents
ORACLE["conv_refusal_audit_documents"] = f"""
    WITH {T_CTE},
    t2 AS (SELECT t.*, d.source FROM transcripts t
           JOIN documents d USING (doc_id))
    SELECT source,
           count(*)::BIGINT AS n_assistant,
           sum(CASE WHEN regexp_matches(lower(coalesce(text, '')),
                                        '{_REFUSAL_RE}')
                    THEN 1 ELSE 0 END)::BIGINT AS n_flagged,
           sum(CASE WHEN regexp_matches(lower(coalesce(text, '')),
                                        '{_REFUSAL_RE}')
                    THEN 1 ELSE 0 END)::DOUBLE / count(*) AS flag_rate
    FROM t2 WHERE role = 'assistant'
    GROUP BY source ORDER BY source
"""


# --- cross-conversation turn-level exact dedup -----------------------------


def q_conv_turn_dedup_documents(sf_dir: str):
    """Turn-granularity exact dedup ACROSS conversations: a turn survives
    iff its doc_id is the global minimum for md5(lower(text)) — the
    SignatureUpdateProcessor dedup key applied per turn instead of per
    conversation (conv_dedup_documents).  Output: per KEEPER conversation,
    how many of the corpus' distinct turn texts it contributed (n_kept)
    and how many of its own {TURNS} turns were shadowed elsewhere
    (n_dropped).  Shape: one signature shuffle (groupby sig -> min), then
    one tiny conv rollup — no text leaves the first stage, signatures
    only."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def sigs(t: pa.Table) -> pa.Table:
        s = [
            hashlib.md5((x or "").lower().encode()).hexdigest()
            for x in t["text"].to_pylist()
        ]
        return pa.table({"sig": pa.array(s, pa.string()), "doc_id": t["doc_id"]})

    keepers = (
        ds.map_batches(sigs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("sig")
        .min("doc_id")
    )

    def conv_rollup(t: pa.Table) -> pa.Table:
        m = t["min(doc_id)"].to_numpy()
        conv = m // TURNS_PER_CONV
        u, c = np.unique(conv, return_counts=True)
        return pa.table(
            {"conv_id": pa.array(u, pa.int64()), "n_kept": pa.array(c, pa.int64())}
        )

    agg = (
        keepers.map_batches(conv_rollup, batch_format="pyarrow")
        .groupby("conv_id")
        .sum("n_kept")
        .to_pandas()
        .rename(columns={"sum(n_kept)": "n_kept"})
    )
    agg["n_dropped"] = TURNS_PER_CONV - agg["n_kept"]
    return agg


QUERIES["conv_turn_dedup_documents"] = q_conv_turn_dedup_documents
ORACLE["conv_turn_dedup_documents"] = f"""
    WITH {T_CTE},
    k AS (
      SELECT min(doc_id) AS m FROM transcripts
      GROUP BY md5(lower(coalesce(text, '')))
    )
    SELECT m // {TURNS_PER_CONV} AS conv_id,
           count(*)::BIGINT AS n_kept,
           {TURNS_PER_CONV} - count(*)::BIGINT AS n_dropped
    FROM k GROUP BY m // {TURNS_PER_CONV}
"""


# --- opening-prompt template clustering ------------------------------------

PREFIX_LEN = 32
PREFIX_TOP = 50


def q_conv_prefix_cluster_documents(sf_dir: str):
    """Opening-prompt template clustering: conversations bucketed by the
    first {PL} chars of their turn-0 user prompt (lowercased) — the
    prompt-template reuse report a training-data curator uses to spot
    boilerplate-seeded conversations.  Top-{TOP} clusters by size.
    Shape: the turn-0 filter drops 4/5 of the corpus inside the scan, the
    prefix groupby carries (prefix, count, min) partials only, and top-k
    happens on the (already tiny) cluster table."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def prefixes(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sub = t.filter(pa.array(ids % TURNS_PER_CONV == 0))
        pfx = pc.utf8_slice_codeunits(
            pc.utf8_lower(pc.coalesce(sub["text"], pa.scalar(""))),
            0,
            PREFIX_LEN,
        )
        conv = sub["doc_id"].to_numpy() // TURNS_PER_CONV
        return pa.table(
            {"prefix": pfx, "conv_id": pa.array(conv, pa.int64())}
        )

    clusters = (
        ds.map_batches(prefixes, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("prefix")
        .aggregate(Count(), Min("conv_id"))
        .to_pandas()
        .rename(
            columns={"count()": "n_convs", "min(conv_id)": "rep_conv"}
        )
    )
    clusters = clusters.sort_values(
        ["n_convs", "prefix"], ascending=[False, True], kind="mergesort"
    ).head(PREFIX_TOP)
    return clusters[["prefix", "n_convs", "rep_conv"]].reset_index(drop=True)


QUERIES["conv_prefix_cluster_documents"] = q_conv_prefix_cluster_documents
ORACLE["conv_prefix_cluster_documents"] = f"""
    WITH {T_CTE}
    SELECT substr(lower(coalesce(text, '')), 1, {PREFIX_LEN}) AS prefix,
           count(*)::BIGINT AS n_convs,
           min(conv_id) AS rep_conv
    FROM transcripts WHERE turn_idx = 0
    GROUP BY 1 ORDER BY n_convs DESC, prefix ASC LIMIT {PREFIX_TOP}
"""


# --- per-conversation PII incidence ----------------------------------------

PII_TURN_MOD = 13  # turns with doc_id % 13 == 0 carry the derived contact line


def _strip_sum_names(t: pa.Table) -> pa.Table:
    """Rename Ray's sum(col) aggregate outputs back to col (by NAME, not
    position)."""
    return t.rename_columns(
        [n[4:-1] if n.startswith("sum(") and n.endswith(")") else n
         for n in t.schema.names]
    )


def q_conv_pii_incidence_documents(sf_dir: str):
    """Per-conversation PII incidence: which conversations contain turns
    with an email/phone hit and how many — the quarantine-granularity
    report that decides whether to scrub a turn or drop the whole
    conversation.  The driver corpus has no PII, so (like
    pii_redact_documents) a contact line is derived deterministically —
    but only on turns with doc_id % {MOD} == 0, so incidence VARIES per
    conversation.  Vectorized re2 count per batch; additive (conv_id,
    n_pii_turns, n_email) partials; one int-keyed groupby."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sub = t.filter(pa.array(ids % PII_TURN_MOD == 0))
        ids_np = sub["doc_id"].to_numpy()
        if not len(ids_np):  # np.char kernels reject empty int arrays
            return pa.table(
                {
                    "conv_id": pa.array([], pa.int64()),
                    "n_pii_turns": pa.array([], pa.int64()),
                    "n_email": pa.array([], pa.int64()),
                    "n_phone": pa.array([], pa.int64()),
                }
            )
        m100 = pa.array(np.char.mod("%d", ids_np % 100))
        m4 = pa.array(np.char.zfill(np.char.mod("%d", ids_np % 10000), 4))
        aug = pc.binary_join_element_wise(
            pc.coalesce(sub["text"], pa.scalar("")), m100, " contact user"
        )
        aug = pc.binary_join_element_wise(
            aug, m4, "@example.com or call +1-555-"
        )
        n_email = pc.count_substring_regex(aug, _CONV_EMAIL_RE).to_numpy()
        n_phone = pc.count_substring_regex(aug, _CONV_PHONE_RE).to_numpy()
        conv = ids_np // TURNS_PER_CONV
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.int64()),
                "n_pii_turns": pa.array(
                    ((n_email + n_phone) > 0).astype(np.int64)
                ),
                "n_email": pa.array(n_email.astype(np.int64)),
                "n_phone": pa.array(n_phone.astype(np.int64)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("conv_id")
        .sum(["n_pii_turns", "n_email", "n_phone"])
        .map_batches(_strip_sum_names, batch_format="pyarrow")
    )


QUERIES["conv_pii_incidence_documents"] = q_conv_pii_incidence_documents
ORACLE["conv_pii_incidence_documents"] = f"""
    WITH {T_CTE},
    aug AS (
      SELECT conv_id,
             coalesce(text, '') || ' contact user' || (doc_id % 100)::VARCHAR
               || '@example.com or call +1-555-'
               || lpad((doc_id % 10000)::VARCHAR, 4, '0') AS t
      FROM transcripts WHERE doc_id % {PII_TURN_MOD} = 0
    ),
    per_turn AS (
      SELECT conv_id,
             len(regexp_extract_all(t, '{_CONV_EMAIL_RE}'))::BIGINT AS ne,
             len(regexp_extract_all(t, '{_CONV_PHONE_RE}'))::BIGINT AS np
      FROM aug
    )
    SELECT conv_id,
           sum(CASE WHEN ne + np > 0 THEN 1 ELSE 0 END)::BIGINT
             AS n_pii_turns,
           sum(ne)::BIGINT AS n_email,
           sum(np)::BIGINT AS n_phone
    FROM per_turn GROUP BY conv_id
"""


# --- tool-error recovery ----------------------------------------------------

TOOL_ERR_MOD = 11  # tool turns with doc_id % 11 == 0 are derived failures


def q_conv_tool_recovery_documents(sf_dir: str):
    """Agent tool-error recovery audit: a tool turn FAILS iff
    doc_id % {MOD} == 0 (deterministic derivation, both sides); a failure
    is RECOVERED iff a LATER tool turn in the same conversation succeeded.
    Output per conversation with >= 1 failure: tool-turn/failure/recovery
    counts — the trajectory-quality gate an agent-data pipeline applies
    before keeping a transcript for training.  Shape: the tool filter
    drops ~5/7 of turns in-scan; one conv-bucket shuffle; per-group
    vectorized suffix-max (no Python pair loops)."""
    ds = _conv_view(sf_dir)

    def rec(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"].ne("")].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort"
        )
        if not len(g):
            return pd.DataFrame(
                {
                    "conv_id": pd.array([], dtype=np.int64),
                    "n_tool": pd.array([], dtype=np.int64),
                    "n_err": pd.array([], dtype=np.int64),
                    "n_recovered": pd.array([], dtype=np.int64),
                }
            )
        conv = g["conv_id"].to_numpy(np.int64)
        err = (g["doc_id"].to_numpy() % TOOL_ERR_MOD == 0)
        ok = ~err
        # suffix "any later ok in same conv": reversed cumulative OR of ok,
        # reset at conv boundaries (convs are contiguous after the sort)
        n = len(conv)
        later_ok = np.zeros(n, bool)
        run_any = False
        # vectorized per-conv suffix scan via group boundaries
        bounds = np.flatnonzero(np.diff(conv) != 0) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        for s, e in zip(starts, ends):  # per-CONVERSATION, not per-turn
            seg = ok[s:e]
            later_ok[s:e] = np.concatenate(
                (np.cumsum(seg[::-1])[::-1][1:] > 0, [False])
            )
        df = pd.DataFrame(
            {
                "conv_id": conv,
                "n_tool": 1,
                "n_err": err.astype(np.int64),
                "n_recovered": (err & later_ok).astype(np.int64),
            }
        )
        out = df.groupby("conv_id", as_index=False).sum()
        return out[out["n_err"] > 0]

    return bucket_map_groups(ds, "conv_id", rec, N_BUCKETS)


QUERIES["conv_tool_recovery_documents"] = q_conv_tool_recovery_documents
ORACLE["conv_tool_recovery_documents"] = f"""
    WITH {T_CTE},
    tt AS (
      SELECT conv_id, turn_idx,
             (doc_id % {TOOL_ERR_MOD} = 0) AS is_err
      FROM transcripts WHERE tool <> ''
    ),
    flags AS (
      SELECT a.conv_id, a.turn_idx, a.is_err,
             EXISTS (SELECT 1 FROM tt b
                     WHERE b.conv_id = a.conv_id
                       AND b.turn_idx > a.turn_idx
                       AND NOT b.is_err) AS later_ok
      FROM tt a
    )
    SELECT conv_id,
           count(*)::BIGINT AS n_tool,
           sum(CASE WHEN is_err THEN 1 ELSE 0 END)::BIGINT AS n_err,
           sum(CASE WHEN is_err AND later_ok THEN 1 ELSE 0 END)::BIGINT
             AS n_recovered
    FROM flags GROUP BY conv_id
    HAVING sum(CASE WHEN is_err THEN 1 ELSE 0 END) > 0
"""


# --- incremental dedup: new batch vs existing corpus -----------------------

INC_SPLIT_FRAC = 5  # doc_id % 5 != 4 -> existing corpus; == 4 -> new batch


def q_conv_incremental_dedup_documents(sf_dir: str):
    """Incremental ingestion dedup: the NEW batch (every 5th turn, a
    deterministic split) checks its turn signatures against the EXISTING
    corpus' signature set AND earlier rows of the batch itself — the
    SignatureUpdateProcessor shape a production pipeline runs on every
    increment (signatures of the base corpus live in the index; only the
    delta is hashed fresh).  Per-source novel/duplicate counts for the
    batch.  Shape: signatures computed in-scan for both sides, ONE
    sig-keyed groupby decides novelty (min doc_id wins — identical to
    the global dedup contract restricted to the batch rows), then a tiny
    source rollup."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])

    def sigs(t: pa.Table) -> pa.Table:
        s = [
            hashlib.md5((x or "").lower().encode()).hexdigest()
            for x in t["text"].to_pylist()
        ]
        return pa.table(
            {
                "sig": pa.array(s, pa.string()),
                "doc_id": t["doc_id"],
                "source": t["source"],
            }
        )

    sig_ds = ds.map_batches(sigs, batch_format="pyarrow", zero_copy_batch=True)

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        ids = g["doc_id"].to_numpy()
        is_new = ids % TURNS_PER_CONV == INC_SPLIT_FRAC - 1
        has_existing = bool((~is_new).any())
        # batch rows: novel iff no existing row shares the sig AND this is
        # the first batch row for the sig
        first_new = np.zeros(len(g), bool)
        nz = np.flatnonzero(is_new)
        if len(nz):
            first_new[nz[0]] = True
        novel = is_new & first_new & (not has_existing)
        out = pd.DataFrame(
            {
                "source": g["source"].to_numpy()[is_new],
                "novel": novel[is_new].astype(np.int64),
                "dup": (~novel[is_new]).astype(np.int64),
            }
        )
        return out

    per_sig = sig_ds.groupby("sig").map_groups(decide, batch_format="pandas")
    agg = (
        per_sig.groupby("source")
        .sum(["novel", "dup"])
        .to_pandas()
        .rename(columns={"sum(novel)": "n_novel", "sum(dup)": "n_dup"})
        .sort_values("source", kind="mergesort")
        .reset_index(drop=True)
    )
    return agg.astype({"n_novel": "int64", "n_dup": "int64"})


QUERIES["conv_incremental_dedup_documents"] = q_conv_incremental_dedup_documents
ORACLE["conv_incremental_dedup_documents"] = f"""
    WITH sigs AS (
      SELECT doc_id, source,
             md5(lower(coalesce(text, ''))) AS sig,
             doc_id % {TURNS_PER_CONV} = {INC_SPLIT_FRAC - 1} AS is_new
      FROM documents
    ),
    batch AS (
      SELECT b.doc_id, b.source, b.sig,
             CASE WHEN EXISTS (SELECT 1 FROM sigs e
                               WHERE NOT e.is_new AND e.sig = b.sig)
                  THEN 0
                  WHEN b.doc_id = (SELECT min(doc_id) FROM sigs x
                                   WHERE x.is_new AND x.sig = b.sig)
                  THEN 1 ELSE 0 END AS novel
      FROM sigs b WHERE b.is_new
    )
    SELECT source, sum(novel)::BIGINT AS n_novel,
           sum(1 - novel)::BIGINT AS n_dup
    FROM batch GROUP BY source ORDER BY source
"""


# --- conversation retrieval, average pooling (ScoreMode.Avg) ---------------


def q_conv_search_avgpool_documents(sf_dir: str):
    """Conversation retrieval with AVERAGE pooling over matching turns
    (AvgP — the other pooling Dai & Callan 2019 compare; block-join
    analog `ToParentBlockJoinQuery` ScoreMode.Avg): parent score = mean
    BM25 of its MATCHING turns.  Same streaming skeleton as the MaxP op,
    but the pool partial is (sum, n) — still additive, still one
    conv-bucket combine; the mean materializes only at ranking."""
    from rindex.ops.fulltext import documents_index
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    pooled_parts = []
    for qid, text in CONV_QUERIES:
        ds = searcher.score_matches_dataset(text, mode="or")

        def pool(df: pd.DataFrame, _qid=qid) -> pd.DataFrame:
            conv = df["doc_id"].to_numpy(np.int64) // TURNS_PER_CONV
            out = (
                pd.DataFrame({"conv_id": conv, "s": df["score"].to_numpy()})
                .groupby("conv_id", as_index=False)["s"]
                .agg(ssum="sum", n="count")
            )
            out.insert(0, "query_id", _qid)
            return out

        pooled_parts.append(ds.map_batches(pool, batch_format="pandas"))

    pooled = pooled_parts[0].union(*pooled_parts[1:])

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["query_id", "conv_id"], as_index=False)[
            ["ssum", "n"]
        ].sum()
        out["s"] = out["ssum"] / out["n"]
        out = (
            out.sort_values(["query_id", "s", "conv_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False)
            .head(CONV_TOP_K)
        )
        return out[["query_id", "conv_id", "ssum", "n", "s"]]

    allq = bucket_map_groups(pooled, "conv_id", combine, N_BUCKETS).to_pandas()
    # re-combine across buckets (a conv lives in ONE bucket, so this only
    # merges the per-bucket top-k lists), then final rank
    allq["s"] = allq["ssum"] / allq["n"]
    allq = allq.sort_values(
        ["query_id", "s", "conv_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    allq = allq.groupby("query_id", sort=False).head(CONV_TOP_K)
    allq["rank"] = (
        allq.groupby("query_id", sort=False).cumcount().astype(np.int32)
    )
    allq["score"] = allq["s"].round(6)
    allq["n_matching_turns"] = allq["n"].astype(np.int64)
    return allq[
        ["query_id", "rank", "conv_id", "n_matching_turns", "score"]
    ].reset_index(drop=True)


def _conv_search_avg_oracle_sql() -> str:
    base = _conv_search_oracle_sql()
    # reuse the MaxP oracle's CTE chain up to `scores`, swap the pooling
    head, _, _tail = base.partition("    pooled AS (")
    return head + f"""    pooled AS (
      SELECT query_id, doc_id // {TURNS_PER_CONV} AS conv_id,
             sum(s) / count(*) AS s, count(*)::BIGINT AS n
      FROM scores GROUP BY 1, 2
    ),
    ranked AS (
      SELECT query_id, conv_id, n, s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY s DESC, conv_id ASC) - 1)::INTEGER
               AS rank
      FROM pooled
    )
    SELECT query_id, rank, conv_id, n AS n_matching_turns,
           round(s, 6) AS score
    FROM ranked WHERE rank < {CONV_TOP_K}
    """


QUERIES["conv_search_avgpool_documents"] = q_conv_search_avgpool_documents
ORACLE["conv_search_avgpool_documents"] = _conv_search_avg_oracle_sql()


# --- LLM-judge agreement (Cohen's kappa) -----------------------------------


def q_conv_judge_agreement_documents(sf_dir: str):
    """LLM-judge calibration: Cohen's kappa between two derived raters
    over assistant turns (rater A: n_chars >= 190; rater B:
    doc_id % 3 != 0 — deterministic proxies for two judge models scoring
    'acceptable') — the inter-rater agreement audit every judge-filtered
    training pipeline runs before trusting a single model's labels.
    Confusion cells reduce distributed (additive partials); kappa =
    (po - pe) / (1 - pe) derives on the driver with the mirrored
    arithmetic."""
    ds = _conv_view(sf_dir, columns=("doc_id", "text", "n_chars"))

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sub = t.filter(pc.equal(t["role"], "assistant"))
        ids = sub["doc_id"].to_numpy()
        a = sub["n_chars"].to_numpy() >= 190
        b = ids % 3 != 0
        return pa.table(
            {
                "n11": [int((a & b).sum())],
                "n10": [int((a & ~b).sum())],
                "n01": [int((~a & b).sum())],
                "n00": [int((~a & ~b).sum())],
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n11, n10, n01, n00 = (
        float(p["n11"]), float(p["n10"]), float(p["n01"]), float(p["n00"])
    )
    n = n11 + n10 + n01 + n00
    po = (n11 + n00) / n
    pe = ((n11 + n10) / n) * ((n11 + n01) / n) \
        + ((n01 + n00) / n) * ((n10 + n00) / n)
    return pd.DataFrame(
        {
            "n_turns": [int(n)],
            "n11": [int(n11)], "n10": [int(n10)],
            "n01": [int(n01)], "n00": [int(n00)],
            "po": [round(po, 6)],
            "pe": [round(pe, 6)],
            "kappa": [round((po - pe) / (1.0 - pe), 6)],
        }
    )


QUERIES["conv_judge_agreement_documents"] = q_conv_judge_agreement_documents
ORACLE["conv_judge_agreement_documents"] = f"""
    WITH {T_CTE},
    t2 AS (SELECT t.doc_id, d.n_chars FROM transcripts t
           JOIN documents d USING (doc_id) WHERE t.role = 'assistant'),
    c AS (
      SELECT
        sum(CASE WHEN n_chars >= 190 AND doc_id % 3 != 0
                 THEN 1 ELSE 0 END)::BIGINT AS n11,
        sum(CASE WHEN n_chars >= 190 AND doc_id % 3 = 0
                 THEN 1 ELSE 0 END)::BIGINT AS n10,
        sum(CASE WHEN n_chars < 190 AND doc_id % 3 != 0
                 THEN 1 ELSE 0 END)::BIGINT AS n01,
        sum(CASE WHEN n_chars < 190 AND doc_id % 3 = 0
                 THEN 1 ELSE 0 END)::BIGINT AS n00
      FROM t2
    ),
    k AS (
      SELECT *,
             (n11 + n10 + n01 + n00)::DOUBLE AS n,
             (n11 + n00)::DOUBLE / (n11 + n10 + n01 + n00) AS po,
             ((n11 + n10)::DOUBLE / (n11 + n10 + n01 + n00))
               * ((n11 + n01)::DOUBLE / (n11 + n10 + n01 + n00))
             + ((n01 + n00)::DOUBLE / (n11 + n10 + n01 + n00))
               * ((n10 + n00)::DOUBLE / (n11 + n10 + n01 + n00)) AS pe
      FROM c
    )
    SELECT n::BIGINT AS n_turns, n11, n10, n01, n00,
           round(po, 6) AS po, round(pe, 6) AS pe,
           round((po - pe) / (1.0 - pe), 6) AS kappa
    FROM k
"""


# --- rejection sampling (best-of-n over a shared opening prompt) -----------

RS_PREFIX_LEN = 24  # opening-prompt template key (chars, lowercased)
RS_TOP = 40         # report the largest candidate pools


def q_conv_rejection_sampling_documents(sf_dir: str):
    """Best-of-n rejection sampling over prompt-template pools: group
    conversations by their opening-prompt prefix (the same template key
    family as conv_prefix_cluster), score each candidate by its TOTAL
    assistant distinct-token richness (the conv_dpo_pairs reward proxy
    summed over turns), keep the pool's best (ties -> min conv_id) — the
    deterministic skeleton of best-of-n sampling for SFT data (one kept
    completion per prompt).  Top-{RS_TOP} pools by candidate count.

    Shape: ONE scan emits (conv, prefix-or-null, turn reward) rows; one
    conv-bucket shuffle reduces to the per-conversation (prefix, reward)
    table (corpus/5 rows); the pool groupby + argmax runs on that already
    small table.  Rows out = {RS_TOP}."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        role = t["role"].to_numpy(zero_copy_only=False)
        ti = t["turn_idx"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        is_a = role == "assistant"
        reward = np.fromiter(
            (len(set(az.tokens(x or ""))) if a else 0
             for a, x in zip(is_a, texts)),
            np.int64, len(t),
        )
        pfx = [
            (x or "").lower()[:RS_PREFIX_LEN] if i == 0 else None
            for i, x in zip(ti, texts)
        ]
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.int64()),
                "prefix": pa.array(pfx, pa.string()),
                "reward": pa.array(reward),
            }
        )

    def per_conv(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("conv_id", sort=True).agg(
            prefix=("prefix", "first"),  # non-null sorts first? NO — use max
            reward=("reward", "sum"),
        )
        # 'first' may hit a null row; the prefix is the unique non-null
        pref = g.dropna(subset=["prefix"]).groupby("conv_id", sort=True)[
            "prefix"
        ].first()
        agg["prefix"] = pref.reindex(agg.index)
        agg = agg.dropna(subset=["prefix"])
        return agg.reset_index()[["conv_id", "prefix", "reward"]]

    convs = (
        bucket_map_groups(
            ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", per_conv, N_BUCKETS,
        )
    ).to_pandas()
    pools = (
        convs.sort_values(["prefix", "reward", "conv_id"],
                          ascending=[True, False, True], kind="mergesort")
        .groupby("prefix", as_index=False)
        .agg(
            n_candidates=("conv_id", "size"),
            best_conv=("conv_id", "first"),
            best_reward=("reward", "first"),
        )
    )
    out = (
        pools.sort_values(["n_candidates", "prefix"],
                          ascending=[False, True], kind="mergesort")
        .head(RS_TOP)
        .reset_index(drop=True)
    )
    out["n_candidates"] = out["n_candidates"].astype("int64")
    out["best_conv"] = out["best_conv"].astype("int64")
    out["best_reward"] = out["best_reward"].astype("int64")
    return out[["prefix", "n_candidates", "best_conv", "best_reward"]]


def _conv_rejection_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    rewards AS (
      SELECT conv_id,
             sum(len(list_distinct(regexp_extract_all(
                 lower(coalesce(text, '')), '{TOKEN_SQL_RE}'))))::BIGINT
               AS reward
      FROM transcripts WHERE role = 'assistant' GROUP BY conv_id
    ),
    pfx AS (
      SELECT conv_id,
             substr(lower(coalesce(text, '')), 1, {RS_PREFIX_LEN}) AS prefix
      FROM transcripts WHERE turn_idx = 0
    ),
    cand AS (
      SELECT p.prefix, p.conv_id, coalesce(r.reward, 0) AS reward
      FROM pfx p LEFT JOIN rewards r USING (conv_id)
    ),
    best AS (
      SELECT prefix, conv_id, reward,
             count(*) OVER (PARTITION BY prefix)::BIGINT AS n_candidates,
             row_number() OVER (PARTITION BY prefix
                                ORDER BY reward DESC, conv_id ASC) AS rn
      FROM cand
    )
    SELECT prefix, n_candidates, conv_id::BIGINT AS best_conv,
           reward::BIGINT AS best_reward
    FROM best WHERE rn = 1
    ORDER BY n_candidates DESC, prefix ASC LIMIT {RS_TOP}
"""


QUERIES["conv_rejection_sampling_documents"] = (
    q_conv_rejection_sampling_documents
)
ORACLE["conv_rejection_sampling_documents"] = _conv_rejection_oracle()


# --- SFT pair mining: adjacent (user -> assistant) turn pairs --------------

SFT_MIN_Q = 5   # min user-turn tokens for a usable pair
SFT_MIN_A = 5   # min assistant-turn tokens


def q_conv_sft_pairs_documents(sf_dir: str):
    """SFT pair mining: every adjacent (user turn i, assistant turn i+1)
    pair with both sides >= a minimum token count — the basic
    instruction-tuning extraction over multi-turn transcripts (each pair
    becomes one training example; the conversation-atomic packing op is
    the downstream consumer).  Output: one row per kept pair with both
    token counts.

    Shape: per-batch token-count partial, ONE conv-bucket shuffle, per-
    bucket vectorized shift-join (sort by (conv, turn), compare row i to
    row i+1).  Rows out = kept pairs."""
    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        t = _derive(t)
        az = get_analyzer("standard")
        n = np.fromiter(
            (len(az.tokens(x or "")) for x in t["text"].to_pylist()),
            np.int64, len(t),
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.int64()),
                "turn_idx": t["turn_idx"],
                "role": t["role"],
                "n_tok": pa.array(n),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"],
                          kind="mergesort").reset_index(drop=True)
        nxt = g.shift(-1)
        ok = (
            (g["conv_id"] == nxt["conv_id"])
            & (g["turn_idx"] + 1 == nxt["turn_idx"])
            & (g["role"] == "user")
            & (nxt["role"] == "assistant")
            & (g["n_tok"] >= SFT_MIN_Q)
            & (nxt["n_tok"] >= SFT_MIN_A)
        )
        out = pd.DataFrame(
            {
                "conv_id": g.loc[ok, "conv_id"].astype("int64"),
                "q_turn": g.loc[ok, "turn_idx"].astype("int64"),
                "q_tokens": g.loc[ok, "n_tok"].astype("int64"),
                "a_tokens": nxt.loc[ok, "n_tok"].astype("int64"),
            }
        )
        return out

    out = (
        bucket_map_groups(
            ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
            "conv_id", pairs, N_BUCKETS,
        )
        .to_pandas()
    )
    return out.sort_values(["conv_id", "q_turn"]).reset_index(drop=True)


def _conv_sft_oracle() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH {T_CTE},
    toks AS (
      SELECT conv_id, turn_idx, role,
             len(regexp_extract_all(lower(coalesce(text, '')),
                 '{TOKEN_SQL_RE}'))::BIGINT AS n_tok
      FROM transcripts
    )
    SELECT q.conv_id, q.turn_idx::BIGINT AS q_turn,
           q.n_tok AS q_tokens, a.n_tok AS a_tokens
    FROM toks q JOIN toks a
      ON a.conv_id = q.conv_id AND a.turn_idx = q.turn_idx + 1
    WHERE q.role = 'user' AND a.role = 'assistant'
      AND q.n_tok >= {SFT_MIN_Q} AND a.n_tok >= {SFT_MIN_A}
    ORDER BY q.conv_id, q_turn
"""


QUERIES["conv_sft_pairs_documents"] = q_conv_sft_pairs_documents
ORACLE["conv_sft_pairs_documents"] = _conv_sft_oracle()
