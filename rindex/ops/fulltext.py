"""Full-text ops over the driver `documents` table, served by the rindex
engine itself (index built once per sf_dir into /tmp, cached by fingerprint).

The BM25 oracle SQL reproduces the engine's scoring contract — including the
SmallFloat-lossy norm — in pure SQL: the 256 decodable norm lengths are
inlined as a VALUES list and dl is floored onto them, exactly what
`int_to_byte4` does (rindex/codec.py; reference `lucene/core/src/java/org/
apache/lucene/util/SmallFloat.java`).  The SQL tokenizer regex is
analyzer-identical including word-internal apostrophes (TOKEN_SQL_RE
below); only >255-char token splitting remains SQL-inexpressible.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rindex.codec import NORM_DECODE_TABLE
from rindex.schema import B, K1, join_partitions

QUERIES: dict = {}
ORACLE: dict = {}

# token pattern shared by engine analyzer and SQL oracle — the ANALYZER's
# pattern (word-internal apostrophes kept; '' is the SQL-literal escape for
# one apostrophe).  The only remaining documented divergence is >255-char
# token splitting, which SQL cannot express (none in the driver corpora).
TOKEN_SQL_RE = "[0-9a-z]+(?:''[0-9a-z]+)*"
# Python-side twin: in SQL string literals '' escapes one apostrophe, in a
# Python regex it would demand TWO literal quote chars — derive, don't retype.
TOKEN_PY_RE = TOKEN_SQL_RE.replace("''", "'")

# fixed reference query set over the documents vocabulary
DOC_QUERIES: list[tuple[str, str, str]] = [
    ("q00", "term", "spark"),
    ("q01", "term", "join"),
    ("q02", "term", "window"),
    ("q03", "or", "hash join"),
    ("q04", "or", "sort merge spill"),
    ("q05", "and", "filter scan"),
    ("q06", "and", "group agg"),
    ("q07", "or", "query query plan"),  # duplicate clause
]
TOP_K = 10


def _index_dir_for(sf_dir: str) -> str:
    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    return os.path.join("/tmp", "rindex_cache", f"documents-{key}")


def documents_index(sf_dir: str) -> str:
    """Build (or reuse via checkpoint lineage) the documents index."""
    from rindex.build import build_index

    idx = _index_dir_for(sf_dir)
    build_index(
        os.path.join(sf_dir, "documents.parquet"),
        idx,
        num_segments=8,
        mode="local",
        id_cols=("doc_id",),
        text_col="text",
        keep_cols=("lang", "source"),
        input_files=[os.path.join(sf_dir, "documents.parquet")],
    )
    return idx


def q_bm25_topk_documents(sf_dir: str):
    """Flagship: BM25 (k1=1.2, b=0.75, lossy norms) top-k over documents for
    the fixed query set; rank-identical + score-identical (rounded to 6dp)
    to the SQL oracle."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in DOC_QUERIES]),
            "qtype": pa.array([q[1] for q in DOC_QUERIES]),
            "text": pa.array([q[2] for q in DOC_QUERIES]),
            "k": pa.array([TOP_K] * len(DOC_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl)
    return out.set_column(
        out.schema.get_field_index("score"), "score", pc.round(out["score"], 6)
    )


def norm_vals_sql() -> str:
    """SQL literal list of the decodable lossy norm lengths — ONE builder
    for every oracle that inlines the norm table (fulltext, dismax,
    livedocs); a norm-encoding change edits exactly one place."""
    return ",".join(str(int(v)) for v in sorted(set(NORM_DECODE_TABLE.tolist())))


def _bm25_ctes() -> str:
    """Shared oracle CTEs: tokenization, tf, lossy dl, df, stats — reused by
    the BM25 / rerank / MoreLikeThis oracles."""
    norm_vals = norm_vals_sql()
    return f"""
    toks AS (
      SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
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
    df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1)
    """


def _bm25_oracle_sql() -> str:
    norm_vals = norm_vals_sql()
    q_rows = []
    for qid, qtype, text in DOC_QUERIES:
        terms = text.split()
        for t in terms:
            q_rows.append(f"('{qid}', '{t}', {len(set(terms))}, '{qtype}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH toks AS (
      SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}')) AS term
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
    q(query_id, term, n_required, qtype) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s,
             count(DISTINCT tf.term) AS n_matched,
             max(q.n_required) AS n_required,
             max(q.qtype) AS qtype
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY s DESC, doc_id ASC) - 1)::INTEGER AS rank
      FROM scores
      WHERE qtype <> 'and' OR n_matched = n_required
    )
    SELECT query_id, rank, doc_id, round(s, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["bm25_topk_documents"] = q_bm25_topk_documents
ORACLE["bm25_topk_documents"] = _bm25_oracle_sql()


# --- pluggable Similarity: ClassicSimilarity top-k (Similarity SPI —
# lucene/core/.../search/similarities/{Similarity,ClassicSimilarity}.java;
# the same engine kernels with the plugged scoring fn, WAND bounds included)

CLASSIC_QUERIES: list[tuple[str, str, str]] = [
    ("c00", "term", "spark"),
    ("c01", "or", "hash join"),
    ("c02", "and", "filter scan"),
]


def q_classic_sim_topk_documents(sf_dir: str):
    """Top-k with ClassicSimilarity (sqrt(tf) * (1+ln(N/(df+1)))^2 /
    sqrt(lossy dl)) through the SAME WAND/exhaustive kernels — the
    similarity is a plugged strategy, and the block-max upper bounds are
    recomputed from it."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="classic")
    slack = 16  # see ranking note below
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in CLASSIC_QUERIES]),
            "qtype": pa.array([q[1] for q in CLASSIC_QUERIES]),
            "text": pa.array([q[2] for q in CLASSIC_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(CLASSIC_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    # Rank on the ROUNDED score (the op's output contract), doc asc:
    # Classic's sqrt(tf)/sqrt(dl) form produces genuine cross-doc ratio
    # ties (sqrt(6/84) == sqrt(1/14)) whose unrounded float ordering is
    # ulp-noise that numpy and the SQL engine resolve differently — BM25's
    # tf/(tf+c) form cannot tie across distinct (tf, dl), so only this op
    # needs the rounded-rank discipline.  The slack rows absorb boundary
    # re-ordering before the cut.
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _classic_oracle_sql() -> str:
    q_rows = []
    for qid, qtype, text in CLASSIC_QUERIES:
        terms = text.split()
        for t in terms:
            q_rows.append(f"('{qid}', '{t}', {len(set(terms))}, '{qtype}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term, n_required, qtype) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(sqrt(tf) * ((1.0 + ln(n_docs / (df + 1.0)))
                             * (1.0 + ln(n_docs / (df + 1.0))))
                 / sqrt(greatest(ldl, 1.0))) AS s,
             count(DISTINCT tf.term) AS n_matched,
             max(q.n_required) AS n_required,
             max(q.qtype) AS qtype
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
      WHERE qtype <> 'and' OR n_matched = n_required
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["classic_sim_topk_documents"] = q_classic_sim_topk_documents
ORACLE["classic_sim_topk_documents"] = _classic_oracle_sql()


def q_expression_sim_topk_documents(sf_dir: str):
    """Top-k under a similarity COMPILED FROM EXPRESSION STRINGS (the
    Lucene expressions module's scoring use case, served by our evaluator
    engine instead of a JS compiler): the SMART lnc log-tf scheme
    w=ln(1+N/(df+1)), score = w*(1+ln(tf))/sqrt(lossy dl) — registered as
    'expr_logtf' in SIMILARITIES and run through the SAME WAND/exhaustive
    kernels with per-expression recomputed block bounds.  Same
    rounded-rank slack discipline as ClassicSimilarity (ratio forms tie
    across docs)."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="expr_logtf")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in CLASSIC_QUERIES]),
            "qtype": pa.array([q[1] for q in CLASSIC_QUERIES]),
            "text": pa.array([q[2] for q in CLASSIC_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(CLASSIC_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _expression_sim_oracle_sql() -> str:
    q_rows = []
    for qid, qtype, text in CLASSIC_QUERIES:
        terms = text.split()
        for t in terms:
            q_rows.append(f"('{qid}', '{t}', {len(set(terms))}, '{qtype}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term, n_required, qtype) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(ln(1.0 + n_docs / (df + 1.0)) * (1.0 + ln(tf))
                 / sqrt(greatest(ldl, 1.0))) AS s,
             count(DISTINCT tf.term) AS n_matched,
             max(q.n_required) AS n_required,
             max(q.qtype) AS qtype
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
      WHERE qtype <> 'and' OR n_matched = n_required
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["expression_sim_topk_documents"] = q_expression_sim_topk_documents
ORACLE["expression_sim_topk_documents"] = _expression_sim_oracle_sql()


LMD_QUERIES: list[tuple[str, str, str]] = [
    ("d00", "term", "spark"),
    ("d01", "or", "hash join"),
    ("d02", "or", "sort merge spill"),
]
LMD_MU = 2000.0


def q_lmdirichlet_topk_documents(sf_dir: str):
    """Top-k with LMDirichletSimilarity (language-model Dirichlet
    smoothing, mu=2000: per-term max(0, ln(1+tf/(mu*p_c)) + ln(mu/(dl+mu)))
    with p_c=(ttf+1)/(collectionLen+2)) through the same WAND/exhaustive
    kernels — a COLLECTION-stats similarity exercising the needs_cstats
    weight channel (global ttf + exact manifest sum_dl) and the
    per-similarity recomputed block bounds.  OR-only queries: the max(0,·)
    clamp makes all-clamped docs score 0, which both sides exclude."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="lmdirichlet")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    # rounded-rank discipline (see classic op): rank on the rounded score
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _lmdirichlet_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    clen AS (SELECT sum(dl)::DOUBLE AS cl FROM dl),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(greatest(0.0,
                 ln(1.0 + tf / ({LMD_MU} * ((ttf + 1.0) / (cl + 2.0))))
                 + ln({LMD_MU} / (greatest(ldl, 1.0) + {LMD_MU})))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN clen
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
      WHERE s > 0
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["lmdirichlet_topk_documents"] = q_lmdirichlet_topk_documents
ORACLE["lmdirichlet_topk_documents"] = _lmdirichlet_oracle_sql()


LMJM_LAMBDA = 0.1


def q_lmjelinekmercer_topk_documents(sf_dir: str):
    """Top-k with LMJelinekMercerSimilarity (linear-interpolation language
    model, lambda=0.1: per-term ln(1 + ((1-λ)/λ)·(tf/dl)/p_c)) through the
    same WAND/exhaustive kernels — the second collection-stats similarity;
    every match scores > 0 (no clamp), so the oracle keeps all ranks."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="lmjelinekmercer")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _lmjelinekmercer_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    lam = LMJM_LAMBDA
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    clen AS (SELECT sum(dl)::DOUBLE AS cl FROM dl),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(ln(1.0 +
                 ((1.0 - {lam}) / ({lam} * ((ttf + 1.0) / (cl + 2.0))))
                 * tf / greatest(ldl, 1.0))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN clen
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["lmjelinekmercer_topk_documents"] = q_lmjelinekmercer_topk_documents
ORACLE["lmjelinekmercer_topk_documents"] = _lmjelinekmercer_oracle_sql()


DFR_C = 1.0


def q_dfr_topk_documents(sf_dir: str):
    """Top-k with DFRSimilarity In/B/H2 (divergence-from-randomness —
    `lucene/core/src/java/org/apache/lucene/search/similarities/
    DFRSimilarity.java` with BasicModelIn + AfterEffectB +
    NormalizationH2, c=1): per-term ((F+1)/(df*(tfn+1))) * tfn *
    log2((N+1)/(df+0.5)) with tfn = tf*log2(1 + c*avgdl/dl), F = global
    ttf — the third collection-stats similarity on the needs_cstats
    channel, through the same WAND/exhaustive kernels with recomputed
    block bounds.  Every match scores > 0 (In > 0 whenever df <= N), so
    no clamp and the oracle keeps all ranks."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="dfr")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _dfr_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(((ttf + 1.0) / df * log2((n_docs + 1.0) / (df + 0.5)))
                 * (tf * log2(1.0 + {DFR_C} * avgdl / greatest(ldl, 1.0)))
                 / (tf * log2(1.0 + {DFR_C} * avgdl / greatest(ldl, 1.0))
                    + 1.0)) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["dfr_topk_documents"] = q_dfr_topk_documents
ORACLE["dfr_topk_documents"] = _dfr_oracle_sql()


def q_dfr_ine_topk_documents(sf_dir: str):
    """Top-k with the SECOND DFR combination I(ne)/B/H1 (c=1) — see
    rindex.similarity.DFRIneSimilarity; same WAND kernels and recomputed
    block bounds, same rounded-rank discipline as dfr_topk."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="dfr_ine")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _dfr_ine_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(((ttf + 1.0) / df
                  * log2((n_docs + 1.0)
                         / (n_docs * (1.0 - pow((n_docs - 1.0) / n_docs,
                                                ttf)) + 0.5)))
                 * (tf * {DFR_C} * avgdl / greatest(ldl, 1.0))
                 / (tf * {DFR_C} * avgdl / greatest(ldl, 1.0) + 1.0)) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["dfr_ine_topk_documents"] = q_dfr_ine_topk_documents
ORACLE["dfr_ine_topk_documents"] = _dfr_ine_oracle_sql()


MM_QUERY = "dup spark window"
MM_MIN_MATCH = 2


def q_min_should_match_documents(sf_dir: str):
    """Minimum-should-match (BooleanQuery#setMinimumNumberShouldMatch /
    the dismax `mm` param — `lucene/core/src/java/org/apache/lucene/
    search/BooleanQuery.java`, MinShouldMatchSumScorer): OR query whose
    docs must match at least mm distinct terms; scores are the plain BM25
    sum over the matched subset.  Routed through the dense exhaustive
    kernel (the hit-count scatter), like Lucene routes minShouldMatch off
    the plain WAND path."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx)
    hits = searcher.search(
        MM_QUERY, k=TOP_K + 16, mode="or", min_match=MM_MIN_MATCH
    )
    out = pd.DataFrame(hits, columns=["rank", "doc_id", "score"])
    out["score"] = out["score"].round(6)
    out = out.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort").head(TOP_K).reset_index(drop=True)
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "score"]]


def _mm_oracle_sql() -> str:
    terms = ",".join(f"('{t}')" for t in MM_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    qt(term) AS (VALUES {terms}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s,
             count(DISTINCT tf.term) AS n_matched
      FROM qt
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
      HAVING count(DISTINCT tf.term) >= {MM_MIN_MATCH}
    )
    SELECT (row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC)
            - 1)::INTEGER AS rank,
           doc_id, round(s, 6) AS score
    FROM scores
    ORDER BY rank LIMIT {TOP_K}
    """


QUERIES["min_should_match_documents"] = q_min_should_match_documents
ORACLE["min_should_match_documents"] = _mm_oracle_sql()


def q_bm25_incremental_merge_documents(sf_dir: str):
    """Incremental-index + tiered-merge lifecycle, validated against the
    SAME BM25 oracle as the one-shot build: gen0 indexes the low half of
    doc_ids, gen1 appends the high half PLUS a re-ingest of 50 gen0 docs
    (identical content — the update/reorder case), then forceMerge compacts
    each slot; supersession keeps the newest generation, so the merged
    index is byte-equivalent to a from-scratch build and the top-k must be
    rank+score identical to the oracle (reference lifecycle:
    soft-commit micro-batches + TieredMergePolicy compaction,
    `lucene/core/src/java/org/apache/lucene/index/TieredMergePolicy.java`)."""
    import shutil

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from rindex.build import append_index, build_index
    from rindex.merge import run_merges
    from rindex.search import IndexSearcher

    src = os.path.join(sf_dir, "documents.parquet")
    ids = pq.read_table(src, columns=["doc_id"])["doc_id"].to_numpy()
    cut = int(np.median(ids))
    idx = _index_dir_for(sf_dir) + "-incr"
    shutil.rmtree(idx, ignore_errors=True)
    kwargs = dict(
        num_segments=8, mode="term_shuffle", id_cols=("doc_id",),
        text_col="text", keep_cols=("lang", "source"),
    )
    lo = rd.read_parquet(src).filter(expr=f"doc_id < {cut}")
    build_index(lo, idx, **kwargs)
    hi = rd.read_parquet(src).filter(expr=f"doc_id >= {cut}")
    # redo window must stay strictly inside the gen-0 half: on a corpus
    # small enough that min+50 >= cut, an uncapped window would put the
    # same doc TWICE in one generation, where supersession (which keys on
    # generation) cannot dedupe it
    redo_hi = min(int(min(ids)) + 50, cut)
    redo = rd.read_parquet(src).filter(expr=f"doc_id < {redo_hi}")
    append_index(hi.union(redo), idx, mode="term_shuffle")
    run_merges(idx, force=True)

    searcher = IndexSearcher(idx, algo="wand")
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in DOC_QUERIES]),
            "qtype": pa.array([q[1] for q in DOC_QUERIES]),
            "text": pa.array([q[2] for q in DOC_QUERIES]),
            "k": pa.array([TOP_K] * len(DOC_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl)
    return out.set_column(
        out.schema.get_field_index("score"), "score", pc.round(out["score"], 6)
    )


QUERIES["bm25_incremental_merge_documents"] = q_bm25_incremental_merge_documents
ORACLE["bm25_incremental_merge_documents"] = _bm25_oracle_sql()


def _term_doc_ids(index_dir: str, term: str) -> list:
    """doc_id of every live doc holding `term`, ascending (TermQuery as a
    filter, reference: `lucene/core/src/java/org/apache/lucene/search/
    TermQuery.java` — served from the inverted index postings, not a
    scan)."""
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(index_dir).reader()
    row = r.postings_for([term])[term]
    if row is None:
        return []
    docs = r.decoded(term, row)[0]
    return [i for i, _ in live_id_rows(r, docs, docs)]


def q_term_search_documents(sf_dir: str):
    """Single-term search: all matching doc ids."""
    return pd.DataFrame({"doc_id": _term_doc_ids(documents_index(sf_dir), "dup")})


QUERIES["term_search_documents"] = q_term_search_documents
ORACLE["term_search_documents"] = f"""
    SELECT doc_id FROM documents
    WHERE list_contains(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}'), 'dup')
"""


def documents_index_pos(sf_dir: str) -> str:
    """Positional documents index (with_positions=True -> the .pos stream;
    separate cache dir so the headline non-positional index is untouched)."""
    from rindex.build import build_index

    idx = _index_dir_for(sf_dir) + "-pos"
    build_index(
        os.path.join(sf_dir, "documents.parquet"),
        idx,
        num_segments=8,
        mode="term_shuffle",
        id_cols=("doc_id",),
        text_col="text",
        keep_cols=("lang", "source"),
        with_positions=True,
        input_files=[os.path.join(sf_dir, "documents.parquet")],
    )
    return idx


def q_phrase_search_documents(sf_dir: str):
    """Exact PhraseQuery (slop=0) on POSITIONAL postings: conjunction of the
    phrase terms' doc lists, then per-doc position-set intersection with
    per-term offsets, returning matching docs + phrase frequency (reference:
    `lucene/core/src/java/org/apache/lucene/search/{PhraseQuery,
    ExactPhraseMatcher}.java`; positions delta-encoded per term, the
    Lucene84 .pos stream analog — rindex/codec.py encode_positions_batch)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_phrase("hash join")
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "phrase_freq": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["phrase_search_documents"] = q_phrase_search_documents
ORACLE["phrase_search_documents"] = f"""
    SELECT doc_id,
           len(list_filter(range(1, len(l)),
                           i -> l[i] = 'hash' AND l[i + 1] = 'join'))::BIGINT
             AS phrase_freq
    FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
          FROM documents)
    WHERE len(list_filter(range(1, len(l)),
                          i -> l[i] = 'hash' AND l[i + 1] = 'join')) > 0
"""


# ---------------------------------------------------------------------------
# ReRank — second-pass rescoring of top-N candidates
# ---------------------------------------------------------------------------

RERANK_QUERY = "sort merge spill"
RERANK_N = 100  # first-pass candidate window
RERANK_K = 10


def q_rerank_documents(sf_dir: str):
    """ReRank: BM25 retrieves the top-100 candidate window, a second-pass
    function rescores ONLY those candidates (final = 0.5*bm25 +
    0.1*ln(1+n_chars)) and the top-10 is re-sorted (reference:
    `solr/core/src/java/org/apache/solr/search/ReRankQParserPlugin.java`;
    the candidate set is top-N small by design — the rescore would be an
    actor-pool map_batches for a model scorer, cf. LTRScoringQuery)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    cands = s.search(RERANK_QUERY, k=RERANK_N, mode="or")
    if not cands:
        return pd.DataFrame(
            columns=["rank", "doc_id", "first_pass_score", "score"]
        )
    ids = [c[1] for c in cands]
    nchars = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
        filters=[("doc_id", "in", ids)],
    ).to_pandas().set_index("doc_id")["n_chars"]
    rows = []  # cand = (rank, doc_id, score) for the single id col
    for _rank, doc_id, bm25 in ((c[0], c[1], c[2]) for c in cands):
        final = 0.5 * bm25 + 0.1 * float(np.log1p(float(nchars[doc_id])))
        rows.append((doc_id, round(bm25, 6), round(final, 6)))
    out = pd.DataFrame(rows, columns=["doc_id", "first_pass_score", "score"])
    out = out.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(RERANK_K).reset_index(drop=True)
    out.insert(0, "rank", np.arange(len(out), dtype=np.int64))
    return out


QUERIES["rerank_documents"] = q_rerank_documents
_rr_terms = ",".join(f"('{t}')" for t in RERANK_QUERY.split())
ORACLE["rerank_documents"] = f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {_rr_terms}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q JOIN tf USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    window_cands AS (
      SELECT doc_id, s,
             row_number() OVER (ORDER BY s DESC, doc_id ASC) AS rn
      FROM scores
    ),
    rescored AS (
      SELECT w.doc_id, round(w.s, 6) AS first_pass_score,
             round(0.5 * w.s + 0.1 * ln(1 + d.n_chars), 6) AS score
      FROM window_cands w JOIN documents d USING (doc_id)
      WHERE w.rn <= {RERANK_N}
    )
    SELECT (row_number() OVER (ORDER BY score DESC, doc_id ASC) - 1)::BIGINT AS rank,
           doc_id, first_pass_score, score
    FROM rescored
    ORDER BY score DESC, doc_id ASC
    LIMIT {RERANK_K}
"""


# ---------------------------------------------------------------------------
# Boost function query — edismax boost= (multiplicative function query)
# ---------------------------------------------------------------------------

BOOST_QUERY = "hash join"
BOOST_K = 10


def q_boost_function_search_documents(sf_dir: str):
    """edismax `boost=recip(n_chars,1,1000,1000)`: relevance score
    multiplied by 1000/(n_chars+1000), the "prefer shorter docs" boost
    every search deployment ships (reference: `solr/core/src/java/org/
    apache/solr/search/BoostQParserPlugin.java` wrapping the query in
    Lucene's FunctionScoreQuery, + ExtendedDismaxQParser's boost param).

    Distributed shape: the full OR match set stays a Dataset (one scoring
    task per segment via score_matches_dataset — bit-identical to the
    exhaustive kernel), the boost field joins in with a hash-partitioned
    Dataset.join against the pruned (doc_id, n_chars) read, the multiply
    is a per-batch vectorized kernel, and only the global top-k reaches
    the driver.  Ranking is on the ROUNDED boosted score with doc_id-asc
    ties (the rounded-rank discipline every scored oracle here uses, so
    float summation order cannot flip the k boundary)."""
    from rindex.ops.util import read_table
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    scores = s.score_matches_dataset(BOOST_QUERY, mode="or")
    docs = read_table(sf_dir, "documents", ["doc_id", "n_chars"])
    joined = scores.join(docs, "inner", num_partitions=join_partitions(), on=("doc_id",))

    def boost(t: pa.Table) -> pa.Table:
        sc = t["score"].to_numpy()
        n = t["n_chars"].to_numpy().astype(np.float64)
        b = np.round(sc * (1000.0 / (n + 1000.0)), 6)
        return pa.table(
            {"doc_id": t["doc_id"], "boosted": pa.array(b, pa.float64())}
        )

    top = (
        joined.map_batches(boost, batch_format="pyarrow")
        .sort(["boosted", "doc_id"], descending=[True, False])
        .limit(BOOST_K)
        .to_pandas()
    )
    top.insert(0, "rank", np.arange(len(top), dtype=np.int64))
    return top[["rank", "doc_id", "boosted"]]


QUERIES["boost_function_search_documents"] = q_boost_function_search_documents
_boost_terms = ",".join(f"('{t}')" for t in BOOST_QUERY.split())
ORACLE["boost_function_search_documents"] = f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {_boost_terms}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q JOIN tf USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    boosted AS (
      SELECT s.doc_id,
             round(s.s * (1000.0 / (d.n_chars + 1000.0)), 6) AS boosted
      FROM scores s JOIN documents d USING (doc_id)
    ),
    ranked AS (
      SELECT doc_id, boosted,
             row_number() OVER (ORDER BY boosted DESC, doc_id ASC) - 1 AS rank
      FROM boosted
    )
    SELECT rank, doc_id, boosted FROM ranked WHERE rank < {BOOST_K}
"""


# ---------------------------------------------------------------------------
# MoreLikeThis — top tf-idf terms of a source doc -> OR query
# ---------------------------------------------------------------------------

MLT_N_TERMS = 5
MLT_K = 10


def q_more_like_this_documents(sf_dir: str):
    """MoreLikeThis: extract the source doc's top-5 terms by tf*idf (idf =
    the BM25 idf, ties by term asc), run them as an OR BM25 query, exclude
    the source doc (reference: `lucene/queries/src/java/org/apache/lucene/
    queries/mlt/MoreLikeThis.java` — interesting-term selection by tf-idf
    then a BooleanQuery of SHOULD terms).  Term stats come from the index
    (global_df), not a corpus scan."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from rindex.analysis import get_analyzer
    from rindex.bm25 import idf as bm25_idf
    from rindex.search import IndexSearcher, Query

    src_tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    src_id = int(pa.compute.min(src_tbl["doc_id"]).as_py())
    src_text = src_tbl.filter(
        pa.compute.equal(src_tbl["doc_id"], src_id)
    )["text"][0].as_py()

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    tfs = get_analyzer().term_freqs((src_text or "").lower())
    dfs = s.global_df(list(tfs))
    scored = sorted(
        (
            (-tf * float(bm25_idf(dfs[t], s.n_docs)), t)
            for t, tf in tfs.items()
            if dfs[t] > 0
        ),
    )[:MLT_N_TERMS]
    terms = [t for _neg, t in scored]
    hits = s.search_query(Query(terms=terms, mode="or", k=MLT_K + 1))
    rows = [
        (doc_id, round(score, 6))
        for _r, doc_id, score in hits
        if doc_id != src_id
    ][:MLT_K]
    out = pd.DataFrame(rows, columns=["doc_id", "score"])
    out.insert(0, "rank", np.arange(len(out), dtype=np.int64))
    return out


def q_dfr_if_topk_documents(sf_dir: str):
    """Top-k with the THIRD DFR combination I(F)/B/H2 (c=1) — see
    rindex.similarity.DFRIfSimilarity; same WAND kernels and recomputed
    block bounds, same rounded-rank discipline as dfr_topk."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="dfr_if")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _dfr_if_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(((ttf + 1.0) / df
                  * log2(1.0 + (n_docs + 1.0) / (ttf + 0.5)))
                 * (tf * log2(1.0 + {DFR_C} * avgdl / greatest(ldl, 1.0)))
                 / (tf * log2(1.0 + {DFR_C} * avgdl / greatest(ldl, 1.0))
                    + 1.0)) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["dfr_if_topk_documents"] = q_dfr_if_topk_documents
ORACLE["dfr_if_topk_documents"] = _dfr_if_oracle_sql()


def q_mlt_interesting_terms_documents(sf_dir: str):
    """mlt.interestingTerms=details (`solr/core/src/java/org/apache/solr/
    handler/MoreLikeThisHandler.java`): expose the SELECTED interesting
    terms with their tf*idf boosts instead of running the derived query —
    the introspection channel of the MLT op above (same selection rule,
    same index-stats probe, no corpus scan)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from rindex.analysis import get_analyzer
    from rindex.bm25 import idf as bm25_idf
    from rindex.search import IndexSearcher

    src_tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    src_id = int(pa.compute.min(src_tbl["doc_id"]).as_py())
    src_text = src_tbl.filter(
        pa.compute.equal(src_tbl["doc_id"], src_id)
    )["text"][0].as_py()

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx)
    tfs = get_analyzer().term_freqs((src_text or "").lower())
    dfs = s.global_df(list(tfs))
    scored = sorted(
        (
            (-tf * float(bm25_idf(dfs[t], s.n_docs)), t)
            for t, tf in tfs.items()
            if dfs[t] > 0
        ),
    )[:MLT_N_TERMS]
    out = pd.DataFrame(
        {
            "term": [t for _neg, t in scored],
            "boost": [round(-neg, 6) for neg, _t in scored],
        }
    )
    return out


QUERIES["mlt_interesting_terms_documents"] = q_mlt_interesting_terms_documents
ORACLE["mlt_interesting_terms_documents"] = f"""
    WITH {_bm25_ctes()},
    src AS (SELECT min(doc_id) AS src_id FROM documents)
    SELECT tf.term,
           round(tf.tf * ln(1.0 + (n_docs - df + 0.5) / (df + 0.5)), 6)
             AS boost
    FROM tf JOIN src ON tf.doc_id = src.src_id
    JOIN df USING (term) CROSS JOIN stats
    ORDER BY tf.tf * ln(1.0 + (n_docs - df + 0.5) / (df + 0.5)) DESC,
             tf.term ASC
    LIMIT {MLT_N_TERMS}
"""


QUERIES["more_like_this_documents"] = q_more_like_this_documents
ORACLE["more_like_this_documents"] = f"""
    WITH {_bm25_ctes()},
    src AS (SELECT min(doc_id) AS src_id FROM documents),
    mlt_terms AS (
      SELECT tf.term
      FROM tf JOIN src ON tf.doc_id = src.src_id
      JOIN df USING (term) CROSS JOIN stats
      ORDER BY tf.tf * ln(1.0 + (n_docs - df + 0.5) / (df + 0.5)) DESC,
               tf.term ASC
      LIMIT {MLT_N_TERMS}
    ),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM mlt_terms q JOIN tf USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      WHERE tf.doc_id <> (SELECT src_id FROM src)
      GROUP BY tf.doc_id
    )
    SELECT (row_number() OVER (ORDER BY s DESC, doc_id ASC) - 1)::BIGINT AS rank,
           doc_id, round(s, 6) AS score
    FROM scores
    ORDER BY s DESC, doc_id ASC
    LIMIT {MLT_K}
"""


# ---------------------------------------------------------------------------
# Highlighting — best-window snippet extraction over top-k hits
# ---------------------------------------------------------------------------

HL_QUERY = "hash join"
HL_WINDOW = 8


def q_highlight_documents(sf_dir: str):
    """UnifiedHighlighter analog: for the query's top-10 docs, re-run the
    analyzer over the stored text and pick the WINDOW of 8 consecutive
    tokens containing the most query-term occurrences (leftmost on ties) as
    the snippet (reference: `lucene/highlighter/src/java/org/apache/lucene/
    search/uhighlight/UnifiedHighlighter.java` — offsets-from-reanalysis
    mode).  Snippet construction is deterministic; no SQL oracle (string
    assembly) — pytest asserts the doc set matches BM25 top-k and every
    snippet contains a query term."""
    import re

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    hits = s.search(HL_QUERY, k=10, mode="or")
    qterms = set(HL_QUERY.split())
    ids = [h[1] for h in hits]
    if not ids:
        return pd.DataFrame(columns=["rank", "doc_id", "snippet"])
    texts = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", ids)],
    ).to_pandas().set_index("doc_id")["text"]
    rx = re.compile(TOKEN_PY_RE)
    rows = []
    for rank, doc_id in enumerate(ids):
        toks = rx.findall((texts[doc_id] or "").lower())
        marks = np.fromiter((t in qterms for t in toks), dtype=np.int64,
                            count=len(toks))
        if len(toks) <= HL_WINDOW:
            best = 0
        else:
            win = np.convolve(marks, np.ones(HL_WINDOW, dtype=np.int64),
                              "valid")
            best = int(np.argmax(win))  # leftmost max
        snippet = " ".join(toks[best : best + HL_WINDOW])
        rows.append((rank, doc_id, snippet))
    return pd.DataFrame(rows, columns=["rank", "doc_id", "snippet"])


QUERIES["highlight_documents"] = q_highlight_documents


def _highlight_oracle_sql() -> str:
    """Snippets ARE SQL-expressible: the window selection is a windowed
    sum over unnested tokens and the snippet a string_agg over the chosen
    range — so the op is fully oracle-backed, strings included (the
    VERDICT r1 'doc-set half only' suggestion, extended to the whole op)."""
    terms = ",".join(f"'{t}'" for t in HL_QUERY.split())
    q_vals = ",".join(f"('{t}')" for t in HL_QUERY.split())
    w = HL_WINDOW
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {q_vals}),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    top AS (
      SELECT doc_id,
             (row_number() OVER (ORDER BY s DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scores ORDER BY s DESC, doc_id ASC LIMIT 10
    ),
    marked AS (
      SELECT d.doc_id,
             unnest(regexp_extract_all(lower(d.text), '{TOKEN_SQL_RE}')) AS tok,
             generate_subscripts(
               regexp_extract_all(lower(d.text), '{TOKEN_SQL_RE}'), 1) AS pos
      FROM documents d JOIN top USING (doc_id)
    ),
    wins AS (
      SELECT doc_id, pos,
             sum(CASE WHEN tok IN ({terms}) THEN 1 ELSE 0 END)
               OVER (PARTITION BY doc_id ORDER BY pos
                     ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS cnt,
             count(*) OVER (PARTITION BY doc_id) AS n_toks
      FROM marked
    ),
    best AS (
      SELECT doc_id, pos AS bpos FROM (
        SELECT doc_id, pos,
               row_number() OVER (PARTITION BY doc_id
                                  ORDER BY cnt DESC, pos ASC) AS rn
        FROM wins WHERE pos <= greatest(n_toks - {w - 1}, 1)
      ) WHERE rn = 1
    ),
    snip AS (
      SELECT m.doc_id, string_agg(m.tok, ' ' ORDER BY m.pos) AS snippet
      FROM marked m
      JOIN best b ON m.doc_id = b.doc_id
                 AND m.pos BETWEEN b.bpos AND b.bpos + {w - 1}
      GROUP BY m.doc_id
    )
    SELECT t.rank, t.doc_id, s.snippet
    FROM top t JOIN snip s USING (doc_id)
    """


ORACLE["highlight_documents"] = _highlight_oracle_sql()


PROX_A, PROX_B, PROX_WINDOW = "hash", "scan", 5


def q_proximity_search_documents(sf_dir: str):
    """Proximity query (sloppy-phrase analog) on positional postings: docs
    where 'sort' and 'spill' co-occur within a 4-token window, plus the
    minimal covering span (reference: SloppyPhraseMatcher,
    `lucene/core/src/java/org/apache/lucene/search/SloppyPhraseMatcher.java`
    — match condition here is the symmetric min-cover window, evaluated by a
    merged-positions sweep per candidate doc)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_proximity(f"{PROX_A} {PROX_B}", window=PROX_WINDOW)
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "min_span": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["proximity_search_documents"] = q_proximity_search_documents
ORACLE["proximity_search_documents"] = f"""
    SELECT doc_id, min_span FROM (
      SELECT doc_id,
             list_min(list_transform(
               list_filter(range(1, len(l) + 1), i -> l[i] = '{PROX_A}'),
               i -> list_min(list_transform(
                      list_filter(range(1, len(l) + 1), j -> l[j] = '{PROX_B}'),
                      j -> abs(i - j) + 1))))::BIGINT AS min_span
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE min_span IS NOT NULL AND min_span <= {PROX_WINDOW}
"""


NOT_QUERY, NOT_EXCLUDE = "join", "dup"


def q_bm25_not_query_documents(sf_dir: str):
    """BooleanQuery with a MUST_NOT clause: BM25 top-k for 'join' excluding
    any doc containing 'dup' (exclusion is non-scoring — reference:
    `lucene/core/src/java/org/apache/lucene/search/ReqExclScorer.java`,
    BooleanWeight MUST_NOT handling; the excluded term's postings are
    decoded per segment and masked out of both scoring kernels)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    hits = s.search(NOT_QUERY, k=TOP_K, mode="or", exclude=NOT_EXCLUDE)
    return pd.DataFrame(
        {
            "rank": pd.array([h[0] for h in hits], dtype="int32"),
            "doc_id": [h[1] for h in hits],
            "score": [round(h[2], 6) for h in hits],
        }
    )


def _bm25_single_term_scores_cte() -> str:
    from rindex.schema import B, K1

    return f"""
    scores AS (
      SELECT tf.doc_id,
             ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
               * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term = '{NOT_QUERY}'
    )
    """


QUERIES["bm25_not_query_documents"] = q_bm25_not_query_documents
ORACLE["bm25_not_query_documents"] = f"""
    WITH {_bm25_ctes()},
    {_bm25_single_term_scores_cte()},
    banned AS (
      SELECT DISTINCT doc_id FROM toks WHERE term = '{NOT_EXCLUDE}'
    ),
    ranked AS (
      SELECT doc_id, s,
             (row_number() OVER (ORDER BY s DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scores WHERE doc_id NOT IN (SELECT doc_id FROM banned)
    )
    SELECT rank, doc_id, round(s, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
"""


FILTER_LANG = "en"


def q_bm25_filter_lang_documents(sf_dir: str):
    """BM25 top-k with a non-scoring FILTER clause on a stored field
    (lang = 'en') — the `fq` / BooleanClause.Occur.FILTER analog; the
    per-segment allowed-doc set comes from docs.parquet with predicate
    pushdown and is cached per (column, value) like the reference's
    filterCache (`solr/core/.../search/SolrIndexSearcher.java`)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    hits = s.search(
        NOT_QUERY, k=TOP_K, mode="or", field_filter=("lang", FILTER_LANG)
    )
    return pd.DataFrame(
        {
            "rank": pd.array([h[0] for h in hits], dtype="int32"),
            "doc_id": [h[1] for h in hits],
            "score": [round(h[2], 6) for h in hits],
        }
    )


QUERIES["bm25_filter_lang_documents"] = q_bm25_filter_lang_documents
ORACLE["bm25_filter_lang_documents"] = f"""
    WITH {_bm25_ctes()},
    {_bm25_single_term_scores_cte()},
    ranked AS (
      SELECT s.doc_id, s.s,
             (row_number() OVER (ORDER BY s.s DESC, s.doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scores s JOIN documents d USING (doc_id)
      WHERE d.lang = '{FILTER_LANG}'
    )
    SELECT rank, doc_id, round(s, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
"""


QS_QUERY = "+join +scan -dup lang:en"


def q_query_string_search_documents(sf_dir: str):
    """Classic query-string syntax end-to-end: '+join +scan -dup lang:en'
    parses to (AND[join, scan], MUST_NOT[dup], FILTER[lang=en]) and runs
    through the full engine (reference: classic QueryParser /
    LuceneQParserPlugin syntax surface)."""
    import pandas as pd

    from rindex.search import IndexSearcher, parse_query_string

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="wand")
    q = parse_query_string(QS_QUERY, k=TOP_K)
    hits = s.search_query(q)
    return pd.DataFrame(
        {
            "rank": pd.array([h[0] for h in hits], dtype="int32"),
            "doc_id": [h[1] for h in hits],
            "score": [round(h[2], 6) for h in hits],
        }
    )


QUERIES["query_string_search_documents"] = q_query_string_search_documents
ORACLE["query_string_search_documents"] = f"""
    WITH {_bm25_ctes()},
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s,
             count(DISTINCT tf.term) AS n_matched
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term IN ('join', 'scan')
      GROUP BY tf.doc_id
    ),
    banned AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'dup'),
    ranked AS (
      SELECT s.doc_id, s.s,
             (row_number() OVER (ORDER BY s.s DESC, s.doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scores s JOIN documents d USING (doc_id)
      WHERE s.n_matched = 2
        AND d.lang = 'en'
        AND s.doc_id NOT IN (SELECT doc_id FROM banned)
    )
    SELECT rank, doc_id, round(s, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
"""


QS_EXT_QUERY = 'join^2 scan "hash join"^1.5 -dup lang:en source:src13'


def q_query_string_extended_documents(sf_dir: str):
    """Extended query-string surface end-to-end (the ExtendedDismaxQParser
    slice the engine supports — reference: `solr/core/src/java/org/apache/
    solr/search/ExtendedDismaxQParser.java`, classic QueryParser boost /
    phrase syntax): per-term boosts (`join^2`), a scored quoted-phrase
    SHOULD clause (`"hash join"^1.5`, PhraseWeight semantics: tf = phrase
    freq, df = phrase-match count), a MUST_NOT term and TWO ANDed field
    filters, all in one parsed query on the positional index."""
    import pandas as pd

    from rindex.search import IndexSearcher, parse_query_string

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    q = parse_query_string(QS_EXT_QUERY, k=TOP_K)
    hits = s.search_query(q)
    return pd.DataFrame(
        {
            "rank": pd.array([h[0] for h in hits], dtype="int32"),
            "doc_id": [h[1] for h in hits],
            "score": [round(h[2], 6) for h in hits],
        }
    )


QUERIES["query_string_extended_documents"] = q_query_string_extended_documents
ORACLE["query_string_extended_documents"] = f"""
    WITH {_bm25_ctes()},
    tscores AS (
      SELECT tf.doc_id,
             sum((CASE WHEN tf.term = 'join' THEN 2.0 ELSE 1.0 END)
                 * ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term IN ('join', 'scan')
      GROUP BY tf.doc_id
    ),
    pf AS (
      SELECT doc_id,
             len(list_filter(range(1, len(l)),
                             i -> l[i] = 'hash'
                              AND l[i + 1] = 'join'))::BIGINT AS phrase_freq
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents)
    ),
    pmatches AS (SELECT * FROM pf WHERE phrase_freq > 0),
    pstats AS (SELECT count(*)::DOUBLE AS df_phrase FROM pmatches),
    pscores AS (
      SELECT m.doc_id,
             1.5 * ln(1.0 + (s.n_docs - p.df_phrase + 0.5)
                            / (p.df_phrase + 0.5))
                 * m.phrase_freq
                 / (m.phrase_freq
                    + {K1} * (1.0 - {B} + {B} * lo.ldl / s.avgdl)) AS s
      FROM pmatches m
      JOIN lossy lo USING (doc_id)
      CROSS JOIN stats s CROSS JOIN pstats p
    ),
    allscores AS (
      SELECT doc_id, sum(s) AS s
      FROM (SELECT * FROM tscores UNION ALL SELECT * FROM pscores)
      GROUP BY doc_id
    ),
    banned AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'dup'),
    ranked AS (
      SELECT a.doc_id, a.s,
             (row_number() OVER (ORDER BY a.s DESC, a.doc_id ASC) - 1)::INTEGER
               AS rank
      FROM allscores a JOIN documents d USING (doc_id)
      WHERE d.lang = 'en' AND d.source = 'src13'
        AND a.doc_id NOT IN (SELECT doc_id FROM banned)
    )
    SELECT rank, doc_id, round(s, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
"""


COMPOSITE_TERM = "window"


def q_composite_search_rollup_documents(sf_dir: str):
    """Streaming-expression composition — the reference's dataflow algebra
    `rollup(hashJoin(search(...), hashed=...), over=lang, sum/avg)` as one
    Ray pipeline (SURVEY.md §3.3: the TupleStream tree IS the Dataset
    expression tree): BM25-score every match of a term from the inverted
    index, hash-join the distributed score Dataset onto the documents
    Dataset, roll up per lang with count + mean score."""
    from ray.data.aggregate import Count, Mean

    from rindex.ops.util import read_table
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    # full match set stays distributed: per-segment scoring tasks emit
    # (doc_id, score) blocks into the object store, then a hash-partitioned
    # Dataset.join — the driver never holds the O(df) hit list
    scores = s.score_matches_dataset(COMPOSITE_TERM, mode="or").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("score"), "score",
            pc.round(t["score"], 6),
        ),
        batch_format="pyarrow",
    )
    docs = read_table(sf_dir, "documents", ["doc_id", "lang"])
    joined = scores.join(
        docs, "inner", num_partitions=join_partitions(), on=("doc_id",)
    )
    out = joined.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Mean("score", alias_name="avg_score")
    )

    def rnd(t):
        import pyarrow.compute as pc

        return t.set_column(
            t.schema.get_field_index("avg_score"),
            "avg_score",
            pc.round(t["avg_score"], 6),
        )

    return out.map_batches(rnd, batch_format="pyarrow")


def _composite_oracle() -> str:
    from rindex.schema import B, K1

    return f"""
    WITH {_bm25_ctes()},
    scores AS (
      SELECT tf.doc_id,
             round(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
               * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)), 6) AS s
      FROM tf JOIN df USING (term) JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE tf.term = '{COMPOSITE_TERM}'
    )
    SELECT d.lang, count(*) AS n_docs, round(avg(s.s), 6) AS avg_score
    FROM scores s JOIN documents d USING (doc_id)
    GROUP BY d.lang
    """


QUERIES["composite_search_rollup_documents"] = q_composite_search_rollup_documents
ORACLE["composite_search_rollup_documents"] = _composite_oracle()


PHRASE_TOPK_A, PHRASE_TOPK_B = "hash", "join"


def q_phrase_bm25_topk_documents(sf_dir: str):
    """SCORED exact-phrase top-k: BM25 where tf = phrase frequency and
    df = number of docs containing the phrase, norms the same lossy bytes
    as term scoring — the reference's PhraseQuery scoring contract
    (`lucene/core/src/java/org/apache/lucene/search/PhraseWeight.java`),
    evaluated on positional postings and rank+score-checked against the
    SQL oracle."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_phrase_topk(f"{PHRASE_TOPK_A} {PHRASE_TOPK_B}", k=TOP_K)
    return pd.DataFrame(
        {
            "rank": pd.array([h[0] for h in hits], dtype="int32"),
            "doc_id": [h[1] for h in hits],
            "phrase_freq": pd.array([h[2] for h in hits], dtype="int64"),
            "score": [round(h[3], 6) for h in hits],
        }
    )


QUERIES["phrase_bm25_topk_documents"] = q_phrase_bm25_topk_documents
ORACLE["phrase_bm25_topk_documents"] = f"""
    WITH {_bm25_ctes()},
    pf AS (
      SELECT doc_id,
             len(list_filter(range(1, len(l)),
                             i -> l[i] = '{PHRASE_TOPK_A}'
                              AND l[i + 1] = '{PHRASE_TOPK_B}'))::BIGINT
               AS phrase_freq
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents)
    ),
    matches AS (SELECT * FROM pf WHERE phrase_freq > 0),
    pstats AS (SELECT count(*)::DOUBLE AS df_phrase FROM matches),
    scored AS (
      SELECT m.doc_id, m.phrase_freq,
             ln(1.0 + (s.n_docs - p.df_phrase + 0.5) / (p.df_phrase + 0.5))
               * m.phrase_freq
               / (m.phrase_freq
                  + {K1} * (1.0 - {B} + {B} * lo.ldl / s.avgdl)) AS sc
      FROM matches m
      JOIN lossy lo USING (doc_id)
      CROSS JOIN stats s CROSS JOIN pstats p
    ),
    ranked AS (
      SELECT doc_id, phrase_freq, sc,
             (row_number() OVER (ORDER BY sc DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scored
    )
    SELECT rank, doc_id, phrase_freq, round(sc, 6) AS score
    FROM ranked WHERE rank < {TOP_K}
"""


RTG_IDS = (3, 44, 123, 250, 499)


def q_realtime_get_documents(sf_dir: str):
    """Realtime GET: fetch stored fields for a handful of ids straight from
    the index's docmap with predicate pushdown — the /get handler analog
    (reference: `solr/core/src/java/org/apache/solr/handler/component/
    RealTimeGetComponent.java`; our segments are always committed, so the
    tlog-read branch collapses to the docmap read)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx)
    rows = []
    for r in s.readers:
        t = pq.read_table(
            os.path.join(r.sdir, "docs.parquet"),
            columns=["doc", "doc_id", "lang", "source"],
            filters=[("doc_id", "in", list(RTG_IDS))],
        )
        dd = r.deleted_docs()
        if dd is not None and t.num_rows:
            import numpy as np
            import pyarrow as pa

            t = t.filter(
                pa.array(np.isin(t["doc"].to_numpy(), dd, invert=True))
            )
        rows.append(t.drop_columns(["doc"]).to_pandas())
    out = pd.concat(rows, ignore_index=True)
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["realtime_get_documents"] = q_realtime_get_documents
ORACLE["realtime_get_documents"] = f"""
    SELECT doc_id, lang, source FROM documents
    WHERE doc_id IN {RTG_IDS} ORDER BY doc_id
"""


SYN_GROUP = ("join", "merge")
SYN_EXTRA_TERM = "hash"


def q_synonym_query_documents(sf_dir: str):
    """SynonymQuery (`lucene/core/src/java/org/apache/lucene/search/
    SynonymQuery.java` — how analyzers score query-time synonym expansions
    WITHOUT inflating the score): the group (join, merge) scores as ONE
    pseudo-term with blended stats (per-doc tf = sum of member tfs,
    docFreq = max of member global dfs), summed with a regular term clause.
    Rounded-rank discipline: the engine adds term then group contributions,
    SQL sums in its own order — genuine ulp ties resolved by doc_id."""
    from rindex.search import IndexSearcher, Query

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="exhaustive")
    slack = 16
    q = Query(
        terms=[SYN_EXTRA_TERM],
        mode="or",
        k=TOP_K + slack,
        synonyms=[(list(SYN_GROUP), 1.0)],
    )
    hits = searcher.search_query(q)  # (rank, doc_id, score) tuples
    out = pd.DataFrame(hits, columns=["_r", "doc_id", "score"])
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "score"]]


def _synonym_oracle_sql() -> str:
    members = ", ".join(f"'{t}'" for t in SYN_GROUP)
    return f"""
    WITH {_bm25_ctes()},
    syn_tf AS (
      SELECT doc_id, sum(tf) AS tf_s FROM tf
      WHERE term IN ({members}) GROUP BY 1
    ),
    syn_df AS (SELECT max(df) AS df_s FROM df WHERE term IN ({members})),
    parts AS (
      SELECT tf.doc_id,
             ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
               * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)) AS s
      FROM tf
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE term = '{SYN_EXTRA_TERM}'
      UNION ALL
      SELECT st.doc_id,
             ln(1.0 + (n_docs - df_s + 0.5) / (df_s + 0.5))
               * tf_s / (tf_s + {K1} * (1.0 - {B} + {B} * ldl / avgdl)) AS s
      FROM syn_tf st
      JOIN lossy ON st.doc_id = lossy.doc_id
      CROSS JOIN syn_df
      CROSS JOIN stats
    ),
    scored AS (
      SELECT doc_id, round(sum(s), 6) AS s FROM parts GROUP BY 1
    ),
    ranked AS (
      SELECT doc_id, s,
             (row_number() OVER (ORDER BY s DESC, doc_id ASC) - 1)::INTEGER
               AS rank
      FROM scored WHERE s > 0
    )
    SELECT rank, doc_id, s AS score FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["synonym_query_documents"] = q_synonym_query_documents
ORACLE["synonym_query_documents"] = _synonym_oracle_sql()


BOOL_QUERY = "(hash OR merge) AND join AND NOT window"


def q_boolean_query_documents(sf_dir: str):
    """Nested BooleanQuery via the parenthesized QueryParser grammar:
    '(hash OR merge) AND join AND NOT window' — the tree decides the
    match, the score sums EVERY matching positive leaf (hash + merge +
    join where present; the MUST_NOT leaf never scores), Lucene
    BooleanScorer semantics.  Rounded-rank discipline as usual."""
    from rindex.search import IndexSearcher, parse_boolean_query

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx)
    tree = parse_boolean_query(BOOL_QUERY)
    hits = searcher.search_boolean(tree, k=TOP_K + 16)
    out = pd.DataFrame(hits, columns=["_r", "doc_id", "score"])
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "score"]]


def _boolean_oracle_sql() -> str:
    return f"""
    WITH {_bm25_ctes()},
    flags AS (
      SELECT doc_id,
             bool_or(term = 'hash') AS f_hash,
             bool_or(term = 'merge') AS f_merge,
             bool_or(term = 'join') AS f_join,
             bool_or(term = 'window') AS f_window
      FROM tf GROUP BY doc_id
    ),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      WHERE term IN ('hash', 'merge', 'join')
      GROUP BY tf.doc_id
    ),
    sel AS (
      SELECT doc_id FROM flags
      WHERE (f_hash OR f_merge) AND f_join AND NOT f_window
    ),
    ranked AS (
      SELECT s.doc_id, round(s.s, 6) AS s,
             (row_number() OVER (ORDER BY round(s.s, 6) DESC, s.doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores s JOIN sel USING (doc_id)
      WHERE s.s > 0
    )
    SELECT rank, doc_id, s AS score FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["boolean_query_documents"] = q_boolean_query_documents
ORACLE["boolean_query_documents"] = _boolean_oracle_sql()


SPAN_A, SPAN_B, SPAN_SLOP = "hash", "join", 3
SPAN_FIRST_TERM, SPAN_FIRST_END = "spark", 6


def q_span_near_ordered_documents(sf_dir: str):
    """Ordered SpanNearQuery: 'hash' then 'join' IN ORDER with
    width - 2 <= slop (the spans-family ordered contract, vs the
    symmetric-window proximity op) — greedy minimal chaining over
    positional postings, one searchsorted per term over all starts."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_near(f"{SPAN_A} {SPAN_B}", slop=SPAN_SLOP)
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "min_width": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_near_ordered_documents"] = q_span_near_ordered_documents
ORACLE["span_near_ordered_documents"] = f"""
    SELECT doc_id, min_width FROM (
      SELECT doc_id,
        list_min(list_filter(list_transform(
          list_filter(range(1, len(l) + 1), i -> l[i] = '{SPAN_A}'),
          i -> list_min(list_transform(
                 list_filter(range(1, len(l) + 1),
                             j -> l[j] = '{SPAN_B}' AND j > i),
                 j -> j - i + 1))), x -> x IS NOT NULL))::BIGINT AS min_width
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE min_width IS NOT NULL AND min_width - 2 <= {SPAN_SLOP}
"""


def q_span_near_unordered_documents(sf_dir: str):
    """Unordered SpanNearQuery (`lucene/core/src/java/org/apache/lucene/
    search/spans/SpanNearQuery.java`, inOrder=false /
    NearSpansUnordered): 'join' and 'hash' in EITHER order, minimal
    covering span width - 2 <= slop.  Superset of the ordered op (every
    ordered chain is a covering span); the sweep kernel is the
    search_proximity min-cover merge with the span-family slop
    contract."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_near(
        f"{SPAN_B} {SPAN_A}", slop=SPAN_SLOP, in_order=False
    )
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "min_width": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_near_unordered_documents"] = q_span_near_unordered_documents
ORACLE["span_near_unordered_documents"] = f"""
    SELECT doc_id, min_width FROM (
      SELECT doc_id,
        list_min(list_filter(list_transform(
          list_filter(range(1, len(l) + 1), i -> l[i] = '{SPAN_A}'),
          i -> list_min(list_transform(
                 list_filter(range(1, len(l) + 1), j -> l[j] = '{SPAN_B}'),
                 j -> abs(j - i) + 1))), x -> x IS NOT NULL))::BIGINT
          AS min_width
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE min_width IS NOT NULL AND min_width - 2 <= {SPAN_SLOP}
"""


SPAN_NOT_EXCLUDE = "spark"


def q_span_not_documents(sf_dir: str):
    """SpanNotQuery (`lucene/core/src/java/org/apache/lucene/search/spans/
    SpanNotQuery.java`): ordered (hash, join) spans within slop whose
    positions do NOT contain '{exclude}' — the include spans are the
    per-start minimal ordered chains, and a span dies if any exclude
    position lies inside [start, end].  Docs whose every qualifying span
    overlaps the exclusion disappear vs the ordered op."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_not(
        f"{SPAN_A} {SPAN_B}", exclude=SPAN_NOT_EXCLUDE, slop=SPAN_SLOP
    )
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "min_width": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_not_documents"] = q_span_not_documents
# Per start i of the include's first term: the singleton [jmin] list binds
# the minimal chained end (DuckDB lambdas have no let), then the filter
# applies the slop bound AND the no-exclude-inside-[i, j] overlap check on
# THAT minimal span only (the per-start enumeration contract).
ORACLE["span_not_documents"] = f"""
    SELECT doc_id, min_width FROM (
      SELECT doc_id,
        list_min(list_filter(list_transform(
          list_filter(range(1, len(l) + 1), i -> l[i] = '{SPAN_A}'),
          i -> list_min(list_transform(
                 list_filter(
                   [list_min(list_transform(
                      list_filter(range(1, len(l) + 1),
                                  j -> l[j] = '{SPAN_B}' AND j > i),
                      j -> j))],
                   j -> j IS NOT NULL AND j - i + 1 - 2 <= {SPAN_SLOP}
                        AND len(list_filter(range(i, j + 1),
                                k -> l[k] = '{SPAN_NOT_EXCLUDE}')) = 0),
                 j -> j - i + 1))), x -> x IS NOT NULL))::BIGINT AS min_width
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE min_width IS NOT NULL
"""


SPAN_LITTLE = "the"
SPAN_WC_SLOP = 6  # wider than SPAN_SLOP: enclosure needs room to be non-trivial


def q_span_within_documents(sf_dir: str):
    """SpanWithinQuery (`lucene/core/src/java/org/apache/lucene/search/
    spans/SpanWithinQuery.java`): occurrences of '{SPAN_LITTLE}' enclosed
    by an ordered ({SPAN_A}, {SPAN_B}) span within slop {SPAN_WC_SLOP} —
    per doc the count of enclosed occurrences."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_within(SPAN_LITTLE, SPAN_A, SPAN_B, SPAN_WC_SLOP)
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "n_within": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_within_documents"] = q_span_within_documents
ORACLE["span_within_documents"] = f"""
    SELECT doc_id, n_within FROM (
      SELECT doc_id,
        len(list_filter(
          list_filter(range(1, len(l) + 1), p -> l[p] = '{SPAN_LITTLE}'),
          p -> len(list_filter(
                 list_filter(range(1, len(l) + 1),
                             i -> l[i] = '{SPAN_A}' AND i <= p),
                 i -> len(list_filter(
                        [list_min(list_transform(
                           list_filter(range(1, len(l) + 1),
                                       j -> l[j] = '{SPAN_B}' AND j > i),
                           j -> j))],
                        j -> j IS NOT NULL AND j - i + 1 - 2 <= {SPAN_WC_SLOP}
                             AND j >= p)) > 0
               )) > 0
        ))::BIGINT AS n_within
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE n_within > 0
"""


def q_span_containing_documents(sf_dir: str):
    """SpanContainingQuery (`lucene/core/src/java/org/apache/lucene/search/
    spans/SpanContainingQuery.java`): ordered ({SPAN_A}, {SPAN_B}) spans
    within slop {SPAN_WC_SLOP} that contain '{SPAN_LITTLE}' — per doc the
    count of containing spans (the dual of span_within)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_containing(SPAN_A, SPAN_B, SPAN_LITTLE, SPAN_WC_SLOP)
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "n_containing": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_containing_documents"] = q_span_containing_documents
ORACLE["span_containing_documents"] = f"""
    SELECT doc_id, n_containing FROM (
      SELECT doc_id,
        len(list_filter(
          list_filter(range(1, len(l) + 1), i -> l[i] = '{SPAN_A}'),
          i -> len(list_filter(
                 [list_min(list_transform(
                    list_filter(range(1, len(l) + 1),
                                j -> l[j] = '{SPAN_B}' AND j > i),
                    j -> j))],
                 j -> j IS NOT NULL AND j - i + 1 - 2 <= {SPAN_WC_SLOP}
                      AND len(list_filter(range(i, j + 1),
                              k -> l[k] = '{SPAN_LITTLE}')) > 0)) > 0
        ))::BIGINT AS n_containing
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE n_containing > 0
"""


def q_span_first_documents(sf_dir: str):
    """SpanFirstQuery: docs whose FIRST occurrence of 'spark' is within the
    first 6 positions (0-based pos < end — lead-paragraph matching).  The
    first position per doc is the head of its stored position run; the op
    reports it 0-based (the oracle's 1-based list_position minus 1)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_first(SPAN_FIRST_TERM, end=SPAN_FIRST_END)
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "first_pos": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_first_documents"] = q_span_first_documents
ORACLE["span_first_documents"] = f"""
    SELECT doc_id, (p - 1)::BIGINT AS first_pos
    FROM (SELECT doc_id,
                 list_position(regexp_extract_all(lower(text),
                               '{TOKEN_SQL_RE}'), '{SPAN_FIRST_TERM}') AS p
          FROM documents)
    WHERE p > 0 AND p - 1 < {SPAN_FIRST_END}
"""
# (list_position returns 0, not NULL, for an absent term)


SPAN_OR_GROUP = ("hash", "sort")


def q_span_or_near_documents(sf_dir: str):
    """SpanOrQuery inside an ordered SpanNearQuery
    (`lucene/core/src/java/org/apache/lucene/search/spans/SpanOrQuery
    .java`): spanNear([spanOr(hash, sort), join], slop, inOrder=true) —
    the OR group's merged position union feeds the ordered chain, so a
    doc matches if EITHER group member is followed by 'join' within the
    span slop contract (width - 2 <= slop)."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index_pos(sf_dir)
    s = IndexSearcher(idx)
    hits = s.search_span_or_near(
        " ".join(SPAN_OR_GROUP), SPAN_B, slop=SPAN_SLOP
    )
    return pd.DataFrame(
        {
            "doc_id": [h[0] for h in hits],
            "min_width": pd.array([h[1] for h in hits], dtype="int64"),
        }
    )


QUERIES["span_or_near_documents"] = q_span_or_near_documents
ORACLE["span_or_near_documents"] = f"""
    SELECT doc_id, min_width FROM (
      SELECT doc_id,
        list_min(list_filter(list_transform(
          list_filter(range(1, len(l) + 1),
                      i -> l[i] = '{SPAN_OR_GROUP[0]}'
                           OR l[i] = '{SPAN_OR_GROUP[1]}'),
          i -> list_min(list_transform(
                 list_filter(range(1, len(l) + 1),
                             j -> l[j] = '{SPAN_B}' AND j > i),
                 j -> j - i + 1))), x -> x IS NOT NULL))::BIGINT
          AS min_width
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE min_width IS NOT NULL AND min_width - 2 <= {SPAN_SLOP}
"""


def q_axiomatic_topk_documents(sf_dir: str):
    """Top-k with AxiomaticF2EXP (`lucene/core/src/java/org/apache/lucene/
    search/similarities/AxiomaticF2EXP.java`, Fang & Zhai 2005, s=0.5
    k=0.35: per-term (N/df)^k * tf/(tf + s + s*dl/avgdl)) — the sixth
    similarity, served by an ExpressionSimilarity registration (no new
    kernel code: the compiled expressions ride the same WAND/exhaustive
    kernels with recomputed block bounds).  Rounded-rank discipline as for
    the other ratio-form similarities."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="axiomatic_f2exp")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _axiomatic_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(pow(n_docs / df, 0.35)
                 * tf / (tf + 0.5 + 0.5 * greatest(ldl, 1.0) / avgdl)) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["axiomatic_topk_documents"] = q_axiomatic_topk_documents
ORACLE["axiomatic_topk_documents"] = _axiomatic_oracle_sql()


# ---------------------------------------------------------------------------
# Scored passages — the UnifiedHighlighter's distinguishing feature over
# the snippet assembler above (`lucene/highlighter/src/java/org/apache/
# lucene/search/uhighlight/{UnifiedHighlighter,PassageScorer}.java`):
# passages are RANKED, each scored by the idf of the distinct query
# terms it covers, and the best passage per doc is returned.  Window
# derivation uses the repo's raw space-split slot convention (the C4 /
# chunking ops' lines); term idf comes from the INDEX dictionary on the
# Ray side and the regex-token derivation in SQL (proven equal by every
# BM25 oracle).  One corpus scan; the idf pair is a broadcast constant.
# ---------------------------------------------------------------------------

HL_PASSAGE_W = 8
HL_PASSAGE_TERMS = ("spark", "join")


def q_top_passage_documents(sf_dir: str):
    """Best passage per matching doc for the 'spark join' query:
    (doc_id, best_chunk, passage_score, passage); ties break to the
    earliest window (PassageScorer's document-order tiebreak)."""
    import pyarrow.compute as pcc

    from rindex.ops.util import dictionary_stats, read_table
    from rindex.segments import read_manifest

    idx = documents_index(sf_dir)
    man = read_manifest(idx)
    n_docs = float(man["totals"]["doc_count"])
    dd = dictionary_stats(idx, ["df"])
    dd = dd[dd["term"].isin(HL_PASSAGE_TERMS)]
    dfs = {t: 0 for t in HL_PASSAGE_TERMS}
    dfs.update(zip(dd["term"], dd["df"].astype(int)))
    idf = {
        t: np.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5))
        for t in HL_PASSAGE_TERMS
    }

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def best_passage(t: pa.Table) -> pa.Table:
        from rindex.ops.textstats import _bp_slot_lines

        n = t.num_rows
        best_score = np.full(n, -1.0)
        best_k = np.full(n, -1, np.int64)
        best_txt = pa.array([""] * n, pa.string())
        for k, line, exists in _bp_slot_lines(t, width=HL_PASSAGE_W):
            score = np.zeros(n)
            for term in HL_PASSAGE_TERMS:
                has = pcc.match_substring_regex(
                    line, rf"(^| ){term}( |$)"
                ).to_numpy(zero_copy_only=False)
                score += np.where(has, idf[term], 0.0)
            score = np.round(score, 6)
            better = exists & (score > best_score)
            best_k = np.where(better, k, best_k)
            best_score = np.where(better, score, best_score)
            best_txt = pcc.if_else(pa.array(better), line, best_txt)
        hit = best_score > 0  # docs with at least one query term
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(hit)),
                "best_chunk": pa.array(best_k[hit]),
                "passage_score": pa.array(best_score[hit]),
                "passage": pcc.filter(best_txt, pa.array(hit)),
            }
        )

    out = ds.map_batches(
        best_passage, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["top_passage_documents"] = q_top_passage_documents


def _top_passage_oracle() -> str:
    terms = ", ".join(f"('{t}')" for t in HL_PASSAGE_TERMS)
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    tdoc AS (SELECT DISTINCT doc_id, term FROM toks),
    st AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs),
    qidf AS (
      SELECT q.term,
             ln(1.0 + (n_docs - d.df + 0.5) / (d.df + 0.5)) AS idf
      FROM (VALUES {terms}) q(term)
      JOIN (SELECT term, count(*)::DOUBLE AS df FROM tdoc GROUP BY 1) d
        USING (term)
      CROSS JOIN st
    ),
    wtoks AS (
      SELECT doc_id,
             unnest(range(1, len(string_split(coalesce(text, ''), ' '))
                             + 1)) AS i,
             unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    windows AS (
      SELECT doc_id, (i - 1) // {HL_PASSAGE_W} AS k,
             string_agg(tok, ' ' ORDER BY i) AS line
      FROM wtoks GROUP BY 1, 2
    ),
    wscore AS (
      SELECT w.doc_id, w.k, w.line,
             round(coalesce(sum(q.idf), 0.0), 6) AS score
      FROM windows w
      LEFT JOIN qidf q
        ON list_contains(string_split(w.line, ' '), q.term)
      GROUP BY 1, 2, 3
    ),
    best AS (
      SELECT doc_id, k, line, score,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY score DESC, k ASC) AS rn
      FROM wscore
    )
    SELECT doc_id, k::BIGINT AS best_chunk, score AS passage_score,
           line AS passage
    FROM best WHERE rn = 1 AND score > 0
    ORDER BY doc_id
    """


ORACLE["top_passage_documents"] = _top_passage_oracle()


# ---------------------------------------------------------------------------
# KWIC concordance — keyword-in-context (the classic concordancer view;
# Luke/Solr admin expose the same positional slices via term vectors
# with positions+offsets, `lucene/core/.../index/TermVectors*`): one row
# per OCCURRENCE of the query term with the KWIC_CTX tokens of left and
# right context.  One corpus scan; per-match context slicing is bounded
# by the match count (positions come from the same analyzer token
# stream the index stores).
# ---------------------------------------------------------------------------

KWIC_TERM = "spark"
KWIC_CTX = 3


def q_kwic_documents(sf_dir: str):
    """(doc_id, pos, left, right) for every occurrence of KWIC_TERM."""
    from rindex.analysis import get_analyzer
    from rindex.ops.util import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        ids_out, pos_out, left_out, right_out = [], [], [], []
        for did, x in zip(t["doc_id"].to_numpy(), t["text"].to_pylist()):
            toks = az.tokens(x or "")
            for i, tok in enumerate(toks):
                if tok == KWIC_TERM:
                    ids_out.append(int(did))
                    pos_out.append(i)
                    left_out.append(" ".join(toks[max(0, i - KWIC_CTX):i]))
                    right_out.append(" ".join(toks[i + 1:i + 1 + KWIC_CTX]))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "pos": pa.array(pos_out, pa.int64()),
                "left": pa.array(left_out, pa.string()),
                "right": pa.array(right_out, pa.string()),
            }
        )

    out = ds.map_batches(f, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


QUERIES["kwic_documents"] = q_kwic_documents
ORACLE["kwic_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(regexp_extract_all(lower(coalesce(text,
                    '')), '{TOKEN_SQL_RE}')) + 1)) AS i,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    hits AS (
      SELECT doc_id, i FROM toks WHERE term = '{KWIC_TERM}'
    )
    SELECT h.doc_id, (h.i - 1)::BIGINT AS pos,
           coalesce((SELECT string_agg(t.term, ' ' ORDER BY t.i)
                     FROM toks t
                     WHERE t.doc_id = h.doc_id
                       AND t.i BETWEEN h.i - {KWIC_CTX} AND h.i - 1), '')
             AS "left",
           coalesce((SELECT string_agg(t.term, ' ' ORDER BY t.i)
                     FROM toks t
                     WHERE t.doc_id = h.doc_id
                       AND t.i BETWEEN h.i + 1 AND h.i + {KWIC_CTX}), '')
             AS "right"
    FROM hits h
    ORDER BY h.doc_id, pos
"""


# ---------------------------------------------------------------------------
# CommonTermsQuery — df-adaptive required/optional clause split
# ---------------------------------------------------------------------------

CTQ_QUERY = "dup table scan"
CTQ_MAX_FREQ = 0.3  # terms with df/N above this are "common" (optional)
CTQ_K = 10


def q_common_terms_query_documents(sf_dir: str):
    """CommonTermsQuery (`lucene/queries/src/java/org/apache/lucene/
    queries/CommonTermsQuery.java`): query terms are split by document
    frequency — terms with df/N <= maxTermFrequency are LOW-frequency and
    become MUST clauses; the rest are HIGH-frequency (stopword-like) and
    become SHOULD clauses that contribute score but cannot gate the match.
    Scores are the BM25 sum over every matching query term; a doc
    qualifies iff it matches ALL low-frequency terms.

    Engine shape: the term split reads only the term DICTIONARY df
    (global_df — dictionary columns, no posting bodies), then one dense
    accumulator pass over the index's one reader scores all terms while
    counting low-frequency hits (the _segment_match_scores kernel shape
    with the hit counter restricted to the MUST subset).  On 'dup table scan' with
    maxTermFrequency=0.3 the split is rare={dup}, common={table, scan} at
    both driver scales."""
    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx)
    terms = CTQ_QUERY.split()
    df = s.global_df(terms)
    rare = [t for t in terms if df[t] / s.n_docs <= CTQ_MAX_FREQ]
    idf = s.term_weights(terms, df)
    r = s.reader()
    posts = r.postings_for(terms)
    acc = np.zeros(r.max_doc, dtype=np.float64)
    hits = np.zeros(r.max_doc, dtype=np.int64)
    for t in terms:  # fixed query-term order: deterministic float sum
        row = posts[t]
        if row is None:
            continue
        d, tf_arr, nrm = r.decoded(t, row)
        acc[d] += s.sim.score(idf[t], tf_arr.astype(np.float64), s.cache[nrm])
        if t in rare:
            hits[d] += 1
    cand = np.nonzero(hits >= len(rare))[0]
    cand = cand[acc[cand] > 0]
    out = pd.DataFrame(live_id_rows(r, cand, acc[cand]),
                       columns=["doc_id", "score"])
    out["score"] = out["score"].round(6)
    out = out.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(CTQ_K).reset_index(drop=True)
    out["rank"] = np.arange(len(out), dtype=np.int32)
    return out[["rank", "doc_id", "score"]]


def _ctq_oracle_sql() -> str:
    terms = ",".join(f"('{t}')" for t in CTQ_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    qt(term) AS (VALUES {terms}),
    n_req AS (
      SELECT count(*) AS n FROM qt JOIN df USING (term) CROSS JOIN stats
      WHERE df / n_docs <= {CTQ_MAX_FREQ}
    ),
    scores AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s,
             count(DISTINCT CASE WHEN df / n_docs <= {CTQ_MAX_FREQ}
                                 THEN tf.term END) AS rare_matched
      FROM qt
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY tf.doc_id
    )
    SELECT (row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC)
            - 1)::INTEGER AS rank,
           doc_id, round(s, 6) AS score
    FROM scores, n_req
    WHERE rare_matched = n_req.n
    ORDER BY rank LIMIT {CTQ_K}
    """


QUERIES["common_terms_query_documents"] = q_common_terms_query_documents
ORACLE["common_terms_query_documents"] = _ctq_oracle_sql()


# ---------------------------------------------------------------------------
# SPLITSHARD — hash-range split, then scatter the query across children
# ---------------------------------------------------------------------------


def q_shard_split_search_documents(sf_dir: str):
    """SPLITSHARD then distributed search: split the documents index into
    two hash-range children (`solr/core/src/java/org/apache/solr/cloud/
    api/collections/SplitShardCmd.java` routed by CompositeIdRouter;
    segment rewrite per `lucene/misc/.../index/PKIndexSplitter.java`),
    scatter a TermQuery to BOTH children, and merge the doc sets — the
    shard fan-out of `HttpShardHandler` with the split as the data-move.
    The op self-checks the shard contract LOUDLY: a doc served by both
    children means the hash ranges overlap."""
    from rindex.merge import split_index

    idx = documents_index(sf_dir)
    children = [idx + "-split0", idx + "-split1"]
    split_index(idx, children)
    a, b = (_term_doc_ids(c, "dup") for c in children)
    overlap = set(a) & set(b)
    if overlap:
        raise AssertionError(
            f"split children share {len(overlap)} docs — hash ranges overlap"
        )
    return pd.DataFrame({"doc_id": sorted(a + b)})


QUERIES["shard_split_search_documents"] = q_shard_split_search_documents
ORACLE["shard_split_search_documents"] = f"""
    SELECT doc_id FROM documents
    WHERE list_contains(regexp_extract_all(lower(text), '{TOKEN_SQL_RE}'), 'dup')
"""


# ---------------------------------------------------------------------------
# CoveringQuery (`lucene/sandbox/src/java/org/apache/lucene/sandbox/search/
# CoveringQuery.java`): a disjunction whose minimumNumberMatch is a
# PER-DOCUMENT value source, not a query constant — here required =
# 1 + doc_id % 3.  Ray shape: the per-term distributed match sets union
# lazily, one coarse-bucket combine counts matched clauses and sums their
# BM25 scores per doc, and the dynamic threshold filters inside the same
# reduce — no driver-side pass.
# ---------------------------------------------------------------------------

COVERING_TERMS = ["hash", "join", "scan", "merge"]


def q_covering_query_documents(sf_dir: str):
    """Docs matching at least (1 + doc_id % 3) of the four clause terms;
    score = sum of the matching clauses' BM25 scores (round 6), doc asc."""
    import pandas as pd

    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand")
    parts = [
        searcher.score_matches_dataset(t, mode="or") for t in COVERING_TERMS
    ]
    matches = parts[0].union(*parts[1:])

    def bucket(t: pa.Table) -> pa.Table:
        gb = (t["doc_id"].to_numpy(zero_copy_only=False) % 127).astype(
            np.int32
        )
        return t.append_column("_gb", pa.array(gb))

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id", as_index=False).agg(
            n_matched=("score", "size"), s=("score", "sum")
        )
        did = agg["doc_id"].to_numpy(np.int64)
        req = 1 + did % 3
        m = agg["n_matched"].to_numpy(np.int64) >= req
        return pd.DataFrame(
            {
                "doc_id": did[m],
                "n_matched": agg["n_matched"].to_numpy(np.int64)[m],
                "required": req[m],
                "score": agg["s"].to_numpy(np.float64)[m].round(6),
            }
        )

    return (
        matches.map_batches(bucket, batch_format="pyarrow",
                            zero_copy_batch=True)
        .groupby("_gb")
        .map_groups(lambda g: cover(g.drop(columns=["_gb"])),
                    batch_format="pandas")
        .sort("doc_id")
    )


QUERIES["covering_query_documents"] = q_covering_query_documents


def _covering_oracle_sql() -> str:
    q_rows = ",".join(f"('{t}')" for t in COVERING_TERMS)
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {q_rows}),
    per AS (
      SELECT tf.doc_id, count(*)::BIGINT AS n_matched,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY 1
    )
    SELECT doc_id, n_matched, (1 + doc_id % 3)::BIGINT AS required,
           round(s, 6) AS score
    FROM per WHERE n_matched >= 1 + doc_id % 3
    ORDER BY doc_id
    """


ORACLE["covering_query_documents"] = _covering_oracle_sql()


# ---------------------------------------------------------------------------
# SweetSpotSimilarity — Similarity SPI member #8 (`lucene/misc/src/java/
# org/apache/lucene/misc/SweetSpotSimilarity.java`): plateau length norm
# (no penalty up to MAX tokens, then 1/sqrt decay), run through the SAME
# WAND/exhaustive kernels with recomputed block bounds.
# ---------------------------------------------------------------------------

SWEET_QUERIES: list[tuple[str, str, str]] = [
    ("w00", "or", "window sort"),
    ("w01", "term", "merge"),
    ("w02", "and", "batch vector"),
]


def q_sweetspot_sim_topk_documents(sf_dir: str):
    """Top-k under SweetSpotSimilarity (idf^2 * sqrt(tf) / plateau-norm).
    Rounded-rank slack discipline as ClassicSimilarity: the sqrt-ratio
    form produces genuine cross-doc ties whose unrounded float order is
    ulp-noise."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="sweetspot")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in SWEET_QUERIES]),
            "qtype": pa.array([q[1] for q in SWEET_QUERIES]),
            "text": pa.array([q[2] for q in SWEET_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(SWEET_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _sweetspot_oracle_sql() -> str:
    from rindex.similarity import SweetSpotSimilarity as _S

    mn, mx, st = _S.MIN, _S.MAX, _S.STEEP
    q_rows = []
    for qid, qtype, text in SWEET_QUERIES:
        terms = text.split()
        for t in terms:
            q_rows.append(f"('{qid}', '{t}', {len(set(terms))}, '{qtype}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term, n_required, qtype) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum(((1.0 + ln(n_docs / (df + 1.0)))
                  * (1.0 + ln(n_docs / (df + 1.0)))) * sqrt(tf)
                 / sqrt({st} * (abs(greatest(ldl, 1.0) - {mn})
                                + abs(greatest(ldl, 1.0) - {mx})
                                - ({mx} - {mn})) + 1.0)) AS s,
             count(DISTINCT tf.term) AS n_matched,
             max(q.n_required) AS n_required,
             max(q.qtype) AS qtype
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
      WHERE qtype <> 'and' OR n_matched = n_required
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["sweetspot_sim_topk_documents"] = q_sweetspot_sim_topk_documents
ORACLE["sweetspot_sim_topk_documents"] = _sweetspot_oracle_sql()


# ---------------------------------------------------------------------------
# SpanPositionRangeQuery (`lucene/core/src/java/org/apache/lucene/search/
# spans/SpanPositionRangeQuery.java`): occurrences restricted to a position
# window [start, end) — the generalization of SpanFirst (which is the
# end-only case).  Served from the positional postings: per doc, two
# searchsorteds over the term's sorted position run count the in-window
# occurrences.
# ---------------------------------------------------------------------------

SPAN_POS_TERM = "merge"
SPAN_POS_LO, SPAN_POS_HI = 3, 12  # 0-based positions in [3, 12)


def q_span_position_range_documents(sf_dir: str):
    """Docs where '{SPAN_POS_TERM}' occurs at a 0-based position in
    [{SPAN_POS_LO}, {SPAN_POS_HI}), with the in-window occurrence count."""
    import pandas as pd

    from rindex.ops.util import live_id_rows
    from rindex.search import IndexSearcher

    r = IndexSearcher(documents_index_pos(sf_dir)).reader()
    got = r.positions_for([SPAN_POS_TERM])[SPAN_POS_TERM]
    rows = []
    if got is not None:
        docs, tfs, pos = got[:3]
        # per-doc window counts: a reduceat of the in-window mask over each
        # doc's position run
        inw = ((pos >= SPAN_POS_LO) & (pos < SPAN_POS_HI)).astype(np.int64)
        n = np.add.reduceat(inw, np.cumsum(tfs) - tfs)
        rows = live_id_rows(r, docs[n > 0], n[n > 0])
    return pd.DataFrame(
        {
            "doc_id": [r[0] for r in rows],
            "n_in_window": pd.array([r[1] for r in rows], dtype="int64"),
        }
    )


QUERIES["span_position_range_documents"] = q_span_position_range_documents
ORACLE["span_position_range_documents"] = f"""
    SELECT doc_id, n_in_window FROM (
      SELECT doc_id,
        len(list_filter(range(1, len(l) + 1),
            i -> l[i] = '{SPAN_POS_TERM}'
                 AND i - 1 >= {SPAN_POS_LO}
                 AND i - 1 < {SPAN_POS_HI}))::BIGINT AS n_in_window
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_SQL_RE}') AS l
            FROM documents))
    WHERE n_in_window > 0
"""


# ---------------------------------------------------------------------------
# r4 similarity batch: BooleanSimilarity + IBSimilarity (SPL/DF/H1) top-k
# ---------------------------------------------------------------------------

IB_C = 1.0


def q_boolean_sim_topk_documents(sf_dir: str):
    """Top-k with BooleanSimilarity (rindex.similarity.BooleanSimilarity):
    per-doc score = matched-term count, so ranks are fully tie-broken by
    doc_id — the constant-score search path through the SAME WAND
    kernels (bounds trivially exact)."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="boolean")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _boolean_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id, tf.doc_id, sum(1.0) AS s
      FROM q JOIN tf USING (term)
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    ORDER BY query_id, rank
    """


QUERIES["boolean_sim_topk_documents"] = q_boolean_sim_topk_documents
ORACLE["boolean_sim_topk_documents"] = _boolean_oracle_sql()


def q_ib_spl_topk_documents(sf_dir: str):
    """Top-k with IBSimilarity SPL/DF/H1 (rindex.similarity.IBSimilarity,
    c=1): the information-based family through the same WAND kernels and
    recomputed block bounds, rounded-rank discipline as the DFR ops."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="ib_spl")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _ib_spl_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    # lam first, then tfn with the cv-first association (tf * (c*avgdl/dl))
    # mirroring IBSimilarity.norm_cache/score exactly
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(-log2((pow((df + 1.0) / (n_docs + 1.0),
                            (tf * ({IB_C} * avgdl / greatest(ldl, 1.0)))
                            / ((tf * ({IB_C} * avgdl / greatest(ldl, 1.0)))
                               + 1.0))
                        - (df + 1.0) / (n_docs + 1.0))
                       / (1.0 - (df + 1.0) / (n_docs + 1.0)))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    ORDER BY query_id, rank
    """


QUERIES["ib_spl_topk_documents"] = q_ib_spl_topk_documents
ORACLE["ib_spl_topk_documents"] = _ib_spl_oracle_sql()


def q_ib_ll_topk_documents(sf_dir: str):
    """Top-k with IBSimilarity LL/DF/H1 (rindex.similarity.IBLLSimilarity,
    c=1) — the log-logistic member of the information-based family
    (`lucene/core/.../similarities/DistributionLL.java`), same WAND
    kernels and rounded-rank discipline as the SPL member."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="ib_ll")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _ib_ll_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(-log2(((df + 1.0) / (n_docs + 1.0))
                       / ((tf * ({IB_C} * avgdl / greatest(ldl, 1.0)))
                          + (df + 1.0) / (n_docs + 1.0)))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    ORDER BY query_id, rank
    """


QUERIES["ib_ll_topk_documents"] = q_ib_ll_topk_documents
ORACLE["ib_ll_topk_documents"] = _ib_ll_oracle_sql()


# ---------------------------------------------------------------------------
# Explanation API — per-hit BM25 score decomposition (debug=true)
# ---------------------------------------------------------------------------

EXPLAIN_QUERY = "hash join"
EXPLAIN_K = 5


def q_explain_scores_documents(sf_dir: str):
    """Lucene's Explanation tree (`lucene/core/src/java/org/apache/lucene/
    search/Explanation.java` via IndexSearcher#explain / Solr debug=true):
    for the top-{EXPLAIN_K} hits of an OR query, the per-term BM25
    decomposition — tf, df, idf, the lossy norm length, the tf
    saturation, and the term's score part — reconstructed from the SAME
    postings the scorer read, so sum(parts) is bit-identical to the hit
    score.  The oracle re-derives every leaf of the explanation in SQL."""
    from rindex.ops.util import live_id_rows
    from rindex.schema import B, K1
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    s = IndexSearcher(idx, algo="exhaustive")
    terms = EXPLAIN_QUERY.split()
    hits = s.search(EXPLAIN_QUERY, k=EXPLAIN_K, mode="or")
    top_ids = {int(h[1]) for h in hits}
    df = s.global_df(terms)
    n, avgdl = float(s.n_docs), float(s.sum_dl) / float(s.n_docs)
    r = s.reader()
    posts = r.postings_for(terms)
    rows = []
    for t in terms:
        if posts[t] is None:
            continue
        d, tf_arr, nrm = r.decoded(t, posts[t])
        ldl = NORM_DECODE_TABLE[nrm].astype(np.float64)
        idf = np.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
        for did, tf, dl in live_id_rows(r, d, tf_arr, ldl):
            if did not in top_ids:
                continue
            tf = float(tf)
            sat = tf / (tf + K1 * (1.0 - B + B * float(dl) / avgdl))
            rows.append((
                did, t, int(tf), int(df[t]), round(float(idf), 6), float(dl),
                round(float(sat), 6), round(float(idf * sat), 6),
            ))
    rows.sort(key=lambda r: (r[0], r[1]))
    return pd.DataFrame(
        rows,
        columns=["doc_id", "term", "tf", "df", "idf", "norm_dl",
                 "tf_sat", "score_part"],
    )


QUERIES["explain_scores_documents"] = q_explain_scores_documents


def _explain_oracle_sql() -> str:
    from rindex.schema import B, K1

    terms_sql = ", ".join(f"('{t}')" for t in EXPLAIN_QUERY.split())
    return f"""
    WITH {_bm25_ctes()},
    q(term) AS (VALUES {terms_sql}),
    scored AS (
      SELECT tf.doc_id,
             sum(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl))) AS s
      FROM tf JOIN q USING (term) JOIN df USING (term)
      JOIN lossy USING (doc_id) CROSS JOIN stats
      GROUP BY tf.doc_id
    ),
    topk AS (
      SELECT doc_id FROM (
        SELECT doc_id,
               row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC)
                 AS rn
        FROM scored)
      WHERE rn <= {EXPLAIN_K}
    )
    SELECT tf.doc_id, tf.term, tf.tf::BIGINT AS tf,
           df.df::BIGINT AS df,
           round(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5)), 6) AS idf,
           ldl AS norm_dl,
           round(tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)), 6)
             AS tf_sat,
           round(ln(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                 * tf / (tf + {K1} * (1.0 - {B} + {B} * ldl / avgdl)), 6)
             AS score_part
    FROM tf JOIN q USING (term) JOIN df USING (term)
    JOIN topk USING (doc_id)
    JOIN lossy USING (doc_id) CROSS JOIN stats
    ORDER BY tf.doc_id, tf.term
    """


ORACLE["explain_scores_documents"] = _explain_oracle_sql()


# ---------------------------------------------------------------------------
# r5: DFR basic-model-G grid cells (G/B/H2 and G/L/H1) — the first
# similarities whose information content is AFFINE in tfn, riding the
# 2-vector weight channel (rindex/similarity.py DFRGBSimilarity/
# DFRGLSimilarity, rindex/search.py _weight_val)
# ---------------------------------------------------------------------------


def q_dfr_gb_topk_documents(sf_dir: str):
    """Top-k with DFR G/B/H2 (c=1) — see rindex.similarity.DFRGBSimilarity;
    same WAND kernels (2-vector block bounds), same rounded-rank
    discipline as the other DFR topk ops."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="dfr_gb")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _dfr_g_oracle_sql(after_effect: str) -> str:
    """Shared SQL for the G-model cells: after_effect 'b' multiplies by
    (F+1)/df and uses H2's log tfn; 'l' has unit gain and H1's linear
    tfn.  lam = F/(N+F) — the geometric prior both similarity classes
    document."""
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    if after_effect == "b":
        tfn = f"(tf * log2(1.0 + {DFR_C} * avgdl / greatest(ldl, 1.0)))"
        gain = "((ttf + 1.0) / df)"
    else:
        tfn = f"(tf * {DFR_C} * avgdl / greatest(ldl, 1.0))"
        gain = "1.0"
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id,
             tf.doc_id,
             sum({gain}
                 * (log2(1.0 + ttf / (n_docs + ttf))
                    + {tfn} * log2((1.0 + ttf / (n_docs + ttf))
                                   / (ttf / (n_docs + ttf))))
                 / ({tfn} + 1.0)) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN df USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    """


QUERIES["dfr_gb_topk_documents"] = q_dfr_gb_topk_documents
ORACLE["dfr_gb_topk_documents"] = _dfr_g_oracle_sql("b")


def q_dfr_gl_topk_documents(sf_dir: str):
    """Top-k with DFR G/L/H1 (c=1) — see rindex.similarity.DFRGLSimilarity."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="dfr_gl")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


QUERIES["dfr_gl_topk_documents"] = q_dfr_gl_topk_documents
ORACLE["dfr_gl_topk_documents"] = _dfr_g_oracle_sql("l")


def q_ib_ll_ttf_topk_documents(sf_dir: str):
    """Top-k with IB LL/LambdaTTF/H1 (c=1) — see
    rindex.similarity.IBLLTTFSimilarity; LambdaTTF rides the cstats
    channel like the DFR family."""
    from rindex.search import IndexSearcher

    idx = documents_index(sf_dir)
    searcher = IndexSearcher(idx, algo="wand", similarity="ib_ll_ttf")
    slack = 16
    qtbl = pa.table(
        {
            "query_id": pa.array([q[0] for q in LMD_QUERIES]),
            "qtype": pa.array([q[1] for q in LMD_QUERIES]),
            "text": pa.array([q[2] for q in LMD_QUERIES]),
            "k": pa.array([TOP_K + slack] * len(LMD_QUERIES), pa.int32()),
        }
    )
    out = searcher.search_table(qtbl).to_pandas()
    out["score"] = out["score"].round(6)
    out = (
        out.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", sort=False)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id", sort=False).cumcount().astype("int32")
    return out[["query_id", "rank", "doc_id", "score"]]


def _ib_ll_ttf_oracle_sql() -> str:
    q_rows = []
    for qid, _qtype, text in LMD_QUERIES:
        for t in text.split():
            q_rows.append(f"('{qid}', '{t}')")
    q_values = ",".join(q_rows)
    return f"""
    WITH {_bm25_ctes()},
    ttfc AS (SELECT term, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {q_values}),
    scores AS (
      SELECT q.query_id, tf.doc_id,
             sum(-log2(((ttf + 1.0) / (n_docs + 1.0))
                       / ((tf * ({IB_C} * avgdl / greatest(ldl, 1.0)))
                          + (ttf + 1.0) / (n_docs + 1.0)))) AS s
      FROM q
      JOIN tf USING (term)
      JOIN ttfc USING (term)
      JOIN lossy USING (doc_id)
      CROSS JOIN stats
      GROUP BY q.query_id, tf.doc_id
    ),
    ranked AS (
      SELECT query_id, doc_id, round(s, 6) AS s,
             (row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(s, 6) DESC, doc_id ASC)
              - 1)::INTEGER AS rank
      FROM scores
    )
    SELECT query_id, rank, doc_id, s AS score
    FROM ranked WHERE rank < {TOP_K}
    ORDER BY query_id, rank
    """


QUERIES["ib_ll_ttf_topk_documents"] = q_ib_ll_ttf_topk_documents
ORACLE["ib_ll_ttf_topk_documents"] = _ib_ll_ttf_oracle_sql()
