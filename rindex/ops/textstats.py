"""Text-analysis operators over `documents` (training-data-pipeline ops).

Reference anchors: language-ID URP (`solr/contrib/langid/src/java/org/apache/
solr/update/processor/LangDetectLanguageIdentifierUpdateProcessor.java`),
signature URPs (`solr/core/src/java/org/apache/solr/update/processor/
{SignatureUpdateProcessorFactory,TextProfileSignature}.java`), analyze()
stream evaluator (`solr/solrj/.../io/eval/AnalyzeEvaluator.java`).

The SQL-token regex `[0-9a-z]+` is shared verbatim between the Ray
implementations and the DuckDB oracles.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from rindex.schema import pool_cap
from rindex.ops.util import N_BUCKETS, bucket_map_groups, read_table

QUERIES: dict = {}
ORACLE: dict = {}

_TOKEN_RE = re.compile(r"[0-9a-z]+")
_PUNCT_RE = re.compile(r"[.!?,;:]")
_NUM_RE = re.compile(r"[0-9]+")

STOPSETS = {
    "en": {"the", "a", "of", "to", "and", "in", "is", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein"},
    "fr": {"le", "la", "les", "et", "est", "un", "une"},
    "es": {"el", "la", "los", "y", "es", "un", "una"},
}


def q_token_count_documents(sf_dir: str):
    """Token counting (whitespace/regex tokenizer as a column function —
    the analyze() evaluator mapping)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.utf8_lower(t["text"]).to_pylist()
        n = np.fromiter(
            (len(_TOKEN_RE.findall(x or "")) for x in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return pa.table({"doc_id": t["doc_id"], "n_tokens": pa.array(n)})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["token_count_documents"] = q_token_count_documents
# coalesce(text, ''): the Ray side tokenizes `x or ""`, so a NULL text
# must count 0 tokens (not NULL) — latent on the null-free driver corpora
ORACLE["token_count_documents"] = """
    SELECT doc_id,
           len(regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z]+'))::BIGINT AS n_tokens
    FROM documents
"""


def q_quality_score_documents(sf_dir: str):
    """Quality scoring: length / punctuation / token stats + a keep flag
    (the heuristic-quality-filter stage of a training-data pipeline)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        raw = t["text"].to_pylist()
        low = pc.utf8_lower(t["text"]).to_pylist()
        n_chars = np.fromiter((len(x or "") for x in raw), np.int64, len(raw))
        n_words = np.fromiter(
            (len(_TOKEN_RE.findall(x or "")) for x in low), np.int64, len(low)
        )
        n_punct = np.fromiter(
            (len(_PUNCT_RE.findall(x or "")) for x in raw), np.int64, len(raw)
        )
        keep = (n_words >= 5) & (n_words <= 2000) & (
            n_punct <= 0.1 * np.maximum(n_chars, 1)
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "n_punct": pa.array(n_punct),
                "is_quality": pa.array(keep),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["quality_score_documents"] = q_quality_score_documents
# coalesce(text, '') everywhere: the Ray side computes over `x or ""`, so
# a NULL text must score as an empty doc, not propagate NULL
ORACLE["quality_score_documents"] = """
    WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents)
    SELECT doc_id,
           length(text)::BIGINT AS n_chars,
           len(regexp_extract_all(lower(text), '[0-9a-z]+'))::BIGINT AS n_words,
           (length(text) - length(regexp_replace(text, '[.!?,;:]', '', 'g')))::BIGINT AS n_punct,
           (len(regexp_extract_all(lower(text), '[0-9a-z]+')) BETWEEN 5 AND 2000
            AND (length(text) - length(regexp_replace(text, '[.!?,;:]', '', 'g')))
                <= 0.1 * greatest(length(text), 1)) AS is_quality
    FROM t
"""


def q_fingerprint_documents(sf_dir: str):
    """Document fingerprinting: content hash of the normalized token stream
    (SignatureUpdateProcessorFactory / MD5Signature mapping)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.utf8_lower(t["text"]).to_pylist()
        fps = [
            hashlib.md5(" ".join(_TOKEN_RE.findall(x or "")).encode()).hexdigest()
            for x in low
        ]
        return pa.table({"doc_id": t["doc_id"], "fingerprint": pa.array(fps)})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["fingerprint_documents"] = q_fingerprint_documents
# coalesce: NULL text fingerprints as md5('') on the Ray side
ORACLE["fingerprint_documents"] = """
    SELECT doc_id,
           md5(array_to_string(regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z]+'), ' ')) AS fingerprint
    FROM documents
"""


def q_textprofile_signature_documents(sf_dir: str):
    """TextProfileSignature: quantized term-frequency profile hash for fuzzy
    dedup (reference: `solr/core/src/java/org/apache/solr/update/processor/
    TextProfileSignature.java` — terms with quantized freq, sorted, hashed).
    Quantization: round-half-up(tf / max_tf * 4), computed in INTEGER
    arithmetic ((8*tf + max) // (2*max)) so the Ray side and the SQL oracle
    agree bit-for-bit on .5 boundaries (the reference's Java Math.round is
    half-up too; Python's round() is banker's and was the reason this op
    used to be rows-only).

    Vectorized via the repetition kernel's batch shape (one flat token
    array + lexsort/reduceat — textstats.py:_repetition_fracs_toklists):
    tf and per-doc max fall out of ONE (doc, token) lexsort, quantization
    and "w:q" item formatting are numpy kernels, and a second (doc, item)
    lexsort yields the signature order — the only remaining per-doc work
    is the O(n_docs) md5 of each joined profile (irreducible: the digest
    is per document)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.utf8_lower(t["text"]).to_pylist()
        toks_per = [_TOKEN_RE.findall(x or "") for x in low]
        n = len(toks_per)
        empty_sig = hashlib.md5(b"").hexdigest()
        sigs = np.full(n, empty_sig, dtype=object)
        lens = np.fromiter((len(tk) for tk in toks_per), np.int64, n)
        if lens.sum() > 0:
            flat = np.concatenate(
                [np.asarray(tk, dtype=str) for tk in toks_per if tk]
            )
            doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
            o1 = np.lexsort((flat, doc_of))
            d1, f1 = doc_of[o1], flat[o1]
            rs = np.flatnonzero(
                np.r_[True, (d1[1:] != d1[:-1]) | (f1[1:] != f1[:-1])]
            )
            tf = np.diff(np.append(rs, len(d1)))
            run_doc, run_tok = d1[rs], f1[rs]
            doc_start = np.flatnonzero(
                np.r_[True, run_doc[1:] != run_doc[:-1]]
            )
            runs_per_doc = np.diff(np.append(doc_start, len(run_doc)))
            mxr = np.repeat(
                np.maximum.reduceat(tf, doc_start), runs_per_doc
            )
            q = (8 * tf + mxr) // (2 * mxr)
            items = np.char.add(
                np.char.add(run_tok, ":"), q.astype(str)
            )
            o2 = np.lexsort((items, run_doc))
            items_s = items[o2]
            ends = np.append(doc_start[1:], len(run_doc))
            for di, a, b in zip(run_doc[doc_start], doc_start, ends):
                sigs[di] = hashlib.md5(
                    " ".join(items_s[a:b]).encode()
                ).hexdigest()
        return pa.table(
            {"doc_id": t["doc_id"], "signature": pa.array(list(sigs))}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["textprofile_signature_documents"] = q_textprofile_signature_documents
# Exact oracle: same integer half-up quantization, codepoint-ordered
# string_agg (items are pure ascii [0-9a-z:]), md5('') for token-less docs.
ORACLE["textprofile_signature_documents"] = """
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS w
      FROM documents),
    tf AS (SELECT doc_id, w, count(*)::BIGINT AS v FROM toks GROUP BY doc_id, w),
    mx AS (SELECT doc_id, max(v) AS mx FROM tf GROUP BY doc_id),
    prof AS (
      SELECT tf.doc_id,
             tf.w || ':' || ((8 * tf.v + mx.mx) // (2 * mx.mx))::VARCHAR AS item
      FROM tf JOIN mx USING (doc_id)),
    sig AS (
      SELECT doc_id, md5(string_agg(item, ' ' ORDER BY item)) AS signature
      FROM prof GROUP BY doc_id)
    SELECT d.doc_id, coalesce(s.signature, md5('')) AS signature
    FROM documents d LEFT JOIN sig s USING (doc_id)
"""


class LangIdKernel:
    """Vectorized stopword-profile language-ID actor (shared by the
    documents op below and the per-conversation variant in transcripts.py).

    The r1–r4 kernel walked rows in Python (regex + per-row set
    intersections); this one is the same SEMANTICS — score = |distinct
    tokens ∩ profile|, winner = max by (score, lang), 'und' on all-zero —
    expressed as one explode→dedupe→merge→groupby chain per batch, all in
    pandas C kernels.  The profile table (one (token, lang) row per
    stopword) is built once per actor in __init__."""

    def __init__(self, id_col: str):
        self.id_col = id_col
        self.prof = pd.DataFrame(
            [(w, lang) for lang, sw in STOPSETS.items() for w in sw],
            columns=["tok", "lang"],
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = (
            batch["text"].reset_index(drop=True).fillna("").astype(str)
            .str.lower()
        )
        ex = texts.str.findall(r"[0-9a-z]+").explode().dropna()
        pairs = pd.DataFrame(
            {"row": ex.index.to_numpy(np.int64), "tok": ex.to_numpy()}
        ).drop_duplicates()
        sc = (
            pairs.merge(self.prof, on="tok")
            .groupby(["row", "lang"], as_index=False)
            .size()
        )
        # winner per row: largest count, lang DESC on ties == Python
        # max(items, key=(score, lang)) of the historical row kernel
        win = (
            sc.sort_values(["row", "size", "lang"], kind="mergesort")
            .groupby("row", sort=False)
            .tail(1)
        )
        preds = np.full(len(batch), "und", dtype=object)
        preds[win["row"].to_numpy(np.int64)] = win["lang"].to_numpy()
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].reset_index(drop=True),
                "pred_lang": preds,
            }
        )


def q_langid_documents(sf_dir: str):
    """Language-ID enrichment via stopword-profile heuristic (LangDetect URP
    mapping; the model here is a dictionary profile loaded once per actor —
    the actor-pool stateful-stage pattern, batch kernel fully vectorized
    since r5)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        LangIdKernel,
        fn_constructor_args=("doc_id",),
        batch_format="pandas",
        batch_size=1024,
        concurrency=pool_cap(min_cap=2),
    )


QUERIES["langid_documents"] = q_langid_documents

# Exact oracle: the "model" is a deterministic function of the inlined
# stopword profiles — score = |distinct tokens ∩ profile|, winner = max by
# (score, lang) with the lexicographically GREATEST language on score ties
# (Python max() keeps the larger key tuple; ORDER BY sc DESC, lang DESC
# row_number()=1 is the same pick), 'und' when every score is 0.
_STOPSETS_SQL = ", ".join(
    "('%s', [%s])" % (lang, ", ".join(f"'{w}'" for w in sorted(sw)))
    for lang, sw in sorted(STOPSETS.items())
)
ORACLE["langid_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             list_distinct(regexp_extract_all(lower(text), '[0-9a-z]+')) AS t
      FROM documents),
    scores AS (
      SELECT doc_id, l.lang, len(list_intersect(t, l.sw)) AS sc
      FROM toks CROSS JOIN (VALUES {_STOPSETS_SQL}) l(lang, sw)),
    best AS (
      SELECT doc_id, lang, sc,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY sc DESC, lang DESC) AS rn
      FROM scores)
    SELECT doc_id, CASE WHEN sc > 0 THEN lang ELSE 'und' END AS pred_lang
    FROM best WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# PII redaction — the scrubbing stage of a training-data pipeline
# ---------------------------------------------------------------------------

# Both Arrow (re2) and DuckDB (re2) compile these identically.
_EMAIL_RE = r"[0-9a-z._%+-]+@[0-9a-z.-]+\.[a-z]{2,}"
_PHONE_RE = r"\+1-555-[0-9]{4}"


def q_pii_redact_documents(sf_dir: str):
    """PII redaction: replace emails/phone numbers with typed placeholder
    tokens and count the redactions per doc (the scrub stage every LLM
    training pipeline runs before tokenization).  The driver corpus has no
    PII, so a contact line is derived DETERMINISTICALLY from doc_id first
    (both sides derive the same line — the dismax title-derivation trick),
    then redacted.  Fully vectorized: Arrow re2 kernels
    (replace_substring_regex / count_substring_regex) per batch, zero
    Python row loops, streaming end to end."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"]
        ids_np = ids.to_numpy()
        m100 = pa.array(np.char.mod("%d", ids_np % 100))
        m4 = pa.array(np.char.zfill(np.char.mod("%d", ids_np % 10000), 4))
        aug = pc.binary_join_element_wise(t["text"], m100, " contact user")
        aug = pc.binary_join_element_wise(
            aug, m4, "@example.com or call +1-555-"
        )
        n_email = pc.count_substring_regex(aug, _EMAIL_RE)
        red = pc.replace_substring_regex(aug, _EMAIL_RE, "[EMAIL]")
        n_phone = pc.count_substring_regex(red, _PHONE_RE)
        red = pc.replace_substring_regex(red, _PHONE_RE, "[PHONE]")
        return pa.table(
            {
                "doc_id": ids,
                "redacted": red,
                "n_email": pc.cast(n_email, pa.int64()),
                "n_phone": pc.cast(n_phone, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["pii_redact_documents"] = q_pii_redact_documents
ORACLE["pii_redact_documents"] = f"""
    WITH aug AS (
      SELECT doc_id,
             text || ' contact user' || (doc_id % 100)::VARCHAR
                  || '@example.com or call +1-555-'
                  || lpad((doc_id % 10000)::VARCHAR, 4, '0') AS t
      FROM documents
    )
    SELECT doc_id,
           regexp_replace(regexp_replace(t, '{_EMAIL_RE}', '[EMAIL]', 'g'),
                          '{_PHONE_RE}', '[PHONE]', 'g') AS redacted,
           len(regexp_extract_all(t, '{_EMAIL_RE}'))::BIGINT AS n_email,
           len(regexp_extract_all(
               regexp_replace(t, '{_EMAIL_RE}', '[EMAIL]', 'g'),
               '{_PHONE_RE}'))::BIGINT AS n_phone
    FROM aug
"""


# ---------------------------------------------------------------------------
# Repetition stats — Gopher-style within-document repetition filters
# ---------------------------------------------------------------------------

# Gopher's published cuts are 0.18 / 0.30 (Rae et al. 2021 table A1); the
# driver transcripts are far less repetitive than web text, so the cuts are
# tightened to values inside the observed distribution — the FLAG must
# split on this corpus or the filter is vacuously untested.
REP_TOP_BIGRAM_MAX = 0.04   # drop if most-common 2-gram fraction >
REP_DUP_TRIGRAM_MAX = 0.02  # drop if duplicate 3-gram fraction >

# Horner multipliers for the 2-/3-gram hashes (the dedup module's shingle
# convention — int64 wraparound is intentional, masked back to 63 bits)
_BG_A = np.int64(0x9E3779B1)
_TG_B = np.int64(0x85EBCA77)


def _repetition_fracs_toklists(
    tok_lists: list[list[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-vectorized Gopher repetition fractions: per document, the
    most-common-bigram fraction and the duplicate-trigram fraction.

    One concatenated token-hash array for the whole batch (cached md5 per
    distinct token via dedup's `_token_hashes`), Horner 2-/3-gram hashes,
    then ONE lexsort + run-length pass per n-gram order — per-doc maxima
    and distinct counts fall out of `np.maximum.reduceat` / run counting.
    No per-token Python in the gram stage (replaces the Counter-per-doc
    loop the round-2 verdict flagged as the hot-path row loop)."""
    from rindex.ops.dedup import _MASK63, _token_hashes

    n = len(tok_lists)
    top_bg = np.zeros(n, np.float64)
    dup_tg = np.zeros(n, np.float64)
    if n == 0:
        return top_bg, dup_tg
    lens = np.fromiter((len(t) for t in tok_lists), np.int64, n)
    total = int(lens.sum())
    if total < 2:
        return top_bg, dup_tg
    th = np.concatenate(
        [_token_hashes(t) for t in tok_lists if t]
    )
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)

    def _per_doc_runs(gram_h, gram_doc):
        """(docs_present, max_run, n_runs, n_grams_per_present_doc)."""
        order = np.lexsort((gram_h, gram_doc))
        d = gram_doc[order]
        h = gram_h[order]
        run_start = np.empty(len(d), np.bool_)
        run_start[0] = True
        run_start[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
        rs = np.flatnonzero(run_start)
        run_counts = np.diff(np.append(rs, len(d)))
        run_doc = d[rs]
        doc_start = np.flatnonzero(
            np.r_[True, run_doc[1:] != run_doc[:-1]]
        )
        docs = run_doc[doc_start]
        max_run = np.maximum.reduceat(run_counts, doc_start)
        n_runs = np.diff(np.append(doc_start, len(run_doc)))
        return docs, max_run, n_runs

    same2 = doc_of[:-1] == doc_of[1:]
    if same2.any():
        bg = ((th[:-1] * _BG_A + th[1:]) & _MASK63)[same2]
        docs, max_run, _ = _per_doc_runs(bg, doc_of[:-1][same2])
        top_bg[docs] = max_run / (lens[docs] - 1)
    if total >= 3:
        same3 = doc_of[:-2] == doc_of[2:]
        if same3.any():
            tg = ((th[:-2] * _BG_A + th[1:-1] * _TG_B + th[2:])
                  & _MASK63)[same3]
            docs, _, n_runs = _per_doc_runs(tg, doc_of[:-2][same3])
            dup_tg[docs] = 1.0 - n_runs / (lens[docs] - 2)
    return top_bg, dup_tg


def q_repetition_stats_documents(sf_dir: str):
    """Within-document repetition filters (the Gopher rules, Rae et al.
    2021 §A1.1: fraction of the most common n-gram / fraction of duplicate
    n-grams): per doc, the most-frequent-bigram fraction and the duplicate
    -trigram fraction, plus the keep flag.  Stateless map_batches; the
    gram counting is the batch-vectorized `_repetition_fracs_toklists`
    kernel (one lexsort/reduceat pass per n-gram order)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.utf8_lower(t["text"]).to_pylist()
        toks = [_TOKEN_RE.findall(x or "") for x in low]
        top_bg, dup_tg = _repetition_fracs_toklists(toks)
        keep = (top_bg <= REP_TOP_BIGRAM_MAX) & (dup_tg <= REP_DUP_TRIGRAM_MAX)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "top_bigram_frac": pa.array(np.round(top_bg, 6)),
                "dup_trigram_frac": pa.array(np.round(dup_tg, 6)),
                "keep": pa.array(keep),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["repetition_stats_documents"] = q_repetition_stats_documents
ORACLE["repetition_stats_documents"] = f"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS l
      FROM documents
    ),
    bg AS (
      SELECT doc_id,
             unnest(list_transform(range(1, len(l)),
                                   i -> l[i] || ' ' || l[i + 1])) AS g
      FROM t
    ),
    bstats AS (
      SELECT doc_id, max(c)::DOUBLE / sum(c) AS top_bg
      FROM (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY 1, 2)
      GROUP BY 1
    ),
    tg AS (
      SELECT doc_id,
             unnest(list_transform(range(1, len(l) - 1),
                    i -> l[i] || ' ' || l[i + 1] || ' ' || l[i + 2])) AS g
      FROM t
    ),
    tstats AS (
      SELECT doc_id, 1.0 - count(DISTINCT g)::DOUBLE / count(*) AS dup_tg
      FROM tg GROUP BY 1
    )
    SELECT t.doc_id,
           round(coalesce(top_bg, 0.0), 6) AS top_bigram_frac,
           round(coalesce(dup_tg, 0.0), 6) AS dup_trigram_frac,
           (coalesce(top_bg, 0.0) <= {REP_TOP_BIGRAM_MAX}
            AND coalesce(dup_tg, 0.0) <= {REP_DUP_TRIGRAM_MAX}) AS keep
    FROM t
    LEFT JOIN bstats USING (doc_id)
    LEFT JOIN tstats USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Benchmark-contamination check (training-data decontamination)
# ---------------------------------------------------------------------------

CONTAM_MOD = 29    # benchmark docs: doc_id % 29 == 0 (the held-out eval set)
CONTAM_NGRAM = 4   # word 4-grams (GPT-3 appendix C uses 13-grams; 4 keeps
                   # the synthetic corpus's overlap density testable)
_CONTAM_P = np.int64(0x9E3779B1)


def _gram_hashes(text: str, n: int = CONTAM_NGRAM) -> np.ndarray:
    """Distinct word n-gram hashes: Horner combine of the memoized
    per-token hashes (the dedup module's vectorized shingle shape,
    generalized to any n)."""
    from rindex.ops.dedup import _MASK63, _token_hashes, _tokens

    th = _token_hashes(_tokens(text))
    m = len(th) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    acc = th[:m].copy()
    for j in range(1, n):
        acc = (acc * _CONTAM_P + th[j : j + m]) & _MASK63
    return np.unique(acc)


def q_contamination_check_documents(sf_dir: str):
    """Benchmark decontamination (the n-gram overlap filter of GPT-3
    appendix C / The Pile: flag training docs sharing any word n-gram with
    a held-out benchmark set).  Two streaming passes:

      1. benchmark docs (doc_id % 29 == 0) -> distinct 4-gram hashes per
         batch -> driver union.  The benchmark side is the DESIGNATED
         small side (an eval suite, not the corpus), broadcast via
         ray.put once — never re-shipped per batch.
      2. full scan: per batch, membership of each doc's distinct grams in
         the sorted broadcast set via ONE searchsorted over the batch's
         concatenated grams + per-doc reduceat.  Emits the contaminated
         non-benchmark docs.

    All-integer output (doc_id, n_hit, n_grams), so the oracle compare is
    exact; hashed-vs-string gram counting agrees absent 63-bit collisions
    (the ngram_jaccard precedent)."""
    import ray

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        keep = ids % CONTAM_MOD == 0
        texts = t["text"].to_pylist()
        gs = [_gram_hashes(texts[i] or "") for i in np.flatnonzero(keep)]
        flat = np.concatenate(gs) if gs else np.empty(0, np.int64)
        return pa.table({"g": pa.array(np.unique(flat), pa.int64())})

    parts = ds.map_batches(bench_grams, batch_format="pyarrow").to_pandas()
    bench = np.unique(parts["g"].to_numpy())
    ref = ray.put(bench)

    class _Check:
        def __init__(self):
            self.bench = ray.get(ref)  # sorted by construction

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            grams = [_gram_hashes(x or "") for x in t["text"].to_pylist()]
            lens = np.fromiter((len(g) for g in grams), np.int64, len(grams))
            flat = (
                np.concatenate(grams) if grams else np.empty(0, np.int64)
            )
            b = self.bench
            pos = np.searchsorted(b, flat)
            hit = np.zeros(len(flat), dtype=np.int64)
            if len(b):
                inb = pos < len(b)
                hit[inb] = (b[pos[inb]] == flat[inb]).astype(np.int64)
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            n_hit = np.zeros(len(grams), dtype=np.int64)
            nz = lens > 0
            if nz.any():
                sums = np.add.reduceat(hit, starts[nz])
                n_hit[nz] = sums
            out = (ids % CONTAM_MOD != 0) & (n_hit > 0)
            return pa.table(
                {
                    "doc_id": pa.array(ids[out]),
                    "n_hit": pa.array(n_hit[out]),
                    "n_grams": pa.array(lens[out]),
                }
            )

    res = ds.map_batches(_Check, batch_format="pyarrow", concurrency=pool_cap(min_cap=8))
    return (
        res.to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


QUERIES["contamination_check_documents"] = q_contamination_check_documents
ORACLE["contamination_check_documents"] = f"""
    WITH g AS (
      SELECT doc_id,
             unnest(list_distinct(
               [array_to_string(toks[i:i+{CONTAM_NGRAM - 1}], ' ')
                FOR i IN range(1, len(toks) - {CONTAM_NGRAM - 2})])) AS gram
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '[0-9a-z]+') AS toks
            FROM documents)
      WHERE len(toks) >= {CONTAM_NGRAM}
    ),
    bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % {CONTAM_MOD} = 0),
    sizes AS (SELECT doc_id, count(*) AS n_grams FROM g GROUP BY 1)
    SELECT g.doc_id, count(*) AS n_hit, max(sizes.n_grams) AS n_grams
    FROM g
    JOIN bench USING (gram)
    JOIN sizes ON g.doc_id = sizes.doc_id
    WHERE g.doc_id % {CONTAM_MOD} <> 0
    GROUP BY g.doc_id
    ORDER BY g.doc_id
"""


# ---------------------------------------------------------------------------
# End-to-end curation pipeline (the flagship LLM-training-data flow)
# ---------------------------------------------------------------------------

CURATE_MIN_CHARS = 40


def q_curation_pipeline_documents(sf_dir: str):
    """The full training-data curation flow as ONE composition — what a
    user of this engine actually runs before a training job:

      1. quality gates: length >= 40 chars + the Gopher repetition cuts
         (most-common-bigram / duplicate-trigram fractions), recomputed
         inline in the final scan (no join needed — the stats are per-doc);
      2. near-dup drop: the distributed n-gram-Jaccard pair graph resolves
         each pair by keeping the SMALLER doc_id (drop set = distinct
         doc_b — pairs are stored doc_a < doc_b), broadcast once;
      3. decontamination: benchmark docs (doc_id % 29 == 0) AND docs
         sharing any 4-gram with them (the contamination op's output,
         broadcast) are dropped;
      4. split assignment: the deterministic md5 hash bucket;
      5. accounting: per (lang, split) doc + token totals.

    Drop sets are the pipeline's designated small sides (near-dup /
    contaminated subsets, never the corpus); the corpus is touched by
    exactly TWO distributed scans (the pair/contamination derivations) +
    ONE final curation scan."""
    import ray

    from rindex.ops.analysis_ext import split_bucket100, split_of_buckets
    from rindex.ops.dedup import q_ngram_jaccard_neardup

    # the two drop-set derivations are INDEPENDENT distributed pipelines —
    # overlap them on the cluster instead of serializing two full corpus
    # scans on the driver (at cluster scale these are concurrent stages of
    # one DAG; results are deterministic either way)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(2) as ex:
        f_pairs = ex.submit(q_ngram_jaccard_neardup, sf_dir)
        f_contam = ex.submit(q_contamination_check_documents, sf_dir)
        pairs, contam = f_pairs.result(), f_contam.result()
    dup_drop = set(pairs["doc_b"].astype(int)) if len(pairs) else set()
    contam_drop = set(contam["doc_id"].astype(int)) if len(contam) else set()
    drop_ref = ray.put(
        np.array(sorted(dup_drop | contam_drop), dtype=np.int64)
    )

    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "text", "n_chars"])

    def curate(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        drop = ray.get(drop_ref)
        ids = t["doc_id"].to_numpy()
        keep = t["n_chars"].to_numpy() >= CURATE_MIN_CHARS
        keep &= ids % CONTAM_MOD != 0  # benchmark docs never train
        if len(drop):
            pos = np.clip(np.searchsorted(drop, ids), 0, len(drop) - 1)
            keep &= drop[pos] != ids
        low = pc.utf8_lower(pc.coalesce(t["text"].combine_chunks(), ""))
        toks_all = [
            _TOKEN_RE.findall(x) for x in low.to_pylist()
        ]
        n_tok = np.fromiter((len(x) for x in toks_all), np.int64, len(ids))
        # Gopher repetition gates — same vectorized kernel as
        # repetition_stats_documents (ONE implementation of the cuts)
        top_bg, dup_tg = _repetition_fracs_toklists(toks_all)
        keep &= (top_bg <= REP_TOP_BIGRAM_MAX) & (
            dup_tg <= REP_DUP_TRIGRAM_MAX
        )
        split = split_of_buckets(split_bucket100(ids))
        return pa.table(
            {
                "lang": t["lang"].filter(pa.array(keep)),
                "split": pa.array(split[keep]),
                "n_tokens": pa.array(n_tok[keep]),
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(curate, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "split"])
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_tokens", alias_name="sum_tokens"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["sum_tokens"] = out["sum_tokens"].astype(np.int64)
    return out.sort_values(["lang", "split"]).reset_index(drop=True)


def _curation_oracle_sql() -> str:
    from rindex.ops.analysis_ext import SPLIT_BUCKET_SQL, SPLIT_FRACS
    from rindex.ops.dedup import JACCARD_TAU, NGRAM

    tr, va = SPLIT_FRACS["train"], SPLIT_FRACS["train"] + SPLIT_FRACS["val"]
    return f"""
    WITH t AS (
      SELECT doc_id, lang, n_chars,
             regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z]+') AS l
      FROM documents
    ),
    bstats AS (
      SELECT doc_id, max(c)::DOUBLE / sum(c) AS top_bg
      FROM (SELECT doc_id, g, count(*) AS c
            FROM (SELECT doc_id,
                         unnest(list_transform(range(1, len(l)),
                                i -> l[i] || ' ' || l[i + 1])) AS g
                  FROM t)
            GROUP BY 1, 2)
      GROUP BY 1
    ),
    tstats AS (
      SELECT doc_id, 1.0 - count(DISTINCT g)::DOUBLE / count(*) AS dup_tg
      FROM (SELECT doc_id,
                   unnest(list_transform(range(1, len(l) - 1),
                          i -> l[i] || ' ' || l[i + 1] || ' ' || l[i + 2])) AS g
            FROM t)
      GROUP BY 1
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([array_to_string(l[i:i+{NGRAM - 1}], ' ')
                            FOR i IN range(1, len(l) - {NGRAM - 2})]) AS shingles
      FROM t WHERE len(l) >= {NGRAM}
    ),
    dup_drop AS (
      SELECT DISTINCT b.doc_id AS doc_id
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE len(list_intersect(a.shingles, b.shingles))::DOUBLE
            / (len(a.shingles) + len(b.shingles)
               - len(list_intersect(a.shingles, b.shingles))) >= {JACCARD_TAU}
    ),
    g AS (
      SELECT doc_id,
             unnest(list_distinct(
               [array_to_string(l[i:i+{CONTAM_NGRAM - 1}], ' ')
                FOR i IN range(1, len(l) - {CONTAM_NGRAM - 2})])) AS gram
      FROM t WHERE len(l) >= {CONTAM_NGRAM}
    ),
    bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % {CONTAM_MOD} = 0),
    contam_drop AS (
      SELECT DISTINCT g.doc_id FROM g JOIN bench USING (gram)
      WHERE g.doc_id % {CONTAM_MOD} <> 0
    ),
    kept AS (
      SELECT t.doc_id, lang, len(l) AS n_tokens,
             {SPLIT_BUCKET_SQL} AS b
      FROM (SELECT *, md5(doc_id::VARCHAR) AS h FROM t) t
      LEFT JOIN bstats USING (doc_id)
      LEFT JOIN tstats USING (doc_id)
      WHERE n_chars >= {CURATE_MIN_CHARS}
        AND doc_id % {CONTAM_MOD} <> 0
        AND coalesce(top_bg, 0.0) <= {REP_TOP_BIGRAM_MAX}
        AND coalesce(dup_tg, 0.0) <= {REP_DUP_TRIGRAM_MAX}
        AND doc_id NOT IN (SELECT doc_id FROM dup_drop)
        AND doc_id NOT IN (SELECT doc_id FROM contam_drop)
    )
    SELECT lang,
           CASE WHEN b < {tr} THEN 'train'
                WHEN b < {va} THEN 'val'
                ELSE 'test' END AS split,
           count(*)::BIGINT AS n_docs,
           sum(n_tokens)::BIGINT AS sum_tokens
    FROM kept
    GROUP BY 1, 2
    ORDER BY 1, 2
"""


QUERIES["curation_pipeline_documents"] = q_curation_pipeline_documents
ORACLE["curation_pipeline_documents"] = _curation_oracle_sql()


SEQ_LEN = 2048        # training context window (tokens)
PACK_SHARD = 128      # docs per prefix-sum shard (small so the
                      # multi-shard base path is exercised at test scale)


def q_sequence_packing_documents(sf_dir: str):
    """GPT-style sequence packing: concatenate every doc's tokens (+1 EOS
    each) in doc_id order and cut the stream into SEQ_LEN-token training
    chunks; emit each doc's global token offset and the chunk range it
    lands in.  The global offsets come from a DISTRIBUTED parallel prefix
    sum — per-shard stride totals reduce via one groupby, the driver
    prefix-sums the tiny shard-base vector (n_docs/PACK_SHARD entries,
    the designated small side), and a per-shard map_groups adds the local
    cumulative sums; at 10^12 docs the shard bases stay millions of rows,
    never the corpus.  All-integer outputs — exact compare."""
    import ray
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.utf8_lower(pc.coalesce(
            t["text"].combine_chunks(), "")).to_pylist()
        n = np.fromiter(
            (len(_TOKEN_RE.findall(x)) for x in texts),
            dtype=np.int64, count=len(texts),
        )
        ids = t["doc_id"].to_numpy()
        return pa.table(
            {"doc_id": ids, "n": n, "shard": ids // PACK_SHARD}
        )

    cnt = ds.map_batches(
        counts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # two consumers; 3 ints/doc, far below corpus size
    tot = (
        cnt.groupby("shard")
        .aggregate(Sum("n", alias_name="s"), Count(alias_name="c"))
        .to_pandas()
        .sort_values("shard")
    )
    strides = (tot["s"] + tot["c"]).to_numpy(np.int64)  # +1 EOS per doc
    bases = np.concatenate([[0], np.cumsum(strides)[:-1]]).astype(np.int64)
    base_ref = ray.put(
        dict(zip(tot["shard"].astype(int), (int(b) for b in bases)))
    )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        n = g["n"].to_numpy(np.int64)
        local = np.concatenate([[0], np.cumsum(n + 1)[:-1]]).astype(np.int64)
        off = local + ray.get(base_ref)[int(g["shard"].iloc[0])]
        last = off + n  # the doc's EOS position
        cf, cl = off // SEQ_LEN, last // SEQ_LEN
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": n,
                "tok_offset": off,
                "chunk_first": cf,
                "chunk_last": cl,
                "n_chunks": cl - cf + 1,
            }
        )

    return cnt.groupby("shard").map_groups(pack, batch_format="pandas")


QUERIES["sequence_packing_documents"] = q_sequence_packing_documents
ORACLE["sequence_packing_documents"] = f"""
    WITH t AS (
      SELECT doc_id,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '[0-9a-z]+'))::BIGINT AS n
      FROM documents
    ),
    o AS (
      SELECT doc_id, n,
             coalesce(sum(n + 1) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0)::BIGINT AS off
      FROM t
    )
    SELECT doc_id, n AS n_tokens, off AS tok_offset,
           off // {SEQ_LEN} AS chunk_first,
           (off + n) // {SEQ_LEN} AS chunk_last,
           ((off + n) // {SEQ_LEN} - off // {SEQ_LEN} + 1) AS n_chunks
    FROM o ORDER BY doc_id
"""


MIXTURE_RATES = {0: 100, 1: 50, 2: 25, 3: 10}  # percent kept per domain


def q_mixture_sample_documents(sf_dir: str):
    """Deterministic domain-mixture resampling (the static data-remix
    stage of a training-data pipeline — DoReMi/The-Pile-style mixture
    weights applied as per-domain keep rates): domain = source number
    mod 4, keep a doc iff its seed-free md5 bucket (the SAME
    split_bucket100 definition the split ops use — one hash, never a
    second sampling scheme) falls under the domain's rate.  ONE corpus
    scan emitting per-batch integer partials, one tiny groupby; exact
    integer outputs per domain: docs in, docs kept, tokens kept."""
    from ray.data.aggregate import Sum

    from rindex.ops.analysis_ext import split_bucket100

    rates = np.array([MIXTURE_RATES[d] for d in range(4)], np.int64)
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"].to_numpy()
        src = t["source"].to_pylist()
        # FIRST digit run, mirroring the oracle's regexp_extract('[0-9]+')
        # (an all-digits re.sub would diverge on multi-run source names)
        def first_num(s: str) -> int:
            m = _NUM_RE.search(s)
            return int(m.group(0)) if m else 0

        domain = np.fromiter(
            (first_num(s) % 4 for s in src), np.int64, len(src)
        )
        keep = split_bucket100(ids) < rates[domain]
        texts = pc.utf8_lower(pc.coalesce(
            t["text"].combine_chunks(), "")).to_pylist()
        ntok = np.fromiter(
            (len(_TOKEN_RE.findall(x)) for x in texts),
            np.int64, len(texts),
        )
        out = {"domain": [], "n_in": [], "n_kept": [], "tokens_kept": []}
        for d in np.unique(domain):
            m = domain == d
            out["domain"].append(int(d))
            out["n_in"].append(int(m.sum()))
            out["n_kept"].append(int((m & keep).sum()))
            out["tokens_kept"].append(int(ntok[m & keep].sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in out.items()}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("domain")
        .aggregate(
            Sum("n_in", alias_name="n_in"),
            Sum("n_kept", alias_name="n_kept"),
            Sum("tokens_kept", alias_name="tokens_kept"),
        )
        .sort("domain")
    )


QUERIES["mixture_sample_documents"] = q_mixture_sample_documents


def _mixture_oracle() -> str:
    from rindex.ops.analysis_ext import SPLIT_BUCKET_SQL

    rate_case = " ".join(
        f"WHEN {d} THEN {r}" for d, r in sorted(MIXTURE_RATES.items())
    )
    return f"""
    WITH t AS (
      SELECT doc_id,
             (regexp_extract(source, '[0-9]+')::BIGINT % 4) AS domain,
             len(regexp_extract_all(lower(coalesce(text, '')),
                                    '[0-9a-z]+'))::BIGINT AS ntok,
             md5(doc_id::VARCHAR) AS h
      FROM documents
    ),
    k AS (
      SELECT domain, ntok,
             ({SPLIT_BUCKET_SQL}
              < CASE domain {rate_case} END) AS keep
      FROM t
    )
    SELECT domain, count(*)::BIGINT AS n_in,
           sum(CASE WHEN keep THEN 1 ELSE 0 END)::BIGINT AS n_kept,
           sum(CASE WHEN keep THEN ntok ELSE 0 END)::BIGINT AS tokens_kept
    FROM k GROUP BY domain ORDER BY domain
    """


ORACLE["mixture_sample_documents"] = _mixture_oracle()


# ---------------------------------------------------------------------------
# C4-style line-level cleaning (Raffel et al. 2020 §2.2 — the "colossal
# clean crawled corpus" rules: per-LINE word-count minimum + blocklist,
# then a document-level keep flag).  Reference anchor: the reference has
# no line cleaner (Solr's URP chain is the hook: `solr/core/src/java/org/
# apache/solr/update/processor/`); this is a first-class training-data op.
# ---------------------------------------------------------------------------

C4_LINE_W = 7        # derived-line width (tokens) — the corpus is one
                     # physical line, so lines derive deterministically
C4_MIN_WORDS = 5     # C4 rule: drop lines with fewer than 5 words
C4_BAD_WORDS = ("spark", "dup")   # blocklist analog (words in-corpus so
                                  # the filter provably splits)
C4_MIN_LINES = 2     # doc-level keep: at least 2 surviving lines
_C4_BAD_RE = r"(^| )(" + "|".join(C4_BAD_WORDS) + r")( |$)"


SAMPLE_TAU_ALPHA = 0.3  # mT5/XLM-R temperature exponent


def q_sampling_temperature_documents(sf_dir: str):
    """Temperature-based source sampling plan (the multinomial mixing
    recipe of XLM-R / mT5: q_s proportional to n_s^alpha, alpha=0.3 —
    upsamples the tail, downsamples the head): per source, its exact
    token count, normalized sampling weight, and implied epochs-per-pass
    (q_s * N / n_s).  Unlike mixture_sample (which APPLIES fixed keep
    rates) this op COMPUTES the plan from corpus statistics.

    Shape: one pruned corpus scan emitting per-batch (source, n_tok)
    integer partials, one tiny groupby(source) sum (rows = n_sources),
    then driver arithmetic on the n_sources-row plan table."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        n = np.fromiter(
            (len(az.tokens(x or "")) for x in t["text"].to_pylist()),
            np.int64, len(t),
        )
        d = (
            pd.DataFrame({"source": t["source"].to_pylist(), "n": n})
            .groupby("source", as_index=False)["n"].sum()
        )
        return pa.table(
            {"source": pa.array(d["source"], pa.string()),
             "n": pa.array(d["n"].to_numpy(np.int64))}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("n", alias_name="n_tok"))
        .to_pandas()
    )
    agg = agg.sort_values("source", kind="mergesort").reset_index(drop=True)
    n = agg["n_tok"].to_numpy(np.float64)
    w = np.power(n, SAMPLE_TAU_ALPHA)
    q = w / w.sum()
    out = pd.DataFrame(
        {
            "source": agg["source"],
            "n_tok": agg["n_tok"].astype("int64"),
            "weight": np.round(q, 6),
            "epochs": np.round(q * n.sum() / n, 6),
        }
    )
    return out


QUERIES["sampling_temperature_documents"] = q_sampling_temperature_documents


def _sampling_temperature_oracle() -> str:
    from rindex.ops.analysis_ext import TOKEN_SQL_RE

    return f"""
    WITH per AS (
      SELECT source,
             sum(len(regexp_extract_all(lower(coalesce(text, '')),
                                        '{TOKEN_SQL_RE}')))::BIGINT AS n_tok
      FROM documents GROUP BY source
    ),
    tot AS (SELECT sum(pow(n_tok, {SAMPLE_TAU_ALPHA})) AS wsum,
                   sum(n_tok)::DOUBLE AS ntot FROM per)
    SELECT source, n_tok,
           round(pow(n_tok, {SAMPLE_TAU_ALPHA}) / wsum, 6) AS weight,
           round(pow(n_tok, {SAMPLE_TAU_ALPHA}) / wsum * ntot / n_tok, 6)
             AS epochs
    FROM per CROSS JOIN tot
    ORDER BY source
    """


ORACLE["sampling_temperature_documents"] = _sampling_temperature_oracle()


def q_c4_line_clean_documents(sf_dir: str):
    """C4 line cleaning: chunk each document into deterministic
    C4_LINE_W-token lines, drop lines under C4_MIN_WORDS words or
    containing a blocklist word, reassemble the survivors with newline
    joins, and flag docs keeping >= C4_MIN_LINES lines.  Fully
    vectorized: ONE split_pattern per batch, then a bounded loop over
    LINE SLOTS (max ~tokens/W iterations of whole-column Arrow kernels
    — list_slice / binary_join / regex match / if_else), zero per-row
    Python.  Streams end to end; output is one row per input doc."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        c4_clean_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def c4_clean_batch(t: pa.Table) -> pa.Table:
    """The C4 cleaner's per-batch kernel (module-level so edge cases —
    empty text, all-dropped docs, exact-boundary widths — unit-test
    directly)."""
    import pyarrow.compute as pc

    n = t.num_rows
    toks = pc.split_pattern(
        pc.coalesce(t["text"], pa.scalar("")), pattern=" "
    )
    ntok = pc.list_value_length(toks).to_numpy().astype(np.int64)
    max_lines = int(np.ceil(ntok.max() / C4_LINE_W)) if n else 0
    acc = pa.array([""] * n, pa.string())
    acc_empty = np.ones(n, dtype=bool)
    n_kept = np.zeros(n, dtype=np.int64)
    n_drop = np.zeros(n, dtype=np.int64)
    for k in range(max_lines):
        seg = pc.list_slice(
            toks, start=k * C4_LINE_W, stop=(k + 1) * C4_LINE_W
        )
        line = pc.binary_join(seg, " ")
        nw = np.clip(ntok - k * C4_LINE_W, 0, C4_LINE_W)
        exists = nw > 0
        bad = pc.match_substring_regex(line, _C4_BAD_RE).to_numpy(
            zero_copy_only=False
        )
        keep = exists & (nw >= C4_MIN_WORDS) & ~bad
        n_kept += keep
        n_drop += exists & ~keep
        keep_a = pa.array(keep)
        joined = pc.binary_join_element_wise(acc, line, "\n")
        acc = pc.if_else(
            keep_a,
            pc.if_else(pa.array(acc_empty), line, joined),
            acc,
        )
        acc_empty &= ~keep
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "clean_text": acc,
            "n_kept": pa.array(n_kept),
            "n_dropped": pa.array(n_drop),
            "kept": pa.array(
                (n_kept >= C4_MIN_LINES).astype(np.int64)
            ),
        }
    )


QUERIES["c4_line_clean_documents"] = q_c4_line_clean_documents
_C4_BADLIST_SQL = "[" + ", ".join(f"'{w}'" for w in C4_BAD_WORDS) + "]"
ORACLE["c4_line_clean_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(string_split(coalesce(text, ''), ' '))
                             + 1)) AS i,
             unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    lines AS (
      SELECT doc_id, (i - 1) // {C4_LINE_W} AS ln,
             string_agg(tok, ' ' ORDER BY i) AS line,
             count(*)::BIGINT AS nw
      FROM toks GROUP BY 1, 2
    ),
    flagged AS (
      SELECT doc_id, ln, line,
             (nw >= {C4_MIN_WORDS} AND NOT list_has_any(
                string_split(line, ' '), {_C4_BADLIST_SQL})) AS keep
      FROM lines
    )
    SELECT doc_id,
           coalesce(string_agg(CASE WHEN keep THEN line END, chr(10)
                               ORDER BY ln), '') AS clean_text,
           sum(CASE WHEN keep THEN 1 ELSE 0 END)::BIGINT AS n_kept,
           sum(CASE WHEN keep THEN 0 ELSE 1 END)::BIGINT AS n_dropped,
           (sum(CASE WHEN keep THEN 1 ELSE 0 END)
              >= {C4_MIN_LINES})::BIGINT AS kept
    FROM flagged GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# Vocabulary builder + OOV rate — the tokenizer-prep step of an LLM data
# pipeline (fixed top-V vocabulary, per-doc out-of-vocabulary fraction).
# Reference anchor: the term dictionary IS Lucene's terms index
# (`lucene/core/src/java/org/apache/lucene/index/Terms.java` — ttf =
# totalTermFreq); the OOV pass is the decontamination op's
# searchsorted+reduceat corpus-scan shape.
# ---------------------------------------------------------------------------

VOCAB_V = 64


def q_vocab_oov_documents(sf_dir: str):
    """Top-VOCAB_V vocabulary by total term frequency from the INDEX term
    dictionary (ttf summed over live segments — dictionary columns only,
    postings blobs never projected; the dictionary is the designated
    small side), hashed + sorted + ray.put-broadcast once; the corpus
    pass counts per-doc OOV tokens via ONE searchsorted over the batch's
    concatenated token hashes + per-doc reduceat.  All-integer outputs
    compare exact."""
    import pyarrow.parquet as pq
    import ray

    from rindex.analysis import get_analyzer
    from rindex.ops.dedup import _stable_hash64, _token_hashes
    from rindex.ops.fulltext import documents_index
    from rindex.segments import read_manifest, seg_dir

    idx = documents_index(sf_dir)
    man = read_manifest(idx)
    acc: dict[str, int] = {}
    for m in man["segments"]:
        p = os.path.join(
            seg_dir(idx, m["seg_id"], m.get("gen", 0)), "postings.parquet"
        )
        t = pq.read_table(p, columns=["term", "ttf"])
        for term, ttf in zip(t["term"].to_pylist(), t["ttf"].to_pylist()):
            acc[term] = acc.get(term, 0) + int(ttf)
    vocab = sorted(acc, key=lambda t: (-acc[t], t))[:VOCAB_V]
    vh = np.sort(
        np.array([_stable_hash64(t.encode()) for t in vocab], np.int64)
    )
    vref = ray.put(vh)

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        vh_ = ray.get(vref)
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter(
            (len(x) for x in toks_per), np.int64, count=len(toks_per)
        )
        oov = np.zeros(len(lens), np.int64)
        if lens.sum():
            th = _token_hashes([tok for lst in toks_per for tok in lst])
            at = np.searchsorted(vh_, th)
            hit = (at < len(vh_)) & (
                vh_[np.minimum(at, len(vh_) - 1)] == th
            )
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            nz = lens > 0
            oov[nz] = np.add.reduceat(
                (~hit).astype(np.int64), starts[nz]
            )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pa.array(lens),
                "n_oov": pa.array(oov),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["vocab_oov_documents"] = q_vocab_oov_documents


def _vocab_oov_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    vocab AS (
      SELECT term FROM (
        SELECT term, count(*) AS c FROM toks GROUP BY 1)
      QUALIFY row_number() OVER (ORDER BY c DESC, term ASC) <= {VOCAB_V}
    ),
    per AS (
      SELECT doc_id, count(*)::BIGINT AS n_tok,
             sum(CASE WHEN term IN (SELECT term FROM vocab)
                 THEN 0 ELSE 1 END)::BIGINT AS n_oov
      FROM toks GROUP BY doc_id
    )
    SELECT d.doc_id,
           coalesce(per.n_tok, 0)::BIGINT AS n_tok,
           coalesce(per.n_oov, 0)::BIGINT AS n_oov
    FROM documents d LEFT JOIN per ON per.doc_id = d.doc_id
    """


ORACLE["vocab_oov_documents"] = _vocab_oov_oracle_sql()


# ---------------------------------------------------------------------------
# Unigram-LM perplexity filter (CCNet-style; Wenzek et al. 2019 "CCNet:
# Extracting High Quality Monolingual Datasets from Web Crawl Data" uses a
# KenLM perplexity over a reference corpus to split head/middle/tail).
# Here the LM *is the index*: unigram log-probs derive from the term
# dictionary's ttf (dictionary columns only — postings blobs never
# projected), so "train the LM on the reference corpus" is the build the
# engine already ran.  The LM table is the designated small side (a
# bounded vocab at 100 TB, exactly like CCNet's fixed LM), ray.put once;
# the corpus pass is ONE searchsorted over each batch's concatenated token
# hashes + per-doc reduceat.  Bucket cutoffs are CONSTANTS, faithful to
# CCNet (its thresholds are percentiles of the LM's training corpus —
# fixed at filter time, not recomputed per input).
# ---------------------------------------------------------------------------

NLL_HEAD_MAX = 3.4     # rounded nll < this  -> "head"
NLL_MIDDLE_MAX = 3.41  # rounded nll < this  -> "middle", else "tail"


def q_unigram_nll_documents(sf_dir: str):
    """Per-doc unigram negative log-likelihood from the INDEX's ttf table
    + CCNet head/middle/tail bucketing with fixed cutoffs."""
    import ray

    from rindex.analysis import get_analyzer
    from rindex.ops.dedup import _stable_hash64, _token_hashes
    from rindex.ops.fulltext import documents_index
    from rindex.ops.util import dictionary_stats

    d = dictionary_stats(documents_index(sf_dir), ["ttf"])
    total = float(d["ttf"].sum())
    th = np.array(
        [_stable_hash64(t.encode()) for t in d["term"]], np.int64
    )
    order = np.argsort(th)
    lm_h = th[order]
    # IDENTICAL scalar tree to the oracle: ln(ttf / T), division first
    lm_lp = np.log(
        d["ttf"].to_numpy(np.float64)[order] / total
    )
    lm_ref = ray.put((lm_h, lm_lp))

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        lm_h_, lm_lp_ = ray.get(lm_ref)
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter(
            (len(x) for x in toks_per), np.int64, count=len(toks_per)
        )
        nz = lens > 0
        nll = np.zeros(len(lens), np.float64)
        if lens.sum():
            h = _token_hashes([tok for lst in toks_per for tok in lst])
            at = np.searchsorted(lm_h_, h)
            ok = (at < len(lm_h_)) & (lm_h_[np.minimum(at, len(lm_h_) - 1)] == h)
            if not ok.all():
                # the LM is trained on THIS index; an unseen token means
                # the filter is being served a different corpus — loud
                raise ValueError(
                    f"unigram_nll: {int((~ok).sum())} tokens missing from "
                    "the index LM (corpus/index mismatch)"
                )
            lp = lm_lp_[at]
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            nll[nz] = -(np.add.reduceat(lp, starts[nz]) / lens[nz])
        nll_r = np.round(nll, 6)
        bucket = np.where(
            nll_r < NLL_HEAD_MAX, "head",
            np.where(nll_r < NLL_MIDDLE_MAX, "middle", "tail"),
        )
        keep = nz  # CCNet skips empty docs (no tokens -> no LM score)
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(keep)),
                "n_tok": pa.array(lens[keep]),
                "nll": pa.array(nll_r[keep]),
                "ppl_bucket": pa.array(bucket[keep].tolist(), pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["unigram_nll_documents"] = q_unigram_nll_documents


def _unigram_nll_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    ttf AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY 1),
    tot AS (SELECT sum(c) AS T FROM ttf),
    per AS (
      SELECT doc_id, count(*)::BIGINT AS n_tok,
             round(avg(-ln(c / T)), 6) AS nll
      FROM toks JOIN ttf USING (term) CROSS JOIN tot
      GROUP BY doc_id
    )
    SELECT doc_id, n_tok, nll,
           CASE WHEN nll < {NLL_HEAD_MAX} THEN 'head'
                WHEN nll < {NLL_MIDDLE_MAX} THEN 'middle'
                ELSE 'tail' END AS ppl_bucket
    FROM per
    """


ORACLE["unigram_nll_documents"] = _unigram_nll_oracle_sql()


# ---------------------------------------------------------------------------
# Per-domain cap (Common-Crawl curation: bound any one domain's share of
# the training set).  Deterministic and cluster-size-stable: within each
# source, keep the DOMAIN_CAP docs with the smallest md5(doc_id) (the
# repo-wide split-hash convention) — no RNG, so a resumed/re-sharded run
# keeps the same docs.  Scale shape: a distributed SELECTION, not a
# per-domain gather — stage 1 emits each batch's per-source top-CAP
# candidate hashes (bounded: sources x CAP per batch), stage 2 reduces
# candidates to one cutoff hash per source (groupby over a tiny table),
# the cutoffs broadcast as the small side, stage 3 filters the corpus
# scan.  A hot domain with 10^9 docs never lands in one task.
# ---------------------------------------------------------------------------

DOMAIN_CAP = 10


def q_domain_cap_documents(sf_dir: str):
    """Keep at most DOMAIN_CAP docs per source (smallest md5(doc_id))."""
    import ray

    ds = read_table(sf_dir, "documents", ["doc_id", "source"])

    def candidates(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "h": [
                    hashlib.md5(str(int(i)).encode()).hexdigest()
                    for i in t["doc_id"].to_numpy()
                ],
            }
        )
        top = df.sort_values(["source", "h"]).groupby("source").head(DOMAIN_CAP)
        return pa.Table.from_pandas(top, preserve_index=False)

    def cutoff(g: pd.DataFrame) -> pd.DataFrame:
        hs = np.sort(g["h"].to_numpy())
        cut = hs[DOMAIN_CAP - 1] if len(hs) >= DOMAIN_CAP else hs[-1]
        return pd.DataFrame({"source": [g["source"].iloc[0]], "cut": [cut]})

    cuts = (
        ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .map_groups(cutoff, batch_format="pandas")
        .to_pandas()
    )
    cut_ref = ray.put(dict(zip(cuts["source"], cuts["cut"])))

    def keep(t: pa.Table) -> pa.Table:
        cm = ray.get(cut_ref)
        src = t["source"].to_pylist()
        ids = t["doc_id"].to_numpy()
        mask = np.array(
            [
                hashlib.md5(str(int(i)).encode()).hexdigest() <= cm[s]
                for i, s in zip(ids, src)
            ]
        )
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["domain_cap_documents"] = q_domain_cap_documents
ORACLE["domain_cap_documents"] = f"""
    SELECT doc_id, source FROM (
      SELECT doc_id, source,
             row_number() OVER (PARTITION BY source
                                ORDER BY md5(doc_id::VARCHAR)) AS rn
      FROM documents)
    WHERE rn <= {DOMAIN_CAP}
"""


# ---------------------------------------------------------------------------
# Repeated-boilerplate span removal (RefinedWeb / MassiveText repetition
# removal at the LINE level: spans that recur VERBATIM across many
# documents are nav bars / footers / license blurbs — strip them from
# every doc while keeping the doc).  Line derivation reuses the C4
# cleaner's exact convention (raw space-split, BP_W-token slots) so the
# two ops' notions of "line" can never diverge on a corpus with real
# newlines vs this one-physical-line corpus.  Scale shape: scan 1 emits
# per-batch (line, 1) partials deduped per doc (a doc is one row, so
# per-batch dedupe IS per-doc dedupe), ONE distributed groupby sums doc
# frequencies, and only lines with df >= BP_DF — boilerplate is rare by
# definition — come back as the broadcast small side; scan 2 filters
# each doc's slots with one Arrow is_in per slot.  No driver-side corpus
# pass, no per-row Python.
# ---------------------------------------------------------------------------

BP_W = 3    # boilerplate span width (tokens)
BP_DF = 5   # spans in >= this many distinct docs are boilerplate


def _bp_slot_lines(t: pa.Table, width: int | None = None):
    """Shared slot walk (the repo's ONE raw-space-split line convention):
    yields (k, line_array, exists_mask) per `width`-token slot.  Used by
    the boilerplate remover (BP_W) and the scored-passage highlighter
    (HL width) — one definition, so the conventions cannot diverge."""
    import pyarrow.compute as pc

    w = BP_W if width is None else int(width)
    toks = pc.split_pattern(
        pc.coalesce(t["text"], pa.scalar("")), pattern=" "
    )
    ntok = pc.list_value_length(toks).to_numpy().astype(np.int64)
    max_lines = int(np.ceil(ntok.max() / w)) if t.num_rows else 0
    for k in range(max_lines):
        seg = pc.list_slice(toks, start=k * w, stop=(k + 1) * w)
        line = pc.binary_join(seg, " ")
        exists = np.clip(ntok - k * w, 0, w) > 0
        yield k, line, exists


def q_boilerplate_removal_documents(sf_dir: str):
    """Strip lines (BP_W-token spans) occurring in >= BP_DF distinct
    docs; one row per doc with the cleaned text + kept/dropped counts."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partials(t: pa.Table) -> pa.Table:
        rows_doc, rows_line = [], []
        for _, line, exists in _bp_slot_lines(t):
            ln = line.to_numpy(zero_copy_only=False)
            idx = np.nonzero(exists)[0]
            rows_doc.append(idx)
            rows_line.append(ln[idx])
        if not rows_doc:
            return pa.table(
                {"line": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64())}
            )
        df = pd.DataFrame(
            {"d": np.concatenate(rows_doc),
             "line": np.concatenate(rows_line)}
        ).drop_duplicates()  # per-doc distinct (a doc lives in ONE batch)
        vc = df["line"].value_counts()
        return pa.table(
            {"line": pa.array(vc.index.to_numpy(), pa.string()),
             "c": pa.array(vc.to_numpy().astype(np.int64))}
        )

    freq = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("line")
        .aggregate(Sum("c", alias_name="df"))
        .filter(expr=f"df >= {BP_DF}")
        .to_pandas()
    )
    bad_ref = ray.put(pa.array(freq["line"].tolist(), pa.string()))

    def clean(t: pa.Table) -> pa.Table:
        bad = ray.get(bad_ref)
        n = t.num_rows
        acc = pa.array([""] * n, pa.string())
        acc_empty = np.ones(n, dtype=bool)
        n_kept = np.zeros(n, dtype=np.int64)
        n_drop = np.zeros(n, dtype=np.int64)
        for _, line, exists in _bp_slot_lines(t):
            is_bad = pc.is_in(line, value_set=bad).to_numpy(
                zero_copy_only=False
            )
            keep = exists & ~is_bad
            n_kept += keep
            n_drop += exists & ~keep
            keep_a = pa.array(keep)
            joined = pc.binary_join_element_wise(acc, line, "\n")
            acc = pc.if_else(
                keep_a, pc.if_else(pa.array(acc_empty), line, joined), acc
            )
            acc_empty &= ~keep
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "clean_text": acc,
                "n_kept": pa.array(n_kept),
                "n_dropped": pa.array(n_drop),
            }
        )

    return ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["boilerplate_removal_documents"] = q_boilerplate_removal_documents
ORACLE["boilerplate_removal_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(string_split(coalesce(text, ''), ' '))
                             + 1)) AS i,
             unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    lines AS (
      SELECT doc_id, (i - 1) // {BP_W} AS ln,
             string_agg(tok, ' ' ORDER BY i) AS line
      FROM toks GROUP BY 1, 2
    ),
    freq AS (
      SELECT line FROM (
        SELECT line, count(DISTINCT doc_id) AS df FROM lines GROUP BY 1)
      WHERE df >= {BP_DF}
    ),
    flagged AS (
      SELECT doc_id, ln, line,
             line NOT IN (SELECT line FROM freq) AS keep
      FROM lines
    )
    SELECT doc_id,
           coalesce(string_agg(CASE WHEN keep THEN line END, chr(10)
                               ORDER BY ln), '') AS clean_text,
           sum(CASE WHEN keep THEN 1 ELSE 0 END)::BIGINT AS n_kept,
           sum(CASE WHEN keep THEN 0 ELSE 1 END)::BIGINT AS n_dropped
    FROM flagged GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# Context-window chunking with overlap — the RAG / training-prep step that
# splits each document into fixed-width token windows on a stride (window
# k covers tokens [k*CHUNK_STRIDE, k*CHUNK_STRIDE + CHUNK_W)), emitting
# one row per chunk.  Same raw space-split token convention as the C4 /
# boilerplate ops.  Engine shape: a pure per-batch explode (list_slice +
# binary_join per slot — bounded loop over SLOTS of whole-column Arrow
# kernels, zero per-row Python), so it streams at any corpus size and
# chunk rows flow straight into downstream embed/index stages.
# ---------------------------------------------------------------------------

CHUNK_W = 16      # window width (tokens)
CHUNK_STRIDE = 8  # stride (< W -> 50% overlap)


def q_chunk_windows_documents(sf_dir: str):
    """One row per overlapping token window: (doc_id, chunk_idx,
    chunk_text, n_tok).  The LAST window of a doc may be short; a doc
    shorter than one stride still emits its chunk 0."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.coalesce(t["text"], pa.scalar("")), pattern=" "
        )
        ntok = pc.list_value_length(toks).to_numpy().astype(np.int64)
        if t.num_rows == 0:
            return pa.table(
                {"doc_id": t["doc_id"], "chunk_idx": pa.array([], pa.int64()),
                 "chunk_text": pa.array([], pa.string()),
                 "n_tok": pa.array([], pa.int64())}
            )
        # chunk k exists while k*stride < ntok (chunk 0 always exists)
        n_chunks = np.maximum(
            1, np.ceil(ntok / CHUNK_STRIDE).astype(np.int64)
        )
        # a trailing window that would START at/after ntok-? and be fully
        # covered by the previous one is still emitted iff its start < ntok
        parts = []
        for k in range(int(n_chunks.max())):
            has = k * CHUNK_STRIDE < np.maximum(ntok, 1)
            if not has.any():
                break
            seg = pc.list_slice(
                toks, start=k * CHUNK_STRIDE, stop=k * CHUNK_STRIDE + CHUNK_W
            )
            line = pc.binary_join(seg, " ")
            nw = np.clip(ntok - k * CHUNK_STRIDE, 0, CHUNK_W)
            keep = pa.array(has)
            parts.append(
                pa.table(
                    {
                        "doc_id": t["doc_id"].filter(keep),
                        "chunk_idx": pa.array(
                            np.full(int(has.sum()), k, np.int64)
                        ),
                        "chunk_text": pc.filter(line, keep),
                        "n_tok": pa.array(nw[has]),
                    }
                )
            )
        return pa.concat_tables(parts)

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["chunk_windows_documents"] = q_chunk_windows_documents
ORACLE["chunk_windows_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(string_split(coalesce(text, ''), ' '))
                             + 1)) AS i,
             unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    nt AS (SELECT doc_id, max(i) AS ntok FROM toks GROUP BY 1),
    ks AS (
      SELECT doc_id,
             unnest(range(0, greatest(1,
               ceil(ntok / {CHUNK_STRIDE}.0)::BIGINT))) AS k
      FROM nt
    )
    SELECT ks.doc_id, ks.k AS chunk_idx,
           string_agg(t.tok, ' ' ORDER BY t.i) AS chunk_text,
           count(*)::BIGINT AS n_tok
    FROM ks JOIN toks t
      ON t.doc_id = ks.doc_id
     AND t.i > ks.k * {CHUNK_STRIDE}
     AND t.i <= ks.k * {CHUNK_STRIDE} + {CHUNK_W}
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Word-dropout augmentation — the classic text data-augmentation step
# (drop each token independently with probability p; Bowman et al. 2016
# use it for decoder regularization, EDA-style pipelines for corpus
# augmentation).  Seed-FREE determinism, the repo's split-hash
# convention: token i of doc d drops iff md5("d:i") byte0 % 10 == 0
# (p = 10%), so a resumed/re-sharded run regenerates the identical
# augmented corpus and the SQL oracle re-derives every gate.  Per-token
# hashing is inherent to the op (each token needs its own coin); the
# gate is the only per-token Python and is bounded by doc length.
# ---------------------------------------------------------------------------

DROPOUT_PCT = 10  # drop when md5 byte0 % 10 == 0 -> 10%


def q_word_dropout_documents(sf_dir: str):
    """(doc_id, n_orig, n_kept, aug_text) with the deterministic
    10% token dropout applied to the raw space-split tokens."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def aug(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        texts = t["text"].to_pylist()
        n_orig = np.zeros(len(ids), np.int64)
        n_kept = np.zeros(len(ids), np.int64)
        outs = []
        for r, (did, x) in enumerate(zip(ids, texts)):
            toks = (x or "").split(" ")
            keep = [
                tok for i, tok in enumerate(toks)
                if int(hashlib.md5(f"{int(did)}:{i}".encode())
                       .hexdigest()[:2], 16) % DROPOUT_PCT != 0
            ]
            n_orig[r] = len(toks)
            n_kept[r] = len(keep)
            outs.append(" ".join(keep))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_orig": pa.array(n_orig),
                "n_kept": pa.array(n_kept),
                "aug_text": pa.array(outs, pa.string()),
            }
        )

    return ds.map_batches(aug, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["word_dropout_documents"] = q_word_dropout_documents
ORACLE["word_dropout_documents"] = f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(range(1, len(string_split(coalesce(text, ''), ' '))
                             + 1)) AS i,
             unnest(string_split(coalesce(text, ''), ' ')) AS tok
      FROM documents
    ),
    gated AS (
      SELECT doc_id, i, tok,
             (('0x' || substr(md5(doc_id::VARCHAR || ':'
                                  || (i - 1)::VARCHAR), 1, 2))::BIGINT
              % {DROPOUT_PCT}) <> 0 AS keep
      FROM toks
    )
    SELECT doc_id,
           count(*)::BIGINT AS n_orig,
           sum(CASE WHEN keep THEN 1 ELSE 0 END)::BIGINT AS n_kept,
           coalesce(string_agg(CASE WHEN keep THEN tok END, ' '
                               ORDER BY i), '') AS aug_text
    FROM gated GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# BPE tokenizer training (Sennrich et al. 2016, "Neural Machine
# Translation of Rare Words with Subword Units") — the tokenizer-fit
# step of an LLM data pipeline: greedily merge the most frequent
# adjacent symbol pair for BPE_MERGES rounds.  Engine shape: the ONLY
# corpus-scale step is the distributed (word, count) vocabulary groupby
# (standard BPE trains on exactly that reduced table); the merge rounds
# run on the vocab small side, as every reference implementation does.
# Determinism: ties break by pair string ascending.  The SQL oracle
# re-derives ALL rounds, unrolled — words live as char-spaced strings so
# a merge is one left-to-right non-overlapping replace() (Python
# str.replace and DuckDB replace share that exact semantic, pinned by
# the edge-case pytest).
# ---------------------------------------------------------------------------

BPE_MERGES = 6


def _bpe_apply(w: str, pair: str, merged: str) -> str:
    """Apply ONE merge to a char-spaced word with Sennrich's boundary
    rule: the pair must match WHOLE symbols (never glue across a
    multi-char symbol like 'bc' when merging 'a b').  Symbols are alnum,
    so RE2/re word boundaries \b are exactly that rule — zero-width, so
    consecutive occurrences ('a b a b') all merge, matching the
    reference's (?<!\\S)pair(?!\\S) substitution.  The SQL oracles run
    the same regexp_replace(..., 'g')."""
    return re.sub(rf"\b{pair}\b", merged, w)


def bpe_merge_rounds(vocab: dict[str, int], k: int) -> list[tuple]:
    """[(round, 'a b', 'ab', count)] for k greedy merges over a
    {word: count} vocabulary; char-spaced symbol representation."""
    words = {" ".join(w): int(c) for w, c in vocab.items()}
    out = []
    for r in range(k):
        from collections import Counter

        pc_: Counter = Counter()
        for w, c in words.items():
            syms = w.split(" ")
            for a, b in zip(syms, syms[1:]):
                pc_[f"{a} {b}"] += c
        if not pc_:
            break
        best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        pair, n = best
        merged = pair.replace(" ", "")
        out.append((r, pair, merged, int(n)))
        words = {_bpe_apply(w, pair, merged): c for w, c in words.items()}
    return out


def _bpe_vocab(sf_dir: str) -> dict[str, int]:
    """The distributed (word -> count) vocabulary both BPE ops train on:
    per-batch Counter partials, ONE small groupby."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["text"])

    def wc(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        from collections import Counter

        cnt: Counter = Counter()
        for x in t["text"].to_pylist():
            cnt.update(az.tokens(x or ""))
        return pa.table(
            {"w": pa.array(list(cnt.keys()), pa.string()),
             "c": pa.array(np.fromiter(cnt.values(), np.int64,
                                       count=len(cnt)))}
        )

    vocab_df = (
        ds.map_batches(wc, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("w")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    return dict(zip(vocab_df["w"], vocab_df["c"].astype(int)))


def q_bpe_train_documents(sf_dir: str):
    """First BPE_MERGES BPE merges over the corpus vocabulary:
    (round, pair, merged, n)."""
    rows = bpe_merge_rounds(_bpe_vocab(sf_dir), BPE_MERGES)
    return pd.DataFrame(
        rows, columns=["round", "pair", "merged", "n"]
    ).astype({"round": np.int64, "n": np.int64})


QUERIES["bpe_train_documents"] = q_bpe_train_documents


def _bpe_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    parts = [f"""
    toks AS (
      SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS w
      FROM documents
    ),
    w0 AS (
      SELECT array_to_string(regexp_extract_all(w, '.'), ' ') AS w,
             count(*)::BIGINT AS c
      FROM toks GROUP BY w
    )"""]
    selects = []
    for r in range(BPE_MERGES):
        parts.append(f"""
    s{r} AS (
      SELECT w, c,
             unnest(string_split(w, ' ')) AS sym,
             unnest(range(1, len(string_split(w, ' ')) + 1)) AS i
      FROM w{r}
    ),
    p{r} AS (
      SELECT sym || ' ' || nxt AS pair, sum(c)::BIGINT AS n
      FROM (SELECT w, c, i, sym,
                   lead(sym) OVER (PARTITION BY w ORDER BY i) AS nxt
            FROM s{r})
      WHERE nxt IS NOT NULL
      GROUP BY 1
    ),
    b{r} AS (
      SELECT pair, replace(pair, ' ', '') AS merged, n
      FROM p{r} ORDER BY n DESC, pair ASC LIMIT 1
    ),
    w{r + 1} AS (
      SELECT regexp_replace(w0_.w, '\\b' || b.pair || '\\b',
                            b.merged, 'g') AS w, w0_.c
      FROM w{r} w0_ CROSS JOIN b{r} b
    )""")
        selects.append(
            f"SELECT {r}::BIGINT AS round, pair, merged, n FROM b{r}"
        )
    return ("WITH " + ",".join(parts) + "\n"
            + "\nUNION ALL\n".join(selects) + "\nORDER BY round")


ORACLE["bpe_train_documents"] = _bpe_oracle_sql()


def q_bpe_encode_documents(sf_dir: str):
    """Encode the corpus with the BPE_MERGES-round tokenizer trained by
    bpe_train: per-doc (n_tok, n_subwords).  The merge list and the
    word -> subword-count map are vocabulary-sized small sides (the
    encode map is exactly what a real BPE tokenizer ships); the corpus
    pass is one scan mapping each token to its subword count via a dict
    lookup per DISTINCT batch token."""
    import ray

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    vocab = _bpe_vocab(sf_dir)
    merges = bpe_merge_rounds(vocab, BPE_MERGES)
    enc = {}
    for w in vocab:
        s = " ".join(w)
        for _, pair, merged, _n in merges:
            s = _bpe_apply(s, pair, merged)
        enc[w] = len(s.split(" "))
    enc_ref = ray.put(enc)

    def per_doc(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        e = ray.get(enc_ref)
        n_tok = np.zeros(t.num_rows, np.int64)
        n_sub = np.zeros(t.num_rows, np.int64)
        for i, x in enumerate(t["text"].to_pylist()):
            toks = az.tokens(x or "")
            n_tok[i] = len(toks)
            n_sub[i] = sum(e[w] for w in toks)
        return pa.table(
            {"doc_id": t["doc_id"], "n_tok": pa.array(n_tok),
             "n_subwords": pa.array(n_sub)}
        )

    return ds.map_batches(per_doc, batch_format="pyarrow",
                          zero_copy_batch=True)


QUERIES["bpe_encode_documents"] = q_bpe_encode_documents


def _bpe_encode_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    parts = [f"""
    dtoks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS orig
      FROM documents
    ),
    w0 AS (
      SELECT orig, array_to_string(regexp_extract_all(orig, '.'), ' ') AS w,
             count(*)::BIGINT AS c
      FROM dtoks GROUP BY orig
    )"""]
    for r in range(BPE_MERGES):
        parts.append(f"""
    s{r} AS (
      SELECT w, c,
             unnest(string_split(w, ' ')) AS sym,
             unnest(range(1, len(string_split(w, ' ')) + 1)) AS i
      FROM w{r}
    ),
    p{r} AS (
      SELECT sym || ' ' || nxt AS pair, sum(c)::BIGINT AS n
      FROM (SELECT w, c, i, sym,
                   lead(sym) OVER (PARTITION BY w ORDER BY i) AS nxt
            FROM s{r})
      WHERE nxt IS NOT NULL
      GROUP BY 1
    ),
    b{r} AS (
      SELECT pair, replace(pair, ' ', '') AS merged, n
      FROM p{r} ORDER BY n DESC, pair ASC LIMIT 1
    ),
    w{r + 1} AS (
      SELECT w0_.orig,
             regexp_replace(w0_.w, '\\b' || b.pair || '\\b',
                            b.merged, 'g') AS w, w0_.c
      FROM w{r} w0_ CROSS JOIN b{r} b
    )""")
    k = BPE_MERGES
    return ("WITH " + ",".join(parts) + f""",
    enc AS (
      SELECT orig, len(string_split(w, ' '))::BIGINT AS n_sub FROM w{k}
    )
    SELECT d.doc_id, count(*)::BIGINT AS n_tok,
           sum(e.n_sub)::BIGINT AS n_subwords
    FROM dtoks d JOIN enc e USING (orig)
    GROUP BY d.doc_id
    """)


ORACLE["bpe_encode_documents"] = _bpe_encode_oracle_sql()


# ---------------------------------------------------------------------------
# Luhn-validated card redaction — the precision upgrade every production
# PII scrubber applies to card-number hits (ISO/IEC 7812 check digit;
# a bare \d{16} regex redacts tracking numbers and ids, the Luhn gate
# keeps only checksum-valid sequences).  Like pii_redact above, a card
# string derives DETERMINISTICALLY from doc_id (the corpus has no PII) —
# ~10% of derived numbers pass the checksum, so the gate provably binds
# both ways.  The checksum is pure integer arithmetic on both sides
# (identical digit/weight trees, no float anywhere).
# ---------------------------------------------------------------------------

def q_pii_luhn_documents(sf_dir: str):
    """(doc_id, card, valid, redacted): 16-digit derived card, Luhn
    verdict, and the contact line with ONLY checksum-valid cards
    replaced by [CARD]."""
    import pyarrow.compute as pcc

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        v = (ids * 7919) % 10**15  # 15 digits after the leading '4'
        # Luhn over the 16-digit number '4' + zfill(v, 15), right to left:
        # double every second digit starting at the second-rightmost,
        # subtracting 9 when the double exceeds 9
        total = np.zeros(len(ids), np.int64)
        for k in range(15):
            d = (v // 10**k) % 10
            if k % 2 == 1:  # second-rightmost, fourth-rightmost, ...
                dd = 2 * d
                total += dd - np.where(dd > 9, 9, 0)
            else:
                total += d
        # leading '4' sits at position 16 from the right -> doubled
        total += 2 * 4
        valid = (total % 10 == 0).astype(np.int64)
        card = np.char.add(
            "4", np.char.zfill(np.char.mod("%d", v), 15)
        )
        aug = pcc.binary_join_element_wise(
            t["text"], pa.array(card.tolist(), pa.string()), " card "
        )
        red = pcc.if_else(
            pa.array(valid.astype(bool)),
            pcc.replace_substring_regex(aug, r"4[0-9]{15}", "[CARD]"),
            aug,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "card": pa.array(card.tolist(), pa.string()),
                "valid": pa.array(valid),
                "redacted": red,
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["pii_luhn_documents"] = q_pii_luhn_documents


def _pii_luhn_oracle_sql() -> str:
    digit_terms = []
    for k in range(15):
        d = f"((v // {10**k}) % 10)"
        if k % 2 == 1:
            digit_terms.append(
                f"(2 * {d} - CASE WHEN 2 * {d} > 9 THEN 9 ELSE 0 END)"
            )
        else:
            digit_terms.append(d)
    total = " + ".join(digit_terms) + " + 8"
    return f"""
    WITH c AS (
      SELECT doc_id, text, (doc_id * 7919) % 1000000000000000 AS v
      FROM documents
    ),
    g AS (
      SELECT doc_id, text,
             '4' || lpad(v::VARCHAR, 15, '0') AS card,
             (CASE WHEN ({total}) % 10 = 0 THEN 1 ELSE 0 END)::BIGINT
               AS valid
      FROM c
    )
    SELECT doc_id, card, valid,
           CASE WHEN valid = 1
                THEN text || ' card ' || '[CARD]'
                ELSE text || ' card ' || card END AS redacted
    FROM g
    """


ORACLE["pii_luhn_documents"] = _pii_luhn_oracle_sql()


# ---------------------------------------------------------------------------
# Term dispersion across domains — Gries 2008's DP ("Dispersions and
# adjusted frequencies in corpus linguistics"): for each term, how far
# its observed distribution over sources deviates from the sources'
# token-share expectation; DP = sum_s |obs_s - exp_s| / 2, 0 = perfectly
# even, ->1 = concentrated in one source.  The domain-balance companion
# to significantTerms: high-DP terms mark source-specific vocabulary a
# mixture-resampling step should watch.  One corpus pass of (term,
# source) partials; per-source token totals derive from the SAME
# aggregated table (no second scan).
# ---------------------------------------------------------------------------

DISP_MIN_C = 100
DISP_TOP = 10


def q_term_dispersion_documents(sf_dir: str):
    """Top-DISP_TOP most source-concentrated terms with count >=
    DISP_MIN_C: (term, c, dp)."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer

    ds = read_table(sf_dir, "documents", ["text", "source"])

    def partials(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        from collections import Counter

        cnt: Counter = Counter()
        for x, s in zip(t["text"].to_pylist(), t["source"].to_pylist()):
            for tok in az.tokens(x or ""):
                cnt[(tok, s)] += 1
        ks = list(cnt.keys())
        return pa.table(
            {"term": pa.array([k[0] for k in ks], pa.string()),
             "source": pa.array([k[1] for k in ks], pa.string()),
             "c": pa.array(np.fromiter(cnt.values(), np.int64,
                                       count=len(cnt)))}
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["term", "source"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    piv = agg.pivot_table(index="term", columns="source", values="c",
                          aggfunc="sum", fill_value=0)
    M = piv.to_numpy(np.float64)            # (terms, sources)
    src_tot = M.sum(axis=0)                 # tokens per source
    exp = src_tot / src_tot.sum()
    c_t = M.sum(axis=1)
    obs = M / c_t[:, None]
    dp = np.round(np.abs(obs - exp[None, :]).sum(axis=1) / 2.0, 6)
    out = pd.DataFrame(
        {"term": piv.index, "c": c_t.astype(np.int64), "dp": dp}
    )
    out = out[out["c"] >= DISP_MIN_C]
    return out.sort_values(["dp", "term"], ascending=[False, True],
                           kind="mergesort").head(DISP_TOP) \
              .reset_index(drop=True)


QUERIES["term_dispersion_documents"] = q_term_dispersion_documents


def _dispersion_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT source,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    ts AS (SELECT term, source, count(*)::DOUBLE AS c FROM toks
           GROUP BY 1, 2),
    srct AS (SELECT source, sum(c) AS st FROM ts GROUP BY 1),
    tot AS (SELECT sum(st) AS t FROM srct),
    ct AS (SELECT term, sum(c) AS c_t FROM ts GROUP BY 1),
    cells AS (
      -- the full term x source grid (missing cells observe 0)
      SELECT ct.term, s.source, coalesce(ts.c, 0.0) AS c,
             ct.c_t, s.st, tot.t
      FROM ct CROSS JOIN srct s CROSS JOIN tot
      LEFT JOIN ts ON ts.term = ct.term AND ts.source = s.source
    ),
    dp AS (
      SELECT term, max(c_t)::BIGINT AS c,
             round(sum(abs(c / c_t - st / t)) / 2.0, 6) AS dp
      FROM cells GROUP BY term
    )
    SELECT term, c, dp FROM dp
    WHERE c >= {DISP_MIN_C}
    ORDER BY dp DESC, term ASC
    LIMIT {DISP_TOP}
    """


ORACLE["term_dispersion_documents"] = _dispersion_oracle_sql()


# ---------------------------------------------------------------------------
# Corpus drift detection — the data-ops monitor for a continuously
# ingested training corpus: chi-square test of per-term frequencies
# between two corpus slices (here the deterministic md5 halves, the
# stand-in for yesterday-vs-today); a drifting pipeline (new source,
# broken scraper, tokenizer change) shows up as mass on unexpected
# terms.  Per-(term, half) counts are one distributed pass; the
# chi-square runs on the vocabulary-sized table with oracle-identical
# expression trees (expected counts from row/column marginals).
# ---------------------------------------------------------------------------

DRIFT_TOP = 10


def q_corpus_drift_documents(sf_dir: str):
    """Top-DRIFT_TOP terms by chi-square contribution between the two
    md5-split halves + the total statistic: (term, n_a, n_b, chi2,
    chi2_total)."""
    from ray.data.aggregate import Sum

    from rindex.analysis import get_analyzer
    from rindex.ops.analysis_ext import split_bucket100

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partials(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        from collections import Counter

        half = split_bucket100(t["doc_id"].to_numpy()) < 50
        cnt: Counter = Counter()
        for h, x in zip(half, t["text"].to_pylist()):
            for tok in az.tokens(x or ""):
                cnt[(tok, bool(h))] += 1
        ks = list(cnt.keys())
        return pa.table(
            {"term": pa.array([k[0] for k in ks], pa.string()),
             "in_a": pa.array([int(k[1]) for k in ks], pa.int64()),
             "c": pa.array(np.fromiter(cnt.values(), np.int64,
                                       count=len(cnt)))}
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["term", "in_a"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    piv = agg.pivot_table(index="term", columns="in_a", values="c",
                          aggfunc="sum", fill_value=0)
    n_a = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    n_b = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    ta, tb = n_a.sum(), n_b.sum()
    row = n_a + n_b
    tot = ta + tb
    ea = row * ta / tot
    eb = row * tb / tot
    chi = (n_a - ea) ** 2 / ea + (n_b - eb) ** 2 / eb
    out = pd.DataFrame(
        {"term": piv.index,
         "n_a": n_a.astype(np.int64), "n_b": n_b.astype(np.int64),
         "chi2": np.round(chi, 6)}
    )
    out["chi2_total"] = np.round(float(chi.sum()), 6)
    return out.sort_values(["chi2", "term"], ascending=[False, True],
                           kind="mergesort").head(DRIFT_TOP) \
              .reset_index(drop=True)


QUERIES["corpus_drift_documents"] = q_corpus_drift_documents


def _corpus_drift_oracle_sql() -> str:
    from rindex.ops.analysis_ext import SPLIT_BUCKET_SQL
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH lab AS (
      SELECT doc_id, text,
             (CASE WHEN (SELECT {SPLIT_BUCKET_SQL}
                         FROM (SELECT md5(doc_id::VARCHAR) AS h)) < 50
                   THEN 1 ELSE 0 END) AS in_a
      FROM documents
    ),
    toks AS (
      SELECT in_a,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM lab
    ),
    tc AS (
      SELECT term,
             sum(CASE WHEN in_a = 1 THEN 1 ELSE 0 END)::DOUBLE AS n_a,
             sum(CASE WHEN in_a = 0 THEN 1 ELSE 0 END)::DOUBLE AS n_b
      FROM toks GROUP BY 1
    ),
    m AS (SELECT sum(n_a) AS ta, sum(n_b) AS tb FROM tc),
    chi AS (
      SELECT term, n_a, n_b,
             (n_a - (n_a + n_b) * ta / (ta + tb))
               * (n_a - (n_a + n_b) * ta / (ta + tb))
               / ((n_a + n_b) * ta / (ta + tb))
             + (n_b - (n_a + n_b) * tb / (ta + tb))
               * (n_b - (n_a + n_b) * tb / (ta + tb))
               / ((n_a + n_b) * tb / (ta + tb)) AS v
      FROM tc CROSS JOIN m
    ),
    tot AS (SELECT round(sum(v), 6) AS chi2_total FROM chi)
    SELECT term, n_a::BIGINT AS n_a, n_b::BIGINT AS n_b,
           round(v, 6) AS chi2, tot.chi2_total
    FROM chi CROSS JOIN tot
    ORDER BY round(v, 6) DESC, term ASC
    LIMIT {DRIFT_TOP}
    """


ORACLE["corpus_drift_documents"] = _corpus_drift_oracle_sql()


# ---------------------------------------------------------------------------
# DSIR — data selection with importance resampling (Xie et al. 2023)
# ---------------------------------------------------------------------------

DSIR_TARGET_MOD = 29  # target distribution = the doc_id % 29 == 0 docs
                      # (the contamination op's held-out-set convention:
                      # a small curated sample standing in for the
                      # "high-quality target domain")


def q_dsir_weights_documents(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): per RAW doc, the log
    importance weight  sum_tokens[ ln p_target(tok) - ln p_raw(tok) ]
    under add-1-smoothed unigram LMs fit on the target sample vs the rest
    of the corpus.  Docs with positive log-weight look more like the
    target domain than the raw pool and survive the resampling gate.

    Shape: ONE distributed count pass emits (term, is_target) partials ->
    one groupby builds both LMs; the per-term log-ratio table is
    vocabulary-sized (the designated small side), ray.put once; the
    scoring pass is one searchsorted + reduceat per batch (the
    unigram_nll kernel).  Scalar tree matches the oracle exactly:
    ln((c+1)/(T+V)) per side, ratio-of-logs difference per token, round 6
    after the per-doc sum."""
    import ray

    from rindex.analysis import get_analyzer
    from rindex.ops.dedup import _token_hashes

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def partial_counts(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        ids = t["doc_id"].to_numpy()
        is_t = ids % DSIR_TARGET_MOD == 0
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks_per), np.int64,
                           count=len(toks_per))
        if not lens.sum():
            return pa.table({"h": pa.array([], pa.int64()),
                             "ct": pa.array([], pa.int64()),
                             "cr": pa.array([], pa.int64())})
        h = _token_hashes([tok for lst in toks_per for tok in lst])
        tgt = np.repeat(is_t, lens)
        out = []
        for side, mask in (("ct", tgt), ("cr", ~tgt)):
            u, c = np.unique(h[mask], return_counts=True)
            out.append((u, c))
        allh = np.union1d(out[0][0], out[1][0])
        ct = np.zeros(len(allh), np.int64)
        cr = np.zeros(len(allh), np.int64)
        ct[np.searchsorted(allh, out[0][0])] = out[0][1]
        cr[np.searchsorted(allh, out[1][0])] = out[1][1]
        return pa.table({"h": pa.array(allh), "ct": pa.array(ct),
                         "cr": pa.array(cr)})

    lm = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("h")
        .sum(["ct", "cr"])
        .to_pandas()
    )
    hs = lm["h"].to_numpy()  # groupby output is key-sorted
    ct = lm["sum(ct)"].to_numpy(np.float64)
    cr = lm["sum(cr)"].to_numpy(np.float64)
    V = float(len(hs))
    Tt, Tr = float(ct.sum()), float(cr.sum())
    lr = np.log((ct + 1.0) / (Tt + V)) - np.log((cr + 1.0) / (Tr + V))
    ref = ray.put((hs, lr))

    def score(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        hs_, lr_ = ray.get(ref)
        ids = t["doc_id"].to_numpy()
        raw = ids % DSIR_TARGET_MOD != 0
        toks_per = [az.tokens(x or "") for x in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks_per), np.int64,
                           count=len(toks_per))
        w = np.zeros(len(lens), np.float64)
        nz = lens > 0
        if lens.sum():
            h = _token_hashes([tok for lst in toks_per for tok in lst])
            at = np.searchsorted(hs_, h)
            ok = (at < len(hs_)) & (hs_[np.minimum(at, len(hs_) - 1)] == h)
            if not ok.all():
                raise ValueError(
                    "dsir: token missing from the corpus LM "
                    "(corpus changed between passes?)"
                )
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            w[nz] = np.add.reduceat(lr_[at], starts[nz])
        keep = raw & nz
        w_r = np.round(w, 6)
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(keep)),
                "n_tok": pa.array(lens[keep]),
                "log_w": pa.array(w_r[keep]),
                "selected": pa.array(w_r[keep] > 0.0),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


QUERIES["dsir_weights_documents"] = q_dsir_weights_documents


def _dsir_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH toks AS (
      SELECT doc_id, doc_id % {DSIR_TARGET_MOD} = 0 AS is_t,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '{TOKEN_SQL_RE}')) AS term
      FROM documents
    ),
    lm AS (
      SELECT term,
             sum(CASE WHEN is_t THEN 1 ELSE 0 END)::DOUBLE AS ct,
             sum(CASE WHEN is_t THEN 0 ELSE 1 END)::DOUBLE AS cr
      FROM toks GROUP BY 1
    ),
    tot AS (
      SELECT sum(ct) AS Tt, sum(cr) AS Tr, count(*)::DOUBLE AS V FROM lm
    ),
    per AS (
      SELECT doc_id, count(*)::BIGINT AS n_tok,
             round(sum(ln((ct + 1.0) / (Tt + V))
                       - ln((cr + 1.0) / (Tr + V))), 6) AS log_w
      FROM toks JOIN lm USING (term) CROSS JOIN tot
      WHERE NOT is_t
      GROUP BY doc_id
    )
    SELECT doc_id, n_tok, log_w, log_w > 0.0 AS selected FROM per
    """


ORACLE["dsir_weights_documents"] = _dsir_oracle_sql()


# ---------------------------------------------------------------------------
# Interpolated bigram-LM scoring (the KenLM-shaped quality filter one step
# up from the unigram CCNet op): P(w2|w1) = 0.7*c2(w1,w2)/c1(w1) +
# 0.3*cu(w2)/T, NLL per doc = mean -ln P over its bigram positions.  The
# LM is trained on THIS corpus in one distributed counting pass; the
# (bigram, logprob) table is vocabulary^2-bounded — the designated small
# side (ray.put once, searchsorted per batch; at a vocabulary where it no
# longer fits, the lookup becomes a hash join, same as the unigram op's
# documented swap).  Works entirely in the dedup module's stable 63-bit
# hash space — no term strings move after tokenization.
# ---------------------------------------------------------------------------

BG_L2, BG_L1 = 0.7, 0.3
_BG_PRIME = np.int64(1000003)


def q_bigram_nll_documents(sf_dir: str):
    """Per-doc interpolated bigram NLL (round 6), docs with >= 2 tokens."""
    import ray

    from rindex.analysis import get_analyzer
    from rindex.ops.dedup import _token_hashes

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    # pass 1 — distributed counting: per-batch distinct (kind,k1,k2,cnt)
    # partials; the combine is over vocabulary-bounded rows
    def count_part(t: pa.Table) -> pd.DataFrame:
        az = get_analyzer("standard")
        h1s, h2s, us = [], [], []
        for x in t["text"].to_pylist():
            h = _token_hashes(az.tokens(x or ""))
            us.append(h)
            if len(h) >= 2:
                h1s.append(h[:-1])
                h2s.append(h[1:])
        uni = np.concatenate(us) if us else np.empty(0, np.int64)
        uk, uc = np.unique(uni, return_counts=True)
        if h1s:
            b1 = np.concatenate(h1s)
            b2 = np.concatenate(h2s)
            bh = b1 * _BG_PRIME + b2
            order = np.argsort(bh, kind="stable")
            bh_s = bh[order]
            starts = np.flatnonzero(
                np.concatenate([[True], bh_s[1:] != bh_s[:-1]])
            )
            bc = np.diff(np.append(starts, len(bh_s)))
            sel = order[starts]
            bk1, bk2 = b1[sel], b2[sel]
        else:
            bk1 = bk2 = np.empty(0, np.int64)
            bc = np.empty(0, np.int64)
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(len(uk), np.int8), np.ones(len(bk1), np.int8)]
                ),
                "k1": np.concatenate([uk, bk1]),
                "k2": np.concatenate([np.zeros(len(uk), np.int64), bk2]),
                "cnt": np.concatenate([uc, bc]).astype(np.int64),
            }
        )

    # distributed combine BEFORE the driver collect: partials bucket on a
    # stable key hash so each reduce task sums its share of the vocabulary;
    # the driver only ever sees the combined (distinct-bounded) LM rows
    def lm_key(t: pa.Table) -> np.ndarray:
        return (
            t["k1"].to_numpy(zero_copy_only=False) * 31
            + t["k2"].to_numpy(zero_copy_only=False)
            + t["kind"].to_numpy(zero_copy_only=False)
        )

    parts = bucket_map_groups(
        ds.map_batches(count_part, batch_format="pyarrow", zero_copy_batch=True),
        lm_key,
        lambda g: g.groupby(["kind", "k1", "k2"], as_index=False)["cnt"].sum(),
        N_BUCKETS,
    ).to_pandas()
    agg = parts.groupby(["kind", "k1", "k2"], as_index=False)["cnt"].sum()
    uni = agg[agg["kind"] == 0]
    bgr = agg[agg["kind"] == 1]
    T = float(uni["cnt"].sum())
    uh = uni["k1"].to_numpy(np.int64)
    uo = np.argsort(uh)
    uh, ucnt = uh[uo], uni["cnt"].to_numpy(np.float64)[uo]
    b1 = bgr["k1"].to_numpy(np.int64)
    b2 = bgr["k2"].to_numpy(np.int64)
    c2 = bgr["cnt"].to_numpy(np.float64)
    # context counts c1(w1) = sum of its bigram counts
    c1o = np.argsort(b1, kind="stable")
    b1s = b1[c1o]
    cstarts = np.flatnonzero(np.concatenate([[True], b1s[1:] != b1s[:-1]]))
    ctx_h = b1s[cstarts]
    ctx_c = np.add.reduceat(c2[c1o], cstarts)
    c1 = ctx_c[np.searchsorted(ctx_h, b1)]
    cu2 = ucnt[np.searchsorted(uh, b2)]
    # IDENTICAL scalar tree to the oracle: (0.7*c2)/c1 + (0.3*cu)/T
    lp = -np.log(BG_L2 * c2 / c1 + BG_L1 * cu2 / T)
    bh = b1 * _BG_PRIME + b2
    lo = np.argsort(bh)
    lm_ref = ray.put((bh[lo], lp[lo]))

    # pass 2 — score every doc against the broadcast LM
    def score(t: pa.Table) -> pa.Table:
        az = get_analyzer("standard")
        bh_, lp_ = ray.get(lm_ref)
        per = [_token_hashes(az.tokens(x or "")) for x in t["text"].to_pylist()]
        nb = np.fromiter(
            (max(len(h) - 1, 0) for h in per), np.int64, count=len(per)
        )
        keep = nb > 0
        nll = np.zeros(len(per), np.float64)
        if nb.sum():
            hb = np.concatenate(
                [h[:-1] * _BG_PRIME + h[1:] for h in per if len(h) >= 2]
            )
            at = np.searchsorted(bh_, hb)
            ok = (at < len(bh_)) & (bh_[np.minimum(at, len(bh_) - 1)] == hb)
            if not ok.all():
                raise ValueError(
                    f"bigram_nll: {int((~ok).sum())} bigrams missing from "
                    "the corpus LM (corpus mismatch)"
                )
            vals = lp_[at]
            starts = np.concatenate([[0], np.cumsum(nb[keep])[:-1]])
            nll[keep] = np.add.reduceat(vals, starts) / nb[keep]
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(keep)),
                "n_bigrams": pa.array(nb[keep]),
                "nll": pa.array(np.round(nll[keep], 6)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


QUERIES["bigram_nll_documents"] = q_bigram_nll_documents


def _bigram_nll_oracle_sql() -> str:
    from rindex.ops.fulltext import TOKEN_SQL_RE

    return f"""
    WITH tokp AS (
      SELECT doc_id, unnest(l) AS term, unnest(range(0, len(l))) AS pos
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_SQL_RE}') AS l
            FROM documents)
    ),
    bg AS (
      SELECT doc_id, term AS w1,
             lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
      FROM tokp
    ),
    bgn AS (
      SELECT w1, w2, count(*)::DOUBLE AS c2
      FROM bg WHERE w2 IS NOT NULL GROUP BY 1, 2
    ),
    ctx AS (SELECT w1, sum(c2) AS c1 FROM bgn GROUP BY 1),
    uni AS (SELECT term, count(*)::DOUBLE AS cu FROM tokp GROUP BY 1),
    tot AS (SELECT sum(cu) AS T FROM uni)
    SELECT b.doc_id, count(*)::BIGINT AS n_bigrams,
           round(avg(-ln({BG_L2} * n.c2 / x.c1 + {BG_L1} * u.cu / T)), 6)
             AS nll
    FROM bg b
    JOIN bgn n ON n.w1 = b.w1 AND n.w2 = b.w2
    JOIN ctx x ON x.w1 = b.w1
    JOIN uni u ON u.term = b.w2
    CROSS JOIN tot
    WHERE b.w2 IS NOT NULL
    GROUP BY 1
    """


ORACLE["bigram_nll_documents"] = _bigram_nll_oracle_sql()


# ---------------------------------------------------------------------------
# Dual-LM informativeness delta (the RHO-loss / DSIR-style signal family:
# how much more predictable a document becomes with context): delta =
# unigram NLL - bigram NLL.  High delta = locally coherent text (context
# helps a lot); near-zero or negative = token soup or boilerplate.  A pure
# composition of the two exact LM pipelines — both sides subtract the SAME
# rounded values, so the compare stays bit-exact.
# ---------------------------------------------------------------------------


def q_lm_delta_documents(sf_dir: str):
    """Per-doc (unigram NLL, bigram NLL, delta), docs with >= 2 tokens."""
    uni = q_unigram_nll_documents(sf_dir).to_pandas()
    bi = q_bigram_nll_documents(sf_dir).to_pandas()
    m = uni.merge(
        bi[["doc_id", "nll"]].rename(columns={"nll": "bi_nll"}), on="doc_id"
    )
    out = pd.DataFrame(
        {
            "doc_id": m["doc_id"].to_numpy(np.int64),
            "uni_nll": m["nll"].to_numpy(np.float64),
            "bi_nll": m["bi_nll"].to_numpy(np.float64),
            "delta": (
                m["nll"].to_numpy(np.float64)
                - m["bi_nll"].to_numpy(np.float64)
            ),
        }
    )
    return out


QUERIES["lm_delta_documents"] = q_lm_delta_documents


def _lm_delta_oracle_sql() -> str:
    uni = ORACLE["unigram_nll_documents"]
    bi = ORACLE["bigram_nll_documents"]
    return f"""
    SELECT u.doc_id, u.nll AS uni_nll, b.nll AS bi_nll,
           u.nll - b.nll AS delta
    FROM ({uni}) u
    JOIN ({bi}) b USING (doc_id)
    """


ORACLE["lm_delta_documents"] = _lm_delta_oracle_sql()
