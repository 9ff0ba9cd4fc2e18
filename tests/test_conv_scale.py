"""Conversation-family scale contracts (VERDICT r3 item #8).

The conv-bucket modulus `rindex.ops.transcripts.N_BUCKETS` (127, a plain
module constant every conversation op reads at call time and hands to
`rindex.ops.util.bucket_map_groups`) is the scale knob that bounds reducer
memory: a reduce task sees ~n_convs/N_BUCKETS conversations.  These tests
pin (a) correctness under EXTREME bucket skew — a corpus engineered so
every conversation lands in the same bucket (one reducer owns the whole
corpus) — and (b) that the knob is output-invariant: patching the module
constant to modulus 1 (max skew) and 997 (max spread) produces identical
results.

The 2.88M-turn wall-clock stress itself runs via
scripts/conv_scale_stress.py and is recorded in BASELINE.md.
"""

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_skew_corpus(tmp_path, n_convs=60, turns=5, stride=127):
    """Conversations whose conv_id is a multiple of `stride` — with the
    default N_BUCKETS=127 every conversation hashes to bucket 0."""
    convs = np.arange(n_convs, dtype=np.int64) * stride
    doc_ids = (convs[:, None] * turns + np.arange(turns)).ravel()
    rng = np.random.default_rng(11)
    words = np.array(["alpha", "beta", "gamma", "delta", "tool", "run"])
    texts = [
        " ".join(rng.choice(words, size=rng.integers(3, 12)))
        for _ in range(len(doc_ids))
    ]
    t = pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "text": pa.array(texts, pa.string()),
        }
    )
    d = str(tmp_path)
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return d, t


def _stats_reference(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df["conv_id"] = df["doc_id"] // 5
    df["turn_idx"] = df["doc_id"] % 5
    df["role"] = np.where(df["turn_idx"] % 2 == 0, "user", "assistant")
    m7 = df["doc_id"] % 7
    df["tool"] = np.where(m7 == 0, "search", np.where(m7 == 3, "bash", ""))
    df["n_chars"] = df["text"].str.len()
    out = df.groupby("conv_id", as_index=False).agg(
        n_turns=("doc_id", "size"),
        n_user=("role", lambda r: int((r == "user").sum())),
        n_assistant=("role", lambda r: int((r == "assistant").sum())),
        n_tool_calls=("tool", lambda x: int((x != "").sum())),
        total_chars=("n_chars", "sum"),
    )
    out["avg_turn_chars"] = out["total_chars"] / out["n_turns"]
    return out.sort_values("conv_id").reset_index(drop=True)


def _run_stats(sf_dir):
    from rindex.ops.transcripts import q_conv_stats_documents

    res = q_conv_stats_documents(sf_dir)
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    return df.sort_values("conv_id").reset_index(drop=True)


def test_all_convs_in_one_bucket_still_correct(ray_session, tmp_path):
    sf_dir, t = _write_skew_corpus(tmp_path)
    got = _run_stats(sf_dir)
    ref = _stats_reference(t)
    got = got[ref.columns].astype({c: ref[c].dtype for c in ref.columns})
    pd.testing.assert_frame_equal(got, ref)


@pytest.mark.parametrize("modulus", [1, 997])
def test_bucket_modulus_is_output_invariant(
    ray_session, tmp_path, monkeypatch, modulus
):
    import rindex.ops.transcripts as tx

    sf_dir, t = _write_skew_corpus(tmp_path, stride=13)
    base = _run_stats(sf_dir)
    monkeypatch.setattr(tx, "N_BUCKETS", modulus)
    alt = _run_stats(sf_dir)
    pd.testing.assert_frame_equal(
        base.sort_index(axis=1), alt.sort_index(axis=1)
    )


def test_one_megaconv_does_not_skew_flatten(ray_session, tmp_path):
    """A 50k-turn contiguous doc_id run flows through conv_flatten with
    exact totals.  (The derive maps doc_id//5 -> conv_id, so a single
    10^4-turn conversation cannot arise from this view — the structural
    skew case is one BUCKET owning the whole corpus, pinned above; this
    test pins the dense-run shape: 10k back-to-back convs landing in the
    same few buckets.)"""
    # conv 0 gets 10_000 doc rows via doc_ids 0..49_999 (conv = id//5)
    n_mega = 10_000 * 5
    mega_ids = np.arange(n_mega, dtype=np.int64)
    # 50 normal convs far away
    tail_ids = np.arange(n_mega, n_mega + 250, dtype=np.int64)
    doc_ids = np.concatenate([mega_ids, tail_ids])
    texts = ["hello world"] * len(doc_ids)
    t = pa.table(
        {"doc_id": pa.array(doc_ids), "text": pa.array(texts, pa.string())}
    )
    d = str(tmp_path)
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    from rindex.ops.transcripts import q_conv_flatten_documents

    res = q_conv_flatten_documents(d)
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    assert len(df) == len(doc_ids) // 5  # one row per conversation
    assert int(df["n_turns"].max()) == 5  # derive caps turns per conv at 5
    assert int(df["n_turns"].sum()) == len(doc_ids)


@pytest.mark.parametrize("modulus", [1, 997])
def test_truncate_and_overlap_bucket_invariant(
    ray_session, tmp_path, monkeypatch, modulus
):
    """r4 ops: context truncation and reply copy-rate are invariant to the
    conv-bucket modulus (the scale knob must never change output)."""
    import rindex.ops.transcripts as tx

    sf_dir, _ = _write_skew_corpus(tmp_path, stride=13)

    def run():
        a = tx.q_conv_truncate_context_documents(sf_dir).to_pandas()
        b = tx.q_conv_reply_overlap_documents(sf_dir).to_pandas()
        return (
            a.sort_values("conv_id").reset_index(drop=True),
            b.sort_values("conv_id").reset_index(drop=True),
        )

    a0, b0 = run()
    monkeypatch.setattr(tx, "N_BUCKETS", modulus)
    a1, b1 = run()
    pd.testing.assert_frame_equal(a0, a1)
    pd.testing.assert_frame_equal(b0, b1)
    assert len(a0) > 0 and len(b0) > 0


@pytest.mark.parametrize("modulus", [1, 997])
def test_new_r4_conv_ops_bucket_invariant(
    ray_session, tmp_path, monkeypatch, modulus
):
    """Late-r4 ops: DPO pairs, context growth, tool chains and topic-shift
    segmentation are invariant to the conv-bucket modulus."""
    import rindex.ops.transcripts as tx

    sf_dir, _ = _write_skew_corpus(tmp_path, stride=13)
    # embeddings for topic_shift: vec_id aligned with doc_id, 8 dims
    rng = np.random.default_rng(7)
    n = len(pq.read_table(os.path.join(sf_dir, "documents.parquet")))
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                [row.tolist() for row in
                 rng.normal(size=(n, 8)).astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(emb, os.path.join(sf_dir, "embeddings.parquet"))

    def run():
        return [
            tx.q_conv_dpo_pairs_documents(sf_dir),
            tx.q_conv_context_growth_documents(sf_dir),
            tx.q_conv_tool_chain_documents(sf_dir),
            tx.q_conv_topic_shift_embeddings(sf_dir),
        ]

    base = run()
    monkeypatch.setattr(tx, "N_BUCKETS", modulus)
    alt = run()
    for b, a in zip(base, alt):
        pd.testing.assert_frame_equal(
            b.sort_index(axis=1), a.sort_index(axis=1)
        )


@pytest.mark.parametrize("modulus", [1, 997])
def test_r4c_conv_ops_bucket_invariant(
    ray_session, tmp_path, monkeypatch, modulus
):
    """Continuation-session ops: tool-error recovery (bucketed suffix
    scan), refusal audit, turn-level dedup and PII incidence are
    invariant to the conv-bucket modulus / unaffected by extreme skew."""
    import rindex.ops.transcripts as tx

    n_convs, turns, stride = 40, 5, 127
    convs = np.arange(n_convs, dtype=np.int64) * stride
    doc_ids = (convs[:, None] * turns + np.arange(turns)).ravel()
    rng = np.random.default_rng(23)
    words = np.array(["alpha", "beta", "slow", "delta", "dup", "run"])
    texts = [
        " ".join(rng.choice(words, size=rng.integers(3, 12)))
        for _ in range(len(doc_ids))
    ]
    t = pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(
                [f"src{int(d) % 3}" for d in doc_ids], pa.string()
            ),
        }
    )
    sf_dir = str(tmp_path / "sfr4c")
    os.makedirs(sf_dir)
    pq.write_table(t, os.path.join(sf_dir, "documents.parquet"))

    def run():
        def norm(x):
            df = x if isinstance(x, pd.DataFrame) else x.to_pandas()
            return (
                df.sort_values(list(df.columns))
                .reset_index(drop=True)
                .sort_index(axis=1)
            )

        return [
            norm(tx.q_conv_tool_recovery_documents(sf_dir)),
            norm(tx.q_conv_refusal_audit_documents(sf_dir)),
            norm(tx.q_conv_turn_dedup_documents(sf_dir)),
            norm(tx.q_conv_pii_incidence_documents(sf_dir)),
        ]

    base = run()
    monkeypatch.setattr(tx, "N_BUCKETS", modulus)
    alt = run()
    for b, a in zip(base, alt):
        pd.testing.assert_frame_equal(b, a)
    assert len(base[0]) > 0 and len(base[2]) > 0
