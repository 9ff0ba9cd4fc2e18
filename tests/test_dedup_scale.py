"""Hot-bucket cap + distributed-verify guarantees of the dedup ops
(VERDICT r1 items 1-2): bounded pair expansion on a planted stopword/
exact-dup megacluster WITH a logged, driver-visible drop count, recall
unchanged on the planted near-dups, and no corpus-sized driver
materialization anywhere in dedup.py."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_planted_corpus(tmp_path) -> str:
    """120 docs: a 100-doc identical megacluster (every LSH band bucket hot),
    a planted near-dup pair (1, 2) with distinctive rare shingles, filler
    uniques."""
    rng = np.random.default_rng(7)
    docs = {}
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    # near-dup pair: identical heavy base, one rare word swapped.  The rare
    # words are chosen so the simhash hamming distance is <= 3 (simhash of
    # short docs is volatile; the heavy base pins the high-|acc| lanes and
    # this particular swap flips only 2 low-margin lanes — verified
    # deterministic, the signature seed is fixed).  Jaccard is ~0.97, so
    # the pair is also a minhash near-dup.
    docs[1] = " ".join([base] * 8) + " rarewordone"
    docs[2] = " ".join([base] * 8) + " rareword169"
    for i in range(3, 21):
        docs[i] = " ".join(
            f"w{rng.integers(0, 50000)}" for _ in range(30)
        )
    mega = "the quick brown fox jumps over the lazy dog again and again"
    for i in range(21, 121):
        docs[i] = mega  # identical -> one hot bucket per band
    ids = sorted(docs)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([docs[i] for i in ids]),
        }
    )
    d = tmp_path / "planted"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_run_pair_counts_cap_bounds_expansion():
    """Pure-kernel check: a run longer than max_bucket is dropped with an
    exact accounted pair count, short runs still expand."""
    from rindex.ops.dedup import _run_pair_counts

    # one hot key (0) with 50 docs, one small key (1) with 3 docs
    k = np.array([0] * 50 + [1] * 3, dtype=np.int64)
    d = np.arange(53, dtype=np.int64)
    pk, n, _va, _vb, dropped = _run_pair_counts(k, d, max_bucket=10)
    assert dropped == 50 * 49 // 2
    assert len(pk) == 3  # the 3-doc bucket's pairs survive
    pk2, _n2, _a, _b, dropped2 = _run_pair_counts(k, d, max_bucket=None)
    assert dropped2 == 0 and len(pk2) == 50 * 49 // 2 + 3


def test_minhash_cap_drops_logged_recall_kept(ray_session, tmp_path,
                                              monkeypatch):
    import rindex.ops.dedup as dd

    sf = _write_planted_corpus(tmp_path)
    monkeypatch.setattr(dd, "LSH_MAX_BUCKET", 16)
    dd._LAST_DROPPED.clear()
    out = dd.q_minhash_lsh_neardup(sf)
    # the megacluster (100 identical docs -> 4,950 pairs/band) was capped:
    # drop count logged driver-side, not silent
    assert dd._LAST_DROPPED.get("minhash_lsh", 0) > 0
    # planted near-dup pair survives via its own (cold) buckets
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (1, 2) in pairs
    # bounded output: nothing like the 4,950-pair clique came through
    assert len(out) < 100


def test_simhash_cap_drops_logged_recall_kept(ray_session, tmp_path,
                                              monkeypatch):
    import rindex.ops.dedup as dd

    sf = _write_planted_corpus(tmp_path)
    monkeypatch.setattr(dd, "LSH_MAX_BUCKET", 16)
    dd._LAST_DROPPED.clear()
    out = dd.q_simhash_neardup(sf)
    assert dd._LAST_DROPPED.get("simhash", 0) > 0
    # 1 token of 20 changed -> near-identical simhash; the pair must survive
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (1, 2) in pairs
    assert len(out) < 100


def test_uncapped_lsh_finds_megacluster(ray_session, tmp_path):
    """Sanity inverse: with the default (large) cap the megacluster's pairs
    ARE found — proving the capped test above exercised the cap, not a
    recall bug."""
    import rindex.ops.dedup as dd

    sf = _write_planted_corpus(tmp_path)
    out = dd.q_minhash_lsh_neardup(sf)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (21, 22) in pairs and (1, 2) in pairs
    assert len(out) >= 100 * 99 // 2


def test_no_corpus_sized_driver_materialization():
    """Static guard for VERDICT r1 'What's wrong' #1-3: dedup.py must not
    collect a corpus-sized table driver-side.  to_pandas is allowed only on
    post-aggregation (candidate/verified-pair/size) results — assert the
    banned shapes are gone."""
    import inspect

    import rindex.ops.dedup as dd

    src = inspect.getsource(dd)
    assert "_collect_shingle_sets" not in src
    assert "_verify_pairs" not in src
    # the old simhash full-signature-table collect
    assert "bucketed.to_pandas()" not in src
    # the old ngram driver-side pair-key concat
    assert "iter_batches" not in src
    # the shingle-table pass and the doc-size groupby the one-pass shingle
    # lists replaced
    assert "_doc_sizes" not in src
    assert "_shingle_table" not in src


def test_join_path_equals_broadcast_path(ray_session, tmp_path, monkeypatch):
    """r2 VERDICT item #5: the size-lookup broadcast and the hash-join
    scale path must be the SAME operator — forcing the thresholds to 0
    flips every dedup op onto joins / distributed label rounds and the
    outputs must match the broadcast/driver path bit-for-bit."""
    import pandas as pd

    import rindex.ops.dedup as dd

    sf = _write_planted_corpus(tmp_path)

    def minhash(cap):
        dd._LAST_DROPPED.clear()
        with monkeypatch.context() as m:
            m.setattr(dd, "LSH_MAX_BUCKET", cap)
            return dd.q_minhash_lsh_neardup(sf), dict(dd._LAST_DROPPED)

    base_pairs = dd.q_ngram_jaccard_neardup(sf)
    base_clusters = dd.q_dedup_clusters_documents(sf)
    base_mh = minhash(dd.LSH_MAX_BUCKET)
    base_mh_capped = minhash(16)
    monkeypatch.setattr(dd, "DEDUP_BCAST_MAX_DOCS", 0)
    monkeypatch.setattr(dd, "CLUSTER_DRIVER_EDGE_MAX", 0)
    join_pairs = dd.q_ngram_jaccard_neardup(sf)
    join_clusters = dd.q_dedup_clusters_documents(sf)
    join_mh = minhash(dd.LSH_MAX_BUCKET)
    join_mh_capped = minhash(16)
    pd.testing.assert_frame_equal(base_pairs, join_pairs, check_exact=True)
    pd.testing.assert_frame_equal(
        base_clusters, join_clusters, check_exact=True
    )
    for base, join in ((base_mh, join_mh), (base_mh_capped, join_mh_capped)):
        pd.testing.assert_frame_equal(base[0], join[0], check_exact=True)
        assert base[1] == join[1]
    # sanity: the planted megacluster + near-dup pair actually exercised it
    assert len(base_pairs) > 100 and len(base_clusters) > 100
    assert len(base_mh[0]) == 4951 and not base_mh[1]
    assert len(base_mh_capped[0]) == 1 and base_mh_capped[1]["minhash_lsh"] > 0


def test_distributed_cluster_nonconvergence_is_loud(
    ray_session, tmp_path, monkeypatch
):
    """The edge-Dataset rounds keep the driver path's loud contract: a
    chain longer than 2^CLUSTER_ROUNDS cannot converge and must raise,
    not return half-merged components."""
    import rindex.ops.dedup as dd

    # a path graph 0-1-2-...-40: min-label needs ~40 rounds at step 1;
    # CLUSTER_ROUNDS halvings cover diameter 2^k, so cap rounds to 2
    import pandas as pd

    pairs = pd.DataFrame(
        {"doc_a": np.arange(40, dtype=np.int64),
         "doc_b": np.arange(1, 41, dtype=np.int64),
         "jaccard": np.full(40, 1.0)}
    )
    monkeypatch.setattr(dd, "CLUSTER_ROUNDS", 2)
    with pytest.raises(ValueError, match="diameter"):
        dd._cluster_labels_distributed(pairs)
    with pytest.raises(ValueError, match="diameter"):
        dd._cluster_labels_driver(
            pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()
        )
