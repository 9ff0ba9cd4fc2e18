"""Seeded inputs.  Everything here is a pure function of `seed` and the size
arguments; the engine only ever sees the tables written out.

Transcripts and queries come from the repo's reference fixtures
(`rindex.fixtures.make_transcripts`, `rindex.fixtures.make_queries`), the
corpus and query set `bench.py` serves.  This module adds what the fixtures
lack:

* `make_query_pool`  the reference fixture query set and the sets after it,
  plus 2-3 token phrases cut from the corpus;
* `make_batches`     append micro-batches: new conversations plus re-sent
  earlier ones with changed text, version and delete markers, and the fixed
  probe turn;
* `make_documents`   the `documents` table of the operator suite with
  planted near-duplicate pairs and exact duplicates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rindex import fixtures

MAX_TURNS = 8  # turns per conversation, as at every fixture scale

# The probe turn is the same in every seed: it is re-sent by every micro-batch
# so that the append fault (both versions live until a merge) shows on
# inputs that do not depend on the seed.
PROBE_CONV = "zz-probe"
PROBE_TERM = "zzprobe"
PROBE_TEXTS = [
    "zzprobe original wording of the probe turn",
    "zzprobe revised wording number one",
    "zzprobe revised wording number two",
    "zzprobe revised wording number three",
    "zzprobe revised wording number four",
    "zzprobe revised wording number five",
]


def transcripts(seed: int, n_convs: int, conv_ids=None) -> pa.Table:
    """`n_convs` fixture conversations; `conv_ids[i]` renames the fixture's
    i-th conversation (default: the fixture's own c000000.. ids)."""
    t = fixtures.make_transcripts(n_convs, MAX_TURNS, seed)
    if conv_ids is None:
        return t
    i = np.array([int(c[1:]) for c in t["conv_id"].to_pylist()], np.int64)
    ids = np.asarray(conv_ids, dtype=object)[i]
    return t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                        pa.array(ids, pa.string()))


def version_marker(batch: int) -> str:
    return f"vmk{batch}x"


def delete_marker(seed: int, batch: int) -> str:
    return f"dmk{seed % 997}x{batch}"


# ------------------------------------------------------------------ queries

# The query pool: fixtures.make_queries(seed) for these seeds, 60 queries
# each; the first is the reference set (the fixture's default seed).  The
# pool is the same for every benchmark seed: the median latency of a mixed
# pool sits between the cheap and the costly queries, where few lie: pools
# drawn per seed moved it by up to half, a new corpus seed by 2-9 %.
QUERY_SEEDS = range(fixtures.SEED, fixtures.SEED + 10)

# token classes of phrase slots, by Zipf rank as fixtures.make_queries draws
# its head and torso terms; "stop" is a stopword
_VOCAB = fixtures._vocab()
_PHRASE_CLASS = {**{w: "torso" for w in _VOCAB[50:800]},
                 **{w: "head" for w in _VOCAB[:10]},
                 **{w: "stop" for w in fixtures.STOPWORDS}}
PHRASE_SHAPES = [("stop", "torso"), ("torso", "stop"), ("head", "torso"),
                 ("torso", "torso"), ("torso", "stop", "torso"),
                 ("stop", "head", "stop")]


def fixture_queries(seed: int) -> list[tuple[str, str, int]]:
    """One fixture query set as (qtype, text, k)."""
    t = fixtures.make_queries(seed)
    return list(zip(t["qtype"].to_pylist(), t["text"].to_pylist(),
                    t["k"].to_pylist()))


def make_query_pool(seed: int, texts: list[str], n_phrases: int):
    """(queries, phrases).  The queries are the fixture query sets of
    QUERY_SEEDS, so the pool keeps the fixture's make-up (every set has the
    same fixed head queries).  A phrase is
    (text, k): a run of consecutive plain word tokens of a corpus turn
    whose classes match a slot shape.  The shape and k of every phrase slot
    come from a fixed stream, the same for every seed, so that pools of
    different seeds cost alike; the seed picks the turns."""
    queries = [q for s in QUERY_SEEDS for q in fixture_queries(s)]
    shape = np.random.Generator(np.random.PCG64([0, 2]))
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    phrases = []
    for _ in range(n_phrases):
        want = PHRASE_SHAPES[int(shape.integers(0, len(PHRASE_SHAPES)))]
        n = len(want)
        k = int(shape.choice([10, 100]))
        for _try in range(1_000_000):
            toks = texts[int(rng.integers(0, len(texts)))].split()
            if len(toks) < n:
                continue
            at = int(rng.integers(0, len(toks) - n + 1))
            cut = toks[at: at + n]
            # plain words only: a phrase must not straddle punctuation
            if (tuple(_PHRASE_CLASS.get(t) for t in cut) == want
                    and all(" ".join(cut) != p for p, _k in phrases)):
                break
        else:
            raise ValueError(f"no phrase of shape {want} in the corpus")
        phrases.append((" ".join(cut), k))
    return queries, phrases


# ------------------------------------------------------------------ batches

def make_batches(seed: int, base_convs: int, n_batches: int,
                 new_per_batch: int, resend_per_batch: int,
                 delete_share: float = 0.02):
    """Base table plus `n_batches` append micro-batches.

    Every turn ends with its batch's version marker.  Batch b >= 1 holds
    `new_per_batch` new conversations, `resend_per_batch` earlier
    conversations re-sent in full with new text (and a new turn count), and
    the probe turn; a seeded `delete_share` of its NEW turns carries the
    batch's delete marker.  Returns (base, [batch tables])."""
    rng = np.random.Generator(np.random.PCG64([seed, 3]))

    def tag(tbl: pa.Table, b: int, marks: np.ndarray | None = None):
        vm = version_marker(b)
        dm = delete_marker(seed, b)
        out = [
            f"{t} {vm} {dm}" if (marks is not None and marks[i]) else f"{t} {vm}"
            for i, t in enumerate(tbl["text"].to_pylist())
        ]
        return tbl.set_column(
            tbl.schema.get_field_index("text"), "text", pa.array(out, pa.string())
        )

    def probe(b: int) -> pa.Table:
        row = transcripts(seed, 1).slice(0, 1)
        return row.from_pydict(
            {**row.to_pydict(), "conv_id": [PROBE_CONV], "turn_idx": [0],
             "text": [PROBE_TEXTS[b]]},
            schema=row.schema,
        )

    def cid(i: int) -> str:
        return f"c{i:06d}"

    base = transcripts(seed, base_convs)
    base = pa.concat_tables([tag(base, 0), tag(probe(0), 0)])
    batches = []
    convs = base_convs
    for b in range(1, n_batches + 1):
        # fixture seeds of their own, apart from the base's and each other's
        sub = (seed * 1000 + b) * 2
        new = transcripts(sub, new_per_batch,
                          [cid(convs + i) for i in range(new_per_batch)])
        marks = rng.random(new.num_rows) < delete_share
        pick = np.sort(rng.choice(convs, size=resend_per_batch, replace=False))
        resent = transcripts(sub + 1, resend_per_batch, [cid(c) for c in pick])
        batches.append(pa.concat_tables(
            [tag(new, b, marks), tag(resent, b), tag(probe(b), b)]
        ))
        convs += new_per_batch
    return base, batches


# ------------------------------------------------------------------ documents

_CONS = "bdfgklmnprstvz"
_VOWS = "aeiou"
_SYLL = [c + v for c in _CONS for v in _VOWS]
_DOC_WORDS = np.array(
    ["data", "table", "query", "index", "merge", "scan", "join", "sort",
     "batch", "stream", "value", "key", "row", "column", "filter", "group",
     "window", "order", "line", "part", "fast", "slow", "big", "small",
     "hash", "agg", "spark", "ray", "token", "shard", "block", "cache"]
    # 400 consonant-vowel pseudo-words: their character n-grams differ
    # more than those of the fixture's w0000-style words
    + [_SYLL[i // len(_SYLL)] + _SYLL[i % len(_SYLL)] for i in range(400)],
    dtype=object,
)


def make_documents(seed: int, n_docs: int, n_near: int, n_exact: int):
    """(documents table, planted near-duplicate pairs, exact-copy pairs).
    A near-duplicate is a copy of a 40-90 token document with one token
    replaced; an exact copy repeats the text byte for byte."""
    rng = np.random.Generator(np.random.PCG64([seed, 4]))
    p = np.arange(1, len(_DOC_WORDS) + 1, dtype=np.float64) ** -0.9
    p /= p.sum()
    lens = rng.integers(8, 90, n_docs)
    texts = [
        " ".join(_DOC_WORDS[rng.choice(len(_DOC_WORDS), size=int(n), p=p)])
        for n in lens
    ]
    slots = rng.permutation(n_docs)
    near, exact = [], []
    for j in range(n_near):
        src, dst = int(slots[2 * j]), int(slots[2 * j + 1])
        toks = " ".join(
            _DOC_WORDS[rng.choice(len(_DOC_WORDS), size=int(rng.integers(40, 90)), p=p)]
        ).split()
        texts[src] = " ".join(toks)
        at = int(rng.integers(len(toks) // 2, len(toks)))
        toks[at] = "zz" + toks[at]
        texts[dst] = " ".join(toks)
        near.append((min(src, dst), max(src, dst)))
    base = 2 * n_near
    for j in range(n_exact):
        src, dst = int(slots[base + 2 * j]), int(slots[base + 2 * j + 1])
        texts[dst] = texts[src]
        exact.append((min(src, dst), max(src, dst)))
    langs = np.array(["en", "de", "fr", "es"], dtype=object)[rng.integers(0, 4, n_docs)]
    src_col = np.array([f"src{i}" for i in range(5)], dtype=object)[
        rng.integers(0, 5, n_docs)
    ]
    table = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(list(langs), pa.string()),
            "source": pa.array(list(src_col), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    return table, near, exact
