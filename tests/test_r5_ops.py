"""r5 unit pins: phonetic encoder goldens (values the ASCII corpus can't
exercise), batch-17 evaluator kernels, and the new DFR/IB similarity
members' channel algebra."""

import numpy as np
import pytest

from rindex.ops.analysis_ext import match_rating_encode, refined_soundex
from rindex.ops.evaluators import EVALUATORS


# commons-codec RefinedSoundex.US_ENGLISH documented examples
@pytest.mark.parametrize(
    "word,code",
    [
        ("testing", "T6036084"),
        ("TESTING", "T6036084"),
        ("The", "T60"),
        ("quick", "Q503"),
        ("brown", "B1908"),
        ("fox", "F205"),
        ("jumped", "J408106"),
        ("over", "O0209"),
        ("lazy", "L7050"),
        ("dogs", "D6043"),
    ],
)
def test_refined_soundex_goldens(word, code):
    assert refined_soundex(word) == code


@pytest.mark.parametrize(
    "word,code",
    [
        # commons-codec MatchRatingApproachEncoder examples
        ("Smith", "SMTH"),
        ("Smyth", "SMYTH"),
        ("Catherine", "CTHRN"),
        ("Kathryn", "KTHRYN"),
        # double consonant collapses BEFORE the length check
        ("Williamson", "WLMSN"),
        # leading vowel is kept
        ("Abernathy", "ABRNTHY"[:3] + "ABRNTHY"[-3:]),
    ],
)
def test_match_rating_goldens(word, code):
    assert match_rating_encode(word) == code


def test_batch17_evaluator_kernels():
    v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    d = EVALUATORS["describe"](v)
    assert d["N"] == 8 and d["min"] == 2.0 and d["max"] == 9.0
    assert d["mean"] == 5.0
    assert abs(d["var"] - np.var(v, ddof=1)) < 1e-12

    assert EVALUATORS["mode"](v).tolist() == [4.0]
    assert EVALUATORS["mode"]([1, 1, 2, 2, 3]).tolist() == [1.0, 2.0]

    f, dfb, dfw = EVALUATORS["anova"]([1, 2, 3], [2, 3, 4], [5, 6, 7])
    assert dfb == 2.0 and dfw == 6.0
    # hand-checked one-way ANOVA: grand=3.667, ssb=26/3*... verify vs
    # direct formula
    groups = [np.array(g, float) for g in ([1, 2, 3], [2, 3, 4], [5, 6, 7])]
    allv = np.concatenate(groups)
    ssb = sum(len(g) * (g.mean() - allv.mean()) ** 2 for g in groups)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
    assert abs(f - (ssb / 2) / (ssw / 6)) < 1e-12

    t, df = EVALUATORS["pairedTtest"]([3, 4, 5], [1, 1, 1])
    assert df == 2.0
    dd = np.array([2.0, 3.0, 4.0])
    assert abs(
        t - dd.mean() / (dd.std(ddof=1) / np.sqrt(3))
    ) < 1e-12

    assert EVALUATORS["natural"](4).tolist() == [0, 1, 2, 3]
    assert EVALUATORS["repeat"](2.5, 3).tolist() == [2.5, 2.5, 2.5]
    assert EVALUATORS["zeros"](2).tolist() == [0, 0]
    assert EVALUATORS["ones"](2).tolist() == [1, 1]
    assert EVALUATORS["copyOf"]([1, 2, 3], 2).tolist() == [1, 2]
    assert EVALUATORS["copyOf"]([1, 2, 3]).tolist() == [1, 2, 3]
    assert EVALUATORS["copyOf"]([1, 2], 4).tolist() == [1, 2, 0, 0]
    assert EVALUATORS["copyOfRange"]([1, 2, 3, 4], 1, 3).tolist() == [2, 3]
    assert EVALUATORS["addAll"]([1], [2, 3]).tolist() == [1, 2, 3]
    assert EVALUATORS["factorial"](6) == 720.0

    # the beta node goes through the one CDF dispatcher, KS included
    import math

    beta = EVALUATORS["betaDistribution"](2, 5)
    v, c = np.array([0.1, 0.2, 0.5]), np.array([1.0, 2.0, 3.0])
    cdf = sum(math.comb(6, j) * v**j * (1 - v) ** (6 - j) for j in range(2, 7))
    cum = np.cumsum(c) / c.sum()
    want = np.maximum(np.abs(cum - cdf), np.abs(cum - c / c.sum() - cdf)).max()
    assert abs(EVALUATORS["kolmogorovSmirnov"](beta, v, c) - want) < 1e-12
    with pytest.raises(ValueError):
        EVALUATORS["betaDistribution"](2.5, 5)


def test_new_similarity_members_monotone_and_positive():
    """dfr_gb / dfr_gl / ib_ll_ttf / ib_ll_h2: scores strictly positive,
    monotone increasing in tf, non-increasing in dl (the unclamped-WAND
    contract their docstrings argue)."""
    from rindex.similarity import SIMILARITIES

    for name in ("dfr_gb", "dfr_gl", "ib_ll_ttf", "ib_ll_h2"):
        sim = SIMILARITIES[name]
        if getattr(sim, "needs_cstats", False):
            w = sim.term_weight_cstats(50, 120.0, 1000, 60000)
        else:
            w = sim.term_weight(50, 1000)
        cache = sim.norm_cache(60.0)
        tfs = np.array([1.0, 2.0, 4.0, 8.0])
        s = sim.score(w, tfs, np.full(4, cache[100]))
        assert (s > 0).all(), name
        assert (np.diff(s) > 0).all(), f"{name} not monotone in tf"
        # dl monotonicity: cache is a decreasing function of dl
        byte_lo, byte_hi = 60, 200  # norm bytes encode increasing dl
        assert cache[byte_lo] >= cache[byte_hi], name
        s_short = sim.score(w, np.array([2.0]), np.array([cache[byte_lo]]))
        s_long = sim.score(w, np.array([2.0]), np.array([cache[byte_hi]]))
        assert s_short >= s_long, f"{name} not monotone in dl"


def test_weight_val_vector_scalar():
    from rindex.search import _weight_val

    assert isinstance(_weight_val(np.float64(2.0)), float)
    v = _weight_val(np.array([1.0, 2.0]))
    assert isinstance(v, np.ndarray) and (2.0 * v).tolist() == [2.0, 4.0]


def test_scandinavian_turkish_decimal_factories():
    from rindex.analysis import get_analyzer

    sc = get_analyzer("scandinavian_fold")
    assert sc.tokens("smörgåsbord") == ["smorgasbord"]
    assert sc.tokens("aarhus blæst brønd") == ["arhus", "blast", "brond"]
    assert sc.tokens("looks") == ["loks"]  # oo digraph collapses

    tr = get_analyzer("turkish_lower")
    assert tr.tokens("Istanbul") == ["ıstanbul"]  # I -> dotless
    assert tr.tokens("İzmir") == ["izmir"]        # dotted I -> i

    dd = get_analyzer("decimal_digit")
    assert dd.tokens("room ٣٤ and 56") == [
        "room", "34", "and", "56"
    ]
    assert dd.tokens("plain ascii 99") == ["plain", "ascii", "99"]
