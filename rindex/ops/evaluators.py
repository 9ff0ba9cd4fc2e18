"""Stream evaluators (SURVEY.md §2.8): the scalar evaluator surface of the
reference's streaming expressions, vectorized over Arrow batches.

Reference: `solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/*.java`
(AddEvaluator, IfThenElseEvaluator, ArcTangentEvaluator, ...) wired through
`Lang.java`'s function registry; `SelectStream.java` applies them per tuple.
Here each evaluator is a numpy / pyarrow.compute kernel applied per BATCH
(never per row), and `select_eval()` is the SelectStream analog: a
map_batches stage computing new columns from parsed expression strings.

Expression syntax (the streaming-expression scalar subset):

    round(mult(l_extendedprice, sub(1, l_discount)), 2)
    if(gt(l_quantity, 25), "big", "small")

identifiers = column refs, numbers = literals, double-quoted = string
literals, `name(...)` = evaluator call.  Unknown evaluators and columns
fail loudly at parse/eval time.

Covered families: arithmetic/trig/comparison/boolean/conditional/string/
temporal/regex/array (r1), matrix + let() + distribution-fit (r3 first
batch), timeseries (movingAvg/expMovingAvg/diff/sequence/rev), scaling
(minMaxScale/standardize), scalar stats (mean/var/stddev), vector norms +
distances (norm/l1norm/linfnorm/cosineSimilarity/euclidean/manhattan),
spectral (fft as direct DFT), fits/tests (polyFit/ttest), and discrete
distributions (poisson/binomial + probability) (r3 second batch), the r4
batches 9–16 (lerp/loess/spline/akima interpolation, gaussfit/harmfit/
olsRegress fits, dbscan/kmeans/knn ML wrappers, corrMatrix/freqTable,
precision/recall/F1, Cohen's kappa), and the r5 batches 17–18 (describe/
mode/anova/pairedTtest + array builders + factorial; enumerated/beta
distributions + termVectors tf-idf; distance matrix; chiSquareDataSet;
fTest; knnRegress) — 163
registered evaluator names
covering ~120 of the reference's ~150 Lang.java registrations (the
residue is Java-interop wrappers: termVectors over Java analyzers,
commons-math distributions needing erf/incomplete-beta CDFs we expose only
where an elementary closed form exists, and the model-persistence
update/recommend family).  The registry below is the extension hook.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rindex.ops.util import read_table

QUERIES: dict = {}
ORACLE: dict = {}


# ---------------------------------------------------------------------------
# Expression parser (tiny recursive-descent; no eval())
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>-?\d+\.?\d*(?:[eE][+-]?\d+)?) |
        (?P<str>"[^"]*") |
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<punct>[(),])
    )""",
    re.X,
)


def parse_expr(s: str):
    """Parse an evaluator expression into ('call',name,args) / ('col',name)
    / ('lit',value) nodes."""
    toks = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:]!r} in {s!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        toks.append((kind, m.group(kind)))

    def parse(i):
        kind, val = toks[i]
        if kind == "num":
            return ("lit", float(val) if "." in val or "e" in val.lower() else int(val)), i + 1
        if kind == "str":
            return ("lit", val[1:-1]), i + 1
        if kind == "ident":
            if i + 1 < len(toks) and toks[i + 1] == ("punct", "("):
                name, args, j = val, [], i + 2
                if toks[j] == ("punct", ")"):
                    return ("call", name, args), j + 1
                while True:
                    node, j = parse(j)
                    args.append(node)
                    if toks[j] == ("punct", ")"):
                        return ("call", name, args), j + 1
                    if toks[j] != ("punct", ","):
                        raise ValueError(f"expected ',' or ')' in {s!r}")
                    j += 1
            return ("col", val), i + 1
        raise ValueError(f"unexpected {val!r} in {s!r}")

    try:
        node, end = parse(0)
    except IndexError:
        raise ValueError(f"unexpected end of expression in {s!r}") from None
    if end != len(toks):
        raise ValueError(f"trailing tokens in {s!r}")
    return node


# ---------------------------------------------------------------------------
# Evaluator registry — every kernel is whole-array numpy / Arrow compute
# ---------------------------------------------------------------------------

def _variadic(fn):
    def g(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = fn(acc, x)
        return acc

    return g


def _if(cond, a, b):
    return np.where(np.asarray(cond, dtype=bool), a, b)


def _str_arr(x):
    # normalize scalars / numpy arrays to an Arrow string array for pc kernels
    if isinstance(x, pa.ChunkedArray):
        return x.combine_chunks()
    if isinstance(x, pa.Array):
        return x
    if isinstance(x, np.ndarray):
        return pa.array(x)
    return x  # python scalar


def _concat(*xs):
    # str is sized too — a literal longer than the batch's row count must
    # NOT win the length vote (it is broadcast, not element-wise)
    n = max(
        (len(x) for x in xs if hasattr(x, "__len__") and not isinstance(x, str)),
        default=1,
    )
    arrs = []
    for x in xs:
        if hasattr(x, "__len__") and not isinstance(x, str):
            a = _str_arr(x)
            if not pa.types.is_string(a.type) and not pa.types.is_large_string(a.type):
                a = pc.cast(a, pa.string())  # ConcatEvaluator coerces operands
            arrs.append(a)
        else:
            arrs.append(pa.array(np.full(n, str(x), dtype=object)))
    return pc.binary_join_element_wise(*arrs, "")


def _strdist(x, y):
    """StringDistanceEvaluator (`solr/solrj/.../io/eval/
    StringDistanceEvaluator.java`, edit-distance flavor): Levenshtein
    distance, vectorized by dictionary-encoding the column and running the
    whole-array DP (_levenshtein_vec) once per DISTINCT value — categorical
    columns pay O(uniques), not O(rows).  Supports column-vs-literal and
    column-vs-column (the latter grouped by distinct left value)."""
    from rindex.ops.multiterm import _levenshtein_vec

    xs = x if isinstance(x, str) else np.asarray(_str_arr(x)).astype(str)
    ys = y if isinstance(y, str) else np.asarray(_str_arr(y)).astype(str)
    if isinstance(xs, str) and isinstance(ys, str):
        return float(_levenshtein_vec(xs, np.array([ys]))[0])
    if isinstance(xs, str):
        xs, ys = ys, xs  # symmetric
    if isinstance(ys, str):
        uniq, inv = np.unique(xs, return_inverse=True)
        return _levenshtein_vec(ys, uniq).astype(np.float64)[inv]
    # column vs column: distinct (left, right) CODE pairs (integer pair
    # keys — numpy's fixed-width U dtype strips separator chars, so no
    # string concatenation), grouped by left code
    xu, xinv = np.unique(xs, return_inverse=True)
    yu, yinv = np.unique(ys, return_inverse=True)
    pair_u, pair_inv = np.unique(
        xinv.astype(np.int64) * len(yu) + yinv, return_inverse=True
    )
    li, ri = pair_u // len(yu), pair_u % len(yu)
    d = np.empty(len(pair_u), np.float64)
    for code in np.unique(li):
        m = li == code
        d[m] = _levenshtein_vec(xu[code], yu[ri[m]])
    return d[pair_inv]


EVALUATORS: dict = {
    # arithmetic (AddEvaluator, SubtractEvaluator, MultiplyEvaluator, ...)
    "add": _variadic(np.add),
    "sub": _variadic(np.subtract),
    "mult": _variadic(np.multiply),
    "div": np.divide,
    "mod": np.mod,
    "pow": np.power,
    "abs": np.abs,
    "ceiling": np.ceil,
    "floor": np.floor,
    "round": lambda x, n=0: np.round(x, int(n) if np.isscalar(n) else 0),
    "sqrt": np.sqrt,
    "cbrt": np.cbrt,
    "exp": np.exp,
    "log": np.log,        # NaturalLogEvaluator
    "log10": np.log10,
    # trig (SineEvaluator ... HyperbolicTangentEvaluator)
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "atan2": np.arctan2,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    # comparison (GreaterThanEvaluator, EqualToEvaluator, ...)
    "gt": np.greater, "gteq": np.greater_equal,
    "lt": np.less, "lteq": np.less_equal,
    "eq": np.equal, "neq": np.not_equal,
    # boolean (AndEvaluator, OrEvaluator, NotEvaluator, ExclusiveOrEvaluator)
    "and": _variadic(np.logical_and),
    "or": _variadic(np.logical_or),
    "not": np.logical_not,
    "eor": np.logical_xor,
    # conditional (IfThenElseEvaluator, CoalesceEvaluator)
    "if": _if,
    "coalesce": lambda a, b: np.where(pd.isna(a), b, a),
    # string (ConcatEvaluator, UpperEvaluator, LowerEvaluator, TrimEvaluator,
    # LengthEvaluator) — Arrow kernels, zero-copy in
    "concat": _concat,
    "upper": lambda x: pc.utf8_upper(_str_arr(x)),
    "lower": lambda x: pc.utf8_lower(_str_arr(x)),
    "trim": lambda x: pc.utf8_trim_whitespace(_str_arr(x)),
    # polymorphic like the reference: over a numeric ARRAY it is Solr's
    # LengthEvaluator (the list size, a scalar); over strings the utf8
    # per-element length (the string-funcs surface this repo oracles)
    "length": lambda x: (
        int(len(np.asarray(x)))
        if not isinstance(x, (pa.Array, pa.ChunkedArray))
        and np.asarray(x).dtype.kind not in ("U", "S", "O")
        else pc.utf8_length(_str_arr(x)).to_numpy()
    ),
    # temporal (TemporalEvaluatorYear ... TemporalEvaluatorEpoch — Solr's
    # `year(col)` family over datetime columns; epoch() returns millis,
    # week() is the ISO week-of-week-based-year, both as in the reference)
    "year": lambda x: _dtidx(x).year.to_numpy().astype(np.int64),
    "month": lambda x: _dtidx(x).month.to_numpy().astype(np.int64),
    "day": lambda x: _dtidx(x).day.to_numpy().astype(np.int64),
    "hour": lambda x: _dtidx(x).hour.to_numpy().astype(np.int64),
    "minute": lambda x: _dtidx(x).minute.to_numpy().astype(np.int64),
    "second": lambda x: _dtidx(x).second.to_numpy().astype(np.int64),
    "epoch": lambda x: np.asarray(x, dtype="datetime64[ms]").astype(np.int64),
    "dayOfYear": lambda x: _dtidx(x).dayofyear.to_numpy().astype(np.int64),
    "quarter": lambda x: _dtidx(x).quarter.to_numpy().astype(np.int64),
    "week": lambda x: (
        _dtidx(x).isocalendar().week.to_numpy().astype(np.int64)
    ),
    # statistical (CorrelationEvaluator, CovarianceEvaluator,
    # RegressionEvaluator, PredictEvaluator) — whole-array reducers; the
    # registered op computes them DISTRIBUTED via per-batch moment
    # partials, these kernels serve expression-level use within a batch
    "corr": lambda x, y: _moments_corr(np.asarray(x, np.float64),
                                       np.asarray(y, np.float64)),
    "cov": lambda x, y: float(np.cov(np.asarray(x, np.float64),
                                     np.asarray(y, np.float64))[0, 1]),
    # regex (MatchesEvaluator / ReplaceEvaluator) — Arrow re2 kernels
    "matches": lambda x, p: pc.match_substring_regex(
        _str_arr(x), p if isinstance(p, str) else str(p)
    ),
    "strdist": _strdist,
    "replace": lambda x, p, r: pc.replace_substring_regex(
        _str_arr(x), p if isinstance(p, str) else str(p),
        replacement=r if isinstance(r, str) else str(r),
    ),
    # arrays (ArrayEvaluator / ValueAtEvaluator / ArrayMax... — Solr's
    # array() builds a per-tuple list; here fixed-arity columns stack into
    # an (n, k) matrix so the row-wise reducers stay whole-array)
    "array": lambda *cols: np.stack(
        [np.asarray(c, np.float64) for c in cols], axis=1
    ),
    "valueAt": lambda arr, i: np.asarray(arr)[:, int(i)],
    # polymorphic like the reference's array evaluators: over the
    # column-stacked (n, k) matrix the reducers stay row-wise (the
    # per-row shape every existing oracle pins); over a plain 1-D array
    # (a let()/col() cell) they reduce to the scalar
    "arrayMax": lambda arr: (
        np.asarray(arr).max(axis=1) if np.asarray(arr).ndim == 2
        else float(np.asarray(arr).max())
    ),
    "arrayMin": lambda arr: (
        np.asarray(arr).min(axis=1) if np.asarray(arr).ndim == 2
        else float(np.asarray(arr).min())
    ),
    "arrayMean": lambda arr: (
        np.asarray(arr).mean(axis=1) if np.asarray(arr).ndim == 2
        else float(np.asarray(arr).mean())
    ),
    "arrayLength": lambda arr: (
        np.full(len(np.asarray(arr)), np.asarray(arr).shape[1],
                dtype=np.int64)
        if np.asarray(arr).ndim == 2 else int(len(np.asarray(arr)))
    ),
    # matrix family (MatrixEvaluator, TransposeEvaluator,
    # MatrixMultiplyEvaluator, RowAtEvaluator, ColumnAtEvaluator,
    # SumRowsEvaluator, SumColumnsEvaluator, EBEAddEvaluator...,
    # DotProductEvaluator, ScalarMultiplyEvaluator, UnitEvaluator) —
    # Solr's matrix evaluators run inside let() over COLLECTED (small)
    # streams, never per corpus row; same here: the wide aggregation is a
    # distributed groupby, the matrix algebra runs on its small result
    "matrix": lambda *rows: np.stack(
        [np.asarray(r, np.float64) for r in rows]
    ),
    "transpose": lambda m: np.asarray(m, np.float64).T,
    "matrixMult": lambda a, b: np.asarray(a, np.float64)
    @ np.asarray(b, np.float64),
    "rowAt": lambda m, i: np.asarray(m, np.float64)[int(i)],
    "columnAt": lambda m, i: np.asarray(m, np.float64)[:, int(i)],
    "sumRows": lambda m: np.asarray(m, np.float64).sum(axis=1),
    "sumColumns": lambda m: np.asarray(m, np.float64).sum(axis=0),
    "ebeAdd": lambda a, b: np.asarray(a, np.float64) + np.asarray(b, np.float64),
    "ebeSubtract": lambda a, b: np.asarray(a, np.float64)
    - np.asarray(b, np.float64),
    "ebeMultiply": lambda a, b: np.asarray(a, np.float64)
    * np.asarray(b, np.float64),
    "ebeDivide": lambda a, b: np.asarray(a, np.float64)
    / np.asarray(b, np.float64),
    "dotProduct": lambda a, b: float(
        np.dot(np.asarray(a, np.float64), np.asarray(b, np.float64))
    ),
    "scalarMultiply": lambda s, m: float(s) * np.asarray(m, np.float64),
    "unitize": lambda v: np.asarray(v, np.float64)
    / np.linalg.norm(np.asarray(v, np.float64)),
    # probability distributions (NormalDistributionEvaluator,
    # UniformRealDistributionEvaluator, EmpiricalDistributionEvaluator,
    # CumulativeProbabilityEvaluator, KolmogorovSmirnovEvaluator) — a
    # dist is a tagged tuple; ksTest takes the WEIGHTED sample (distinct
    # values + counts) so the corpus-side reduction stays a tiny groupby
    "normalDistribution": lambda mu, s: ("normal", float(mu), float(s)),
    "uniformDistribution": lambda a, b: ("uniform", float(a), float(b)),
    "empiricalDistribution": lambda v, c: (
        "empirical",
        np.asarray(v, np.float64),
        np.asarray(c, np.float64),
    ),
    "cumulativeProbability": lambda d, x: _cum_prob(d, x),
    "kolmogorovSmirnov": lambda d, v, c: _ks_d(d, v, c),
}


def round_sql(x, nd: int = 6):
    """Round HALF-AWAY-FROM-ZERO like DuckDB/SQL round() — np.round and
    Python round() are banker's (half-to-even) and disagree on exact
    decimal ties, which EMA-style dyadic recursions over integer series
    actually produce (e.g. 32.5390625 at 6 decimals)."""
    x = np.asarray(x, np.float64)
    f = 10.0 ** nd
    out = np.sign(x) * np.floor(np.abs(x) * f + 0.5) / f
    return float(out) if out.ndim == 0 else out


def _lgamma_vec(x):
    import math

    return np.vectorize(math.lgamma, otypes=[np.float64])(
        np.asarray(x, np.float64)
    )


def _log_pmf(dist, k):
    """log PMF of a discrete distribution node, written as the SAME
    lgamma-form expression the SQL oracles use (exp(k·ln λ − λ − lgammaΓ)
    etc.) so both sides round identical doubles."""
    k = np.asarray(k, np.float64)
    if dist[0] == "poisson":
        lam = dist[1]
        return k * np.log(lam) - lam - _lgamma_vec(k + 1.0)
    if dist[0] == "binomial":
        _, n, p = dist
        n = float(n)
        return (
            _lgamma_vec(n + 1.0) - _lgamma_vec(k + 1.0)
            - _lgamma_vec(n - k + 1.0)
            + k * np.log(p) + (n - k) * np.log(1.0 - p)
        )
    if dist[0] == "geometric":
        # failures before the first success (Commons Math support k >= 0)
        p = dist[1]
        return k * np.log(1.0 - p) + np.log(p)
    if dist[0] == "zipf":
        _, nmax, s = dist
        h = np.exp(
            -s * np.log(np.arange(1.0, float(nmax) + 1.0))
        ).sum()
        return -s * np.log(k) - np.log(h)
    raise KeyError(f"not a discrete distribution: {dist[0]!r}")


def _beta_binom_cdf(a: int, b: int, x):
    """Beta(a,b) CDF for INTEGER shapes via the binomial closed form
    I_x(a,b) = sum_{j=a}^{a+b-1} C(a+b-1,j) x^j (1-x)^(a+b-1-j) —
    elementary, so the SQL oracle can mirror it term by term."""
    import math

    x = np.asarray(x, np.float64)
    n = a + b - 1
    out = np.zeros_like(x)
    for j in range(a, n + 1):
        out = out + math.comb(n, j) * np.power(x, j) * np.power(
            1.0 - x, n - j
        )
    return out


def _beta_pdf(a: int, b: int, x):
    """Beta(a,b) density for integer shapes: B(a,b) = (a-1)!(b-1)!/(a+b-1)!"""
    import math

    x = np.asarray(x, np.float64)
    bfun = (
        math.factorial(a - 1) * math.factorial(b - 1)
        / math.factorial(a + b - 1)
    )
    return np.power(x, a - 1) * np.power(1.0 - x, b - 1) / bfun


def _dist_prob(dist, k):
    """ProbabilityEvaluator: PMF of a discrete distribution at k."""
    if dist[0] == "enumerated":
        _, vals, probs = dist
        return float(probs[vals == float(np.asarray(k))].sum())
    return np.exp(_log_pmf(dist, k))


def _cum_prob(dist, x):
    """CDF of a distribution node at x (scalar or array; enumerated and
    the discrete kinds take a scalar)."""
    kind = dist[0]
    if kind == "enumerated":
        _, vals, probs = dist
        return float(probs[vals <= float(np.asarray(x))].sum())
    if kind in ("poisson", "binomial"):
        ks = np.arange(int(np.floor(float(np.asarray(x)))) + 1)
        return float(np.exp(_log_pmf(dist, ks)).sum())
    if kind == "geometric":
        # closed form (mirrored verbatim in the SQL oracles):
        # 1 - (1-p)^(floor(x)+1), written through exp/ln
        p = dist[1]
        return float(
            1.0 - np.exp((np.floor(float(np.asarray(x))) + 1.0)
                         * np.log(1.0 - p))
        )
    if kind == "zipf":
        # support starts at 1 — the generic 0..floor(x) pmf sum would
        # blow up on ln(0)
        ks = np.arange(1.0, np.floor(float(np.asarray(x))) + 1.0)
        return float(np.exp(_log_pmf(dist, ks)).sum())
    x = np.asarray(x, np.float64)
    if kind == "beta":
        _, a, b = dist
        return _beta_binom_cdf(a, b, x)
    if kind == "uniform":
        _, a, b = dist
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    if kind == "normal":
        import math

        _, mu, s = dist
        z = (x - mu) / (s * math.sqrt(2.0))
        erf = np.vectorize(math.erf, otypes=[np.float64])
        return 0.5 * (1.0 + erf(z))
    if kind == "empirical":
        _, vals, cnts = dist
        cum = np.cumsum(cnts)
        pos = np.searchsorted(vals, x, side="right")
        return np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0) / cum[-1]
    if kind == "weibull":
        # 1 - exp(-(x/lam)^k), the power written exp(k*ln(x/lam)) so the
        # SQL oracle's expression tree is identical
        _, k, lam = dist
        return 1.0 - np.exp(-np.exp(k * np.log(x / lam)))
    if kind == "triangular":
        _, a, c, b = dist
        return np.where(
            x <= c,
            ((x - a) * (x - a)) / ((b - a) * (c - a)),
            1.0 - ((b - x) * (b - x)) / ((b - a) * (b - c)),
        )
    raise KeyError(f"unknown distribution {kind!r}")


def _ks_d(dist, values, counts) -> float:
    """Kolmogorov-Smirnov D statistic of a weighted sample (distinct
    `values` with `counts`) against a fitted distribution: the max over
    step points of |ECDF± - F(x)| (both the pre- and post-step ECDF)."""
    v = np.asarray(values, np.float64)
    c = np.asarray(counts, np.float64)
    order = np.argsort(v)
    v, c = v[order], c[order]
    cum = np.cumsum(c)
    n = cum[-1]
    f = np.asarray(_cum_prob(dist, v), np.float64)
    return float(
        np.maximum(np.abs(cum / n - f), np.abs((cum - c) / n - f)).max()
    )


# ---------------------------------------------------------------------------
# Timeseries / vector / fit evaluator families (round-3 breadth batch).
# Reference: `solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# {MovingAverageEvaluator,ExponentialMovingAverageEvaluator,
# ReverseEvaluator,SequenceEvaluator,MinMaxScaleEvaluator,
# NormalizeEvaluator,MeanEvaluator,VarianceEvaluator,
# StandardDeviationEvaluator,CosineSimilarityEvaluator,
# EuclideanDistanceEvaluator,ManhattanDistanceEvaluator,
# FFTEvaluator,PolyFitEvaluator,TTestEvaluator,
# PoissonDistributionEvaluator,BinomialDistributionEvaluator,
# ProbabilityEvaluator}.java`.  All operate on the SMALL collected sides
# inside let() — the corpus-scale reduction feeding them is always a
# distributed Dataset aggregate (same division of labor as Solr, whose
# evaluators run over collected streams).  Scalar reducers use explicit
# sum/sumsq FORMULAS (not np.var etc.) so the SQL oracles can evaluate the
# byte-identical expression tree.
# ---------------------------------------------------------------------------

def _moving_avg(v, k):
    """Full-window moving average: length n-k+1 like Solr's movingAvg."""
    v = np.asarray(v, np.float64)
    k = int(k)
    c = np.concatenate(([0.0], np.cumsum(v)))
    return (c[k:] - c[:-k]) / float(k)


def _exp_moving_avg(v, k):
    """EMA with smoothing alpha = 2/(k+1), seeded at the first element
    (Solr's expMovingAvg): a strict recursion, evaluated in order so a
    recursive-CTE oracle reproduces the identical doubles."""
    v = np.asarray(v, np.float64)
    a = 2.0 / (int(k) + 1.0)
    out = np.empty(len(v), np.float64)
    e = v[0]
    out[0] = e
    for i in range(1, len(v)):
        e = a * v[i] + (1.0 - a) * e
        out[i] = e
    return out


def _standardize(v):
    v = np.asarray(v, np.float64)
    n = float(len(v))
    s = v.sum()
    ss = (v * v).sum()
    return (v - s / n) / np.sqrt((ss - s * s / n) / (n - 1.0))


def _welch(n1, m1, v1, n2, m2, v2):
    """Welch t statistic + Welch–Satterthwaite df from group moments.
    ONE formula shared by the array-form ttest kernel and the
    distributed-moments op so the expression tree cannot diverge."""
    se1, se2 = v1 / n1, v2 / n2
    se = se1 + se2
    t = (m1 - m2) / np.sqrt(se)
    df = (se * se) / (se1 * se1 / (n1 - 1.0) + se2 * se2 / (n2 - 1.0))
    return float(t), float(df)


def _ttest(a, b):
    """TTestEvaluator (Welch): returns [t, df]."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    n1, n2 = float(len(a)), float(len(b))
    s1, s2 = a.sum(), b.sum()
    v1 = ((a * a).sum() - s1 * s1 / n1) / (n1 - 1.0)
    v2 = ((b * b).sum() - s2 * s2 / n2) / (n2 - 1.0)
    t, df = _welch(n1, s1 / n1, v1, n2, s2 / n2, v2)
    return np.array([t, df])


def _fft_mag(v):
    """FFTEvaluator analog: magnitude spectrum by DIRECT DFT (the series
    is a small collected side; the direct cos/sin sums are the exact
    expression a SQL oracle can mirror, unlike an FFT butterfly)."""
    v = np.asarray(v, np.float64)
    n = len(v)
    kk = np.arange(n, dtype=np.float64)[:, None]
    tt = np.arange(n, dtype=np.float64)[None, :]
    ang = 2.0 * np.pi * kk * tt / float(n)
    re = (np.cos(ang) * v).sum(axis=1)
    im = (np.sin(ang) * v).sum(axis=1)
    return np.sqrt(re * re + im * im)


def _poly_fit(x, y, deg=2):
    """PolyFitEvaluator: least-squares polynomial fit via the normal
    equations solved by explicit Cramer expansion (deg 1 or 2) — the same
    closed-form expression tree the SQL oracle evaluates, so integer-exact
    power sums give bit-identical coefficients."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    deg = int(deg)
    n = float(len(x))
    s1, s2 = x.sum(), (x * x).sum()
    t0, t1 = y.sum(), (x * y).sum()
    if deg == 1:
        b = (n * t1 - s1 * t0) / (n * s2 - s1 * s1)
        return np.array([(t0 - b * s1) / n, b])
    if deg != 2:
        raise ValueError(f"polyFit: deg must be 1 or 2, got {deg}")
    s3, s4 = (x * x * x).sum(), (x * x * x * x).sum()
    t2 = (x * x * y).sum()
    det = (n * (s2 * s4 - s3 * s3) - s1 * (s1 * s4 - s3 * s2)
           + s2 * (s1 * s3 - s2 * s2))
    da = (t0 * (s2 * s4 - s3 * s3) - s1 * (t1 * s4 - s3 * t2)
          + s2 * (t1 * s3 - s2 * t2))
    db = (n * (t1 * s4 - s3 * t2) - t0 * (s1 * s4 - s3 * s2)
          + s2 * (s1 * t2 - t1 * s2))
    dc = (n * (s2 * t2 - t1 * s3) - s1 * (s1 * t2 - t1 * s2)
          + t0 * (s1 * s3 - s2 * s2))
    return np.array([da / det, db / det, dc / det])


EVALUATORS.update({
    # timeseries family
    "movingAvg": _moving_avg,
    "expMovingAvg": _exp_moving_avg,
    "diff": lambda v: np.diff(np.asarray(v, np.float64)),
    "rev": lambda v: np.asarray(v)[::-1],
    "sequence": lambda n, start, stride: (
        np.arange(int(n), dtype=np.float64) * float(stride) + float(start)
    ),
    # scaling / scalar stats (explicit formulas — see module note)
    "minMaxScale": lambda v: (
        (np.asarray(v, np.float64) - np.asarray(v, np.float64).min())
        / (np.asarray(v, np.float64).max()
           - np.asarray(v, np.float64).min())
    ),
    "standardize": _standardize,
    "mean": lambda v: float(np.asarray(v, np.float64).sum())
    / float(len(np.asarray(v))),
    "var": lambda v: float(
        ((np.asarray(v, np.float64) ** 2).sum()
         - np.asarray(v, np.float64).sum() ** 2 / float(len(np.asarray(v))))
        / (float(len(np.asarray(v))) - 1.0)
    ),
    "stddev": lambda v: float(np.sqrt(EVALUATORS["var"](v))),
    "grandSum": lambda m: float(np.asarray(m, np.float64).sum()),
    # vector norms / distances
    "norm": lambda v: float(np.linalg.norm(np.asarray(v, np.float64))),
    "l1norm": lambda v: float(np.abs(np.asarray(v, np.float64)).sum()),
    "linfnorm": lambda v: float(np.abs(np.asarray(v, np.float64)).max()),
    "cosineSimilarity": lambda a, b: float(
        np.dot(np.asarray(a, np.float64), np.asarray(b, np.float64))
        / (np.linalg.norm(np.asarray(a, np.float64))
           * np.linalg.norm(np.asarray(b, np.float64)))
    ),
    "euclideanDistance": lambda a, b: float(
        np.sqrt(((np.asarray(a, np.float64)
                  - np.asarray(b, np.float64)) ** 2).sum())
    ),
    "manhattanDistance": lambda a, b: float(
        np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)).sum()
    ),
    # spectral / fit / test
    "fft": _fft_mag,
    "polyFit": _poly_fit,
    "ttest": _ttest,
    # discrete distributions
    "poissonDistribution": lambda lam: ("poisson", float(lam)),
    "binomialDistribution": lambda n, p: ("binomial", int(n), float(p)),
    "probability": _dist_prob,
    # round-3 batch 4 (GeometricDistributionEvaluator,
    # ZipFDistributionEvaluator, WeibullDistributionEvaluator,
    # TriangularDistributionEvaluator, PercentileEvaluator,
    # HistogramEvaluator — `solr/solrj/.../io/eval/*.java`); the
    # continuous picks are the elementary-CDF family so the DuckDB
    # oracles mirror the exact expression trees (no erf in SQL)
    "geometricDistribution": lambda p: ("geometric", float(p)),
    "zipFDistribution": lambda n, s: ("zipf", int(n), float(s)),
    "weibullDistribution": lambda k, lam: ("weibull", float(k),
                                           float(lam)),
    "triangularDistribution": lambda a, c, b: ("triangular", float(a),
                                               float(c), float(b)),
    "percentile": lambda v, p: _percentile_r7(v, float(p)),
    "hist": lambda v, b: _hist_counts(v, int(b)),
    # round-3 batch 5 (ConvolutionEvaluator, OscillateEvaluator,
    # NormalizeSumEvaluator, the matrix overload of CovarianceEvaluator)
    # — oscillate takes an explicit length n (the reference samples an
    # implicit domain; an explicit n keeps the kernel pure)
    "convolution": lambda a, b: np.convolve(
        np.asarray(a, np.float64), np.asarray(b, np.float64)
    ),
    "oscillate": lambda amp, om, phi, n: float(amp) * np.sin(
        float(om) * np.arange(int(n), dtype=np.float64) + float(phi)
    ),
    "normalizeSum": lambda v: np.asarray(v, np.float64)
    / np.asarray(v, np.float64).sum(),
    "covMatrix": lambda m: _cov_matrix(m),
})


def _cov_matrix(m) -> np.ndarray:
    """Sample covariance matrix (rows = variables) written as the exact
    moment expression the SQL oracles mirror:
    (sxy - (sx * sy) / n) / (n - 1) — integer-series inputs make every
    sum exact, so both sides derive identical doubles."""
    M = np.asarray(m, np.float64)
    k, n = M.shape
    out = np.empty((k, k), np.float64)
    for i in range(k):
        for j in range(k):
            sx, sy = M[i].sum(), M[j].sum()
            sxy = (M[i] * M[j]).sum()
            out[i, j] = (sxy - (sx * sy) / n) / (n - 1.0)
    return out


def _percentile_r7(v, p: float) -> float:
    """PercentileEvaluator with the R-7 linear-interpolation estimator:
    h = (n-1)*p/100, val = y[lo] + (y[lo+1]-y[lo])*(h-lo) over the sorted
    sample — the exact expression the SQL oracle re-derives from a
    list(... ORDER BY ...) (quantile_cont's internal fp order is not
    specified, so the oracle does NOT use it)."""
    y = np.sort(np.asarray(v, np.float64))
    n = len(y)
    h = ((n - 1.0) * p) / 100.0
    lo = int(np.floor(h))
    hi = min(lo + 1, n - 1)
    return float(y[lo] + (y[hi] - y[lo]) * (h - lo))


def _hist_counts(v, bins: int) -> np.ndarray:
    """HistogramEvaluator (counts-only form): equal-width bins over
    [min, max], idx = floor(((x-min)*bins)/(max-min)) clamped to the last
    bin — the identical arithmetic the oracle's CASE sums use.  Integer
    counts, so the comparison is exact."""
    x = np.asarray(v, np.float64)
    mn, mx = float(x.min()), float(x.max())
    if mx == mn:
        idx = np.zeros(len(x), np.int64)
    else:
        idx = np.minimum(
            np.floor(((x - mn) * float(bins)) / (mx - mn)),
            bins - 1,
        ).astype(np.int64)
    return np.bincount(idx, minlength=bins).astype(np.int64)


def let_eval(bindings: dict[str, str], scope: dict) -> dict:
    """LetStream analog (`solr/solrj/.../io/stream/LetStream.java`):
    evaluate `name=expression` bindings SEQUENTIALLY, each result joining
    the scope for later bindings (Solr's let() cell semantics).  Scope
    values are numpy arrays / matrices / distribution nodes — the small
    collected sides; corpus-scale reductions happen upstream as Dataset
    aggregates."""
    scope = dict(scope)
    for name, expr in bindings.items():
        scope[name] = eval_node(parse_expr(expr), scope)
    return scope


def _dtidx(x) -> pd.DatetimeIndex:
    return pd.DatetimeIndex(np.asarray(x, dtype="datetime64[us]"))


def _moments_corr(x: np.ndarray, y: np.ndarray) -> float:
    n = float(len(x))
    sx, sy = x.sum(), y.sum()
    num = n * (x * y).sum() - sx * sy
    den = np.sqrt((n * (x * x).sum() - sx * sx)
                  * (n * (y * y).sum() - sy * sy))
    return float(num / den)


def eval_node(node, cols: dict, memo: dict | None = None):
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "col":
        if node[1] not in cols:
            raise KeyError(f"unknown column {node[1]!r}")
        return cols[node[1]]
    _, name, args = node
    if name not in EVALUATORS:
        raise KeyError(f"unknown evaluator {name!r}")
    if memo is not None:
        # per-batch common-subexpression cache: several output expressions
        # over the same array(...) stack evaluate the shared subtree once
        key = repr(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = EVALUATORS[name](*(eval_node(a, cols, memo) for a in args))
        memo[key] = out
        return out
    return EVALUATORS[name](*(eval_node(a, cols) for a in args))


def select_eval(ds, exprs: dict[str, str], keep: list[str] | None = None):
    """SelectStream analog: add `name=expr` columns per Arrow batch; `keep`
    optionally projects the output (expression columns always kept)."""
    asts = {name: parse_expr(e) for name, e in exprs.items()}

    def f(t: pa.Table) -> pa.Table:
        cols = {
            c: t[c].to_numpy(zero_copy_only=False) for c in t.schema.names
        }
        memo: dict = {}  # shared across this batch's expressions (CSE)
        for name, ast in asts.items():
            out = eval_node(ast, cols, memo)
            arr = out if isinstance(out, (pa.Array, pa.ChunkedArray)) else pa.array(out)
            t = t.append_column(name, arr) if name not in t.schema.names else (
                t.set_column(t.schema.get_field_index(name), name, arr)
            )
            cols[name] = out if isinstance(out, np.ndarray) else arr.to_numpy(
                zero_copy_only=False
            )
        if keep is not None:
            t = t.select(list(dict.fromkeys(keep + list(asts))))
        return t

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Registered queries
# ---------------------------------------------------------------------------

def q_eval_select_lineitem(sf_dir: str):
    """select(... evaluators ...) -> rollup: discounted price and an
    if/gt bucket computed by the evaluator engine, then a grouped sum
    (SelectStream + RollupStream composition)."""
    from ray.data.aggregate import Count, Sum

    li = read_table(
        sf_dir, "lineitem", ["l_extendedprice", "l_discount", "l_quantity"]
    )
    sel = select_eval(
        li,
        {
            "disc_price": "mult(l_extendedprice, sub(1, l_discount))",
            "bucket": 'if(gt(l_quantity, 25), "big", "small")',
        },
        keep=[],
    )
    out = (
        sel.groupby("bucket")
        .aggregate(Count(alias_name="n"), Sum("disc_price", alias_name="sum_disc"))
        .to_pandas()
    )
    out["sum_disc"] = out["sum_disc"].round(2)
    return out.sort_values("bucket").reset_index(drop=True)


QUERIES["eval_select_lineitem"] = q_eval_select_lineitem
ORACLE["eval_select_lineitem"] = """
    SELECT CASE WHEN l_quantity > 25 THEN 'big' ELSE 'small' END AS bucket,
           count(*) AS n,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc
    FROM lineitem GROUP BY 1 ORDER BY 1
"""


def q_eval_math_funcs_events(sf_dir: str):
    """The math-evaluator family end-to-end (sqrt/log/atan2/tanh/abs/round)
    over the events stream, row-parallel, output bounded by a pre-filter."""
    ev = read_table(sf_dir, "events", ["event_id", "value"])
    sel = select_eval(
        ev.filter(expr="event_id < 2000"),
        {
            "s": "round(sqrt(abs(value)), 6)",
            "l": "round(log(add(abs(value), 1)), 6)",
            "t": "round(atan2(value, 2.0), 6)",
            "h": "round(tanh(div(value, 100)), 6)",
        },
        keep=["event_id"],
    )
    return sel.to_pandas().sort_values("event_id").reset_index(drop=True)


QUERIES["eval_math_funcs_events"] = q_eval_math_funcs_events
ORACLE["eval_math_funcs_events"] = """
    SELECT event_id,
           round(sqrt(abs(value)), 6) AS s,
           round(ln(abs(value) + 1), 6) AS l,
           round(atan2(value, 2.0), 6) AS t,
           -- this duckdb build has no tanh(); exp identity, same 6-decimal round
           round((exp(2 * value / 100) - 1) / (exp(2 * value / 100) + 1), 6) AS h
    FROM events WHERE event_id < 2000 ORDER BY event_id
"""


def q_eval_string_funcs_documents(sf_dir: str):
    """String-evaluator family (concat/upper/trim/length) over documents."""
    docs = read_table(sf_dir, "documents", ["doc_id", "lang", "source", "text"])
    sel = select_eval(
        docs.filter(expr="doc_id < 3000"),
        {
            "tag": 'concat(upper(lang), "-", trim(source))',
            "text_len": "length(text)",
        },
        keep=["doc_id"],
    )
    return sel.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["eval_string_funcs_documents"] = q_eval_string_funcs_documents
ORACLE["eval_string_funcs_documents"] = """
    SELECT doc_id,
           concat(upper(lang), '-', trim(source)) AS tag,
           length(text) AS text_len
    FROM documents WHERE doc_id < 3000 ORDER BY doc_id
"""


def q_eval_temporal_events(sf_dir: str):
    """Temporal-evaluator family (year/month/day/hour/minute/second/
    quarter/dayOfYear/week/epoch — `solr/solrj/.../io/eval/
    TemporalEvaluator*.java`) over the events stream, composed with a
    rollup: every kernel feeds an aggregate so a wrong date part anywhere
    shifts a group or a sum."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ev = read_table(sf_dir, "events", ["ts"])
    sel = select_eval(
        ev,
        {
            "y": "year(ts)", "q": "quarter(ts)", "mo": "month(ts)",
            "d": "day(ts)", "h": "hour(ts)", "mi": "minute(ts)",
            "s": "second(ts)", "doy": "dayOfYear(ts)", "wk": "week(ts)",
            "ep": "epoch(ts)",
        },
        keep=[],
    )
    out = (
        sel.groupby(["y", "q", "mo", "d"])
        .aggregate(
            Count(alias_name="n"),
            Sum("h", alias_name="sum_hour"),
            Sum("mi", alias_name="sum_min"),
            Sum("s", alias_name="sum_sec"),
            Min("doy", alias_name="min_doy"),
            Max("doy", alias_name="max_doy"),
            Sum("wk", alias_name="sum_week"),
            Min("ep", alias_name="min_epoch_ms"),
            Max("ep", alias_name="max_epoch_ms"),
        )
        .to_pandas()
    )
    return out.sort_values(["y", "q", "mo", "d"]).reset_index(drop=True)


QUERIES["eval_temporal_events"] = q_eval_temporal_events
ORACLE["eval_temporal_events"] = """
    SELECT year(ts) AS y, quarter(ts) AS q, month(ts) AS mo, day(ts) AS d,
           count(*) AS n,
           sum(hour(ts))::BIGINT AS sum_hour,
           sum(minute(ts))::BIGINT AS sum_min,
           sum(cast(floor(second(ts)) AS BIGINT))::BIGINT AS sum_sec,
           min(dayofyear(ts)) AS min_doy,
           max(dayofyear(ts)) AS max_doy,
           sum(weekofyear(ts))::BIGINT AS sum_week,
           min(epoch_ms(ts)) AS min_epoch_ms,
           max(epoch_ms(ts)) AS max_epoch_ms
    FROM events
    GROUP BY 1, 2, 3, 4 ORDER BY 1, 2, 3, 4
"""


def q_eval_regress_lineitem(sf_dir: str):
    """Statistical-evaluator family (corr/cov/regress/predict —
    `CorrelationEvaluator`, `CovarianceEvaluator`, `RegressionEvaluator`,
    `PredictEvaluator`): DISTRIBUTED via one-row-per-batch moment partials
    (n, Σx, Σy, Σxy, Σx², Σy²) — the whole table never leaves the workers,
    the driver combines a handful of partial rows (the same
    partial+combine shape as every facet/stats pushdown here)."""
    li = read_table(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy().astype(np.float64)
        y = t["l_extendedprice"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "n": [float(len(x))],
                "sx": [x.sum()], "sy": [y.sum()],
                "sxy": [(x * y).sum()],
                "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            }
        )

    p = li.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n, sx, sy, sxy, sxx, syy = (
        p["n"], p["sx"], p["sy"], p["sxy"], p["sxx"], p["syy"]
    )
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    corr = (n * sxy - sx * sy) / np.sqrt(
        (n * sxx - sx * sx) * (n * syy - sy * sy)
    )
    cov_samp = (sxy - sx * sy / n) / (n - 1.0)
    return pd.DataFrame(
        {
            "n": [int(n)],
            "corr_qty_price": [round(float(corr), 6)],
            "cov_qty_price": [round(float(cov_samp), 4)],
            "slope": [round(float(slope), 6)],
            "intercept": [round(float(intercept), 4)],
            "predict_at_30": [round(float(intercept + slope * 30.0), 4)],
        }
    )


QUERIES["eval_regress_lineitem"] = q_eval_regress_lineitem
ORACLE["eval_regress_lineitem"] = """
    SELECT count(*) AS n,
           round(corr(l_extendedprice, l_quantity), 6) AS corr_qty_price,
           round(covar_samp(l_extendedprice, l_quantity), 4) AS cov_qty_price,
           round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
           round(regr_intercept(l_extendedprice, l_quantity), 4) AS intercept,
           round(regr_intercept(l_extendedprice, l_quantity)
                 + regr_slope(l_extendedprice, l_quantity) * 30.0, 4)
             AS predict_at_30
    FROM lineitem
"""


def q_eval_array_scale_lineitem(sf_dir: str):
    """Array + regex evaluators and the scale() function query
    (reference: `solr/solrj/.../io/eval/{ArrayEvaluator,ValueAtEvaluator,
    MatchesEvaluator}.java` + `lucene/queries/.../valuesource/
    ScaleFloatFunction.java`).  scale(field, 0, 1) needs the GLOBAL
    min/max — a real two-pass distributed shape: one tiny Dataset
    aggregate, constants inlined into the second-pass expression (the
    reference computes the same bounds in ScaleFloatFunction#createWeight
    before scoring).  Arrays are fixed-arity column stacks so every
    row-wise reducer stays whole-matrix numpy."""
    from ray.data.aggregate import Max, Min

    li = read_table(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_discount",
         "l_tax", "l_extendedprice", "l_returnflag"],
    )
    # bounds pass reads ONLY the scaled column (its own pruned read)
    bounds = read_table(sf_dir, "lineitem", ["l_extendedprice"]).aggregate(
        Min("l_extendedprice"), Max("l_extendedprice")
    )
    lo = float(bounds["min(l_extendedprice)"])
    hi = float(bounds["max(l_extendedprice)"])
    def keep_mod(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(t["l_orderkey"].to_numpy() % 100 == 0))

    sel = select_eval(
        li.map_batches(keep_mod, batch_format="pyarrow",
                       zero_copy_batch=True),
        {
            "arr_max": "arrayMax(array(l_quantity, mult(l_discount, 100), mult(l_tax, 100)))",
            "arr_mean": "round(arrayMean(array(l_quantity, mult(l_discount, 100), mult(l_tax, 100))), 6)",
            "mid": "valueAt(array(l_quantity, mult(l_discount, 100), mult(l_tax, 100)), 1)",
            "is_return": "matches(l_returnflag, \"R\")",
            "scaled_price": f"round(div(sub(l_extendedprice, {lo}), {hi - lo}), 6)",
        },
        keep=["l_orderkey", "l_linenumber"],
    )
    return (
        sel.sort(["l_orderkey", "l_linenumber"])
        .to_pandas()
        .reset_index(drop=True)
    )


QUERIES["eval_array_scale_lineitem"] = q_eval_array_scale_lineitem
ORACLE["eval_array_scale_lineitem"] = """
    WITH b AS (
      SELECT min(l_extendedprice) AS lo, max(l_extendedprice) AS hi
      FROM lineitem
    )
    SELECT l_orderkey, l_linenumber,
           greatest(l_quantity, l_discount * 100, l_tax * 100) AS arr_max,
           round((l_quantity + l_discount * 100 + l_tax * 100) / 3.0, 6)
             AS arr_mean,
           l_discount * 100 AS mid,
           l_returnflag = 'R' AS is_return,
           round((l_extendedprice - b.lo) / (b.hi - b.lo), 6) AS scaled_price
    FROM lineitem, b
    WHERE l_orderkey % 100 = 0
    ORDER BY l_orderkey, l_linenumber
"""


def q_eval_strdist_events(sf_dir: str):
    """select(events, strdist(event_type, "click")) -> rollup: the
    StringDistanceEvaluator over a categorical column (distance computed
    once per distinct value per batch), aggregated per event type.  Max()
    over the per-row distances checks every row carried the right value."""
    from ray.data.aggregate import Count, Max

    ev = read_table(sf_dir, "events", ["event_type"])
    sel = select_eval(ev, {"dist": 'strdist(event_type, "click")'})
    out = (
        sel.groupby("event_type")
        .aggregate(Count(alias_name="n"), Max("dist", alias_name="dist"))
        .to_pandas()
    )
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["eval_strdist_events"] = q_eval_strdist_events
ORACLE["eval_strdist_events"] = """
    SELECT event_type, count(*) AS n,
           levenshtein(event_type, 'click')::DOUBLE AS dist
    FROM events
    GROUP BY event_type
    ORDER BY event_type
"""

def q_eval_let_matrix_events(sf_dir: str):
    """let() + matrix evaluator family (LetStream + MatrixEvaluator /
    TransposeEvaluator / MatrixMultiplyEvaluator / SumRowsEvaluator,
    `solr/solrj/.../io/{stream/LetStream,eval/Matrix*Evaluator}.java`):
    the corpus reduces DISTRIBUTED to a (event_type x quarter) cell matrix
    (sum of floor(value) — integer cells, so the float64 matmul is exact),
    then the let() bindings run the matrix algebra on that small collected
    side exactly as Solr's let() does over collected streams: the Gram
    matrix P = M.M^T and row sums, emitted as (et_a, et_b) cells."""
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "q": pa.array(
                    _dtidx(t["ts"].to_numpy(zero_copy_only=False))
                    .quarter.to_numpy()
                    .astype(np.int64)
                ),
                "fl": pc.cast(pc.floor(t["value"]), pa.int64()),
            }
        )

    leaf = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "q"])
        .aggregate(Sum("fl", alias_name="c"))
        .to_pandas()
    )
    ets = np.sort(leaf["event_type"].unique())
    et_ix = {e: i for i, e in enumerate(ets)}
    M = np.zeros((len(ets), 4), np.float64)
    M[
        leaf["event_type"].map(et_ix).to_numpy(),
        leaf["q"].to_numpy(np.int64) - 1,
    ] = leaf["c"].to_numpy(np.float64)
    scope = let_eval(
        {
            "Mt": "transpose(M)",
            "P": "matrixMult(M, Mt)",
            "r": "sumRows(M)",
        },
        {"M": M},
    )
    n = len(ets)
    ii, jj = np.divmod(np.arange(n * n), n)
    return pd.DataFrame(
        {
            "et_a": ets[ii],
            "et_b": ets[jj],
            "p": scope["P"][ii, jj],
            "row_sum_a": scope["r"][ii],
        }
    ).sort_values(["et_a", "et_b"]).reset_index(drop=True)


QUERIES["eval_let_matrix_events"] = q_eval_let_matrix_events
ORACLE["eval_let_matrix_events"] = """
    WITH leaf AS (
      SELECT event_type, quarter(ts) AS q,
             sum(cast(floor(value) AS BIGINT))::BIGINT AS c
      FROM events GROUP BY 1, 2
    ),
    grid AS (
      SELECT et.event_type, qq.q, coalesce(leaf.c, 0) AS c
      FROM (SELECT DISTINCT event_type FROM events) et
      CROSS JOIN (SELECT unnest([1, 2, 3, 4]) AS q) qq
      LEFT JOIN leaf ON leaf.event_type = et.event_type AND leaf.q = qq.q
    ),
    p AS (
      SELECT a.event_type AS et_a, b.event_type AS et_b,
             sum(a.c * b.c)::DOUBLE AS p
      FROM grid a JOIN grid b ON a.q = b.q
      GROUP BY 1, 2
    ),
    r AS (SELECT event_type, sum(c)::DOUBLE AS row_sum FROM grid GROUP BY 1)
    SELECT et_a, et_b, p, r.row_sum AS row_sum_a
    FROM p JOIN r ON p.et_a = r.event_type
    ORDER BY et_a, et_b
"""


def q_eval_ks_uniform_lineitem(sf_dir: str):
    """Distribution-fit evaluators (UniformRealDistributionEvaluator +
    CumulativeProbabilityEvaluator + KolmogorovSmirnovEvaluator,
    `solr/solrj/.../io/eval/{UniformRealDistribution,CumulativeProbability,
    KolmogorovSmirnov}Evaluator.java`): l_quantity reduces distributed to
    a (distinct value, count) weighted sample — the KS statistic needs
    only that tiny side — then let() fits uniform(lo, hi) and evaluates
    the D statistic and the CDF at 25."""
    from ray.data.aggregate import Count

    li = read_table(sf_dir, "lineitem", ["l_quantity"])
    s = li.groupby("l_quantity").aggregate(Count(alias_name="c")).to_pandas()
    v = s["l_quantity"].to_numpy(np.float64)
    c = s["c"].to_numpy(np.float64)
    scope = let_eval(
        {
            "dist": "uniformDistribution(lo, hi)",
            "ks_d": "kolmogorovSmirnov(dist, v, c)",
            "cdf_q25": "cumulativeProbability(dist, 25.0)",
        },
        {"v": v, "c": c, "lo": float(v.min()), "hi": float(v.max())},
    )
    return pd.DataFrame(
        {
            "lo": [float(v.min())],
            "hi": [float(v.max())],
            "n_distinct": [np.int64(len(v))],
            "ks_d": [scope["ks_d"]],
            "cdf_q25": [float(scope["cdf_q25"])],
        }
    )


QUERIES["eval_ks_uniform_lineitem"] = q_eval_ks_uniform_lineitem
ORACLE["eval_ks_uniform_lineitem"] = """
    WITH s AS (
      SELECT l_quantity AS x, count(*) AS c FROM lineitem GROUP BY 1
    ),
    b AS (
      SELECT min(x)::DOUBLE AS lo, max(x)::DOUBLE AS hi,
             sum(c)::DOUBLE AS n, count(*)::BIGINT AS n_distinct
      FROM s
    ),
    e AS (SELECT x::DOUBLE AS x, c::DOUBLE AS c,
                 sum(c) OVER (ORDER BY x)::DOUBLE AS cum
          FROM s)
    SELECT lo, hi, n_distinct,
           max(greatest(abs(cum / n - (x - lo) / (hi - lo)),
                        abs((cum - c) / n - (x - lo) / (hi - lo)))) AS ks_d,
           (25.0 - lo) / (hi - lo) AS cdf_q25
    FROM e, b
    GROUP BY lo, hi, n_distinct
"""


def q_eval_timeseries_moving_events(sf_dir: str):
    """Timeseries evaluator family (MovingAverageEvaluator,
    ExponentialMovingAverageEvaluator, DiffEvaluator? -- Solr spells it
    `diff()` in Lang.java -- MinMaxScaleEvaluator, StandardizeEvaluator?
    `zscores`-style standardize): the corpus reduces DISTRIBUTED to the
    daily event-count series (integer counts -- every downstream kernel is
    exact or order-identical), then let() runs the series algebra on that
    small side.  movingAvg(7) emits full windows only (NaN-padded to align
    rows), expMovingAvg uses alpha=2/(k+1)=0.25 seeded at the first
    element so a recursive-CTE oracle reproduces identical doubles."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    scope = let_eval(
        {
            "mov7": "movingAvg(v, 7)",
            "d1": "diff(v)",
            "ema7": "expMovingAvg(v, 7)",
            "scaled": "minMaxScale(v)",
            "z": "standardize(v)",
        },
        {"v": v},
    )

    def pad(arr, k):
        return np.concatenate([np.full(k, np.nan), arr])

    return pd.DataFrame(
        {
            "y": s["y"].astype(np.int64),
            "doy": s["doy"].astype(np.int64),
            "n": s["n"].astype(np.int64),
            "mov7": round_sql(pad(scope["mov7"], 6)),
            "diff1": pad(scope["d1"], 1),
            "ema7": round_sql(scope["ema7"]),
            "scaled": round_sql(scope["scaled"]),
            "z": round_sql(scope["z"]),
        }
    )


QUERIES["eval_timeseries_moving_events"] = q_eval_timeseries_moving_events
ORACLE["eval_timeseries_moving_events"] = """
    WITH RECURSIVE s AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n,
             row_number() OVER (ORDER BY year(ts), dayofyear(ts)) AS rn
      FROM events GROUP BY 1, 2
    ),
    st AS (
      SELECT sum(n)::DOUBLE AS sm, sum(n * n)::DOUBLE AS ss,
             count(*)::DOUBLE AS c,
             min(n)::DOUBLE AS lo, max(n)::DOUBLE AS hi
      FROM s
    ),
    ema AS (
      SELECT rn, n::DOUBLE AS e FROM s WHERE rn = 1
      UNION ALL
      SELECT s.rn, 0.25 * s.n + 0.75 * ema.e
      FROM s JOIN ema ON s.rn = ema.rn + 1
    )
    SELECT y, doy, n,
           CASE WHEN rn >= 7 THEN round(
             (sum(n) OVER (ORDER BY rn
                           ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)) / 7.0,
             6) END AS mov7,
           (n - lag(n) OVER (ORDER BY rn))::DOUBLE AS diff1,
           round(ema.e, 6) AS ema7,
           round((n - st.lo) / (st.hi - st.lo), 6) AS scaled,
           round((n - sm / c) / sqrt((ss - sm * sm / c) / (c - 1.0)), 6) AS z
    FROM s JOIN ema USING (rn), st
    ORDER BY y, doy
"""


def q_eval_distance_embeddings(sf_dir: str):
    """Vector-distance evaluator family (CosineSimilarityEvaluator,
    EuclideanDistanceEvaluator, ManhattanDistanceEvaluator + norm kernels)
    over per-label embedding centroids: components quantize to
    floor(x*1000) integers so the DISTRIBUTED centroid sums are exact (one
    groupby over 64 partial-sum columns; the embedding table never leaves
    the workers), then the k x k distance grid runs on the small collected
    matrix inside let()-style kernel calls."""
    from ray.data.aggregate import Count, Sum

    DIM = 64
    emb = read_table(sf_dir, "embeddings", ["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        import numpy as _np

        lab = t["label"].to_numpy(zero_copy_only=False)
        m = _np.floor(
            _np.stack(t["embedding"].to_pandas().to_numpy()).astype(
                _np.float64
            ) * 1000.0
        ).astype(_np.int64)
        cols = {"label": lab}
        for i in range(m.shape[1]):
            cols[f"c{i}"] = m[:, i]
        return pa.table(cols)

    agg = (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Count(alias_name="n"),
            *[Sum(f"c{i}", alias_name=f"s{i}") for i in range(DIM)],
        )
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )
    labels = agg["label"].to_numpy()
    n = agg["n"].to_numpy(np.float64)
    sums = agg[[f"s{i}" for i in range(DIM)]].to_numpy(np.float64)
    cent = sums / (1000.0 * n[:, None])
    k = len(labels)
    rows = []
    for i in range(k):
        for j in range(k):
            rows.append(
                (
                    int(labels[i]), int(labels[j]),
                    round_sql(EVALUATORS["cosineSimilarity"](cent[i], cent[j])),
                    round_sql(EVALUATORS["euclideanDistance"](cent[i], cent[j])),
                    round_sql(EVALUATORS["manhattanDistance"](cent[i], cent[j])),
                )
            )
    return pd.DataFrame(
        rows, columns=["la", "lb", "cos", "euclid", "manhattan"]
    ).sort_values(["la", "lb"]).reset_index(drop=True)


QUERIES["eval_distance_embeddings"] = q_eval_distance_embeddings
ORACLE["eval_distance_embeddings"] = """
    WITH e AS (
      SELECT label,
             generate_subscripts(embedding, 1) AS i,
             cast(floor(unnest(embedding)::DOUBLE * 1000.0) AS BIGINT) AS q
      FROM embeddings
    ),
    c AS (
      SELECT label, i,
             sum(q)::DOUBLE / (1000.0 * count(*)::DOUBLE) AS v
      FROM e GROUP BY 1, 2
    )
    SELECT a.label::BIGINT AS la, b.label::BIGINT AS lb,
           round(sum(a.v * b.v)
                 / (sqrt(sum(a.v * a.v)) * sqrt(sum(b.v * b.v))), 6) AS cos,
           round(sqrt(sum((a.v - b.v) * (a.v - b.v))), 6) AS euclid,
           round(sum(abs(a.v - b.v)), 6) AS manhattan
    FROM c a JOIN c b ON a.i = b.i
    GROUP BY 1, 2
    ORDER BY 1, 2
"""


def q_eval_fft_events(sf_dir: str):
    """FFTEvaluator analog: magnitude spectrum of the hourly event-count
    histogram.  The 24-bin integer histogram reduces distributed; the DFT
    runs as DIRECT cos/sin sums (identical expression to the oracle's
    cross-join form -- an FFT butterfly would compute different doubles)."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"h": pa.array(idx.hour.to_numpy().astype(np.int64))}
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    v = np.zeros(24, np.float64)
    v[s["h"].to_numpy(np.int64)] = s["n"].to_numpy(np.float64)
    scope = let_eval({"mag": "fft(v)"}, {"v": v})
    return pd.DataFrame(
        {
            "k": np.arange(24, dtype=np.int64),
            "mag": round_sql(scope["mag"]),
        }
    )


QUERIES["eval_fft_events"] = q_eval_fft_events
ORACLE["eval_fft_events"] = """
    WITH hist AS (
      SELECT hh.h, coalesce(cnt.n, 0) AS n
      FROM (SELECT unnest(generate_series(0, 23)) AS h) hh
      LEFT JOIN (SELECT hour(ts) AS h, count(*) AS n
                 FROM events GROUP BY 1) cnt ON cnt.h = hh.h
    ),
    ks AS (SELECT unnest(generate_series(0, 23)) AS k)
    SELECT k::BIGINT AS k,
           round(sqrt(
             pow(sum(n * cos(2 * pi() * k * h / 24.0)), 2)
             + pow(sum(n * sin(2 * pi() * k * h / 24.0)), 2)), 6) AS mag
    FROM ks, hist
    GROUP BY k
    ORDER BY k
"""


def q_eval_ttest_lineitem(sf_dir: str):
    """TTestEvaluator (Welch two-sample t): l_quantity of returnflag 'R'
    vs 'N' rows.  Group moments (n, sum, sum-of-squares -- integer-exact)
    reduce DISTRIBUTED via per-batch partials + a 2-row groupby; the Welch
    formulas run on those scalars through the SAME _welch expression tree
    the array-form ttest kernel uses, mirrored verbatim in the oracle."""
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        flag = t["l_returnflag"].to_numpy(zero_copy_only=False)
        out = {"flag": [], "n": [], "s": [], "ss": []}
        for f in np.unique(flag):
            m = flag == f
            out["flag"].append(str(f))
            out["n"].append(int(m.sum()))
            out["s"].append(int(q[m].sum()))
            out["ss"].append(int((q[m] * q[m]).sum()))
        return pa.table(
            {
                "flag": pa.array(out["flag"], pa.string()),
                "n": pa.array(out["n"], pa.int64()),
                "s": pa.array(out["s"], pa.int64()),
                "ss": pa.array(out["ss"], pa.int64()),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("flag")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("ss", alias_name="ss"),
        )
        .to_pandas()
        .set_index("flag")
    )
    g = {}
    for f in ("R", "N"):
        n = float(agg.loc[f, "n"])
        s = float(agg.loc[f, "s"])
        ss = float(agg.loc[f, "ss"])
        g[f] = (n, s / n, (ss - s * s / n) / (n - 1.0))
    t, df = _welch(*g["R"], *g["N"])
    return pd.DataFrame(
        {
            "n_r": [np.int64(agg.loc["R", "n"])],
            "n_n": [np.int64(agg.loc["N", "n"])],
            "mean_r": [round_sql(g["R"][1])],
            "mean_n": [round_sql(g["N"][1])],
            "t": [round_sql(t)],
            "df": [round_sql(df)],
        }
    )


QUERIES["eval_ttest_lineitem"] = q_eval_ttest_lineitem
ORACLE["eval_ttest_lineitem"] = """
    WITH m AS (
      SELECT l_returnflag AS flag, count(*)::DOUBLE AS n,
             sum(cast(l_quantity AS BIGINT))::DOUBLE AS s,
             sum(cast(l_quantity AS BIGINT)
                 * cast(l_quantity AS BIGINT))::DOUBLE AS ss
      FROM lineitem WHERE l_returnflag IN ('R', 'N') GROUP BY 1
    ),
    g AS (
      SELECT flag, n, s / n AS mu, (ss - s * s / n) / (n - 1.0) AS v
      FROM m
    ),
    w AS (
      SELECT r.n AS n1, r.mu AS m1, r.v / r.n AS se1,
             nn.n AS n2, nn.mu AS m2, nn.v / nn.n AS se2
      FROM (SELECT * FROM g WHERE flag = 'R') r,
           (SELECT * FROM g WHERE flag = 'N') nn
    )
    SELECT n1::BIGINT AS n_r, n2::BIGINT AS n_n,
           round(m1, 6) AS mean_r, round(m2, 6) AS mean_n,
           round((m1 - m2) / sqrt(se1 + se2), 6) AS t,
           round(((se1 + se2) * (se1 + se2))
                 / (se1 * se1 / (n1 - 1.0) + se2 * se2 / (n2 - 1.0)), 6)
             AS df
    FROM w
"""


def q_eval_poisson_orders(sf_dir: str):
    """Discrete-distribution evaluators (PoissonDistributionEvaluator,
    BinomialDistributionEvaluator, ProbabilityEvaluator,
    CumulativeProbabilityEvaluator): lambda = exact mean orders/customer
    and p = exact urgent-order fraction reduce distributed (integer
    ratios); PMF/CDF evaluate through the lgamma log-form both sides
    share."""
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        urgent = pc.equal(t["o_orderpriority"], "1-URGENT")
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
                "urgent": pa.array(
                    [int(pc.sum(pc.cast(urgent, pa.int64())).as_py() or 0)],
                    pa.int64(),
                ),
            }
        )

    totals = (
        orders.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("one")
        .aggregate(Sum("n", alias_name="n"), Sum("urgent", alias_name="u"))
        .to_pandas()
    )
    n_orders = float(totals["n"].iloc[0])
    n_urgent = float(totals["u"].iloc[0])
    from ray.data.aggregate import Count

    n_cust = (
        orders.groupby("o_custkey").aggregate(Count(alias_name="c")).count()
    )
    lam = n_orders / float(n_cust)
    p = n_urgent / n_orders
    scope = let_eval(
        {
            "d": "poissonDistribution(lam)",
            "cdf10": "cumulativeProbability(d, 10.0)",
            "pmf10": "probability(d, 10.0)",
            "bd": "binomialDistribution(20, p)",
            "bcdf5": "cumulativeProbability(bd, 5.0)",
            "bpmf5": "probability(bd, 5.0)",
        },
        {"lam": lam, "p": p},
    )
    return pd.DataFrame(
        {
            "lam": [round_sql(lam)],
            "p_urgent": [round_sql(p)],
            "pois_cdf_10": [round_sql(float(scope["cdf10"]))],
            "pois_pmf_10": [round_sql(float(scope["pmf10"]))],
            "binom_cdf_5": [round_sql(float(scope["bcdf5"]))],
            "binom_pmf_5": [round_sql(float(scope["bpmf5"]))],
        }
    )


QUERIES["eval_poisson_orders"] = q_eval_poisson_orders
ORACLE["eval_poisson_orders"] = """
    WITH c AS (
      SELECT count(*)::DOUBLE / count(DISTINCT o_custkey)::DOUBLE AS lam,
             sum(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0
                 END)::DOUBLE / count(*)::DOUBLE AS p
      FROM orders
    ),
    ks AS (SELECT unnest(generate_series(0, 10))::DOUBLE AS i)
    SELECT round(lam, 6) AS lam,
           round(p, 6) AS p_urgent,
           round(sum(exp(i * ln(lam) - lam - lgamma(i + 1.0))), 6)
             AS pois_cdf_10,
           round(max(CASE WHEN i = 10 THEN
             exp(i * ln(lam) - lam - lgamma(i + 1.0)) END), 6)
             AS pois_pmf_10,
           round(sum(CASE WHEN i <= 5 THEN
             exp(lgamma(21.0) - lgamma(i + 1.0) - lgamma(20.0 - i + 1.0)
                 + i * ln(p) + (20.0 - i) * ln(1.0 - p)) ELSE 0 END), 6)
             AS binom_cdf_5,
           round(max(CASE WHEN i = 5 THEN
             exp(lgamma(21.0) - lgamma(i + 1.0) - lgamma(20.0 - i + 1.0)
                 + i * ln(p) + (20.0 - i) * ln(1.0 - p)) END), 6)
             AS binom_pmf_5
    FROM c, ks
    GROUP BY lam, p
"""


def q_eval_polyfit_lineitem(sf_dir: str):
    """PolyFitEvaluator: quadratic least-squares fit of lineitem-count vs
    quantity.  The (x=quantity, y=count) series reduces distributed to 50
    integer points; polyFit solves the normal equations by explicit Cramer
    expansion -- integer-exact power sums + the identical expression tree
    in the oracle give bit-identical coefficients."""
    from ray.data.aggregate import Count

    li = read_table(sf_dir, "lineitem", ["l_quantity"])
    s = (
        li.groupby("l_quantity")
        .aggregate(Count(alias_name="y"))
        .to_pandas()
        .sort_values("l_quantity")
        .reset_index(drop=True)
    )
    x = s["l_quantity"].to_numpy(np.float64)
    y = s["y"].to_numpy(np.float64)
    scope = let_eval({"coef": "polyFit(x, y, 2)"}, {"x": x, "y": y})
    a, b, c = (float(v) for v in scope["coef"])
    return pd.DataFrame(
        {
            "a": [round_sql(a)],
            "b": [round_sql(b)],
            "c": [round_sql(c)],
            "pred25": [round_sql(a + b * 25.0 + c * 625.0)],
        }
    )


QUERIES["eval_polyfit_lineitem"] = q_eval_polyfit_lineitem
ORACLE["eval_polyfit_lineitem"] = """
    WITH s AS (
      SELECT cast(l_quantity AS BIGINT) AS x, count(*)::BIGINT AS y
      FROM lineitem GROUP BY 1
    ),
    m AS (
      SELECT count(*)::DOUBLE AS n,
             sum(x)::DOUBLE AS s1, sum(x * x)::DOUBLE AS s2,
             sum(x * x * x)::DOUBLE AS s3,
             sum(x * x * x * x)::DOUBLE AS s4,
             sum(y)::DOUBLE AS t0, sum(x * y)::DOUBLE AS t1,
             sum(x * x * y)::DOUBLE AS t2
      FROM s
    ),
    d AS (
      SELECT
        n * (s2 * s4 - s3 * s3) - s1 * (s1 * s4 - s3 * s2)
          + s2 * (s1 * s3 - s2 * s2) AS det,
        t0 * (s2 * s4 - s3 * s3) - s1 * (t1 * s4 - s3 * t2)
          + s2 * (t1 * s3 - s2 * t2) AS da,
        n * (t1 * s4 - s3 * t2) - t0 * (s1 * s4 - s3 * s2)
          + s2 * (s1 * t2 - t1 * s2) AS db,
        n * (s2 * t2 - t1 * s3) - s1 * (s1 * t2 - t1 * s2)
          + t0 * (s1 * s3 - s2 * s2) AS dc
      FROM m
    )
    SELECT round(da / det, 6) AS a,
           round(db / det, 6) AS b,
           round(dc / det, 6) AS c,
           round(da / det + db / det * 25.0 + dc / det * 625.0, 6) AS pred25
    FROM d
"""


def _mann_whitney(v, c1, c2):
    """MannWhitneyUTestEvaluator (weighted form, like the KS kernel): the
    samples arrive as (distinct value, count-in-group-1, count-in-group-2)
    — the tiny side of a distributed groupby — and the U statistic comes
    from tie-averaged ranks computed on counts, never on expanded rows.
    Returns [U1, z] with the tie-corrected normal approximation; every
    expression mirrors the SQL oracle verbatim."""
    v = np.asarray(v, np.float64)
    c1 = np.asarray(c1, np.float64)
    c2 = np.asarray(c2, np.float64)
    order = np.argsort(v)
    c1, c2 = c1[order], c2[order]
    t = c1 + c2
    cum = np.cumsum(t)
    # average rank of a tied block ending at cum: (start + end) / 2
    avg_rank = (cum - t + 1.0 + cum) / 2.0
    n1, n2 = c1.sum(), c2.sum()
    n = n1 + n2
    u1 = (c1 * avg_rank).sum() - n1 * (n1 + 1.0) / 2.0
    mu = n1 * n2 / 2.0
    tie = (t * t * t - t).sum()
    sigma = np.sqrt(
        n1 * n2 / 12.0 * ((n + 1.0) - tie / (n * (n - 1.0)))
    )
    return np.array([u1, (u1 - mu) / sigma])


def _chi_square_gof(observed):
    """ChiSquareDataSetEvaluator (goodness-of-fit vs the uniform
    expectation): chi2 = sum((o - e)^2 / e), df = k - 1."""
    o = np.asarray(observed, np.float64)
    e = o.sum() / float(len(o))
    return np.array([(((o - e) * (o - e)) / e).sum(), float(len(o) - 1)])


EVALUATORS.update({
    "mannWhitney": _mann_whitney,
    "chiSquareGoF": _chi_square_gof,
})


def q_eval_describe_daily_events(sf_dir: str):
    """DescribeEvaluator over a collected stream (Solr shape:
    let(a=search(...), describe(col(a, n)))): summary stats of the daily
    event-count series — the series reduces DISTRIBUTED, describe() runs
    its mean/var/stddev/norm kernels on the small side.  Integer counts
    make every formula exact."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    v = s["n"].to_numpy(np.float64)
    scope = let_eval(
        {
            "m": "mean(v)", "sd": "stddev(v)", "vv": "var(v)",
            "l2": "norm(v)", "l1": "l1norm(v)", "li": "linfnorm(v)",
            "gs": "grandSum(v)",
        },
        {"v": v},
    )
    return pd.DataFrame(
        {
            "n_days": [np.int64(len(v))],
            "total": [np.int64(scope["gs"])],
            "mean": [round_sql(scope["m"])],
            "variance": [round_sql(scope["vv"])],
            "stddev": [round_sql(scope["sd"])],
            "l2norm": [round_sql(scope["l2"])],
            "max_day": [np.int64(scope["li"])],
        }
    )


QUERIES["eval_describe_daily_events"] = q_eval_describe_daily_events
ORACLE["eval_describe_daily_events"] = """
    WITH s AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    m AS (
      SELECT count(*)::DOUBLE AS c, sum(n)::DOUBLE AS sm,
             sum(n * n)::DOUBLE AS ss, max(n)::BIGINT AS mx
      FROM s
    )
    SELECT c::BIGINT AS n_days, sm::BIGINT AS total,
           round(sm / c, 6) AS mean,
           round((ss - sm * sm / c) / (c - 1.0), 6) AS variance,
           round(sqrt((ss - sm * sm / c) / (c - 1.0)), 6) AS stddev,
           round(sqrt(ss), 6) AS l2norm,
           mx AS max_day
    FROM m
"""


def q_eval_mannwhitney_lineitem(sf_dir: str):
    """Mann-Whitney U (MannWhitneyUTestEvaluator): l_quantity of
    returnflag 'R' vs 'N'.  The corpus reduces to ~50 (value, count_R,
    count_N) rows via ONE distributed groupby; tie-averaged ranks, U and
    the tie-corrected z derive from those integer counts — identical
    expression tree in the oracle's window-function form."""
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        flag = t["l_returnflag"].to_numpy(zero_copy_only=False)
        q = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = (flag == "R") | (flag == "N")
        q, flag = q[m], flag[m]
        isr = (flag == "R").astype(np.int64)
        vals, inv = np.unique(q, return_inverse=True)
        cr = np.zeros(len(vals), np.int64)
        cn = np.zeros(len(vals), np.int64)
        np.add.at(cr, inv, isr)
        np.add.at(cn, inv, 1 - isr)
        return pa.table(
            {
                "val": pa.array(vals),
                "c_r": pa.array(cr),
                "c_n": pa.array(cn),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("val")
        .aggregate(Sum("c_r", alias_name="c_r"), Sum("c_n", alias_name="c_n"))
        .to_pandas()
        .sort_values("val")
    )
    scope = let_eval(
        {"uz": "mannWhitney(v, cr, cn)"},
        {
            "v": agg["val"].to_numpy(np.float64),
            "cr": agg["c_r"].to_numpy(np.float64),
            "cn": agg["c_n"].to_numpy(np.float64),
        },
    )
    u1, z = (float(x) for x in scope["uz"])
    return pd.DataFrame(
        {
            "n_r": [np.int64(agg["c_r"].sum())],
            "n_n": [np.int64(agg["c_n"].sum())],
            "u1": [round_sql(u1)],
            "z": [round_sql(z)],
        }
    )


QUERIES["eval_mannwhitney_lineitem"] = q_eval_mannwhitney_lineitem
ORACLE["eval_mannwhitney_lineitem"] = """
    WITH g AS (
      SELECT cast(l_quantity AS BIGINT) AS val,
             sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)::DOUBLE
               AS c1,
             sum(CASE WHEN l_returnflag = 'N' THEN 1 ELSE 0 END)::DOUBLE
               AS c2
      FROM lineitem WHERE l_returnflag IN ('R', 'N') GROUP BY 1
    ),
    r AS (
      SELECT c1, c2, c1 + c2 AS t,
             sum(c1 + c2) OVER (ORDER BY val) AS cum
      FROM g
    ),
    k AS (
      SELECT sum(c1 * ((cum - t + 1.0 + cum) / 2.0)) AS rank_sum,
             sum(c1) AS n1, sum(c2) AS n2,
             sum(t * t * t - t) AS tie
      FROM r
    )
    SELECT n1::BIGINT AS n_r, n2::BIGINT AS n_n,
           round(rank_sum - n1 * (n1 + 1.0) / 2.0, 6) AS u1,
           round(((rank_sum - n1 * (n1 + 1.0) / 2.0) - n1 * n2 / 2.0)
                 / sqrt(n1 * n2 / 12.0 * ((n1 + n2 + 1.0)
                        - tie / ((n1 + n2) * (n1 + n2 - 1.0)))), 6) AS z
    FROM k
"""


def q_eval_chisquare_events(sf_dir: str):
    """Chi-square goodness-of-fit (ChiSquareDataSetEvaluator shape):
    event_type counts vs the uniform expectation.  One distributed
    groupby; the statistic runs on the k-row collected side."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["event_type"])
    s = (
        ev.groupby("event_type")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values("event_type")
    )
    scope = let_eval(
        {"cs": "chiSquareGoF(o)"}, {"o": s["n"].to_numpy(np.float64)}
    )
    chi2, df = (float(x) for x in scope["cs"])
    return pd.DataFrame(
        {
            "k": [np.int64(len(s))],
            "n": [np.int64(s["n"].sum())],
            "chi2": [round_sql(chi2)],
            "df": [np.int64(df)],
        }
    )


QUERIES["eval_chisquare_events"] = q_eval_chisquare_events
ORACLE["eval_chisquare_events"] = """
    WITH g AS (SELECT event_type, count(*)::DOUBLE AS n
               FROM events GROUP BY 1),
    m AS (SELECT count(*)::DOUBLE AS k, sum(n) AS total FROM g)
    SELECT k::BIGINT AS k, total::BIGINT AS n,
           round(sum((n - total / k) * (n - total / k) / (total / k)), 6)
             AS chi2,
           (k - 1)::BIGINT AS df
    FROM g, m
    GROUP BY k, total
"""


def _analyze(x, name="standard"):
    """AnalyzeEvaluator (`solr/solrj/.../io/eval/AnalyzeEvaluator.java`):
    run a REGISTERED analyzer as a scalar function — each input string
    becomes its token list.  Returns a Python list-of-lists (variable
    length; the fixed-arity array kernels don't apply)."""
    from rindex.analysis import get_analyzer

    an = get_analyzer(name if isinstance(name, str) else str(name))
    xs = x if isinstance(x, np.ndarray) else np.asarray(_str_arr(x))
    return [an.tokens(s if isinstance(s, str) else str(s)) for s in xs]


EVALUATORS.update({
    "analyze": _analyze,
    # variable-length list helpers (ListSize / valueAt over analyze())
    "listLength": lambda ls: np.fromiter(
        (len(l) for l in ls), np.int64, len(ls)
    ),
    "listAt": lambda ls, i: np.array(
        [
            (l[int(i)] if -len(l) <= int(i) < len(l) else None)
            for l in ls
        ],
        dtype=object,
    ),
})


def q_eval_analyze_documents(sf_dir: str):
    """analyze() as a scalar evaluator inside select(): tokenize each doc
    with the registered 'standard' analyzer and emit token count + first
    + last token — the reference runs the same analyzer chain as a
    column function."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        cols = {"text": t["text"].combine_chunks()}
        memo: dict = {}
        toks = eval_node(parse_expr('analyze(text, "standard")'), cols, memo)
        n = EVALUATORS["listLength"](toks)
        first = EVALUATORS["listAt"](toks, 0)
        last = EVALUATORS["listAt"](toks, -1)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pa.array(n),
                "first_tok": pa.array(
                    [x if x is not None else None for x in first],
                    pa.string(),
                ),
                "last_tok": pa.array(
                    [x if x is not None else None for x in last],
                    pa.string(),
                ),
            }
        )

    out = docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
    return out.filter(expr="doc_id < 3000")


QUERIES["eval_analyze_documents"] = q_eval_analyze_documents
# standard analyzer = lowercase alnum runs with word-internal apostrophes
ORACLE["eval_analyze_documents"] = """
    WITH t AS (
      SELECT doc_id,
             regexp_extract_all(lower(coalesce(text, '')),
               '[0-9a-z]+(?:''[0-9a-z]+)*') AS l
      FROM documents WHERE doc_id < 3000
    )
    SELECT doc_id, len(l)::BIGINT AS n_tok,
           CASE WHEN len(l) > 0 THEN l[1] END AS first_tok,
           CASE WHEN len(l) > 0 THEN l[len(l)] END AS last_tok
    FROM t
"""


def q_eval_dist_fits_lineitem(sf_dir: str):
    """Distribution-fit evaluator batch 4 (GeometricDistribution,
    ZipFDistribution, WeibullDistribution, TriangularDistribution,
    Percentile, Histogram evaluators): l_quantity reduces DISTRIBUTED to
    the (distinct value, count) weighted sample (one tiny groupby — the
    only corpus-scale stage), then let() fits the four distributions from
    exact integer ratios and runs percentile/hist over the counts array.
    Every CDF is an elementary-function closed form mirrored verbatim in
    the oracle; percentile is R-7 with the explicit interpolation
    expression on both sides; hist emits integer bin counts."""
    from ray.data.aggregate import Count

    li = read_table(sf_dir, "lineitem", ["l_quantity"])
    s = (
        li.groupby("l_quantity")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("l_quantity")
        .reset_index(drop=True)
    )
    x = s["l_quantity"].to_numpy(np.float64)
    c = s["c"].to_numpy(np.float64)
    n = float(c.sum())
    lam = float((x * c).sum()) / n          # exact integer ratio
    p1 = float(c[x == 1.0].sum()) / n       # P(quantity == 1)
    lo, hi = float(x.min()), float(x.max())
    # mode = the quantity with the max count, ties to the LOWER value
    # (mirrors the oracle's row_number ORDER BY c DESC, x ASC)
    mode = float(x[np.lexsort((x, -c))[0]])
    scope = let_eval(
        {
            "wd": "weibullDistribution(1.5, lam)",
            "w_cdf25": "cumulativeProbability(wd, 25.0)",
            "td": "triangularDistribution(lo, mode, hi)",
            "t_cdf25": "cumulativeProbability(td, 25.0)",
            "gd": "geometricDistribution(p1)",
            "g_pmf3": "probability(gd, 3.0)",
            "g_cdf3": "cumulativeProbability(gd, 3.0)",
            "zd": "zipFDistribution(50, 1.5)",
            "z_pmf1": "probability(zd, 1.0)",
            "z_cdf10": "cumulativeProbability(zd, 10.0)",
            "pct90": "percentile(cnts, 90.0)",
            "bins": "hist(cnts, 5)",
        },
        {"lam": lam, "lo": lo, "mode": mode, "hi": hi, "p1": p1,
         "cnts": c},
    )
    bins = np.asarray(scope["bins"], np.int64)
    return pd.DataFrame(
        {
            "lam": [round_sql(lam)],
            "p1": [round_sql(p1)],
            "mode_qty": [np.int64(mode)],
            "weib_cdf25": [round_sql(float(scope["w_cdf25"]))],
            "tri_cdf25": [round_sql(float(scope["t_cdf25"]))],
            "geo_pmf3": [round_sql(float(scope["g_pmf3"]))],
            "geo_cdf3": [round_sql(float(scope["g_cdf3"]))],
            "zipf_pmf1": [round_sql(float(scope["z_pmf1"]))],
            "zipf_cdf10": [round_sql(float(scope["z_cdf10"]))],
            "pct90": [round_sql(float(scope["pct90"]))],
            **{f"h{i}": [bins[i]] for i in range(5)},
        }
    )


QUERIES["eval_dist_fits_lineitem"] = q_eval_dist_fits_lineitem
ORACLE["eval_dist_fits_lineitem"] = """
    WITH s AS (
      SELECT l_quantity AS x, count(*)::BIGINT AS c
      FROM lineitem GROUP BY 1
    ),
    b AS (
      SELECT sum(c)::DOUBLE AS n,
             sum(x * c)::DOUBLE / sum(c)::DOUBLE AS lam,
             (SELECT coalesce(sum(c), 0) FROM s WHERE x = 1)::DOUBLE
               / sum(c)::DOUBLE AS p1,
             min(x)::DOUBLE AS lo, max(x)::DOUBLE AS hi,
             count(*)::BIGINT AS nd
      FROM s
    ),
    md AS (
      SELECT x::DOUBLE AS mode FROM s
      QUALIFY row_number() OVER (ORDER BY c DESC, x ASC) = 1
    ),
    zh AS (
      SELECT sum(exp(-1.5 * ln(i::DOUBLE))) AS h
      FROM (SELECT unnest(generate_series(1, 50)) AS i)
    ),
    ys AS (SELECT list(c::DOUBLE ORDER BY c::DOUBLE) AS l,
                  min(c)::DOUBLE AS cmn, max(c)::DOUBLE AS cmx FROM s),
    pct AS (
      SELECT l[CAST(floor(((nd - 1.0) * 90.0) / 100.0) AS BIGINT) + 1]
             + (l[least(CAST(floor(((nd - 1.0) * 90.0) / 100.0) AS BIGINT)
                        + 2, nd::BIGINT)]
                - l[CAST(floor(((nd - 1.0) * 90.0) / 100.0) AS BIGINT)
                    + 1])
               * ((((nd - 1.0) * 90.0) / 100.0)
                  - floor(((nd - 1.0) * 90.0) / 100.0)) AS v
      FROM ys, b
    ),
    hb AS (
      SELECT sum(CASE WHEN idx = 0 THEN 1 ELSE 0 END)::BIGINT AS h0,
             sum(CASE WHEN idx = 1 THEN 1 ELSE 0 END)::BIGINT AS h1,
             sum(CASE WHEN idx = 2 THEN 1 ELSE 0 END)::BIGINT AS h2,
             sum(CASE WHEN idx = 3 THEN 1 ELSE 0 END)::BIGINT AS h3,
             sum(CASE WHEN idx = 4 THEN 1 ELSE 0 END)::BIGINT AS h4
      FROM (
        SELECT CASE WHEN cmx = cmn THEN 0
               ELSE least(floor(((c::DOUBLE - cmn) * 5.0) / (cmx - cmn)),
                          4.0) END AS idx
        FROM s, ys
      )
    )
    SELECT round(lam, 6) AS lam,
           round(p1, 6) AS p1,
           md.mode::BIGINT AS mode_qty,
           round(1.0 - exp(-exp(1.5 * ln(25.0 / lam))), 6) AS weib_cdf25,
           round(CASE WHEN 25.0 <= md.mode
             THEN ((25.0 - lo) * (25.0 - lo))
                  / ((hi - lo) * (md.mode - lo))
             ELSE 1.0 - ((hi - 25.0) * (hi - 25.0))
                  / ((hi - lo) * (hi - md.mode)) END, 6) AS tri_cdf25,
           round(exp(3.0 * ln(1.0 - p1) + ln(p1)), 6) AS geo_pmf3,
           round(1.0 - exp(4.0 * ln(1.0 - p1)), 6) AS geo_cdf3,
           round(exp(-1.5 * ln(1.0) - ln(zh.h)), 6) AS zipf_pmf1,
           round((SELECT sum(exp(-1.5 * ln(i::DOUBLE) - ln(zh.h)))
                  FROM (SELECT unnest(generate_series(1, 10)) AS i)), 6)
             AS zipf_cdf10,
           round(pct.v, 6) AS pct90,
           hb.h0, hb.h1, hb.h2, hb.h3, hb.h4
    FROM b, md, zh, pct, hb
"""


def q_eval_signal_events(sf_dir: str):
    """Signal-evaluator batch 5 (Convolution, Oscillate, NormalizeSum,
    the matrix Covariance overload): the corpus reduces DISTRIBUTED to
    the integer daily event-count series, then let() convolves it with
    the [1,2,1] smoothing kernel (integer outputs — exact), normalizes
    to sum 1 (exact integer ratios), samples an oscillate() sine at the
    day index (round-6), and computes the 2x2 covariance matrix of
    (count, day-index) via the mirrored moment expression.  One row per
    day index i < 15; the covariances ride as constant columns."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    t_idx = np.arange(len(v), dtype=np.float64)
    scope = let_eval(
        {
            "conv": "convolution(v, k)",
            "norm": "normalizeSum(v)",
            "osc": "oscillate(1.0, 0.25, 0.5, m)",
            "C": "covMatrix(matrix(v, t))",
        },
        {"v": v, "t": t_idx, "k": np.array([1.0, 2.0, 1.0]), "m": len(v)},
    )
    C = np.asarray(scope["C"])
    nrows = min(15, len(v))
    return pd.DataFrame(
        {
            "i": np.arange(nrows, dtype=np.int64),
            "conv": np.asarray(scope["conv"])[:nrows].astype(np.int64),
            "norm_c": [round_sql(x, 9) for x in
                       np.asarray(scope["norm"])[:nrows]],
            "osc": [round_sql(x) for x in np.asarray(scope["osc"])[:nrows]],
            "cov_nn": [round_sql(float(C[0, 0]))] * nrows,
            "cov_nt": [round_sql(float(C[0, 1]))] * nrows,
            "cov_tt": [round_sql(float(C[1, 1]))] * nrows,
        }
    )


QUERIES["eval_signal_events"] = q_eval_signal_events
ORACLE["eval_signal_events"] = """
    WITH daily AS (
      SELECT date_part('year', ts) AS y, date_part('doy', ts) AS doy,
             count(*)::BIGINT AS n
      FROM events GROUP BY 1, 2
    ),
    s AS MATERIALIZED (
      SELECT (row_number() OVER (ORDER BY y, doy) - 1)::BIGINT AS i, n
      FROM daily
    ),
    b AS (
      SELECT count(*)::DOUBLE AS m, sum(n)::DOUBLE AS sv,
             sum(n * i)::DOUBLE AS svt, sum(n * n)::DOUBLE AS svv,
             sum(i)::DOUBLE AS st, sum(i * i)::DOUBLE AS stt
      FROM s
    ),
    k AS (SELECT unnest([0, 1, 2]) AS j, unnest([1, 2, 1]) AS w),
    conv AS (
      SELECT t.i, sum(k.w * s.n)::BIGINT AS conv
      FROM (SELECT unnest(range(0, 15)) AS i) t
      JOIN k ON TRUE
      JOIN s ON s.i = t.i - k.j
      GROUP BY t.i
    )
    SELECT s.i, conv.conv,
           round(s.n::DOUBLE / b.sv, 9) AS norm_c,
           round(sin(0.25 * s.i::DOUBLE + 0.5), 6) AS osc,
           round((b.svv - (b.sv * b.sv) / b.m) / (b.m - 1.0), 6) AS cov_nn,
           round((b.svt - (b.sv * b.st) / b.m) / (b.m - 1.0), 6) AS cov_nt,
           round((b.stt - (b.st * b.st) / b.m) / (b.m - 1.0), 6) AS cov_tt
    FROM s JOIN conv ON conv.i = s.i CROSS JOIN b
    WHERE s.i < 15
    ORDER BY s.i
"""


# ---------------------------------------------------------------------------
# Evaluator batch 7: robust-window + calculus kernels
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# {MovingMedianEvaluator,MovingMADEvaluator,IntegrateEvaluator}.java`).
# movingMedian/movingMAD emit FULL windows only (length n-k+1, the
# movingAvg convention); integrate is the trapezoid rule on the unit
# index grid.  All three are exact on integer-valued series: an odd-width
# median picks a stored element, MAD medians integer gaps, and trapezoid
# terms are half-integers — every double is representable, so the oracle
# compares UNROUNDED.
# ---------------------------------------------------------------------------

def _moving_median(v, k):
    from numpy.lib.stride_tricks import sliding_window_view

    v = np.asarray(v, np.float64)
    return np.median(sliding_window_view(v, int(k)), axis=1)


def _moving_mad(v, k):
    from numpy.lib.stride_tricks import sliding_window_view

    v = np.asarray(v, np.float64)
    w = sliding_window_view(v, int(k))
    return np.median(np.abs(w - np.median(w, axis=1, keepdims=True)), axis=1)


def _integrate(v):
    v = np.asarray(v, np.float64)
    return float(np.sum((v[1:] + v[:-1]) / 2.0))


EVALUATORS.update({
    "movingMedian": _moving_median,
    "movingMAD": _moving_mad,
    "integrate": _integrate,
})


def q_eval_calculus_events(sf_dir: str):
    """movingMedian(7)/movingMAD(7)/integrate over the daily event-count
    series: the corpus reduces DISTRIBUTED to integer daily counts, the
    window/calculus algebra runs on that small side via let(), full
    windows NaN-pad to align rows, and the trapezoid area rides along as
    a constant column — all three kernels exact (no rounding)."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    scope = let_eval(
        {
            "med7": "movingMedian(v, 7)",
            "mad7": "movingMAD(v, 7)",
            "auc": "integrate(v)",
        },
        {"v": v},
    )

    def pad(arr, k):
        return np.concatenate([np.full(k, np.nan), arr])

    return pd.DataFrame(
        {
            "y": s["y"].astype(np.int64),
            "doy": s["doy"].astype(np.int64),
            "n": s["n"].astype(np.int64),
            "med7": pad(scope["med7"], 6),
            "mad7": pad(scope["mad7"], 6),
            "auc": np.full(len(s), float(scope["auc"])),
        }
    )


QUERIES["eval_calculus_events"] = q_eval_calculus_events
ORACLE["eval_calculus_events"] = """
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    s AS (
      SELECT y, doy, n, row_number() OVER (ORDER BY y, doy) AS i FROM d
    ),
    medw AS (
      SELECT a.i AS i, median(b.n::DOUBLE) AS m
      FROM s a JOIN s b ON b.i BETWEEN a.i - 6 AND a.i
      WHERE a.i >= 7 GROUP BY a.i
    ),
    mad AS (
      SELECT a.i AS i, median(abs(b.n::DOUBLE - m.m)) AS v
      FROM s a
      JOIN s b ON b.i BETWEEN a.i - 6 AND a.i
      JOIN medw m ON m.i = a.i
      WHERE a.i >= 7 GROUP BY a.i
    ),
    auc AS (
      SELECT sum((n0 + n1) / 2.0) AS v FROM (
        SELECT n::DOUBLE AS n0,
               lead(n::DOUBLE) OVER (ORDER BY i) AS n1
        FROM s)
      WHERE n1 IS NOT NULL
    )
    SELECT s.y, s.doy, s.n,
           medw.m AS med7, mad.v AS mad7, auc.v AS auc
    FROM s
    LEFT JOIN medw ON medw.i = s.i
    LEFT JOIN mad ON mad.i = s.i
    CROSS JOIN auc
    ORDER BY s.y, s.doy
"""


# ---------------------------------------------------------------------------
# Evaluator batch 8: continuous-density family
# (`solr/solrj/.../io/eval/{GammaDistributionEvaluator,
# LogNormalDistributionEvaluator,DensityEvaluator}.java`).  CDFs of these
# two need the incomplete gamma / erf, which SQL lacks — the reference's
# density() surface is the analytic one, and the log-pdf trees below are
# written EXACTLY as the DuckDB oracles spell them (lgamma is available
# in SQL)."""
# ---------------------------------------------------------------------------

def _density(dist, x):
    import math

    x = np.asarray(x, np.float64)
    kind = dist[0]
    if kind == "gamma":
        _, k, theta = dist
        return np.exp(
            (k - 1.0) * np.log(x) - x / theta - k * np.log(theta)
            - math.lgamma(k)
        )
    if kind == "lognormal":
        _, mu, s = dist
        return np.exp(
            -((np.log(x) - mu) ** 2) / (2.0 * s * s)
        ) / (x * s * np.sqrt(2.0 * np.pi))
    if kind == "weibull":
        _, k, lam = dist
        return (k / lam) * np.exp((k - 1.0) * np.log(x / lam)) * np.exp(
            -np.exp(k * np.log(x / lam))
        )
    if kind == "uniform":
        _, a, b = dist
        return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    if kind == "beta":
        _, a, b = dist
        return _beta_pdf(a, b, x)
    raise ValueError(f"density: unsupported distribution {kind!r}")


EVALUATORS.update({
    "gammaDistribution": lambda k, theta: ("gamma", float(k), float(theta)),
    "logNormalDistribution": lambda mu, s: ("lognormal", float(mu),
                                            float(s)),
    "density": _density,
})


def q_eval_density_fits_lineitem(sf_dir: str):
    """Method-of-moments gamma fit + log-space logNormal fit of
    l_quantity, with density() evaluated at fixed points — moments come
    from EXACT integer sums over the per-value histogram (ONE small
    distributed groupby; l_quantity is integer-valued), the density
    algebra runs through the batch-8 kernels with oracle-identical
    expression trees."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "lineitem", ["l_quantity"])
    hist = (
        ds.map_batches(
            lambda t: pa.table(
                {"v": pc.cast(t["l_quantity"], pa.int64())}
            ),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .groupby("v")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("v")
    )
    v = hist["v"].to_numpy(np.float64)
    c = hist["c"].to_numpy(np.float64)
    n = c.sum()
    s1 = float((v * c).sum())          # exact: integer-valued
    s2 = float((v * v * c).sum())      # exact
    m = s1 / n
    var = s2 / n - m * m
    k = m * m / var
    theta = var / m
    sl = float((np.log(v) * c).sum())
    sl2 = float((np.log(v) ** 2 * c).sum())
    mu = sl / n
    sig = np.sqrt(sl2 / n - mu * mu)
    # float() before formatting: numpy>=2 repr of np.float64 is
    # 'np.float64(x)', which the expression tokenizer rejects
    k, theta, mu, sig = float(k), float(theta), float(mu), float(sig)
    scope = let_eval(
        {
            "g": f"gammaDistribution({k!r}, {theta!r})",
            "ln": f"logNormalDistribution({mu!r}, {sig!r})",
            "gd": "density(g, xs)",
            "ld": "density(ln, xs)",
        },
        {"xs": np.array([10.0, 25.0, 40.0])},
    )
    return pd.DataFrame(
        {
            "x": np.array([10.0, 25.0, 40.0]),
            "k": round_sql(np.full(3, k)),
            "theta": round_sql(np.full(3, theta)),
            "mu": round_sql(np.full(3, mu)),
            "sigma": round_sql(np.full(3, sig)),
            "gamma_pdf": round_sql(scope["gd"]),
            "lognormal_pdf": round_sql(scope["ld"]),
        }
    )


QUERIES["eval_density_fits_lineitem"] = q_eval_density_fits_lineitem
ORACLE["eval_density_fits_lineitem"] = """
    WITH h AS (
      SELECT l_quantity::BIGINT AS v, count(*)::BIGINT AS c
      FROM lineitem GROUP BY 1
    ),
    mo AS (
      SELECT sum(c)::DOUBLE AS n,
             sum(v * c)::DOUBLE AS s1,
             sum(v * v * c)::DOUBLE AS s2,
             sum(ln(v::DOUBLE) * c) AS sl,
             sum(ln(v::DOUBLE) * ln(v::DOUBLE) * c) AS sl2
      FROM h
    ),
    fit AS (
      SELECT (s1 / n) * (s1 / n)
               / (s2 / n - (s1 / n) * (s1 / n)) AS k,
             (s2 / n - (s1 / n) * (s1 / n)) / (s1 / n) AS theta,
             sl / n AS mu,
             sqrt(sl2 / n - (sl / n) * (sl / n)) AS sigma
      FROM mo
    )
    SELECT x.x,
           round(f.k, 6) AS k, round(f.theta, 6) AS theta,
           round(f.mu, 6) AS mu, round(f.sigma, 6) AS sigma,
           round(exp((f.k - 1.0) * ln(x.x) - x.x / f.theta
                     - f.k * ln(f.theta) - lgamma(f.k)), 6) AS gamma_pdf,
           round(exp(-((ln(x.x) - f.mu) * (ln(x.x) - f.mu))
                     / (2.0 * f.sigma * f.sigma))
                 / (x.x * f.sigma * sqrt(2.0 * pi())), 6) AS lognormal_pdf
    FROM fit f, (VALUES (10.0), (25.0), (40.0)) x(x)
    ORDER BY x.x
"""


def q_eval_outliers_events(sf_dir: str):
    """OutliersEvaluator (`solr/solrj/.../io/eval/OutliersEvaluator.java`
    surfaces distribution-based outlier picking; the robust standard is
    Iglewicz-Hoaglin 1993's modified z-score): over the daily
    event-count series, z = 0.6745 * (x - median) / MAD, flag |z| > 3.5.
    The series reduces DISTRIBUTED to integer counts; median/MAD are
    exact (integer or half-integer) so both sides compute identical
    doubles before the one rounding."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    med = float(np.median(v))
    mad = float(np.median(np.abs(v - med)))
    if mad == 0.0:
        raise ValueError("eval_outliers: MAD = 0 (degenerate series)")
    z = np.round(0.6745 * (v - med) / mad, 6)
    return pd.DataFrame(
        {
            "y": s["y"].astype(np.int64),
            "doy": s["doy"].astype(np.int64),
            "n": s["n"].astype(np.int64),
            "mz": z,
            "outlier": (np.abs(z) > 3.5).astype(np.int64),
        }
    )


QUERIES["eval_outliers_events"] = q_eval_outliers_events
ORACLE["eval_outliers_events"] = """
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    st AS (
      SELECT median(n::DOUBLE) AS med FROM d
    ),
    st2 AS (
      SELECT median(abs(n::DOUBLE - st.med)) AS mad, st.med
      FROM d, st GROUP BY st.med
    )
    SELECT y, doy, n,
           round(0.6745 * (n::DOUBLE - med) / mad, 6) AS mz,
           (CASE WHEN abs(round(0.6745 * (n::DOUBLE - med) / mad, 6)) > 3.5
                 THEN 1 ELSE 0 END)::BIGINT AS outlier
    FROM d, st2
    ORDER BY y, doy
"""


# ---------------------------------------------------------------------------
# round-4 batch 9 (LerpEvaluator, LoessEvaluator — `solr/solrj/src/java/
# org/apache/solr/client/solrj/io/eval/{LerpEvaluator,LoessEvaluator}
# .java`): linear interpolation at query points, and LOESS degree-1
# smoothing with tricube weights over the k nearest neighbors
# (re-implemented from Cleveland 1979, the published algorithm the
# reference delegates to commons-math for).
# ---------------------------------------------------------------------------


def _loess(x, y, k: int) -> np.ndarray:
    """Per target point: bandwidth = k-th smallest |x_j - x_i|, tricube
    weights over every j within it (boundary points get weight 0 exactly,
    so distance ties at the bandwidth edge cannot change the fit), local
    weighted LINEAR fit in closed form — the exact expression tree the
    SQL oracle mirrors."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n = len(x)
    out = np.empty(n, np.float64)
    for i in range(n):
        d = np.abs(x - x[i])
        dmax = np.partition(d, k - 1)[k - 1]
        m = d <= dmax
        w = (1.0 - np.minimum(d[m] / dmax, 1.0) ** 3) ** 3
        xs, ys = x[m], y[m]
        sw = w.sum()
        swx = (w * xs).sum()
        swy = (w * ys).sum()
        swx2 = (w * xs * xs).sum()
        swxy = (w * xs * ys).sum()
        den = swx2 * sw - swx * swx
        slope = (swxy * sw - swx * swy) / den
        out[i] = (swy - slope * swx) / sw + slope * x[i]
    return out


EVALUATORS.update({
    "lerp": lambda x, y, xq: np.interp(
        np.asarray(xq, np.float64),
        np.asarray(x, np.float64),
        np.asarray(y, np.float64),
    ),
    "loess": lambda x, y, k: _loess(x, y, int(k)),
})


LOESS_K = 7


def q_eval_interp_events(sf_dir: str):
    """lerp() + loess() over the daily event-count series: the corpus
    reduces DISTRIBUTED to integer daily counts (the same 2-column small
    side every eval_* op uses); lerp resamples at inter-day midpoints
    (exact halves of integer sums) and loess(k=7) smooths the series —
    both via the evaluator registry, rounded to 6dp (weighted-regression
    sums are order-sensitive in fp; rounding is the repo's rank/score
    discipline)."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    xi = np.arange(1, len(s) + 1, dtype=np.float64)
    v = s["n"].to_numpy(np.float64)
    scope = let_eval(
        {
            "mid": "lerp(x, v, xq)",
            "smooth": f"loess(x, v, {LOESS_K})",
        },
        {"x": xi, "v": v, "xq": xi[:-1] + 0.5},
    )
    return pd.DataFrame(
        {
            "i": xi.astype(np.int64),
            "n": s["n"].astype(np.int64),
            "lerp_mid": np.round(np.append(scope["mid"], np.nan), 6),
            "loess7": np.round(scope["smooth"], 6),
        }
    )


QUERIES["eval_interp_events"] = q_eval_interp_events
ORACLE["eval_interp_events"] = f"""
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    s AS (
      SELECT n, row_number() OVER (ORDER BY y, doy) AS i FROM d
    ),
    nn AS (
      SELECT a.i AS i, b.i AS j, b.n AS nj,
             abs(b.i - a.i)::DOUBLE AS dist,
             row_number() OVER (PARTITION BY a.i
                                ORDER BY abs(b.i - a.i), b.i) AS rn
      FROM s a, s b
    ),
    bw AS (
      SELECT i, max(dist) AS dmax FROM nn WHERE rn <= {LOESS_K} GROUP BY i
    ),
    w AS (
      SELECT nn.i, nn.j::DOUBLE AS xj, nn.nj::DOUBLE AS yj,
             pow(1.0 - pow(least(nn.dist / bw.dmax, 1.0), 3), 3) AS w
      FROM nn JOIN bw USING (i) WHERE nn.dist <= bw.dmax
    ),
    fit AS (
      SELECT i, sum(w) AS sw, sum(w * xj) AS swx, sum(w * yj) AS swy,
             sum(w * xj * xj) AS swx2, sum(w * xj * yj) AS swxy
      FROM w GROUP BY i
    ),
    sm AS (
      SELECT i,
             (swy - ((swxy * sw - swx * swy) / (swx2 * sw - swx * swx))
                    * swx) / sw
             + ((swxy * sw - swx * swy) / (swx2 * sw - swx * swx))
               * i::DOUBLE AS sm
      FROM fit
    )
    SELECT s.i::BIGINT AS i, s.n::BIGINT AS n,
           round((s.n + lead(s.n) OVER (ORDER BY s.i)) / 2.0, 6) AS lerp_mid,
           round(sm.sm, 6) AS loess7
    FROM s JOIN sm USING (i)
    ORDER BY s.i
"""


# ---------------------------------------------------------------------------
# r4 batch 10 — RankTransformEvaluator + ZScoresEvaluator
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# {RankEvaluator,NormalizeEvaluator}.java`; Commons Math NaturalRanking
# with TiesStrategy.AVERAGE and StandardDeviation's bias-corrected
# sample std, the reference defaults).
# ---------------------------------------------------------------------------

def _rank_transform(v) -> np.ndarray:
    """1-based ranks, ties averaged (NaturalRanking AVERAGE)."""
    v = np.asarray(v, np.float64)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(len(v), np.float64)
    ranks[order] = np.arange(1, len(v) + 1, dtype=np.float64)
    _, inv = np.unique(v, return_inverse=True)
    sums = np.bincount(inv, weights=ranks)
    cnts = np.bincount(inv)
    return (sums / cnts)[inv]


def _zscores(v) -> np.ndarray:
    v = np.asarray(v, np.float64)
    return (v - v.mean()) / v.std(ddof=1)


EVALUATORS.update({
    "rankTransform": _rank_transform,
    "zscores": _zscores,
})


def q_eval_rank_zscore_events(sf_dir: str):
    """rankTransform() + zscores() over the daily event-count series (the
    standard distributed reduce to a small integer series, then the
    registry kernels).  Ranks on integer counts are exact halves; z
    rounds to 6dp (mean/std are fp)."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    return pd.DataFrame(
        {
            "y": s["y"].astype(np.int64),
            "doy": s["doy"].astype(np.int64),
            "n": s["n"].astype(np.int64),
            "rank": EVALUATORS["rankTransform"](v),
            "z": np.round(EVALUATORS["zscores"](v), 6),
        }
    )


QUERIES["eval_rank_zscore_events"] = q_eval_rank_zscore_events
ORACLE["eval_rank_zscore_events"] = """
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    )
    SELECT y, doy, n,
           (rank() OVER (ORDER BY n)
            + (count(*) OVER (PARTITION BY n) - 1) / 2.0) AS rank,
           round((n::DOUBLE - avg(n::DOUBLE) OVER ())
                 / stddev_samp(n::DOUBLE) OVER (), 6) AS z
    FROM d ORDER BY y, doy
"""


# ---------------------------------------------------------------------------
# r4 batch 11 — vector-distance family (`solr/solrj/src/java/org/apache/
# solr/client/solrj/io/eval/{CanberraDistanceEvaluator,
# ChebyshevDistanceEvaluator,EarthMoversDistanceEvaluator,
# HaversineMetersEvaluator}.java`).  EMD follows the commons-math3
# EarthMoversDistance recurrence (total = sum_i |cumsum(p - q)_i|);
# haversine uses the IERS mean earth radius the reference delegates to.
# ---------------------------------------------------------------------------

EARTH_RADIUS_M = 6371008.7714


def _canberra(a, b) -> float:
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    den = np.abs(a) + np.abs(b)
    num = np.abs(a - b)
    out = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return float(out.sum())


def _haversine_m(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = np.radians(float(lat1)), np.radians(float(lat2))
    dp = np.radians(float(lat2) - float(lat1))
    dl = np.radians(float(lon2) - float(lon1))
    h = (np.sin(dp / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2)
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)))


EVALUATORS.update({
    "canberraDistance": _canberra,
    "chebyshevDistance": lambda a, b: float(
        np.max(np.abs(np.asarray(a, np.float64)
                      - np.asarray(b, np.float64)))
    ),
    "earthMoversDistance": lambda a, b: float(
        np.abs(np.cumsum(np.asarray(a, np.float64)
                         - np.asarray(b, np.float64))).sum()
    ),
    "haversineMeters": _haversine_m,
})


def q_eval_vector_distances_events(sf_dir: str):
    """canberraDistance / chebyshevDistance / earthMoversDistance between
    the 'click' and 'view' daily event-count series (aligned on day,
    inner-join semantics — both types fire every day in this corpus).
    The two series reduce DISTRIBUTED to integer daily counts (one small
    groupby, same shape as every eval_* op); the distance algebra runs on
    the collected 30-point vectors.  Chebyshev and EMD are integer-exact;
    Canberra is a 30-term rational sum, rounded 6dp per the repo's
    fp-sum discipline."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
                "et": t["event_type"],
            }
        )

    s = (
        ev.filter(expr="event_type == 'click' or event_type == 'view'")
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy", "et"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    w = s.pivot_table(index=["y", "doy"], columns="et", values="n",
                      aggfunc="first").dropna().sort_index()
    a = w["click"].to_numpy(np.float64)
    b = w["view"].to_numpy(np.float64)
    scope = let_eval(
        {
            "can": "canberraDistance(a, b)",
            "che": "chebyshevDistance(a, b)",
            "emd": "earthMoversDistance(a, b)",
        },
        {"a": a, "b": b},
    )
    return pd.DataFrame(
        {
            "days": [np.int64(len(a))],
            "canberra": [round(scope["can"], 6)],
            "chebyshev": [scope["che"]],
            "emd": [scope["emd"]],
        }
    )


QUERIES["eval_vector_distances_events"] = q_eval_vector_distances_events
ORACLE["eval_vector_distances_events"] = """
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, event_type AS et,
             count(*) AS n
      FROM events WHERE event_type IN ('click', 'view')
      GROUP BY 1, 2, 3
    ),
    w AS (
      SELECT a.y, a.doy, a.n::DOUBLE AS ca, b.n::DOUBLE AS cv
      FROM d a JOIN d b USING (y, doy)
      WHERE a.et = 'click' AND b.et = 'view'
    ),
    c AS (
      SELECT y, doy, ca, cv,
             sum(ca - cv) OVER (ORDER BY y, doy) AS cum
      FROM w
    )
    SELECT count(*)::BIGINT AS days,
           round(sum(CASE WHEN abs(ca) + abs(cv) = 0 THEN 0
                          ELSE abs(ca - cv) / (abs(ca) + abs(cv)) END),
                 6) AS canberra,
           max(abs(ca - cv)) AS chebyshev,
           sum(abs(cum)) AS emd
    FROM c
"""


def q_eval_haversine_events(sf_dir: str):
    """haversineMeters() over per-type synthetic waypoints: each event
    type's (lat, lon) derives from EXACT integer aggregates
    (count, sum(user_id) — hugeint-safe on the SQL side, int64 on the
    Ray side), so both engines feed IDENTICAL doubles into the same
    haversine tree; distance to the (0, 0) reference point, rounded to
    3dp (meters)."""
    from ray.data.aggregate import Count, Sum

    ev = read_table(sf_dir, "events", ["event_type", "user_id"])
    s = (
        ev.groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("user_id", alias_name="su"))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    lat = (s["n"].to_numpy(np.int64) % 9000) / 100.0 - 45.0
    lon = (s["su"].to_numpy(np.int64) % 18000) / 100.0 - 90.0
    dist = [
        round(EVALUATORS["haversineMeters"](la, lo, 0.0, 0.0), 3)
        for la, lo in zip(lat, lon)
    ]
    return pd.DataFrame(
        {
            "event_type": s["event_type"],
            "lat": lat,
            "lon": lon,
            "meters": dist,
        }
    )


QUERIES["eval_haversine_events"] = q_eval_haversine_events
ORACLE["eval_haversine_events"] = f"""
    WITH s AS (
      SELECT event_type,
             (count(*) % 9000) / 100.0 - 45.0 AS lat,
             (sum(user_id) % 18000) / 100.0 - 90.0 AS lon
      FROM events GROUP BY event_type
    )
    SELECT event_type, lat, lon,
           round(2.0 * {EARTH_RADIUS_M!r} * asin(sqrt(
             sin(radians(0.0 - lat) / 2.0) * sin(radians(0.0 - lat) / 2.0)
             + cos(radians(lat)) * cos(radians(0.0))
               * sin(radians(0.0 - lon) / 2.0)
               * sin(radians(0.0 - lon) / 2.0))), 3) AS meters
    FROM s ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# r4 batch 12 — interpolation-FUNCTION family (`solr/solrj/src/java/org/
# apache/solr/client/solrj/io/eval/{SplineEvaluator,AkimaEvaluator,
# DerivativeEvaluator,PredictEvaluator,FindDelayEvaluator}.java`).  In the
# reference these evaluators return VectorFunctions that predict()
# evaluates — mirrored here as tagged nodes the way the distribution
# kernels already are (batch 8's density() precedent).  Spline is the
# natural cubic (second derivative 0 at both ends, the commons-math
# default); Akima follows Akima 1970 with the standard quadratic slope
# extension; derivative() is analytic per interpolator.  lerp() becomes
# polymorphic like the reference: lerp(x, y) returns the interpolating
# function, lerp(x, y, xq) keeps the batch-9 direct-evaluation form.
# ---------------------------------------------------------------------------


def _spline_node(x, y):
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n = len(x)
    h = np.diff(x)
    A = np.zeros((n, n))
    r = np.zeros(n)
    A[0, 0] = A[n - 1, n - 1] = 1.0  # natural ends: M0 = Mn-1 = 0
    for i in range(1, n - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2.0 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        r[i] = 6.0 * ((y[i + 1] - y[i]) / h[i]
                      - (y[i] - y[i - 1]) / h[i - 1])
    M = np.linalg.solve(A, r)
    return ("spline", x, y, M)


def _akima_node(x, y):
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n = len(x)
    m = np.diff(y) / np.diff(x)
    # Akima 1970 quadratic end extension: two virtual slopes each side
    me = np.empty(n + 3)
    me[2:n + 1] = m
    me[1] = 2.0 * me[2] - me[3]
    me[0] = 2.0 * me[1] - me[2]
    me[n + 1] = 2.0 * me[n] - me[n - 1]
    me[n + 2] = 2.0 * me[n + 1] - me[n]
    t = np.empty(n)
    for i in range(n):
        w1 = abs(me[i + 3] - me[i + 2])
        w2 = abs(me[i + 1] - me[i])
        t[i] = (me[i + 1] + me[i + 2]) / 2.0 if w1 + w2 == 0.0 else (
            (w1 * me[i + 1] + w2 * me[i + 2]) / (w1 + w2)
        )
    return ("akima", x, y, t)


def _segment(x, xq):
    xq = np.asarray(xq, np.float64)
    return np.clip(np.searchsorted(x, xq, side="right") - 1, 0,
                   len(x) - 2), xq


def _predict(f, xq):
    kind = f[0]
    if kind == "deriv":
        return _predict_deriv(f[1], xq)
    if kind == "lerp":
        _, x, y = f
        return np.interp(np.asarray(xq, np.float64), x, y)
    if kind == "spline":
        _, x, y, M = f
        i, xq = _segment(x, xq)
        h = x[i + 1] - x[i]
        A = (x[i + 1] - xq) / h
        B = (xq - x[i]) / h
        return (A * y[i] + B * y[i + 1]
                + ((A ** 3 - A) * M[i] + (B ** 3 - B) * M[i + 1])
                * h * h / 6.0)
    if kind == "akima":
        _, x, y, t = f
        i, xq = _segment(x, xq)
        h = x[i + 1] - x[i]
        s = (xq - x[i]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return (h00 * y[i] + h10 * h * t[i]
                + h01 * y[i + 1] + h11 * h * t[i + 1])
    raise ValueError(f"predict: unsupported function node {kind!r}")


def _predict_deriv(f, xq):
    kind = f[0]
    if kind == "lerp":
        _, x, y = f
        i, xq = _segment(x, xq)
        return (y[i + 1] - y[i]) / (x[i + 1] - x[i])
    if kind == "spline":
        _, x, y, M = f
        i, xq = _segment(x, xq)
        h = x[i + 1] - x[i]
        A = (x[i + 1] - xq) / h
        B = (xq - x[i]) / h
        return ((y[i + 1] - y[i]) / h
                - (3.0 * A * A - 1.0) * h * M[i] / 6.0
                + (3.0 * B * B - 1.0) * h * M[i + 1] / 6.0)
    if kind == "akima":
        _, x, y, t = f
        i, xq = _segment(x, xq)
        h = x[i + 1] - x[i]
        s = (xq - x[i]) / h
        d00 = (6.0 * s * s - 6.0 * s) / h
        d10 = 3.0 * s * s - 4.0 * s + 1.0
        d01 = (6.0 * s - 6.0 * s * s) / h
        d11 = 3.0 * s * s - 2.0 * s
        return (d00 * y[i] / 1.0 + d10 * t[i]
                + d01 * y[i + 1] + d11 * t[i + 1])
    raise ValueError(f"derivative: unsupported function node {kind!r}")


def _finddelay(a, b) -> int:
    """delay d maximizing the zero-padded cross-correlation
    sum_i a[i] * b[i + d] over d in [-(n-1), n-1]; smallest d wins ties
    (the reference's convolution-argmax semantics with a deterministic
    tiebreak)."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    c = np.correlate(b, a, mode="full")  # index k -> d = k - (len(a)-1)
    best = int(np.argmax(c))  # argmax returns FIRST max = smallest d
    return best - (len(a) - 1)


def _lerp_poly(x, y, xq=None):
    if xq is None:
        return ("lerp", np.asarray(x, np.float64),
                np.asarray(y, np.float64))
    return np.interp(np.asarray(xq, np.float64),
                     np.asarray(x, np.float64),
                     np.asarray(y, np.float64))


EVALUATORS.update({
    "lerp": _lerp_poly,
    "spline": _spline_node,
    "akima": _akima_node,
    "derivative": lambda f: ("deriv", f),
    "predict": _predict,
    "finddelay": _finddelay,
})


def q_eval_spline_knots_events(sf_dir: str):
    """spline()/akima()/derivative(lerp()) over the daily event-count
    series with x = day index: interpolants evaluated AT THE KNOTS (both
    pass through them exactly — the property the SQL oracle pins;
    between-knot values and analytic derivatives are pinned by pytest
    goldens against hand-derived closed forms), and the lerp derivative
    sampled at segment midpoints (= the exact forward difference, h=1).
    One distributed groupby to the 30-point small side, as every eval_*
    op."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    v = s["n"].to_numpy(np.float64)
    x = np.arange(1, len(v) + 1, dtype=np.float64)
    scope = let_eval(
        {
            "spl": "predict(spline(x, v), x)",
            "aki": "predict(akima(x, v), x)",
            "dmid": "predict(derivative(lerp(x, v)), xm)",
        },
        {"x": x, "v": v, "xm": x[:-1] + 0.5},
    )
    return pd.DataFrame(
        {
            "y": s["y"].astype(np.int64),
            "doy": s["doy"].astype(np.int64),
            "n": s["n"].astype(np.int64),
            "spl": scope["spl"],
            "aki": scope["aki"],
            "dmid": np.append(scope["dmid"], np.nan),
        }
    )


QUERIES["eval_spline_knots_events"] = q_eval_spline_knots_events
ORACLE["eval_spline_knots_events"] = """
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    )
    SELECT y, doy, n,
           n::DOUBLE AS spl,
           n::DOUBLE AS aki,
           lead(n::DOUBLE) OVER (ORDER BY y, doy) - n::DOUBLE AS dmid
    FROM d ORDER BY y, doy
"""


FD_SHIFT = 3


def q_eval_finddelay_events(sf_dir: str):
    """finddelay() between the daily event-count series and its
    {FD_SHIFT}-day zero-padded lag: the recovered delay must equal the
    injected shift, with the integer-exact correlation peak alongside.
    The series reduces DISTRIBUTED; the correlation runs on the 30-point
    small side."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    a = s["n"].to_numpy(np.float64)
    b = np.concatenate([np.zeros(FD_SHIFT), a[:-FD_SHIFT]])
    d = EVALUATORS["finddelay"](a, b)
    peak = float((a[: len(a) - d] * b[d:]).sum()) if d >= 0 else float(
        (a[-d:] * b[: len(b) + d]).sum()
    )
    return pd.DataFrame(
        {"delay": [np.int64(d)], "peak": [np.int64(peak)]}
    )


QUERIES["eval_finddelay_events"] = q_eval_finddelay_events
ORACLE["eval_finddelay_events"] = f"""
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, count(*) AS n
      FROM events GROUP BY 1, 2
    ),
    s AS (
      SELECT row_number() OVER (ORDER BY y, doy) AS i, n,
             coalesce(lag(n, {FD_SHIFT}) OVER (ORDER BY y, doy), 0) AS b
      FROM d
    ),
    ks AS (SELECT unnest(range(1 - (SELECT count(*) FROM s),
                               (SELECT count(*) FROM s))) AS k),
    xc AS (
      SELECT ks.k, coalesce(sum(a.n * b.b), 0) AS score
      FROM ks LEFT JOIN s a ON TRUE
              LEFT JOIN s b ON b.i = a.i + ks.k
      GROUP BY ks.k
    )
    SELECT k::BIGINT AS delay, score::BIGINT AS peak
    FROM xc ORDER BY score DESC, k ASC LIMIT 1
"""


# ---------------------------------------------------------------------------
# r4 batch 13 — ML-wrapper evaluators (`solr/solrj/src/java/org/apache/
# solr/client/solrj/io/eval/{KnnEvaluator,KmeansEvaluator,
# GetCentroidsEvaluator,GetClusterEvaluator}.java`).  These run on the
# small collected side inside let() in the reference too — the
# corpus-scale counterparts live in rindex/ops/ann.py (IVF quantizer,
# distributed assignment); these kernels are the matrix-algebra surface.
# kmeans uses DETERMINISTIC farthest-first init (first row, then
# iteratively the row farthest from its nearest chosen center; ties ->
# lowest index) instead of the reference's random seeding — documented
# divergence, required by the repo's bit-determinism contract.
# ---------------------------------------------------------------------------


def _knn_idx(M, q, k):
    M = np.asarray(M, np.float64)
    q = np.asarray(q, np.float64)
    d2 = ((M - q[None, :]) ** 2).sum(axis=1)
    k = int(k)
    # stable argsort -> ties break toward the lower row index
    return np.argsort(d2, kind="stable")[:k].astype(np.int64)


def _kmeans_fit(M, k, iters=20):
    M = np.asarray(M, np.float64)
    k = int(k)
    # farthest-first traversal init (Gonzalez 1985), fully deterministic
    centers = [0]
    d = ((M - M[0][None, :]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d))  # first max -> lowest index on ties
        centers.append(nxt)
        d = np.minimum(d, ((M - M[nxt][None, :]) ** 2).sum(axis=1))
    C = M[np.array(centers)]
    for _ in range(int(iters)):
        d2 = ((M[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        lab = np.argmin(d2, axis=1)  # ties -> lowest cluster id
        newC = np.stack([
            M[lab == j].mean(axis=0) if np.any(lab == j) else C[j]
            for j in range(k)
        ])
        if np.array_equal(newC, C):
            break
        C = newC
    return ("kmeans", C, lab.astype(np.int64))


EVALUATORS.update({
    "knn": _knn_idx,
    "kmeans": _kmeans_fit,
    "getCentroids": lambda m: m[1],
    "getCluster": lambda m, j: np.flatnonzero(m[2] == int(j)).astype(
        np.int64
    ),
})


KNN_K = 5


def q_eval_knn_days_events(sf_dir: str):
    """knn() over the day x event-type count matrix: which {k} earlier
    days look most like the LAST day (euclidean over the 5-type count
    vector)?  The matrix reduces DISTRIBUTED to 30 x 5 integers (one
    small groupby — the evaluator runs on the collected side exactly as
    the reference's let() does); squared distances are integer-exact so
    the ranking is exact, sqrt rounded 6dp."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
                "et": t["event_type"],
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy", "et"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    w = (
        s.pivot_table(index=["y", "doy"], columns="et", values="n",
                      aggfunc="first")
        .fillna(0.0)
        .sort_index()
    )
    w = w[sorted(w.columns)]
    M = w.to_numpy(np.float64)
    q = M[-1]
    idx = EVALUATORS["knn"](M[:-1], q, KNN_K)
    keys = w.index.to_numpy()[idx]
    d = np.sqrt(((M[:-1][idx] - q[None, :]) ** 2).sum(axis=1))
    return pd.DataFrame(
        {
            "y": np.array([k[0] for k in keys], np.int64),
            "doy": np.array([k[1] for k in keys], np.int64),
            "dist": np.round(d, 6),
        }
    )


q_eval_knn_days_events.__doc__ = q_eval_knn_days_events.__doc__.format(
    k=KNN_K
)

QUERIES["eval_knn_days_events"] = q_eval_knn_days_events
ORACLE["eval_knn_days_events"] = f"""
    WITH d AS (
      SELECT year(ts) AS y, dayofyear(ts) AS doy, event_type AS et,
             count(*) AS n
      FROM events GROUP BY 1, 2, 3
    ),
    v AS (
      SELECT y, doy,
             coalesce(sum(n) FILTER (et = 'click'), 0) AS c1,
             coalesce(sum(n) FILTER (et = 'error'), 0) AS c2,
             coalesce(sum(n) FILTER (et = 'purchase'), 0) AS c3,
             coalesce(sum(n) FILTER (et = 'signup'), 0) AS c4,
             coalesce(sum(n) FILTER (et = 'view'), 0) AS c5
      FROM d GROUP BY y, doy
    ),
    lastday AS (
      SELECT * FROM v ORDER BY y DESC, doy DESC LIMIT 1
    )
    SELECT v.y, v.doy,
           round(sqrt((v.c1 - l.c1) * (v.c1 - l.c1)
                      + (v.c2 - l.c2) * (v.c2 - l.c2)
                      + (v.c3 - l.c3) * (v.c3 - l.c3)
                      + (v.c4 - l.c4) * (v.c4 - l.c4)
                      + (v.c5 - l.c5) * (v.c5 - l.c5)), 6) AS dist
    FROM v, lastday l
    WHERE NOT (v.y = l.y AND v.doy = l.doy)
    ORDER BY (v.c1 - l.c1) * (v.c1 - l.c1)
             + (v.c2 - l.c2) * (v.c2 - l.c2)
             + (v.c3 - l.c3) * (v.c3 - l.c3)
             + (v.c4 - l.c4) * (v.c4 - l.c4)
             + (v.c5 - l.c5) * (v.c5 - l.c5) ASC,
             v.y ASC, v.doy ASC
    LIMIT {KNN_K}
"""


# ---------------------------------------------------------------------------
# Batch 14 — multivariate OLS + harmonic fit (r4 continuation)
# ---------------------------------------------------------------------------


def _cramer3(m, v):
    """Solve the 3x3 system m @ beta = v by Cramer's rule with the SAME
    expansion order the oracle SQL spells out (term-for-term mirror — the
    exactness discipline every eval_* op follows)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    def rep(col):
        mm = [list(r) for r in m]
        for r, val in zip(mm, v):
            r[col] = val
        (a, b, c), (d, e, f), (g, h, i) = mm
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return rep(0) / det, rep(1) / det, rep(2) / det


def q_eval_ols_multi_lineitem(sf_dir: str):
    """olsRegress()/predict() — multivariate OLS
    (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
    {OLSRegressionEvaluator,PredictEvaluator}.java`):
    l_extendedprice ~ l_quantity + l_discount with intercept, solved from
    DISTRIBUTED moment partials (n, Σx1, Σx2, Σy, Σx1², Σx1x2, Σx2², Σx1y,
    Σx2y, Σy²) via a 3x3 Cramer solve — the table never leaves the
    workers; the oracle unrolls the identical normal equations in SQL.
    Also reports R² from the same sums (rSquared evaluator)."""
    li = read_table(
        sf_dir, "lineitem", ["l_quantity", "l_discount", "l_extendedprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        x1 = t["l_quantity"].to_numpy().astype(np.float64)
        x2 = t["l_discount"].to_numpy().astype(np.float64)
        y = t["l_extendedprice"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "n": [float(len(y))],
                "s1": [x1.sum()], "s2": [x2.sum()], "sy": [y.sum()],
                "s11": [(x1 * x1).sum()], "s12": [(x1 * x2).sum()],
                "s22": [(x2 * x2).sum()],
                "s1y": [(x1 * y).sum()], "s2y": [(x2 * y).sum()],
                "syy": [(y * y).sum()],
            }
        )

    p = li.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n, s1, s2, sy = p["n"], p["s1"], p["s2"], p["sy"]
    s11, s12, s22, s1y, s2y, syy = (
        p["s11"], p["s12"], p["s22"], p["s1y"], p["s2y"], p["syy"]
    )
    b0, b1, b2 = _cramer3(
        [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]], [sy, s1y, s2y]
    )
    sse = syy - b0 * sy - b1 * s1y - b2 * s2y
    sst = syy - sy * sy / n
    return pd.DataFrame(
        {
            "n": [int(n)],
            "b0": [round(float(b0), 4)],
            "b_qty": [round(float(b1), 4)],
            "b_disc": [round(float(b2), 4)],
            "r2": [round(float(1.0 - sse / sst), 6)],
            "predict_30_005": [
                round(float(b0 + b1 * 30.0 + b2 * 0.05), 4)
            ],
        }
    )


QUERIES["eval_ols_multi_lineitem"] = q_eval_ols_multi_lineitem
ORACLE["eval_ols_multi_lineitem"] = """
    WITH s AS (
      SELECT count(*)::DOUBLE AS n,
             sum(l_quantity::DOUBLE) AS s1,
             sum(l_discount::DOUBLE) AS s2,
             sum(l_extendedprice::DOUBLE) AS sy,
             sum(l_quantity::DOUBLE * l_quantity::DOUBLE) AS s11,
             sum(l_quantity::DOUBLE * l_discount::DOUBLE) AS s12,
             sum(l_discount::DOUBLE * l_discount::DOUBLE) AS s22,
             sum(l_quantity::DOUBLE * l_extendedprice::DOUBLE) AS s1y,
             sum(l_discount::DOUBLE * l_extendedprice::DOUBLE) AS s2y,
             sum(l_extendedprice::DOUBLE * l_extendedprice::DOUBLE) AS syy
      FROM lineitem
    ),
    d AS (
      SELECT *,
        n  * (s11 * s22 - s12 * s12)
      - s1 * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s12 - s11 * s2)  AS det,
        sy  * (s11 * s22 - s12 * s12)
      - s1  * (s1y * s22 - s12 * s2y)
      + s2  * (s1y * s12 - s11 * s2y) AS det0,
        n  * (s1y * s22 - s12 * s2y)
      - sy * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s2y - s1y * s2)   AS det1,
        n  * (s11 * s2y - s1y * s12)
      - s1 * (s1  * s2y - s1y * s2)
      + sy * (s1  * s12 - s11 * s2)   AS det2
      FROM s
    )
    SELECT n::BIGINT AS n,
           round(det0 / det, 4) AS b0,
           round(det1 / det, 4) AS b_qty,
           round(det2 / det, 4) AS b_disc,
           round(1.0 - (syy - (det0 / det) * sy - (det1 / det) * s1y
                        - (det2 / det) * s2y)
                       / (syy - sy * sy / n), 6) AS r2,
           round(det0 / det + (det1 / det) * 30.0
                 + (det2 / det) * 0.05, 4) AS predict_30_005
    FROM d
"""


HARMFIT_PERIOD = 7.0  # weekly harmonic over the daily series


def q_eval_harmfit_events(sf_dir: str):
    """harmfit() (`solr/solrj/.../io/eval/HarmonicFitEvaluator.java`):
    least-squares fit of y = b0 + b1*sin(wt) + b2*cos(wt) with fixed
    weekly w = 2*pi/7 over the daily event-count series.  The fit is
    LINEAR in (sin, cos) so the same 3x3 Cramer solve as olsRegress
    applies; the series reduces distributed (groupby day -> integer
    counts) and both sides evaluate sin/cos at the same integer day
    indexes.  Reports amplitude sqrt(b1^2+b2^2) and phase atan2(b2,b1)."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(["y", "doy"])
        .reset_index(drop=True)
    )
    t = np.arange(1, len(s) + 1, dtype=np.float64)
    yv = s["n"].to_numpy(np.float64)
    w = 2.0 * np.pi / HARMFIT_PERIOD
    x1 = np.sin(w * t)
    x2 = np.cos(w * t)
    n = float(len(t))
    s1, s2, sy = x1.sum(), x2.sum(), yv.sum()
    s11, s12, s22 = (x1 * x1).sum(), (x1 * x2).sum(), (x2 * x2).sum()
    s1y, s2y = (x1 * yv).sum(), (x2 * yv).sum()
    b0, b1, b2 = _cramer3(
        [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]], [sy, s1y, s2y]
    )
    return pd.DataFrame(
        {
            "n_days": [int(n)],
            "b0": [round(float(b0), 6)],
            "b_sin": [round(float(b1), 6)],
            "b_cos": [round(float(b2), 6)],
            "amplitude": [round(float(np.sqrt(b1 * b1 + b2 * b2)), 6)],
            "phase": [round(float(np.arctan2(b2, b1)), 6)],
        }
    )


QUERIES["eval_harmfit_events"] = q_eval_harmfit_events
ORACLE["eval_harmfit_events"] = f"""
    WITH d AS (
      SELECT year(ts) AS yy, dayofyear(ts) AS doy, count(*)::DOUBLE AS n
      FROM events GROUP BY 1, 2
    ),
    ser AS (
      SELECT n, row_number() OVER (ORDER BY yy, doy)::DOUBLE AS t FROM d
    ),
    tr AS (
      SELECT n AS yv,
             sin(2 * pi() / {HARMFIT_PERIOD} * t) AS x1,
             cos(2 * pi() / {HARMFIT_PERIOD} * t) AS x2
      FROM ser
    ),
    s AS (
      SELECT count(*)::DOUBLE AS n, sum(x1) AS s1, sum(x2) AS s2,
             sum(yv) AS sy, sum(x1 * x1) AS s11, sum(x1 * x2) AS s12,
             sum(x2 * x2) AS s22, sum(x1 * yv) AS s1y, sum(x2 * yv) AS s2y
      FROM tr
    ),
    dd AS (
      SELECT *,
        n  * (s11 * s22 - s12 * s12)
      - s1 * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s12 - s11 * s2)  AS det,
        sy  * (s11 * s22 - s12 * s12)
      - s1  * (s1y * s22 - s12 * s2y)
      + s2  * (s1y * s12 - s11 * s2y) AS det0,
        n  * (s1y * s22 - s12 * s2y)
      - sy * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s2y - s1y * s2)   AS det1,
        n  * (s11 * s2y - s1y * s12)
      - s1 * (s1  * s2y - s1y * s2)
      + sy * (s1  * s12 - s11 * s2)   AS det2
      FROM s
    )
    SELECT n::BIGINT AS n_days,
           round(det0 / det, 6) AS b0,
           round(det1 / det, 6) AS b_sin,
           round(det2 / det, 6) AS b_cos,
           round(sqrt((det1 / det) * (det1 / det)
                      + (det2 / det) * (det2 / det)), 6) AS amplitude,
           round(atan2(det2 / det, det1 / det), 6) AS phase
    FROM dd
"""


# ---------------------------------------------------------------------------
# Batch 15 — corrMatrix + frequencyTable
# ---------------------------------------------------------------------------


def q_eval_corr_matrix_events(sf_dir: str):
    """corr() with a MATRIX argument (`solr/solrj/.../io/eval/
    CorrelationEvaluator.java` matrix mode): the pairwise Pearson matrix
    of the per-event-type daily count series.  The day x type table
    reduces DISTRIBUTED (one groupby, integer counts; missing days fill
    0); the pairwise pass runs on the driver over the tiny pivot with
    the SAME integer moment sums the SQL mirror unrolls (n*sxy-sx*sy
    over sqrt terms) — all sums are exact int64, so values match
    bit-for-bit before the 6dp round.  Long-form upper triangle out."""
    from ray.data.aggregate import Count

    ev = read_table(sf_dir, "events", ["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        idx = _dtidx(t["ts"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "y": pa.array(idx.year.to_numpy().astype(np.int64)),
                "doy": pa.array(idx.dayofyear.to_numpy().astype(np.int64)),
                "event_type": t["event_type"],
            }
        )

    s = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["y", "doy", "event_type"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    piv = (
        s.pivot_table(
            index=["y", "doy"], columns="event_type", values="n",
            fill_value=0, aggfunc="sum",
        )
        .sort_index()
    )
    types = sorted(piv.columns)
    n = float(len(piv))
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x = piv[ta].to_numpy(np.float64)
            yv = piv[tb].to_numpy(np.float64)
            sx, sy = x.sum(), yv.sum()
            sxy = float((x * yv).sum())
            sxx, syy = float((x * x).sum()), float((yv * yv).sum())
            c = (n * sxy - sx * sy) / np.sqrt(
                (n * sxx - sx * sx) * (n * syy - sy * sy)
            )
            rows.append((ta, tb, round(float(c), 6)))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "corr"])


QUERIES["eval_corr_matrix_events"] = q_eval_corr_matrix_events
ORACLE["eval_corr_matrix_events"] = """
    WITH d AS (
      SELECT year(ts) AS yy, dayofyear(ts) AS doy, event_type,
             count(*)::BIGINT AS n
      FROM events GROUP BY 1, 2, 3
    ),
    spine AS (SELECT DISTINCT yy, doy FROM d),
    types AS (SELECT DISTINCT event_type FROM d),
    grid AS (
      SELECT s.yy, s.doy, t.event_type, coalesce(d.n, 0)::DOUBLE AS n
      FROM spine s CROSS JOIN types t
      LEFT JOIN d ON d.yy = s.yy AND d.doy = s.doy
                 AND d.event_type = t.event_type
    ),
    pairs AS (
      SELECT a.event_type AS type_a, b.event_type AS type_b,
             count(*)::DOUBLE AS n,
             sum(a.n) AS sx, sum(b.n) AS sy, sum(a.n * b.n) AS sxy,
             sum(a.n * a.n) AS sxx, sum(b.n * b.n) AS syy
      FROM grid a
      JOIN grid b ON a.yy = b.yy AND a.doy = b.doy
                 AND a.event_type < b.event_type
      GROUP BY 1, 2
    )
    SELECT type_a, type_b,
           round((n * sxy - sx * sy)
                 / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 6)
             AS corr
    FROM pairs ORDER BY type_a, type_b
"""


def q_eval_freq_table_lineitem(sf_dir: str):
    """freqTable() (`solr/solrj/.../io/eval/FrequencyTableEvaluator.java`):
    the value/count/pct/cumFreq/cumPct table over l_quantity — integer
    counts reduce distributed (per-batch value_counts partials, one tiny
    groupby over the 50 distinct values), percentages and cumulative
    columns derive on the driver with the SAME division order as the SQL
    window mirror."""
    li = read_table(sf_dir, "lineitem", ["l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(t["l_quantity"].combine_chunks())
        return pa.table(
            {
                "value": pc.cast(vc.field("values"), pa.int64()),
                "n": vc.field("counts"),
            }
        )

    s = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("value")
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values("value")
        .reset_index(drop=True)
    )
    total = float(s["n"].sum())
    cum = s["n"].cumsum()
    return pd.DataFrame(
        {
            "value": s["value"].astype("int64"),
            "n": s["n"].astype("int64"),
            "pct": (s["n"].to_numpy(np.float64) / total).round(6),
            "cum_freq": cum.astype("int64"),
            "cum_pct": (cum.to_numpy(np.float64) / total).round(6),
        }
    )


QUERIES["eval_freq_table_lineitem"] = q_eval_freq_table_lineitem
ORACLE["eval_freq_table_lineitem"] = """
    WITH f AS (
      SELECT l_quantity::BIGINT AS value, count(*)::BIGINT AS n
      FROM lineitem GROUP BY 1
    ),
    t AS (SELECT sum(n)::DOUBLE AS total FROM f)
    SELECT value, n,
           round(n / total, 6) AS pct,
           sum(n) OVER (ORDER BY value)::BIGINT AS cum_freq,
           round(sum(n) OVER (ORDER BY value) / total, 6) AS cum_pct
    FROM f CROSS JOIN t ORDER BY value
"""


# ---------------------------------------------------------------------------
# Batch 16 — dbscan() ML-wrapper evaluator
# ---------------------------------------------------------------------------

DBS_N = 500           # bounded evaluator sample (vec_id < DBS_N), all scales
DBS_EPS2 = 1_420_000  # squared-L2 threshold on the floor(x*1000) int grid
DBS_MINPTS = 8        # core iff >= this many OTHER points within eps


def q_eval_dbscan_embeddings(sf_dir: str):
    """dbscan() (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
    DbscanEvaluator.java`, backed by commons-math DBSCANClusterer): density
    clustering over a BOUNDED evaluator sample (vec_id < {DBS_N} — the
    reference evaluator likewise runs on an in-memory let() matrix, never
    the corpus).  EXACT contract: dims quantize to floor(x*1000) ints, so
    every pairwise squared distance is an exact integer and the
    core/border/noise partition is bit-deterministic on both sides.
    Cluster id = min core vec_id of the component (the SQL mirror's
    recursive min-label propagation); border points join the MIN cluster
    among their core neighbors.  Output: per cluster core/border counts,
    plus a -1 noise row."""
    emb = (
        read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
        .filter(expr=f"vec_id < {DBS_N}")
        .to_pandas()
        .sort_values("vec_id")
    )
    ids = emb["vec_id"].to_numpy(np.int64)
    E = np.floor(
        np.stack(emb["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)
    n = len(ids)
    sq = np.einsum("ij,ij->i", E, E)
    d2 = sq[:, None] + sq[None, :] - 2 * (E @ E.T)
    nb = (d2 <= DBS_EPS2) & ~np.eye(n, dtype=bool)
    core = nb.sum(axis=1) >= DBS_MINPTS
    # union-find over core-core eps edges
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ci = np.flatnonzero(core)
    for a in ci:
        for b in ci[ci > a]:
            if nb[a, b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    # cluster label = min core vec_id in the component
    comp_min: dict[int, int] = {}
    for a in ci:
        r = find(a)
        comp_min[r] = min(comp_min.get(r, 1 << 62), int(ids[a]))
    core_label = {int(ids[a]): comp_min[find(a)] for a in ci}
    rows: dict[int, list] = {}
    n_noise = 0
    for i in range(n):
        if core[i]:
            lab = core_label[int(ids[i])]
            rows.setdefault(lab, [0, 0])[0] += 1
        else:
            neigh_cores = [
                core_label[int(ids[j])]
                for j in np.flatnonzero(nb[i] & core)
            ]
            if neigh_cores:
                rows.setdefault(min(neigh_cores), [0, 0])[1] += 1
            else:
                n_noise += 1
    out = pd.DataFrame(
        {
            "cluster_id": sorted(rows),
            "n_core": [rows[c][0] for c in sorted(rows)],
            "n_border": [rows[c][1] for c in sorted(rows)],
        }
    )
    noise = pd.DataFrame(
        {"cluster_id": [-1], "n_core": [0], "n_border": [n_noise]}
    )
    return (
        pd.concat([noise, out], ignore_index=True)
        .astype({"cluster_id": "int64", "n_core": "int64",
                 "n_border": "int64"})
    )


QUERIES["eval_dbscan_embeddings"] = q_eval_dbscan_embeddings
ORACLE["eval_dbscan_embeddings"] = f"""
    WITH u AS (
      SELECT vec_id, generate_subscripts(embedding, 1) AS i,
             floor(unnest(embedding)::DOUBLE * 1000.0)::BIGINT AS m
      FROM embeddings WHERE vec_id < {DBS_N}
    ),
    sq AS (SELECT vec_id, sum(m * m)::BIGINT AS s2 FROM u GROUP BY vec_id),
    dots AS (
      SELECT a.vec_id AS x, b.vec_id AS y, sum(a.m * b.m)::BIGINT AS d
      FROM u a JOIN u b ON a.i = b.i AND a.vec_id <> b.vec_id
      GROUP BY 1, 2
    ),
    nbr AS (
      SELECT d.x, d.y
      FROM dots d JOIN sq sa ON sa.vec_id = d.x
      JOIN sq sb ON sb.vec_id = d.y
      WHERE sa.s2 + sb.s2 - 2 * d.d <= {DBS_EPS2}
    ),
    cores AS (
      SELECT x AS n FROM nbr GROUP BY x HAVING count(*) >= {DBS_MINPTS}
    ),
    core_edges AS (
      SELECT nbr.x AS a, nbr.y AS b FROM nbr
      JOIN cores ca ON ca.n = nbr.x JOIN cores cb ON cb.n = nbr.y
    ),
    reach AS (
      WITH RECURSIVE r(n, l) AS (
        SELECT n, n FROM cores
        UNION
        SELECT e.b, r.l FROM r JOIN core_edges e ON e.a = r.n
      ) SELECT * FROM r
    ),
    core_label AS (SELECT n, min(l) AS cl FROM reach GROUP BY n),
    border AS (
      SELECT nbr.x AS n, min(core_label.cl) AS cl
      FROM nbr JOIN core_label ON core_label.n = nbr.y
      WHERE nbr.x NOT IN (SELECT n FROM cores)
      GROUP BY nbr.x
    ),
    clusters AS (
      SELECT cl AS cluster_id,
             count(*)::BIGINT AS n_core, 0::BIGINT AS n_border
      FROM core_label GROUP BY cl
      UNION ALL
      SELECT cl, 0, count(*)::BIGINT FROM border GROUP BY cl
    ),
    agg AS (
      SELECT cluster_id, sum(n_core)::BIGINT AS n_core,
             sum(n_border)::BIGINT AS n_border
      FROM clusters GROUP BY cluster_id
    ),
    noise AS (
      SELECT -1::BIGINT AS cluster_id, 0::BIGINT AS n_core,
             (SELECT count(*) FROM sq)::BIGINT
             - (SELECT count(*) FROM core_label)
             - (SELECT count(*) FROM border) AS n_border
    )
    SELECT * FROM noise
    UNION ALL
    SELECT * FROM agg ORDER BY cluster_id
"""


def q_eval_gaussfit_lineitem(sf_dir: str):
    """gaussfit() (`solr/solrj/.../io/eval/GaussFitEvaluator.java`):
    Caruana's algorithm — fit a parabola to (value, ln count) of the
    l_quantity frequency table; the Gaussian parameters follow from the
    quadratic coefficients (mu = -b1/2b2, the fitted log-peak).  Counts
    reduce DISTRIBUTED (the freqTable partials); the 3x3 Cramer solve is
    the same term-for-term SQL mirror as olsRegress/harmfit.  Reported:
    coefficients, fitted peak location, and log-amplitude at the peak
    (b0 - b1^2/(4 b2)) — sigma is left implicit because the synthetic
    distribution is near-uniform (b2 may be nonnegative) and sqrt of a
    sign-unstable quantity would be NaN-fragile on both sides."""
    li = read_table(sf_dir, "lineitem", ["l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(t["l_quantity"].combine_chunks())
        return pa.table(
            {
                "value": pc.cast(vc.field("values"), pa.int64()),
                "n": vc.field("counts"),
            }
        )

    s = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("value")
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values("value")
        .reset_index(drop=True)
    )
    x = s["value"].to_numpy(np.float64)
    ly = np.log(s["n"].to_numpy(np.float64))
    x2 = x * x
    n = float(len(x))
    s1, s2, sy = x.sum(), x2.sum(), ly.sum()
    s11, s12, s22 = (x * x).sum(), (x * x2).sum(), (x2 * x2).sum()
    s1y, s2y = (x * ly).sum(), (x2 * ly).sum()
    b0, b1, b2 = _cramer3(
        [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]], [sy, s1y, s2y]
    )
    return pd.DataFrame(
        {
            "n_bins": [int(n)],
            "b0": [round(float(b0), 6)],
            "b1": [round(float(b1), 6)],
            "b2": [round(float(b2), 6)],
            "peak_x": [round(float(-b1 / (2.0 * b2)), 6)],
            "log_amp": [round(float(b0 - b1 * b1 / (4.0 * b2)), 6)],
        }
    )


QUERIES["eval_gaussfit_lineitem"] = q_eval_gaussfit_lineitem
ORACLE["eval_gaussfit_lineitem"] = """
    WITH f AS (
      SELECT l_quantity::DOUBLE AS x, count(*)::BIGINT AS cnt
      FROM lineitem GROUP BY 1
    ),
    tr AS (SELECT x, x * x AS xx, ln(cnt::DOUBLE) AS ly FROM f),
    s AS (
      SELECT count(*)::DOUBLE AS n, sum(x) AS s1, sum(xx) AS s2,
             sum(ly) AS sy, sum(x * x) AS s11, sum(x * xx) AS s12,
             sum(xx * xx) AS s22, sum(x * ly) AS s1y, sum(xx * ly) AS s2y
      FROM tr
    ),
    dd AS (
      SELECT *,
        n  * (s11 * s22 - s12 * s12)
      - s1 * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s12 - s11 * s2)  AS det,
        sy  * (s11 * s22 - s12 * s12)
      - s1  * (s1y * s22 - s12 * s2y)
      + s2  * (s1y * s12 - s11 * s2y) AS det0,
        n  * (s1y * s22 - s12 * s2y)
      - sy * (s1  * s22 - s12 * s2)
      + s2 * (s1  * s2y - s1y * s2)   AS det1,
        n  * (s11 * s2y - s1y * s12)
      - s1 * (s1  * s2y - s1y * s2)
      + sy * (s1  * s12 - s11 * s2)   AS det2
      FROM s
    )
    SELECT n::BIGINT AS n_bins,
           round(det0 / det, 6) AS b0,
           round(det1 / det, 6) AS b1,
           round(det2 / det, 6) AS b2,
           round(-(det1 / det) / (2.0 * (det2 / det)), 6) AS peak_x,
           round(det0 / det
                 - (det1 / det) * (det1 / det)
                   / (4.0 * (det2 / det)), 6) AS log_amp
    FROM dd
"""


def q_eval_precision_recall_documents(sf_dir: str):
    """precision()/recall()/f1() evaluators (`solr/solrj/.../io/eval/
    {PrecisionEvaluator,RecallEvaluator,F1Evaluator}.java` semantics over
    a confusion matrix): ground truth = doc is 'long' (n_chars >= 190),
    prediction = a deterministic proxy rule (doc_id % 10 < 7 predicts
    long).  The confusion matrix reduces DISTRIBUTED as four additive
    partial counts; P/R/F1 derive on the driver with the SQL mirror's
    division order.  Exact: integer counts, identical float divisions."""
    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        truth = t["n_chars"].to_numpy() >= 190
        pred = ids % 10 < 7
        return pa.table(
            {
                "tp": [int((truth & pred).sum())],
                "fp": [int((~truth & pred).sum())],
                "fn": [int((truth & ~pred).sum())],
                "tn": [int((~truth & ~pred).sum())],
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    tp, fp, fn, tn = (
        float(p["tp"]), float(p["fp"]), float(p["fn"]), float(p["tn"])
    )
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return pd.DataFrame(
        {
            "tp": [int(tp)], "fp": [int(fp)],
            "fn": [int(fn)], "tn": [int(tn)],
            "precision": [round(prec, 6)],
            "recall": [round(rec, 6)],
            "f1": [round(2.0 * prec * rec / (prec + rec), 6)],
        }
    )


QUERIES["eval_precision_recall_documents"] = q_eval_precision_recall_documents
ORACLE["eval_precision_recall_documents"] = """
    WITH c AS (
      SELECT
        sum(CASE WHEN n_chars >= 190 AND doc_id % 10 < 7
                 THEN 1 ELSE 0 END)::BIGINT AS tp,
        sum(CASE WHEN n_chars < 190 AND doc_id % 10 < 7
                 THEN 1 ELSE 0 END)::BIGINT AS fp,
        sum(CASE WHEN n_chars >= 190 AND doc_id % 10 >= 7
                 THEN 1 ELSE 0 END)::BIGINT AS fn,
        sum(CASE WHEN n_chars < 190 AND doc_id % 10 >= 7
                 THEN 1 ELSE 0 END)::BIGINT AS tn
      FROM documents
    )
    SELECT tp, fp, fn, tn,
           round(tp::DOUBLE / (tp + fp), 6) AS precision,
           round(tp::DOUBLE / (tp + fn), 6) AS recall,
           round(2.0 * (tp::DOUBLE / (tp + fp)) * (tp::DOUBLE / (tp + fn))
                 / ((tp::DOUBLE / (tp + fp)) + (tp::DOUBLE / (tp + fn))),
                 6) AS f1
    FROM c
"""


# ---------------------------------------------------------------------------
# Batch 17 (r5) — descriptive stats, ANOVA, paired t, array builders
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# DescribeEvaluator.java, ModeEvaluator.java, AnovaEvaluator.java,
# PairedTTestEvaluator.java, CopyOfEvaluator.java, CopyOfRangeEvaluator.java,
# AddAllEvaluator.java, NaturalEvaluator.java, RepeatEvaluator.java,
# ZerosEvaluator.java, OnesEvaluator.java, FactorialEvaluator.java,
# ConstantDistributionEvaluator.java`)
# ---------------------------------------------------------------------------


def _copy_of(arr, n=None) -> np.ndarray:
    """Java Arrays.copyOf: the first n values, zero-padded past the end."""
    a = np.asarray(arr, np.float64)
    out = np.zeros(len(a) if n is None else int(n), np.float64)
    out[: len(a)] = a[: len(out)]
    return out


def _describe(v):
    """DescribeEvaluator: the commons-math DescriptiveStatistics map
    (N/min/max/sum/mean/var/stddev; sample variance like the reference)."""
    v = np.asarray(v, np.float64)
    n = float(len(v))
    s = v.sum()
    var = ((v * v).sum() - s * s / n) / (n - 1.0)
    return {
        "N": n, "min": float(v.min()), "max": float(v.max()),
        "sum": float(s), "mean": float(s / n), "var": float(var),
        "stddev": float(np.sqrt(var)),
    }


def _mode(v):
    """ModeEvaluator: the most frequent value(s), ascending (commons-math
    StatUtils.mode returns all ties sorted)."""
    vals, cnts = np.unique(np.asarray(v, np.float64), return_counts=True)
    return vals[cnts == cnts.max()]


def _anova(*groups):
    """AnovaEvaluator (commons-math OneWayAnova): [fRatio, dfBetween,
    dfWithin].  The p-value needs the F CDF (no scipy here); the F ratio
    and dfs are the oracle-checkable core."""
    gs = [np.asarray(g, np.float64) for g in groups]
    k = float(len(gs))
    n = float(sum(len(g) for g in gs))
    grand = sum(g.sum() for g in gs) / n
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in gs)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in gs)
    f = (ssb / (k - 1.0)) / (ssw / (n - k))
    return np.array([f, k - 1.0, n - k])


def _paired_ttest(a, b):
    """PairedTTestEvaluator: t on the per-index differences; [t, df]."""
    d = np.asarray(a, np.float64) - np.asarray(b, np.float64)
    n = float(len(d))
    s = d.sum()
    var = ((d * d).sum() - s * s / n) / (n - 1.0)
    return np.array([(s / n) / np.sqrt(var / n), n - 1.0])


def _factorial(n):
    import math

    return float(math.factorial(int(n)))


EVALUATORS.update({
    "describe": _describe,
    "mode": _mode,
    "anova": _anova,
    "pairedTtest": _paired_ttest,
    "copyOf": _copy_of,
    "copyOfRange": lambda arr, a, b: np.asarray(arr, np.float64)[
        int(a):int(b)
    ].copy(),
    "addAll": lambda *arrs: np.concatenate(
        [np.asarray(a, np.float64) for a in arrs]
    ),
    "natural": lambda n: np.arange(int(n), dtype=np.float64),
    "repeat": lambda val, n: np.full(int(n), float(val)),
    "zeros": lambda n: np.zeros(int(n)),
    "ones": lambda n: np.ones(int(n)),
    "factorial": _factorial,
    "constantDistribution": lambda x: ("constant", float(x)),
})


def q_eval_describe_mode_lineitem(sf_dir: str):
    """describe() + mode() over l_quantity.  The corpus side reduces to
    the distinct-value/count table exactly like freqTable (per-batch
    value_counts partials, one tiny groupby); describe's moments and the
    mode derive from that weighted table on the driver, so no stage ever
    materializes the column."""
    li = read_table(sf_dir, "lineitem", ["l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["l_quantity"].combine_chunks())
        return pa.table(
            {
                "value": pc.cast(vc.field("values"), pa.float64()),
                "n": vc.field("counts"),
            }
        )

    s = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("value")
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values("value")
        .reset_index(drop=True)
    )
    v = s["value"].to_numpy(np.float64)
    w = s["n"].to_numpy(np.float64)
    n = w.sum()
    tot = (v * w).sum()
    var = ((v * v * w).sum() - tot * tot / n) / (n - 1.0)
    # weighted expansion == _describe on the raw column
    modes = v[w == w.max()]
    return pd.DataFrame(
        {
            "n": [int(n)],
            "min": [round_sql(v.min())],
            "max": [round_sql(v.max())],
            "sum": [round_sql(tot)],
            "mean": [round_sql(tot / n)],
            "variance": [round_sql(var)],
            "stddev": [round_sql(np.sqrt(var))],
            "mode": [round_sql(modes.min())],
        }
    )


QUERIES["eval_describe_mode_lineitem"] = q_eval_describe_mode_lineitem
ORACLE["eval_describe_mode_lineitem"] = """
    WITH m AS (
      SELECT l_quantity::DOUBLE AS value, count(*)::BIGINT AS n
      FROM lineitem GROUP BY 1
    ),
    md AS (SELECT value FROM m ORDER BY n DESC, value ASC LIMIT 1)
    SELECT count(*)::BIGINT AS n,
           round(min(l_quantity)::DOUBLE, 6) AS min,
           round(max(l_quantity)::DOUBLE, 6) AS max,
           round(sum(l_quantity)::DOUBLE, 6) AS sum,
           round(avg(l_quantity::DOUBLE), 6) AS mean,
           round(var_samp(l_quantity::DOUBLE), 6) AS variance,
           round(stddev_samp(l_quantity::DOUBLE), 6) AS stddev,
           round((SELECT value FROM md), 6) AS mode
    FROM lineitem
"""


def q_eval_anova_orders(sf_dir: str):
    """anova() one-way over o_totalprice grouped by o_orderstatus: the
    group moments (n, sum, sum-of-squares) reduce in ONE distributed
    groupby; the F ratio assembles from those k rows on the driver — the
    reference evaluator likewise runs commons-math OneWayAnova over
    collected lists, but the corpus-side reduction here never collects."""
    od = read_table(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        import pandas as _pd

        df = t.to_pandas()
        x = df["o_totalprice"].to_numpy(np.float64)
        g = df.groupby("o_orderstatus", sort=False)
        agg = g["o_totalprice"].agg(["count", "sum"])
        sq = _pd.Series(x * x, index=df.index).groupby(
            df["o_orderstatus"], sort=False
        ).sum()
        return pa.table(
            {
                "grp": agg.index.astype(str),
                "cnt": agg["count"].to_numpy(np.int64),
                "s": agg["sum"].to_numpy(np.float64),
                "ss": sq.reindex(agg.index).to_numpy(np.float64),
            }
        )

    g = (
        od.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("grp")
        .sum(["cnt", "s", "ss"])
        .to_pandas()
        .sort_values("grp")
    )
    cnt = g["sum(cnt)"].to_numpy(np.float64)
    s = g["sum(s)"].to_numpy(np.float64)
    ss = g["sum(ss)"].to_numpy(np.float64)
    k, n = float(len(cnt)), cnt.sum()
    grand = s.sum() / n
    means = s / cnt
    ssb = (cnt * (means - grand) ** 2).sum()
    ssw = (ss - s * s / cnt).sum()
    f = (ssb / (k - 1.0)) / (ssw / (n - k))
    return pd.DataFrame(
        {
            "f_ratio": [round_sql(f)],
            "df_between": [int(k - 1)],
            "df_within": [int(n - k)],
        }
    )


QUERIES["eval_anova_orders"] = q_eval_anova_orders
ORACLE["eval_anova_orders"] = """
    WITH g AS (
      SELECT o_orderstatus AS grp, count(*)::DOUBLE AS cnt,
             sum(o_totalprice)::DOUBLE AS s,
             sum(o_totalprice * o_totalprice)::DOUBLE AS ss
      FROM orders GROUP BY 1
    ),
    t AS (
      SELECT count(*)::DOUBLE AS k, sum(cnt) AS n,
             sum(s) / sum(cnt) AS grand
      FROM g
    ),
    parts AS (
      SELECT sum(cnt * (s / cnt - grand) * (s / cnt - grand)) AS ssb,
             sum(ss - s * s / cnt) AS ssw
      FROM g CROSS JOIN t
    )
    SELECT round((ssb / (k - 1)) / (ssw / (n - k)), 6) AS f_ratio,
           (k - 1)::BIGINT AS df_between,
           (n - k)::BIGINT AS df_within
    FROM parts CROSS JOIN t
"""


def q_eval_paired_ttest_lineitem(sf_dir: str):
    """pairedTtest() of the discounted vs list price per line item: the
    per-pair difference is -l_extendedprice*l_discount, reduced to
    (n, sum d, sum d^2) partials inside map_batches + one global sum —
    the t statistic is a 3-scalar driver formula."""
    li = read_table(sf_dir, "lineitem", ["l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        d = -(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * t["l_discount"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([len(d)], pa.int64()),
                "s": pa.array([d.sum()], pa.float64()),
                "ss": pa.array([(d * d).sum()], pa.float64()),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .sum(["n", "s", "ss"])
    )
    n = float(agg["sum(n)"])
    s = float(agg["sum(s)"])
    ss = float(agg["sum(ss)"])
    var = (ss - s * s / n) / (n - 1.0)
    t_stat = (s / n) / np.sqrt(var / n)
    return pd.DataFrame(
        {"t": [round_sql(t_stat)], "df": [int(n - 1)]}
    )


QUERIES["eval_paired_ttest_lineitem"] = q_eval_paired_ttest_lineitem
ORACLE["eval_paired_ttest_lineitem"] = """
    WITH d AS (
      SELECT -(l_extendedprice * l_discount)::DOUBLE AS diff FROM lineitem
    ),
    m AS (
      SELECT count(*)::DOUBLE AS n, sum(diff) AS s,
             sum(diff * diff) AS ss
      FROM d
    )
    SELECT round((s / n) / sqrt(((ss - s * s / n) / (n - 1)) / n), 6) AS t,
           (n - 1)::BIGINT AS df
    FROM m
"""


def q_eval_array_builders_events(sf_dir: str):
    """Array-builder evaluators (natural/repeat/zeros/ones/copyOf/
    copyOfRange/addAll/factorial) composed in a let()-style scalar
    computation seeded by a corpus count — the builders run on the
    driver over tiny arrays (their reference contract); only count()
    touches data."""
    n_events = read_table(sf_dir, "events", ["event_id"]).count()
    E = EVALUATORS
    arr = E["addAll"](
        E["copyOfRange"](E["natural"](12), 2, 9),   # 2..8
        E["repeat"](3.5, 4),                         # 3.5 x4
        E["ones"](3),
    )
    arr2 = E["copyOf"](arr, 10)
    return pd.DataFrame(
        {
            "n_events": [int(n_events)],
            "arr_len": [int(len(arr))],
            "arr_sum": [round_sql(arr.sum())],
            "arr2_sum": [round_sql(arr2.sum())],
            "zeros_sum": [round_sql(E["zeros"](5).sum())],
            "fact7": [round_sql(E["factorial"](7))],
        }
    )


QUERIES["eval_array_builders_events"] = q_eval_array_builders_events
ORACLE["eval_array_builders_events"] = """
    SELECT count(*)::BIGINT AS n_events,
           14::BIGINT AS arr_len,
           round(2+3+4+5+6+7+8 + 3.5*4 + 3.0, 6) AS arr_sum,
           round(2+3+4+5+6+7+8 + 3.5*3, 6) AS arr2_sum,
           round(0.0, 6) AS zeros_sum,
           round(5040.0, 6) AS fact7
    FROM events
"""


# ---------------------------------------------------------------------------
# Batch 18 (r5) — enumerated/beta distributions + termVectors/tfidf
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# EnumeratedDistributionEvaluator.java, BetaDistributionEvaluator.java,
# TermVectorsEvaluator.java` — termVectors' tf-idf formula mirrors the
# evaluator's freq * log((numDocs+1)/(docFreq+1)) weighting)
# ---------------------------------------------------------------------------


def _beta_distribution(a, b):
    """BetaDistribution node.  Positive integer shapes only: the CDF is
    the finite binomial sum of `_beta_binom_cdf`."""
    if a != int(a) or b != int(b) or min(a, b) < 1:
        raise ValueError(
            f"betaDistribution takes positive integer shapes, got ({a}, {b})"
        )
    return ("beta", int(a), int(b))


EVALUATORS.update({
    "enumeratedDistribution": lambda vals, probs=None: (
        "enumerated",
        np.asarray(vals, np.float64),
        (np.asarray(probs, np.float64)
         if probs is not None
         else np.full(len(np.asarray(vals)), 1.0 / len(np.asarray(vals)))),
    ),
    "betaDistribution": _beta_distribution,
})


def _term_vectors(texts, min_df: int = 1):
    """TermVectorsEvaluator: tf-idf matrix over a COLLECTED doc list
    (the evaluator contract — it runs on a let() sample, never a corpus).
    Returns (docs x terms) matrix, sorted term vocabulary, per-term dfs;
    weight = freq * log((numDocs+1)/(docFreq+1)) like the reference."""
    from collections import Counter

    tok_lists = [
        re.findall(r"[0-9a-z]+", (t or "").lower()) for t in texts
    ]
    dfc = Counter()
    for toks in tok_lists:
        dfc.update(set(toks))
    vocab = sorted(t for t, c in dfc.items() if c >= min_df)
    vi = {t: i for i, t in enumerate(vocab)}
    n = len(tok_lists)
    mat = np.zeros((n, len(vocab)))
    for r, toks in enumerate(tok_lists):
        for t, f in Counter(toks).items():
            if t in vi:
                mat[r, vi[t]] = f * np.log(
                    (n + 1.0) / (dfc[t] + 1.0)
                )
    return mat, vocab, np.array([dfc[t] for t in vocab], np.int64)


EVALUATORS["termVectors"] = _term_vectors


TV_N_DOCS = 20  # bounded evaluator sample, all scales


def q_eval_term_vectors_documents(sf_dir: str):
    """termVectors() tf-idf over the bounded doc sample (doc_id <
    {TV_N_DOCS}): per term, df and the SUM of its tf-idf weights across
    the sample — one row per term appearing in >= 8 sample docs (keeps
    the result stable and small).  The corpus side is a pruned+filtered
    read; the matrix algebra runs on the collected sample, the
    evaluator's contract."""
    docs = (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id < {TV_N_DOCS}")
        .to_pandas()
        .sort_values("doc_id")
    )
    mat, vocab, dfs = _term_vectors(docs["text"].tolist())
    keep = dfs >= 8
    out = pd.DataFrame(
        {
            "term": np.array(vocab, dtype=object)[keep],
            "df": dfs[keep],
            "tfidf_sum": np.round(mat.sum(axis=0)[keep], 6),
        }
    )
    return out.sort_values("term").reset_index(drop=True)


QUERIES["eval_term_vectors_documents"] = q_eval_term_vectors_documents
ORACLE["eval_term_vectors_documents"] = f"""
    WITH sample AS (
      SELECT doc_id, lower(text) AS text FROM documents
      WHERE doc_id < {TV_N_DOCS}
    ),
    n AS (SELECT count(*)::DOUBLE AS nd FROM sample),
    tf AS (
      SELECT doc_id, term, count(*)::DOUBLE AS f FROM (
        SELECT doc_id, unnest(regexp_extract_all(text, '[0-9a-z]+')) AS term
        FROM sample) GROUP BY 1, 2
    ),
    dfs AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1)
    SELECT dfs.term, dfs.df,
           round(sum(tf.f * ln((nd + 1.0) / (dfs.df + 1.0))), 6)
             AS tfidf_sum
    FROM tf JOIN dfs USING (term) CROSS JOIN n
    WHERE dfs.df >= 8
    GROUP BY dfs.term, dfs.df
    ORDER BY dfs.term
"""


def q_eval_beta_enum_dist_lineitem(sf_dir: str):
    """betaDistribution(2,5) pdf/cdf at the corpus discount mean, and an
    enumeratedDistribution over the l_linestatus frequencies: the corpus
    reduces to (mean discount, per-status counts) in one pass each; the
    distribution math is closed-form on both sides (integer-shape Beta
    CDF via the binomial sum — elementary, so the SQL mirrors it term by
    term)."""
    li = read_table(sf_dir, "lineitem", ["l_discount", "l_linestatus"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        import pandas as _pd

        st = _pd.Series(t["l_linestatus"].to_pylist())
        vc = st.value_counts()
        return pa.table(
            {
                "n": pa.array([len(d)], pa.int64()),
                "s": pa.array([float(d.sum())], pa.float64()),
                "n_f": pa.array([int(vc.get("F", 0))], pa.int64()),
                "n_o": pa.array([int(vc.get("O", 0))], pa.int64()),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .sum(["n", "s", "n_f", "n_o"])
    )
    n = float(agg["sum(n)"])
    x = float(agg["sum(s)"]) / n  # mean discount in (0,1)
    n_f, n_o = float(agg["sum(n_f)"]), float(agg["sum(n_o)"])
    E = EVALUATORS
    beta = E["betaDistribution"](2, 5)
    # enumerated over status codes 0(F)/1(O) with observed probabilities
    enum = E["enumeratedDistribution"]([0.0, 1.0], [n_f / n, n_o / n])
    return pd.DataFrame(
        {
            "x": [round_sql(x)],
            "beta_pdf": [round_sql(float(E["density"](beta, x)))],
            "beta_cdf": [round_sql(float(E["cumulativeProbability"](beta, x)))],
            "enum_p0": [round_sql(float(E["probability"](enum, 0.0)))],
            "enum_cdf0": [
                round_sql(float(E["cumulativeProbability"](enum, 0.0)))
            ],
        }
    )


QUERIES["eval_beta_enum_dist_lineitem"] = q_eval_beta_enum_dist_lineitem
ORACLE["eval_beta_enum_dist_lineitem"] = """
    WITH m AS (
      SELECT avg(l_discount::DOUBLE) AS x,
             count(*)::DOUBLE AS n,
             sum(CASE WHEN l_linestatus = 'F' THEN 1 ELSE 0 END)::DOUBLE
               AS n_f
      FROM lineitem
    )
    SELECT round(x, 6) AS x,
           -- Beta(2,5): pdf = x(1-x)^4 / B(2,5), B(2,5)=1!4!/6!=1/30
           round(x * pow(1 - x, 4) * 30.0, 6) AS beta_pdf,
           -- I_x(2,5) = sum_{j=2}^{6} C(6,j) x^j (1-x)^(6-j)
           round(  15 * pow(x, 2) * pow(1 - x, 4)
                 + 20 * pow(x, 3) * pow(1 - x, 3)
                 + 15 * pow(x, 4) * pow(1 - x, 2)
                 +  6 * pow(x, 5) * (1 - x)
                 +      pow(x, 6), 6) AS beta_cdf,
           round(n_f / n, 6) AS enum_p0,
           round(n_f / n, 6) AS enum_cdf0
    FROM m
"""


# ---------------------------------------------------------------------------
# Batch 19 (r5) — DistanceEvaluator matrix overload
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# DistanceEvaluator.java`: over a matrix it returns the pairwise
# COLUMN-distance matrix; measure defaults to euclidean)
# ---------------------------------------------------------------------------


def _distance_matrix(m, measure: str = "euclidean"):
    m = np.asarray(m, np.float64)
    cols = m.T  # pairwise over columns, the reference contract
    n = len(cols)
    out = np.zeros((n, n))
    for i in range(n):
        d = cols - cols[i]
        if measure == "euclidean":
            out[i] = np.sqrt((d * d).sum(axis=1))
        elif measure == "manhattan":
            out[i] = np.abs(d).sum(axis=1)
        elif measure == "cosine":
            num = cols @ cols[i]
            den = np.linalg.norm(cols, axis=1) * np.linalg.norm(cols[i])
            out[i] = 1.0 - num / den
        else:
            raise KeyError(f"distance: unknown measure {measure!r}")
    return out


EVALUATORS["distance"] = _distance_matrix


def q_eval_distance_matrix_events(sf_dir: str):
    """distance() matrix overload: the 3x3 pairwise euclidean distance
    matrix over per-event-type hourly count series (the matrix collects
    from ONE distributed groupby over (event_type, hour); the reference
    evaluator likewise runs on a let() matrix).  Output long-form
    (type_a, type_b, dist) so column names hash stably."""
    import pyarrow.compute as pc_

    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["event_type", "ts"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "hour": pc_.hour(t["ts"]),
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    counts = (
        ds.groupby(["event_type", "hour"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    types = sorted(counts["event_type"].unique())[:3]
    # dense 24-hour series per type (missing hours = 0)
    mat = np.zeros((24, len(types)))
    for j, ty in enumerate(types):
        sub = counts[counts["event_type"] == ty]
        mat[sub["hour"].to_numpy(np.int64), j] = sub["n"].to_numpy(
            np.float64
        )
    dm = EVALUATORS["distance"](mat)  # 3x3 over columns
    rows = []
    for i, a in enumerate(types):
        for j, b in enumerate(types):
            rows.append((a, b, round_sql(float(dm[i, j]))))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "dist"])


QUERIES["eval_distance_matrix_events"] = q_eval_distance_matrix_events
ORACLE["eval_distance_matrix_events"] = """
    WITH c AS (
      SELECT event_type, extract(hour FROM ts)::BIGINT AS hour,
             count(*)::DOUBLE AS n
      FROM events GROUP BY 1, 2
    ),
    t3 AS (
      SELECT event_type FROM (SELECT DISTINCT event_type FROM c)
      ORDER BY event_type LIMIT 3
    ),
    grid AS (
      SELECT t.event_type, h.hour, coalesce(c.n, 0) AS n
      FROM t3 t CROSS JOIN range(24) h(hour)
      LEFT JOIN c ON c.event_type = t.event_type AND c.hour = h.hour
    )
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           round(sqrt(sum((a.n - b.n) * (a.n - b.n))), 6) AS dist
    FROM grid a JOIN grid b USING (hour)
    GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Batch 20 (r5) — chiSquareDataSet (two-sample comparison)
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# ChiSquareDataSetEvaluator.java`, backed by commons-math
# ChiSquareTest.chiSquareDataSetsComparison)
# ---------------------------------------------------------------------------


def _chi_square_dataset(o1, o2):
    """Two-dataset chi-square statistic: with N1=sum(o1), N2=sum(o2),
    K1=sqrt(N2/N1), K2=sqrt(N1/N2):
        chi2 = sum_i (K1*o1_i - K2*o2_i)^2 / (o1_i + o2_i)
    (cells empty in BOTH samples are excluded, the commons-math
    contract)."""
    o1 = np.asarray(o1, np.float64)
    o2 = np.asarray(o2, np.float64)
    n1, n2 = o1.sum(), o2.sum()
    k1 = np.sqrt(n2 / n1)
    k2 = np.sqrt(n1 / n2)
    m = (o1 + o2) > 0
    return float(
        (((k1 * o1[m] - k2 * o2[m]) ** 2) / (o1[m] + o2[m])).sum()
    )


EVALUATORS["chiSquareDataSet"] = _chi_square_dataset


def q_eval_chisq_dataset_events(sf_dir: str):
    """chiSquareDataSet() comparing the event_type distribution of
    even-user events vs odd-user events: the two count vectors reduce in
    ONE distributed groupby over (event_type, parity); the statistic is
    a k-row driver formula mirrored term by term in SQL."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", ["event_type", "user_id"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "par": pc.bit_wise_and(
                    pc.cast(t["user_id"], pa.int64()), pa.scalar(1)
                ),
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    g = (
        ds.groupby(["event_type", "par"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .pivot_table(index="event_type", columns="par", values="n",
                     fill_value=0)
        .sort_index()
    )
    o1 = g[0].to_numpy(np.float64)
    o2 = g[1].to_numpy(np.float64)
    chi2 = EVALUATORS["chiSquareDataSet"](o1, o2)
    return pd.DataFrame(
        {
            "chi2": [round_sql(chi2)],
            "df": [int(len(o1) - 1)],
            "n_even": [int(o1.sum())],
            "n_odd": [int(o2.sum())],
        }
    )


QUERIES["eval_chisq_dataset_events"] = q_eval_chisq_dataset_events
ORACLE["eval_chisq_dataset_events"] = """
    WITH c AS (
      SELECT event_type,
             sum(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END)::DOUBLE AS o1,
             sum(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END)::DOUBLE AS o2
      FROM events GROUP BY 1
    ),
    t AS (SELECT sum(o1) AS n1, sum(o2) AS n2 FROM c)
    SELECT round(sum(
             (sqrt(n2 / n1) * o1 - sqrt(n1 / n2) * o2)
             * (sqrt(n2 / n1) * o1 - sqrt(n1 / n2) * o2)
             / (o1 + o2)), 6) AS chi2,
           (count(*) - 1)::BIGINT AS df,
           max(n1)::BIGINT AS n_even,
           max(n2)::BIGINT AS n_odd
    FROM c CROSS JOIN t WHERE o1 + o2 > 0
"""


def _f_test(a, b):
    """FTestEvaluator (`solr/solrj/.../io/eval/FTestEvaluator.java`,
    commons-math variance-ratio core): [F, df1, df2] with F =
    var_samp(a)/var_samp(b) (p-value needs the F CDF — no scipy here;
    the ratio and dfs are the oracle-checkable core, same policy as
    anova)."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)

    def _var(v):
        n = float(len(v))
        s = v.sum()
        return ((v * v).sum() - s * s / n) / (n - 1.0)

    return np.array(
        [_var(a) / _var(b), float(len(a) - 1), float(len(b) - 1)]
    )


EVALUATORS["fTest"] = _f_test


def q_eval_ftest_events(sf_dir: str):
    """fTest() of event `value` variance: even-user events vs odd-user
    events — per-parity (n, sum, sumsq) moments reduce in one tiny
    groupby; the variance ratio is a 6-scalar driver formula."""
    ds = read_table(sf_dir, "events", ["user_id", "value"])

    def part(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        par = (uid[ok] % 2).astype(np.int64)
        v = v[ok]
        rows = {"par": [], "n": [], "s": [], "ss": []}
        for p in (0, 1):
            m = par == p
            rows["par"].append(p)
            rows["n"].append(int(m.sum()))
            rows["s"].append(float(v[m].sum()))
            rows["ss"].append(float((v[m] * v[m]).sum()))
        return pa.table(
            {
                "par": pa.array(rows["par"], pa.int64()),
                "n": pa.array(rows["n"], pa.int64()),
                "s": pa.array(rows["s"], pa.float64()),
                "ss": pa.array(rows["ss"], pa.float64()),
            }
        )

    g = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("par")
        .sum(["n", "s", "ss"])
        .to_pandas()
        .sort_values("par")
    )
    n = g["sum(n)"].to_numpy(np.float64)
    s = g["sum(s)"].to_numpy(np.float64)
    ss = g["sum(ss)"].to_numpy(np.float64)
    var = (ss - s * s / n) / (n - 1.0)
    return pd.DataFrame(
        {
            "f": [round_sql(var[0] / var[1])],
            "df1": [int(n[0] - 1)],
            "df2": [int(n[1] - 1)],
        }
    )


QUERIES["eval_ftest_events"] = q_eval_ftest_events
ORACLE["eval_ftest_events"] = """
    WITH m AS (
      SELECT user_id % 2 AS par,
             count(value)::DOUBLE AS n,
             sum(value::DOUBLE) AS s,
             sum(value::DOUBLE * value::DOUBLE) AS ss
      FROM events WHERE value IS NOT NULL GROUP BY 1
    ),
    v AS (
      SELECT par, n, (ss - s * s / n) / (n - 1) AS var FROM m
    )
    SELECT round((SELECT var FROM v WHERE par = 0)
                 / (SELECT var FROM v WHERE par = 1), 6) AS f,
           ((SELECT n FROM v WHERE par = 0) - 1)::BIGINT AS df1,
           ((SELECT n FROM v WHERE par = 1) - 1)::BIGINT AS df2
"""


# ---------------------------------------------------------------------------
# Batch 21 (r5) — knnRegress + predict() dispatch
# (`solr/solrj/src/java/org/apache/solr/client/solrj/io/eval/
# KnnRegressionEvaluator.java`: k-nearest-neighbor regression; predict =
# mean outcome of the k nearest training rows by euclidean distance)
# ---------------------------------------------------------------------------


def _knn_regress(X, y, k):
    X = np.asarray(X, np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return ("knnRegress", X, np.asarray(y, np.float64), int(k))


EVALUATORS["knnRegress"] = _knn_regress

_orig_predict_b21 = EVALUATORS["predict"]


def _predict_b21(f, xq):
    if f[0] == "knnRegress":
        _, X, y, k = f
        Xq = np.asarray(xq, np.float64)
        if Xq.ndim == 0:
            Xq = Xq[None, None]
        elif Xq.ndim == 1:
            Xq = Xq[:, None]
        order = np.arange(X.shape[0])
        out = np.empty(len(Xq))
        for i in range(len(Xq)):
            d2 = ((X - Xq[i]) ** 2).sum(axis=1)
            # distance ties break by TRAINING-ROW position (rows are fed
            # in id order) — the SQL mirror's (d2 ASC, id ASC)
            sel = np.lexsort((order, d2))[:k]
            out[i] = y[sel].mean()
        return out
    return _orig_predict_b21(f, xq)


EVALUATORS["predict"] = _predict_b21

KNNR_TRAIN_N = 400  # bounded training sample (event_id < this), all scales
KNNR_K = 10
KNNR_TEST_HOURS = (3.0, 9.0, 15.0, 21.0)


def q_eval_knn_regress_events(sf_dir: str):
    """knnRegress() of event value on hour-of-day: the bounded training
    sample (event_id < {KNNR_TRAIN_N}, non-null value, id order) collects
    from a pruned+filtered scan; predict() at 4 fixed test hours = mean
    value of the {KNNR_K} nearest training hours (d2 asc, id asc)."""
    ev = (
        read_table(sf_dir, "events", ["event_id", "ts", "value"])
        .filter(expr=f"event_id < {KNNR_TRAIN_N}")
        .to_pandas()
        .sort_values("event_id")
    )
    ev = ev[ev["value"].notna()]
    hours = ev["ts"].dt.hour.to_numpy(np.float64)
    model = EVALUATORS["knnRegress"](
        hours, ev["value"].to_numpy(np.float64), KNNR_K
    )
    preds = EVALUATORS["predict"](model, np.array(KNNR_TEST_HOURS))
    return pd.DataFrame(
        {
            "test_hour": [int(h) for h in KNNR_TEST_HOURS],
            "pred": round_sql(preds),
        }
    )


QUERIES["eval_knn_regress_events"] = q_eval_knn_regress_events
ORACLE["eval_knn_regress_events"] = f"""
    WITH train AS (
      SELECT event_id, extract(hour FROM ts)::DOUBLE AS h,
             value::DOUBLE AS v
      FROM events WHERE event_id < {KNNR_TRAIN_N} AND value IS NOT NULL
    ),
    tests(test_hour) AS (VALUES (3), (9), (15), (21)),
    ranked AS (
      SELECT t.test_hour, tr.v,
             row_number() OVER (
               PARTITION BY t.test_hour
               ORDER BY (tr.h - t.test_hour) * (tr.h - t.test_hour) ASC,
                        tr.event_id ASC) AS rn
      FROM tests t CROSS JOIN train tr
    )
    SELECT test_hour::INT AS test_hour,
           round(avg(v), 6) AS pred
    FROM ranked WHERE rn <= {KNNR_K}
    GROUP BY 1 ORDER BY 1
"""
