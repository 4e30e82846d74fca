"""Bounded-height point counts on P^n and asymptotic fits.

Counting is exact integer arithmetic throughout: for the sup metric the
height-H ball is a box, for the Euclidean metric it is a ball, and in
both cases membership of a primitive vector is decided by exact
comparisons.  Two independent exact methods are provided: a direct
enumeration of canonical representatives (`enumerate_Pn`) and a sieve
over dilated boxes or balls with no factorisation (`count_Pn`).  They
must always agree; the test suite holds them to that.

Counting functions feed least-squares fits on the log scale against the
shape theta * H^a * (log H)^(b - 1), with optional pinning of a and b.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ValidationError, brief
from .exact import int_root
from .heights import ArchKind, MetrizedLineBundle, ProjPoint, canonical_vectors
from .lattice import ENUM_CAP, SeriesValue
from .numeric import fsum_c

# Relative singular-value floor below which the fit design is treated as
# rank deficient.  Honest fits over two decades sit many orders above it.
_DESIGN_TOL = 1e-7


@dataclass(frozen=True)
class CountTable:
    """Counting function sampled at a strictly increasing list of height
    thresholds."""

    thresholds: tuple
    counts: tuple

    def __post_init__(self):
        ts = tuple(self.thresholds)
        cs = tuple(self.counts)
        object.__setattr__(self, "thresholds", ts)
        object.__setattr__(self, "counts", cs)
        if len(ts) != len(cs):
            raise ValidationError("thresholds and counts must have equal length")
        if not ts:
            raise ValidationError("count table cannot be empty")
        if any(t <= 0 for t in ts):
            raise ValidationError("thresholds must be positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("thresholds must be strictly increasing")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValidationError(f"counts must be non-negative integers, got {c!r}")
        if any(b < a for a, b in zip(cs, cs[1:])):
            raise ValidationError("counts must be non-decreasing")

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class AsymptoticFit:
    """Fitted parameters of theta * H^a * (log H)^(b - 1)."""

    a: float
    b: float
    theta: float
    residual: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ValidationError(f"fitted theta must be positive, got {self.theta!r}")
        if not self.residual >= 0:
            raise ValidationError("fit residual cannot be negative")

    def model(self, threshold) -> float:
        t = float(threshold)
        if t <= 0:
            raise ValidationError("model is defined for positive thresholds only")
        lt = math.log(t)
        if lt <= 0 and self.b != 1.0:
            return float("nan")
        return self.theta * t**self.a * lt ** (self.b - 1.0)


def _as_bound(x, name: str) -> Fraction:
    """A height bound or threshold as an exact rational; anything that is
    not one (a string that does not parse, nan, an infinity) is a
    ValidationError."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a rational number, got {x!r}") from None


def _check_bundle(n: int, B: MetrizedLineBundle) -> None:
    if not isinstance(B, MetrizedLineBundle):
        raise ValidationError(f"expected a metrized line bundle, got {type(B).__name__}")
    if B.n != n:
        raise ValidationError(f"bundle lives on P^{B.n}, asked to count on P^{n}")
    if B.m < 1:
        raise ValidationError(f"counting needs an ample bundle, degree {B.m} < 1")


def _canonical_rows(n: int, B: MetrizedLineBundle, H_bound, cap: int) -> list[tuple[int, ...]]:
    """``canonical_vectors`` rows (g2, x_0, ..., x_n) of the points of
    height at most H_bound, each of height squared g2^m.  Raises a capacity
    error when the box of coordinate radius r = floor(H^(1/m)) (sup
    metric) or isqrt(floor(H^(2/m))) (Euclidean) exceeds `cap` vectors.
    """
    _check_bundle(n, B)
    bound = _as_bound(H_bound, "H_bound")
    if bound < 1:
        return []
    if B.arch is ArchKind.MAX:
        r = int_root(bound, B.m)
        budget = r * r
    else:
        budget = int_root(bound * bound, B.m)
        r = math.isqrt(budget)
    if (2 * r + 1) ** (n + 1) > cap:
        raise CapacityError(
            f"height bound {brief(H_bound)} needs a scan over {brief((2 * r + 1) ** (n + 1))} "
            f"vectors, above the cap of {cap}"
        )
    return canonical_vectors(n, B.arch, budget)


def enumerate_Pn(n: int, B: MetrizedLineBundle, H_bound, cap: int = ENUM_CAP):
    """All points of P^n(Q) with height at most H_bound, as canonical
    primitive representatives in deterministic order (height, then
    lexicographic on coordinates), from ``canonical_vectors``; every
    comparison is exact.  Raises a capacity error when the coordinate box
    of the bound exceeds `cap` vectors.
    """
    return [ProjPoint(row[1:]) for row in _canonical_rows(n, B, H_bound, cap)]


def _ball_count(k: int, radius_sq: int) -> int:
    """Number of integer vectors in Z^k of squared length <= radius_sq."""
    if radius_sq < 0:
        return 0
    if k == 1:
        return 2 * math.isqrt(radius_sq) + 1
    total = _ball_count(k - 1, radius_sq)
    for x in range(1, math.isqrt(radius_sq) + 1):
        total += 2 * _ball_count(k - 1, radius_sq - x * x)
    return total


def _quotient_blocks(q: int, k: int, d: int):
    """(count, v) for each run of d, d + 1, ... sharing v = q // d^k >= 1."""
    while d**k <= q:
        v = q // d**k
        d_hi = q // v if k == 1 else math.isqrt(q // v)
        yield d_hi - d + 1, v
        d = d_hi + 1


def _primitive_count(top: int, k: int, region) -> int:
    """Half the primitive vectors in the box (k = 1) or ball (k = 2) at
    quotient top, where region(q) counts its nonzero vectors at quotient q.
    Every nonzero vector is d times a primitive one, so the primitive count
    is P(q) = region(q) - sum over d >= 2 of P(q // d^k).  As (top // a) // b
    = top // (a*b), P runs over the quotients of top alone, in ascending
    order, one block per run of d sharing a quotient."""
    P = {}
    for q in sorted({v for _, v in _quotient_blocks(top, k, 1)}):
        P[q] = region(q) - sum(c * P[v] for c, v in _quotient_blocks(q, k, 2))
    return P[top] // 2


def count_Pn(n: int, B: MetrizedLineBundle, H_bound, cap: int = ENUM_CAP) -> int:
    """Exact count of points of height <= H_bound by `_primitive_count`
    over dilated boxes (sup metric) or balls (Euclidean metric).

    Independent of `enumerate_Pn`: no vector is ever materialized, so
    this path scales to thresholds far beyond the scan cap.  `cap` bounds
    the coordinate radius, not memory.
    """
    _check_bundle(n, B)
    bound = _as_bound(H_bound, "H_bound")
    if bound < 1:
        return 0
    if B.arch is ArchKind.MAX:
        r = int_root(bound, B.m)
        if r > cap:
            raise CapacityError(f"sieve radius {brief(r)} exceeds the cap {cap}")
        return _primitive_count(r, 1, lambda q: (2 * q + 1) ** (n + 1) - 1)
    budget = int_root(bound * bound, B.m)
    if math.isqrt(budget) > cap:
        raise CapacityError(f"sieve radius {brief(math.isqrt(budget))} exceeds the cap {cap}")
    return _primitive_count(budget, 2, lambda q: _ball_count(n + 1, q) - 1)


def count_table(n: int, B: MetrizedLineBundle, thresholds, method: str = "auto",
                cap: int = ENUM_CAP) -> CountTable:
    """Counting function N(H) sampled at the given thresholds.

    `method` picks the exact backend: "sieve" (``count_Pn``),
    "enumerate" (canonical representatives, each height read from its
    exact gauge squared), or "auto" for the sieve.  Both backends must
    give identical tables.
    """
    _check_bundle(n, B)
    ts = [_as_bound(t, "threshold") for t in thresholds]
    if not ts:
        raise ValidationError("need at least one threshold")
    if any(t <= 0 for t in ts):
        raise ValidationError("thresholds must be positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("thresholds must be strictly increasing")
    if method == "auto":
        method = "sieve"
    if method == "sieve":
        counts = [count_Pn(n, B, t, cap=cap) for t in ts]
    elif method == "enumerate":
        keys = [row[0] ** B.m for row in _canonical_rows(n, B, ts[-1], cap)]
        counts = [bisect.bisect_right(keys, t * t) for t in ts]
    else:
        raise ValidationError(f"unknown counting method {method!r}")
    return CountTable(tuple(ts), tuple(counts))


def _height_power(h2: int, z: complex):
    """h2^(-z/2) as a float, or a complex for non-real z.  A height
    squared past the double range goes through the logarithm of the exact
    integer; a result past it raises OverflowError.  At z = 0 it is
    exactly 1.0, since x ** -0.0 is."""
    try:
        x = float(h2)
    except OverflowError:
        log_h2 = math.log(h2)
        return math.exp(-0.5 * z.real * log_h2) if z.imag == 0.0 else cmath.exp(-0.5 * z * log_h2)
    return x ** (-0.5 * z.real) if z.imag == 0.0 else complex(x) ** (-0.5 * z)


def height_zeta_partial(n: int, B: MetrizedLineBundle, s, H_bound, cap: int = ENUM_CAP) -> SeriesValue:
    """Partial height zeta sum over points of height <= H_bound:
    sum of H(x)^(-s) in deterministic enumeration order.

    Each distinct height value is raised to the power once and reused.
    The sum is exactly rounded, so it does not depend on the order of
    the terms.  At s = 0 every term is exactly 1.0 and the value equals
    the count exactly.  A term or sum past the double range is refused.
    """
    _check_bundle(n, B)
    z = complex(s)
    rows = _canonical_rows(n, B, H_bound, cap)
    term_for = {}
    terms = []
    try:
        for row in rows:
            h2 = row[0] ** B.m
            t = term_for.get(h2)
            if t is None:
                t = term_for[h2] = _height_power(h2, z)
            terms.append(t)
        value = fsum_c(terms) if any(isinstance(t, complex) for t in terms) else math.fsum(terms)
        err = 2.0**-48 * math.fsum(abs(t) for t in terms)
    except OverflowError:
        raise ValidationError(f"H^(-s) at s = {s!r} overflows a float below the height bound {brief(H_bound)}") from None
    return SeriesValue(value=value, error_bound=err, terms_used=len(rows), rigorous=True)


def fit_asymptotics(table: CountTable, a=None, b=None, window: float = 0.6) -> AsymptoticFit:
    """Least-squares fit of log N = a log H + (b - 1) log log H + log theta.

    Either exponent may be pinned by passing a value for `a` or `b`.
    Only the largest `window` fraction of the thresholds enters the fit
    (lower-order terms pollute small thresholds); the full table must
    hold at least 5 thresholds spanning at least two decades.  Raises a
    validation error for a rank-deficient design (thresholds too
    clustered to separate the model terms).
    """
    if not isinstance(table, CountTable):
        raise ValidationError(f"expected a CountTable, got {type(table).__name__}")
    if not 0 < window <= 1:
        raise ValidationError(f"window must lie in (0, 1], got {window!r}")
    ts = [float(t) for t in table.thresholds]
    if len(ts) < 5:
        raise ValidationError(f"fit needs at least 5 thresholds, got {len(ts)}")
    if ts[-1] < 100.0 * ts[0]:
        raise ValidationError("thresholds must span at least two decades")
    k = min(len(ts), max(5, math.ceil(window * len(ts))))
    hs = ts[len(ts) - k:]
    ns = list(table.counts[len(ts) - k:])
    if any(h <= 1.0 for h in hs) or any(c <= 0 for c in ns):
        raise ValidationError(
            "fitted window needs thresholds above 1 and positive counts")
    import numpy as np  # imported on first use, so counting alone never loads it

    x1 = np.log(np.asarray(hs, dtype=float))
    x2 = np.log(x1)
    y = np.log(np.asarray(ns, dtype=float))
    cols = []
    free = []
    if a is None:
        cols.append(x1)
        free.append("a")
    else:
        y = y - float(a) * x1
    if b is None:
        cols.append(x2)
        free.append("b")
    else:
        y = y - (float(b) - 1.0) * x2
    cols.append(np.ones_like(x1))
    design = np.column_stack(cols)
    svals = np.linalg.svd(design, compute_uv=False)
    if svals[-1] <= _DESIGN_TOL * svals[0]:
        raise ValidationError(
            "degenerate design: thresholds too clustered to separate the model terms")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a_hat = float(coef[free.index("a")]) if "a" in free else float(a)
    b_hat = float(coef[free.index("b")]) + 1.0 if "b" in free else float(b)
    theta = float(math.exp(coef[-1]))
    resid = y - design @ coef
    residual = float(np.sqrt(np.mean(resid * resid)))
    return AsymptoticFit(a=a_hat, b=b_hat, theta=theta, residual=residual)


def render_count_csv(table: CountTable, fit: AsymptoticFit | None = None) -> str:
    """CSV rows `threshold,count,model`; the model column is empty
    without a fit."""
    lines = ["threshold,count,model"]
    for t, c in zip(table.thresholds, table.counts):
        if fit is None:
            model = ""
        else:
            model = "%.12g" % fit.model(t)
        lines.append("%.12g,%d,%s" % (float(t), c, model))
    return "\n".join(lines) + "\n"
