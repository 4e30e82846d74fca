"""Bounded-height point counts on P^n and asymptotic fits.

Counting is exact integer arithmetic throughout: for the sup metric the
height-H ball is a box, for the Euclidean metric it is a ball, and in
both cases membership of a primitive vector is decided by exact
comparisons.  Two independent exact methods are provided: a direct box
scan over canonical representatives (`enumerate_Pn`) and a Moebius
sieve over dilated boxes or balls (`count_Pn`).  They must always
agree; the test suite holds them to that.

Counting functions feed least-squares fits on the log scale against the
shape theta * H^a * (log H)^(b - 1), with optional pinning of a and b.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ValidationError
from .heights import ArchKind, MetrizedLineBundle, ProjPoint, height_point_sq
from .lattice import ENUM_CAP, SeriesValue
from .places import mobius

_mobius = functools.lru_cache(maxsize=None)(mobius)

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
    try:
        q = Fraction(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a rational number, got {x!r}") from None
    return q


def _check_bundle(n: int, B: MetrizedLineBundle) -> None:
    if not isinstance(B, MetrizedLineBundle):
        raise ValidationError(f"expected a metrized line bundle, got {type(B).__name__}")
    if B.n != n:
        raise ValidationError(f"bundle lives on P^{B.n}, asked to count on P^{n}")
    if B.m < 1:
        raise ValidationError(f"counting needs an ample bundle, degree {B.m} < 1")


def _int_root(x: Fraction, k: int) -> int:
    """Largest integer t >= 0 with t**k <= x."""
    if x < 1:
        return 0
    t = max(1, int(round(float(x) ** (1.0 / k))))
    while t**k > x:
        t -= 1
    while (t + 1) ** k <= x:
        t += 1
    return t


def enumerate_Pn(n: int, B: MetrizedLineBundle, H_bound, cap: int = ENUM_CAP):
    """All points of P^n(Q) with height at most H_bound, as canonical
    primitive representatives in deterministic order (height, then
    lexicographic on coordinates).

    Sup metric: integer box scan with a gcd filter, every comparison
    exact.  Euclidean metric: same box, then an exact rational test
    |x|^(2m) <= H^2.  Raises a capacity error when the candidate box
    exceeds `cap` vectors.
    """
    _check_bundle(n, B)
    bound = _as_bound(H_bound, "H_bound")
    if bound < 1:
        return []
    dim = n + 1
    if B.arch is ArchKind.MAX:
        r = _int_root(bound, B.m)
        budget = None
    else:
        # |x|^2 is a positive integer, so the exact acceptance condition
        # |x|^(2m) <= H^2 reads |x|^2 <= budget.
        budget = _int_root(bound * bound, B.m)
        r = math.isqrt(budget)
    if (2 * r + 1) ** dim > cap:
        raise CapacityError(
            f"height bound {H_bound} needs a scan over {(2 * r + 1) ** dim} "
            f"vectors, above the cap of {cap}"
        )
    found = []
    for vec in itertools.product(range(-r, r + 1), repeat=dim):
        lead = next((c for c in vec if c != 0), 0)
        if lead <= 0:
            continue  # zero vector, or the mirror of a canonical rep
        if math.gcd(*vec) != 1:
            continue
        if budget is None:
            key = max(abs(c) for c in vec)
        else:
            key = sum(c * c for c in vec)
            if key > budget:
                continue
        found.append((key, vec))
    found.sort()
    return [ProjPoint(vec) for _, vec in found]


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


def count_Pn(n: int, B: MetrizedLineBundle, H_bound, cap: int = ENUM_CAP) -> int:
    """Exact count of points of height <= H_bound by Moebius inversion
    over dilated boxes (sup metric) or balls (Euclidean metric).

    Independent of `enumerate_Pn`: no vector is ever materialized, so
    this path scales to thresholds far beyond the scan cap.  The sieve
    still walks every dilation factor once, so the coordinate radius
    itself is capped; `cap` bounds the Moebius evaluations, not memory.
    """
    _check_bundle(n, B)
    bound = _as_bound(H_bound, "H_bound")
    if bound < 1:
        return 0
    dim = n + 1
    if B.arch is ArchKind.MAX:
        r = _int_root(bound, B.m)
        if r > cap:
            raise CapacityError(f"sieve radius {r} exceeds the cap {cap}")
        total = 0
        for d in range(1, r + 1):
            mu = _mobius(d)
            if mu:
                total += mu * ((2 * (r // d) + 1) ** dim - 1)
        return total // 2
    budget = _int_root(bound * bound, B.m)
    if math.isqrt(budget) > cap:
        raise CapacityError(f"sieve radius {math.isqrt(budget)} exceeds the cap {cap}")
    total = 0
    for d in range(1, math.isqrt(budget) + 1):
        mu = _mobius(d)
        if mu:
            total += mu * (_ball_count(dim, budget // (d * d)) - 1)
    return total // 2


def count_table(n: int, B: MetrizedLineBundle, thresholds, method: str = "auto",
                cap: int = ENUM_CAP) -> CountTable:
    """Counting function N(H) sampled at the given thresholds.

    `method` picks the exact backend: "sieve" (Moebius inversion),
    "enumerate" (box scan plus per-point height recomputation), or
    "auto" for the sieve.  Both backends must give identical tables.
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
        pts = enumerate_Pn(n, B, ts[-1], cap=cap)
        keys = sorted(height_point_sq(B, x) for x in pts)
        counts = [bisect.bisect_right(keys, t * t) for t in ts]
    else:
        raise ValidationError(f"unknown counting method {method!r}")
    return CountTable(tuple(ts), tuple(counts))


def height_zeta_partial(n: int, B: MetrizedLineBundle, s, H_bound,
                        grouped: bool = False, cap: int = ENUM_CAP) -> SeriesValue:
    """Partial height zeta sum over points of height <= H_bound:
    sum of H(x)^(-s) in deterministic enumeration order.

    Each distinct height value is raised to the power once and reused,
    so regrouping the sum by height (`grouped=True`) feeds the exactly
    rounded float accumulator the same multiset of terms and returns a
    bit-identical value.  At s = 0 every term is exactly 1.0 and the
    value equals the count exactly.
    """
    _check_bundle(n, B)
    z = complex(s)
    pts = enumerate_Pn(n, B, H_bound, cap=cap)
    term_for = {}
    terms = []
    for x in pts:
        h2 = height_point_sq(B, x)
        t = term_for.get(h2)
        if t is None:
            if z == 0:
                t = 1.0
            elif z.imag == 0.0:
                t = float(h2) ** (-0.5 * z.real)
            else:
                t = complex(h2) ** (-0.5 * z)
            term_for[h2] = t
        terms.append(t)
    if grouped:
        by_height = {}
        for t in terms:
            by_height[t] = by_height.get(t, 0) + 1
        terms = [t for t in by_height for _ in range(by_height[t])]
    if any(isinstance(t, complex) for t in terms):
        value = complex(math.fsum(t.real for t in terms),
                        math.fsum(t.imag for t in terms))
        mag = math.fsum(abs(t) for t in terms)
    else:
        value = math.fsum(terms)
        mag = math.fsum(abs(t) for t in terms)
    err = 2.0**-48 * mag
    return SeriesValue(value=value, error_bound=err, terms_used=len(pts), rigorous=True)


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
