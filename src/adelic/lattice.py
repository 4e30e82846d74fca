"""Euclidean lattices with exact rational Gram data.

A lattice of rank d is Z^d equipped with the inner product <x, y> = x^T G y
for a symmetric positive definite rational Gram matrix G.  Covolume, duals,
and vector enumeration are exact; theta series carry rigorous tail bounds;
the completed Lambda function and the lattice zeta function are evaluated
by incomplete-gamma expansions valid in the whole s-plane minus the poles.

Conventions used throughout:

- vol(L) = sqrt(det G) is the covolume.
- The dual lattice has Gram matrix G^(-1), so vol(L) * vol(dual) = 1.
- theta(L, t) = sum over e in L of exp(-pi t |e|^2), t > 0.
- The completed function

      Lambda(L, s) = -2 sqrt(vol)/s + 2/(sqrt(vol) (s - d))
                     + sqrt(vol)   * sum_{0 != e in L}    G(s/2,     pi |e|^2)
                     + 1/sqrt(vol) * sum_{0 != f in dual} G((d-s)/2, pi |f|^2)

  with G(a, x) = x^(-a) Gamma(a, x), which satisfies the exact symmetry
  Lambda(L, s) = Lambda(dual, d - s), has simple poles at s = 0 and s = d
  with residues -2 sqrt(vol) and +2/sqrt(vol), and equals
  sqrt(vol) * pi^(-s/2) Gamma(s/2) * zeta_L(s) where
  zeta_L(s) = sum_{0 != e} |e|^(-s) for Re s > d.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import CapacityError, PoleError, ValidationError
from .exact import adjugate, as_fraction, bareiss, identity, is_diagonal, scaled_to_int, sqrt_or_float
from .numeric import Ctx, DEFAULT_CTX, fsum_c

ENUM_CAP = 5_000_000

_ALPHA_GRID = (
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 8),
    Fraction(1, 16),
    Fraction(1, 32),
    Fraction(1, 64),
)


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation.

    ``error_bound`` covers truncation plus a floating point roundoff
    allowance; ``rigorous`` records whether the truncation part rests on a
    proved inequality (theta tails) or on a heuristic estimate (incomplete
    gamma expansions).
    """

    value: complex
    error_bound: float
    terms_used: int
    rigorous: bool


@dataclass(frozen=True)
class TransformDefect:
    """Outcome of a two-sided identity check on truncated series."""

    defect: float
    allowance: float
    lhs: SeriesValue
    rhs: SeriesValue


class HermitianLattice:
    """Z^d with an exact symmetric positive definite Gram matrix.

    Construction runs the forward elimination ``exact.bareiss`` of the
    integer Gram A = c G once, for the definiteness test and the
    Fincke-Pohst data; the adjugate behind the dual and the eigenvalue
    bound is formed only when one of them is first asked for.
    """

    __slots__ = ("gram", "rank", "_int_scale", "_int_minors", "_int_pivots", "_adj")

    def __init__(self, gram):
        rows = [tuple(map(as_fraction, row)) for row in gram]
        d = len(rows)
        if d == 0:
            raise ValidationError("lattice rank must be at least 1")
        for row in rows:
            if len(row) != d:
                raise ValidationError("Gram matrix must be square")
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValidationError("Gram matrix must be symmetric")
        # Fincke-Pohst data of the integer Gram A = c G (c the common
        # denominator) from one fraction-free elimination: G is positive
        # definite exactly when it exchanges no row and every pivot, the
        # leading minor D_k = c^k det(G_k), is positive; pivot row k holds
        # row k past its diagonal D_(k+1) after k eliminations
        scale, a = scaled_to_int(rows)
        e = bareiss(a)
        if e is None or e[0] or min(e[1]) <= 0:
            raise ValidationError("Gram matrix must be positive definite")
        _, D, pivots = e
        self.gram = tuple(rows)
        self.rank = d
        self._int_scale = scale
        self._int_minors = tuple(D)
        self._int_pivots = tuple(pivots)
        self._adj = None

    @classmethod
    def identity(cls, d: int) -> "HermitianLattice":
        return cls(identity(d))

    @classmethod
    def diagonal(cls, entries) -> "HermitianLattice":
        entries = list(entries)
        return cls([[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)])

    def __eq__(self, other) -> bool:
        return isinstance(other, HermitianLattice) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"HermitianLattice(rank={self.rank}, gram={self.gram})"

    @property
    def det(self) -> Fraction:
        return Fraction(self._int_minors[-1], self._int_scale**self.rank)

    def norm_sq(self, x) -> Fraction:
        """Exact |x|^2 = x^T G x of an integer vector, from G itself; the
        series read a ball's norms, one per pair {x, -x}, from
        ``_enumerate_scaled``."""
        if len(x) != self.rank:
            raise ValidationError("vector length does not match lattice rank")
        return sum((xi * sum(map(mul, row, x)) for xi, row in zip(x, self.gram)), Fraction(0))


def vol(L: HermitianLattice):
    """Covolume sqrt(det G); exact Fraction when det is a perfect rational
    square, float otherwise."""
    return sqrt_or_float(L.det)


def _det_float(L: HermitianLattice, what: str) -> float:
    """det(G) as a positive finite double; ValidationError when it lies
    outside the double range (overflows, or rounds to 0)."""
    try:
        f = float(L.det)
    except OverflowError:
        f = math.inf
    if not 0 < f < math.inf:
        raise ValidationError(f"{what} needs det(G) inside the double range")
    return f


def arithmetic_degree(L: HermitianLattice) -> float:
    """-log vol(L)."""
    return -0.5 * math.log(_det_float(L, "arithmetic degree"))


def _adjugate(L: HermitianLattice) -> list[list[int]]:
    """adj(A) = D_d A^(-1) of the integer Gram A = c G, formed on first use
    (a dual or an eigenvalue bound) rather than with the lattice; a dual
    lattice gets it from ``dual`` instead."""
    if L._adj is None:
        L._adj = adjugate(scaled_to_int(L.gram)[1])[1]
    return L._adj


def dual(L: HermitianLattice) -> HermitianLattice:
    """Dual lattice, Gram matrix G^(-1) = c adj(A) / D_d.

    The dual is handed its own adjugate, which needs no elimination: its
    integer Gram is A' = c' G^(-1), so adj(A') = D'_d A'^(-1) = D'_d G / c'
    with D'_d = det A', an integer matrix read off G itself."""
    c, Dd = L._int_scale, L._int_minors[-1]
    Ld = HermitianLattice([[Fraction(c * v, Dd) for v in row] for row in _adjugate(L)])
    c2, Dd2 = Ld._int_scale, Ld._int_minors[-1]
    Ld._adj = [[Dd2 * g.numerator // (c2 * g.denominator) for g in row] for row in L.gram]
    return Ld


def direct_sum(L1: HermitianLattice, L2: HermitianLattice) -> HermitianLattice:
    """Orthogonal direct sum, block diagonal Gram."""
    d1, d2 = L1.rank, L2.rank
    z = Fraction(0)
    rows = []
    for i in range(d1):
        rows.append(list(L1.gram[i]) + [z] * d2)
    for i in range(d2):
        rows.append([z] * d1 + list(L2.gram[i]))
    return HermitianLattice(rows)


# -- enumeration -------------------------------------------------------


def _ball_rows(L: HermitianLattice, R2: Fraction, cap: int = ENUM_CAP) -> list[tuple]:
    """Level-0 rows (lo, hi, 2 lin_0, P_0 at x_0 = 0, above) of one half
    of the ball x^T G x <= R2, by exact integer Fincke-Pohst, in the order
    of nested loops over above = (x_1, ..., x_(d-1)), x_(d-1) outermost,
    ascending.  The rows' vectors are (x_0,) + above for lo <= x_0 <= hi
    (none when hi = lo - 1), of scaled norm q = x^T A x = x_0 (D_1 x_0 +
    2 lin_0) + P_0, where A = c G and c is the common denominator of G.
    They are one vector of each pair {x, -x} of nonzero vectors in the
    ball, the one whose top nonzero coordinate is positive; the zero
    vector is left out, so the ball holds 2 n + 1 vectors when the rows
    hold n.

    With D_k the leading minors of A and B_k its pivot rows (see
    ``HermitianLattice``), fixing x_i..x_(d-1) and minimising q over the
    real x_0..x_(i-1) leaves P_i / D_i, where

        P_i D_(i+1) = (D_(i+1) x_i + lin_i)^2 + D_i P_(i+1),   P_d = 0,

    and lin_i = B_i . x over the fixed coordinates above i.  Each P_i is
    an integer, P_i = x_i (D_(i+1) x_i + 2 lin_i) + P_i(x_i = 0), and x_i
    has a real extension with q <= T = floor(c R2) exactly when
    (D_(i+1) x_i + lin_i)^2 <= D_i (D_(i+1) T - P_(i+1)): one isqrt per
    node.  At level 0, P_0 = q(x) and that range is exactly the ball's
    row, so no vector needs a membership test.  A is positive definite,
    so P_(i+1) = 0 exactly when every coordinate above i is 0; only there
    is the range cut to x_i >= 0 (x_0 >= 1 at level 0).  ``cap`` bounds
    the vectors of the whole ball, checked before the caller expands any
    row, and also the partial vectors of the whole ball visited at levels
    >= 1, which a skewed basis can make far more numerous; a level of w
    half partial vectors, the all-zero one among them, stands for 2 w - 1.
    """
    if R2 < 0:
        raise ValidationError("radius must be nonnegative")
    D, B = L._int_minors, L._int_pivots
    thr = math.floor(R2 * L._int_scale)
    nodes = [((), 0)]  # ((x_(i+1), ..., x_(d-1)), P_(i+1)) in output order
    visited = 0
    for i in reversed(range(L.rank)):
        piv, low = D[i + 1], D[i]
        rows = []  # (lo, hi, 2 lin_i, P_i at x_i = 0, coordinates above i)
        for above, P in nodes:
            lin = sum(map(mul, B[i], above))
            r = math.isqrt(low * (piv * thr - P))
            lo, hi = -((r + lin) // piv), (r - lin) // piv
            if not P:
                lo = 0 if i else 1
            rows.append((lo, hi, 2 * lin, (lin * lin + low * P) // piv, above))
        width = sum(hi - lo + 1 for lo, hi, *_ in rows)
        if not i:
            break
        visited += 2 * width - 1
        if visited > cap:
            raise CapacityError(f"enumeration visits more than {cap} partial vectors")
        nodes = [
            ((xi,) + above, xi * (piv * xi + lin2) + P0) for lo, hi, lin2, P0, above in rows for xi in range(lo, hi + 1)
        ]
    if 2 * width + 1 > cap:
        raise CapacityError(f"enumeration exceeds cap of {cap} vectors")
    return rows


def _enumerate_scaled(L: HermitianLattice, R2: Fraction, cap: int = ENUM_CAP) -> list[int]:
    """The scaled norm x^T (c G) x of each vector of the half ball of
    ``_ball_rows`` (one of each pair {x, -x}, zero left out), one int per
    vector in row order (x_0 ascending in a row); the series need no
    vector.  A series over the whole ball counts each norm twice and adds
    the zero vector's term."""
    piv = L._int_minors[1]
    return [x * (piv * x + lin2) + P0 for lo, hi, lin2, P0, _ in _ball_rows(L, R2, cap) for x in range(lo, hi + 1)]


def _norm_multiplicities(half_norms) -> list[tuple[int, int]]:
    """(q, number of vectors of scaled norm q) over the nonzero vectors of
    a ball, ascending in q, from the norms of its half ball: x and -x
    share a norm, so each count is twice the half ball's.

    Only the gamma-term sums of Lambda use it.  They keep this ascending
    order because the high-precision engine's fsum drops a term lying more
    than 2 prec bits below its accumulator, so its sum depends on the
    order; the direct zeta sum is a math.fsum and counts its norms alone."""
    return sorted((q, 2 * m) for q, m in Counter(half_norms).items())


def enumerate_vectors(L: HermitianLattice, R, cap: int = ENUM_CAP) -> list[tuple[int, ...]]:
    """Integer vectors with |x|^2 <= R^2, zero included, in lexicographic
    order; the only place that builds vector tuples, from the half ball's
    rows, their negatives and the zero vector.  Raises CapacityError when
    more than ``cap`` vectors qualify, or when the enumeration would visit
    more than ``cap`` partial vectors (coordinates above the innermost
    one), before building any vector."""
    Rq = as_fraction(R)
    if Rq < 0:
        raise ValidationError("radius must be nonnegative")
    half = [(x,) + above for lo, hi, _, _, above in _ball_rows(L, Rq * Rq, cap) for x in range(lo, hi + 1)]
    return sorted(chain(half, (tuple(-v for v in x) for x in half), ((0,) * L.rank,)))


# -- theta -------------------------------------------------------------


def _theta1_upper(u: float) -> float:
    """Rigorous upper bound for sum over Z of exp(-pi u k^2), u > 0.

    For u >= 1 the bound 1 + 2q/(1-q) with q = e^(-pi u) dominates the
    geometric tail; below 1 the exact modular identity
    theta(u) = u^(-1/2) theta(1/u) reduces to the first case.
    """
    if u <= 0:
        raise ValidationError("theta bound needs u > 0")
    if u >= 1.0:
        q = math.exp(-math.pi * u)
        return 1.0 + 2.0 * q / (1.0 - q)
    return _theta1_upper(1.0 / u) / math.sqrt(u)


def _lambda_min_lower(L: HermitianLattice) -> Fraction:
    """Exact positive lower bound for the smallest Gram eigenvalue:
    1 / ||G^(-1)||_inf = D_d / (c max_i sum_j |adj(A)_ij|)."""
    return Fraction(L._int_minors[-1], L._int_scale * max(sum(map(abs, row)) for row in _adjugate(L)))


def _theta_tail_bound(d: int, t: float, R2: float, lam_lb: float) -> float:
    """Rigorous bound for sum over |e|^2 > R2 of exp(-pi t |e|^2).

    Split exp(-pi t q) = exp(-pi t (1-a) q) exp(-pi t a q) and bound the
    second factor's sum over the whole lattice by a product of rank-one
    theta bounds at the smallest eigenvalue.  Minimised over a small grid
    of split parameters a.
    """
    best = math.inf
    for alpha in _ALPHA_GRID:
        af = float(alpha)
        u = af * t * lam_lb
        try:
            b = math.exp(-math.pi * t * (1.0 - af) * R2) * _theta1_upper(u) ** d
        except OverflowError:
            continue
        if b < best:
            best = b
    return best


def _roundoff_allowance(value: float, bits: int) -> float:
    # covers per-term exp error plus the exactly-rounded final sum
    return 2.0 ** (14 - bits) * max(1.0, abs(value))


def _theta_1d(c2: Fraction, t: Fraction, eps: float, ctx: Ctx) -> tuple[object, float, int]:
    """Partial sum 1 + 2 sum_{1<=k<=K} exp(-pi t c2 k^2) with exact
    geometric tail bound below eps.  Returns (value, tail_bound, terms).

    The scale a = pi*t*c2 must be a positive double, and the term count
    is checked against its cap before the first tail is evaluated: at a
    tiny scale 1 - exp(-2a(K+1)) rounds to 0."""
    try:
        a = math.pi * float(t) * float(c2)
    except OverflowError:
        a = math.inf
    if not 0 < a < math.inf:
        raise ValidationError("rank-one theta scale pi*t*c^2 lies outside the double range")

    def tail(K: int) -> float:
        e = a * (K + 1) * (K + 1)
        if e > 700:
            return 0.0
        return 2.0 * math.exp(-e) / (1.0 - math.exp(-2.0 * a * (K + 1)))

    k0 = math.sqrt(max(math.log(4.0 / eps), 1.0) / a)
    if k0 > 10**8:
        raise CapacityError("rank-one theta needs too many terms")
    K = max(1, math.ceil(k0))
    while tail(K) >= eps:
        K *= 2
        if K > 10**8:
            raise CapacityError("rank-one theta needs too many terms")
    am = ctx.real(Fraction(c2) * Fraction(t)) * ctx.pi
    exp = ctx.exp
    value = ctx.fsum([ctx.one] + [2 * exp(-am * k * k) for k in range(1, K + 1)])
    return value, tail(K), K


def _check_theta_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    if eps < 1e-250:
        raise ValidationError("eps below 1e-250 is not supported")


def _theta_diagonal(entries, t: Fraction, eps: float, ctx: Ctx) -> SeriesValue:
    """theta at t > 0 of the lattice with diagonal Gram diag(entries),
    exact positive Fractions, as the product of its rank-one series (the
    same series as over the ball, summed over a box instead), with a
    rigorous bound."""
    _check_theta_eps(eps)
    d = len(entries)
    axis_eps = eps / (4.0 * d)
    while True:
        vals, tails, terms = [], [], 0
        for c2 in entries:
            v, tl, k = _theta_1d(c2, t, axis_eps, ctx)
            vals.append(v)
            tails.append(tl)
            terms += 2 * k + 1
        # the bound's product is formed in the context's precision:
        # at 128 bits a difference of two doubles is rounding noise
        prod = prod_up = ctx.one
        for v, tl in zip(vals, tails):
            prod = prod * v
            prod_up = prod_up * (v + tl)
        tail_total = float(prod_up - prod)
        if tail_total < eps or axis_eps < 1e-280:
            value = prod
            err = tail_total + _roundoff_allowance(float(value), ctx.bits)
            return SeriesValue(value, err, terms, True)
        axis_eps /= 4.0


def theta(L: HermitianLattice, t, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP) -> SeriesValue:
    """theta(L, t) = sum over e in L of exp(-pi t |e|^2), rigorous bound.

    The truncation radius starts at R^2 = max(d/(2 pi t), 1) and R doubles
    until the tail bound drops below eps.  A diagonal Gram matrix goes to
    ``_theta_diagonal``, which reads only its diagonal entries; dense ones
    enumerate the ball.  The Arakelov height classes call
    ``_theta_diagonal`` on their restriction's entries directly, with no
    lattice, so this is the one diagonal theta routine of both.
    """
    tq = as_fraction(t)
    if tq <= 0:
        raise ValidationError("theta needs t > 0")
    try:
        tf = float(tq)
    except OverflowError:
        tf = math.inf
    if not 0 < tf < math.inf:
        raise ValidationError("theta needs t inside the double range")
    if is_diagonal(L.gram):
        return _theta_diagonal([row[i] for i, row in enumerate(L.gram)], tq, eps, ctx)
    _check_theta_eps(eps)
    d = L.rank
    lam = float(_lambda_min_lower(L))
    R2 = max(d / (2.0 * math.pi * tf), 1.0)
    while _theta_tail_bound(d, tf, R2, lam) >= eps:
        R2 *= 4.0
        if R2 > 1e18:
            raise CapacityError("theta truncation radius diverged")
    tail = _theta_tail_bound(d, tf, R2, lam)
    norms = _enumerate_scaled(L, Fraction(R2), cap)
    scale = -(ctx.pi * ctx.real(tq) / L._int_scale)
    exp = ctx.exp
    # the zero vector's 1, then one doubled term per pair {x, -x}: doubling
    # is exact, so the exact sum is that of one term per vector.  math.fsum
    # rounds it once; so does the high-precision engine's fsum while every
    # term is >= 2^(-2 prec): it drops a term only past 2 prec bits below
    # its accumulator
    value = ctx.fsum(chain((ctx.one,), (2 * exp(scale * q) for q in norms)))
    err = tail + _roundoff_allowance(float(value), ctx.bits)
    return SeriesValue(value, err, 2 * len(norms) + 1, True)


def theta_functional_equation_defect(L: HermitianLattice, t, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX) -> TransformDefect:
    """Defect |theta(L, t) - vol^(-1) t^(-d/2) theta(dual, 1/t)| together
    with the allowance implied by the two reported error bounds."""
    tq = as_fraction(t)
    if tq <= 0:
        raise ValidationError("theta needs t > 0")
    det = _det_float(L, "the theta functional equation")
    lhs = theta(L, tq, eps, ctx)
    Ld = dual(L)
    rhs = theta(Ld, 1 / tq, eps, ctx)
    factor = 1.0 / (math.sqrt(det) * float(tq) ** (L.rank / 2.0))
    defect = abs(float(lhs.value) - factor * float(rhs.value))
    allowance = lhs.error_bound + factor * rhs.error_bound + _roundoff_allowance(factor * float(rhs.value), ctx.bits)
    return TransformDefect(defect, allowance, lhs, rhs)


# -- completed Lambda and zeta ----------------------------------------


def _lambda_radius(L: HermitianLattice, a: complex, eps_side: float) -> Fraction:
    """Truncation radius R^2 of the sum of G(a, pi |e|^2) over L, with
    tail < eps_side: the ball that ``_gamma_term_sum`` sums over.

    Uses |G(a, x)| <= 2 e^(-x) / x valid for x >= max(2, 2 Re(a) - 2), then
    the theta tail bound at t = 1.
    """
    d = L.rank
    lam_lb = float(_lambda_min_lower(L))
    x_min = max(2.0, 2.0 * a.real - 2.0)
    R2 = max(x_min / math.pi, d / (2.0 * math.pi), 1.0)
    while True:
        bound = (2.0 / (math.pi * R2)) * _theta_tail_bound(d, 1.0, R2, lam_lb)
        if bound < eps_side and math.pi * R2 >= x_min:
            return Fraction(R2)
        R2 *= 4.0
        if R2 > 1e18:
            raise CapacityError("Lambda truncation radius diverged")


def _gamma_term_sum(L: HermitianLattice, a: complex, eps_side: float, ctx: Ctx, cap: int):
    """sum over nonzero e in L of G(a, pi |e|^2), truncated; returns
    (sum, nonzero term count).

    The two most recent sums are kept, keyed on exactly what they depend
    on: L (its Gram), the bits of a (so -0.0 and 0.0 differ), the radius
    R^2 that eps_side gives, ctx and cap.  Lambda(L, s) and
    Lambda(dual, d - s) are built from the same two sums, so the second
    Lambda of such a pair reads both back unless d - (d - s) != s in
    floating point.  eps_side is not the key: the pair's two weights
    det^(1/4) and 1/det(dual)^(1/4) may round apart while the radius
    agrees.  A hit returns the object the same computation made, so no
    value, bound or term count depends on the memo."""
    return _gamma_term_sum_at(L, struct.pack("<2d", a.real, a.imag), _lambda_radius(L, a, eps_side), ctx, cap)


@lru_cache(maxsize=2)
def _gamma_term_sum_at(L: HermitianLattice, a_bits: bytes, R2: Fraction, ctx: Ctx, cap: int):
    a = complex(*struct.unpack("<2d", a_bits))
    norms = _norm_multiplicities(_enumerate_scaled(L, R2, cap))
    c = L._int_scale
    terms = [mult * ctx.upper_G(a, ctx.pi * ctx.real(Fraction(q, c))) for q, mult in norms]
    return ctx.fsum_complex(terms), sum(mult for _, mult in norms)


def _lambda_sides(L: HermitianLattice, s: complex, eps: float) -> tuple:
    """The two gamma-term sums of Lambda(L, s) as (lattice, a, weight,
    eps_side): L at a = s/2 with weight sqrt(vol), then the dual at
    (d - s)/2 with weight 1/sqrt(vol), eps split between them by weight.
    Raises PoleError at s = 0 and s = d, and ValidationError unless
    0 < eps < inf and det(G) lies inside the double range, before any
    ball is enumerated."""
    d = L.rank
    if s == 0 or s == complex(d):
        raise PoleError(f"Lambda has a pole at s = {s}")
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    sv_f = _det_float(L, "Lambda") ** 0.25  # sqrt of the covolume
    sides = ((L, s / 2.0, sv_f), (dual(L), (d - s) / 2.0, 1.0 / sv_f))
    return tuple((M, a, w, eps / (2.0 * max(w, 1.0))) for M, a, w in sides)


def _check_finite(err: float, what: str, s: complex) -> None:
    """Refuse a value whose error bound is not a finite double: the bound
    is at least |value| 2^(14 - bits), so this covers a value past the
    double range as well as an overflow on the way to it (OverflowError,
    passed as an infinite bound)."""
    if not math.isfinite(err):
        raise ValidationError(f"{what} at s = {s!r} overflows a float")


def _sqrt_covolume(L: HermitianLattice, ctx: Ctx):
    """sqrt(vol(L)) = det(G)^(1/4) in the context's real type."""
    return ctx.power(ctx.real(L.det), ctx.real(Fraction(1, 4)))


def completed_lambda(L: HermitianLattice, s, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP) -> SeriesValue:
    """Completed Lambda function of the lattice at complex s.

    Meromorphic in s with simple poles at s = 0 and s = d only; satisfies
    Lambda(L, s) = Lambda(dual, d - s) exactly and has residues
    -2 sqrt(vol) at s = 0 and +2/sqrt(vol) at s = d.  Evaluation at the
    poles raises PoleError.  The reported bound covers the truncated
    tails of both gamma-term sums plus roundoff; the incomplete gamma
    values themselves are evaluated to working precision, so ``rigorous``
    is False.

    A functional-equation pair Lambda(L, s), Lambda(dual, d - s) sums each
    of its two gamma-term sums once: ``_gamma_term_sum`` keeps the two
    most recent sums, keyed on their exact inputs.
    """
    s = complex(s)
    d = L.rank
    (_, a1, w1, eps1), (Ld, a2, w2, eps2) = _lambda_sides(L, s, eps)
    try:
        sum1, n1 = _gamma_term_sum(L, a1, eps1, ctx, cap)
        sum2, n2 = _gamma_term_sum(Ld, a2, eps2, ctx, cap)
        sv = _sqrt_covolume(L, ctx)
        sc = ctx.to_complex(s)
        value = -2 * sv / sc + 2 / (sv * (sc - d)) + sv * sum1 + (1 / sv) * sum2
        err = w1 * eps1 + w2 * eps2 + _roundoff_allowance(abs(complex(value)), ctx.bits)
    except OverflowError:
        err = math.inf
    _check_finite(err, "Lambda", s)
    return SeriesValue(value, err, n1 + n2, False)


def lattice_zeta(L: HermitianLattice, s, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP) -> SeriesValue:
    """Meromorphic continuation of sum over nonzero e of |e|^(-s).

    Computed as Lambda(L, s) * pi^(s/2) / (sqrt(vol) Gamma(s/2)).  Shares
    Lambda's pole at s = d; s = 0 is excluded as well since the route
    through Lambda degenerates there.  At s = -2, -4, ... it is exactly 0.
    """
    s = complex(s)
    lam = completed_lambda(L, s, eps, ctx, cap)
    if s.imag == 0 and s.real < 0 and s.real % 2 == 0:  # 1/Gamma(s/2) = 0
        return SeriesValue(ctx.to_complex(0), _roundoff_allowance(0.0, ctx.bits), lam.terms_used, False)
    half_s = ctx.to_complex(s) / 2
    try:
        factor = ctx.pi_power(half_s) / (_sqrt_covolume(L, ctx) * ctx.gamma(half_s))
        value = lam.value * factor
        err = lam.error_bound * abs(complex(factor)) + _roundoff_allowance(abs(complex(value)), ctx.bits)
    except OverflowError:
        err = math.inf
    _check_finite(err, "zeta", s)
    return SeriesValue(value, err, lam.terms_used, False)


def zeta_direct_truncated(
    L: HermitianLattice, s, radius, tail_correction: bool = False, cap: int = ENUM_CAP
) -> SeriesValue:
    """Brute-force partial sum of |e|^(-s) over 0 < |e| <= radius.

    Only meaningful for Re(s) > d.  With ``tail_correction`` the smooth
    remainder is approximated by the radial integral
    (surface(d) / vol) * R^(d-s) / (s - d), which leaves an error of
    lower order than the plain truncation.

    The half ball's scaled norms are counted in one Counter and each
    distinct norm q of m half-ball vectors gives the term 2m |e|^(-s).
    fsum_c rounds the exact sum once, so the terms need no sorting.
    """
    s = complex(s)
    d = L.rank
    if s.real <= d:
        raise ValidationError("direct zeta summation needs Re(s) > rank")
    Rq = as_fraction(radius)
    if Rq <= 0:
        raise ValidationError("radius must be positive")
    sqrt_det = math.sqrt(_det_float(L, "direct zeta"))
    counts = Counter(_enumerate_scaled(L, Rq * Rq, cap))
    c = L._int_scale
    half = -s / 2.0
    value = fsum_c([2 * m * cmath.exp(half * math.log(q / c)) for q, m in counts.items()])
    nterms = 2 * counts.total()
    Rf = float(Rq)
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    tail_size = (surf / sqrt_det) * Rf ** (d - s.real) / (s.real - d)
    if tail_correction:
        corr = (surf / sqrt_det) * Rf ** complex(d - s.real, -s.imag) / (s - d)
        value = value + corr
        est = tail_size * (d / 2.0 + abs(s) / 2.0 + 1.0) / (math.pi * Rf * Rf)
    else:
        est = tail_size
    return SeriesValue(value, est, nterms, False)
