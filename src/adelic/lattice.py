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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CapacityError, PoleError, ValidationError
from .exact import as_fraction, identity, inverse, is_diagonal, pivot_rows, sqrt_or_float
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
    """Z^d with an exact symmetric positive definite Gram matrix."""

    __slots__ = ("gram", "rank", "_det", "_int_scale", "_int_minors", "_int_pivots", "_inv")

    def __init__(self, gram):
        rows = [tuple(as_fraction(v) for v in row) for row in gram]
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
        minors, upper = pivot_rows(rows)
        if any(m <= 0 for m in minors):
            raise ValidationError("Gram matrix must be positive definite")
        self.gram = tuple(rows)
        self.rank = d
        self._det = minors[-1]
        scale = 1
        for row in rows:
            for v in row:
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
        self._int_scale = scale
        # Fincke-Pohst data of the integer Gram A = c G: its leading minors
        # D_k = c^k det(G_k) (D_0 = 1), and row k of A after fraction-free
        # elimination of its first k columns, c D_k upper[k], past the
        # diagonal entry (which is D_(k+1)).
        D = (1, *(m.numerator * scale ** (k + 1) // m.denominator for k, m in enumerate(minors)))
        self._int_minors = D
        self._int_pivots = tuple(
            tuple(scale * D[k] * v.numerator // v.denominator for v in upper[k][k + 1 :]) for k in range(d)
        )
        self._inv = None

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
        return self._det

    def norm_sq(self, x) -> Fraction:
        """Exact |x|^2 = x^T G x of an integer vector, from G itself; the
        series read a whole ball's norms from ``_enumerate_scaled``."""
        if len(x) != self.rank:
            raise ValidationError("vector length does not match lattice rank")
        return sum((xi * sum(map(mul, row, x)) for xi, row in zip(x, self.gram)), Fraction(0))


def vol(L: HermitianLattice):
    """Covolume sqrt(det G); exact Fraction when det is a perfect rational
    square, float otherwise."""
    return sqrt_or_float(L.det)


def arithmetic_degree(L: HermitianLattice) -> float:
    """-log vol(L)."""
    return -0.5 * math.log(float(L.det))


def _gram_inverse(L: HermitianLattice):
    """G^(-1), computed once per lattice."""
    if L._inv is None:
        L._inv = inverse(L.gram)
    return L._inv


def dual(L: HermitianLattice) -> HermitianLattice:
    """Dual lattice, Gram matrix G^(-1)."""
    return HermitianLattice(_gram_inverse(L))


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
    """Level-0 rows (lo, hi, 2 lin_0, P_0 at x_0 = 0, above) of the ball
    x^T G x <= R2, by exact integer Fincke-Pohst, in the order of nested
    loops over above = (x_1, ..., x_(d-1)), x_(d-1) outermost, ascending.
    The ball's vectors are (x_0,) + above for lo <= x_0 <= hi (none when
    hi = lo - 1), of scaled norm q = x^T A x = x_0 (D_1 x_0 + 2 lin_0) +
    P_0, where A = c G and c is the common denominator of G.

    With D_k the leading minors of A and B_k its pivot rows (see
    ``HermitianLattice``), fixing x_i..x_(d-1) and minimising q over the
    real x_0..x_(i-1) leaves P_i / D_i, where

        P_i D_(i+1) = (D_(i+1) x_i + lin_i)^2 + D_i P_(i+1),   P_d = 0,

    and lin_i = B_i . x over the fixed coordinates above i.  Each P_i is
    an integer, P_i = x_i (D_(i+1) x_i + 2 lin_i) + P_i(x_i = 0), and x_i
    has a real extension with q <= T = floor(c R2) exactly when
    (D_(i+1) x_i + lin_i)^2 <= D_i (D_(i+1) T - P_(i+1)): one isqrt per
    node.  At level 0, P_0 = q(x) and that range is exactly the ball's
    row, so no vector needs a membership test.  ``cap`` bounds the
    vectors in the rows, checked before the caller expands any, and also
    the partial vectors visited at levels >= 1, which a skewed basis can
    make far more numerous.
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
            rows.append((lo, hi, 2 * lin, (lin * lin + low * P) // piv, above))
        width = sum(hi - lo + 1 for lo, hi, *_ in rows)
        if not i:
            break
        visited += width
        if visited > cap:
            raise CapacityError(f"enumeration visits more than {cap} partial vectors")
        nodes = [
            ((xi,) + above, xi * (piv * xi + lin2) + P0) for lo, hi, lin2, P0, above in rows for xi in range(lo, hi + 1)
        ]
    if width > cap:
        raise CapacityError(f"enumeration exceeds cap of {cap} vectors")
    return rows


def _enumerate_scaled(L: HermitianLattice, R2: Fraction, cap: int = ENUM_CAP) -> list[int]:
    """The scaled norm x^T (c G) x of each integer vector with x^T G x <=
    R2, one int per vector in the row order of ``_ball_rows`` (x_0
    ascending in a row); the series need no vector.  The order is part of
    the result: above 53 bits ``ctx.fsum_iter`` is exact only within about
    2 prec bits of exponent spread, so ``theta`` there could change in its
    last bits if the same terms came in another order."""
    piv = L._int_minors[1]
    return [x * (piv * x + lin2) + P0 for lo, hi, lin2, P0, _ in _ball_rows(L, R2, cap) for x in range(lo, hi + 1)]


def _norm_multiplicities(norms) -> list[tuple[int, int]]:
    """(q, number of vectors of scaled norm q) over the nonzero scaled
    norms of a ball, ascending in q."""
    return sorted(Counter(q for q in norms if q).items())


def enumerate_vectors(L: HermitianLattice, R, cap: int = ENUM_CAP) -> list[tuple[int, ...]]:
    """Integer vectors with |x|^2 <= R^2, zero included, in lexicographic
    order; the only place that builds vector tuples from the ball's rows.
    Raises CapacityError when more than ``cap`` vectors qualify, or when
    the enumeration would visit more than ``cap`` partial vectors
    (coordinates above the innermost one), before building any vector."""
    Rq = as_fraction(R)
    if Rq < 0:
        raise ValidationError("radius must be nonnegative")
    return sorted((x,) + above for lo, hi, _, _, above in _ball_rows(L, Rq * Rq, cap) for x in range(lo, hi + 1))


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
    1 / ||G^(-1)||_inf."""
    row_sums = [sum(abs(v) for v in row) for row in _gram_inverse(L)]
    return 1 / max(row_sums)


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
    geometric tail bound below eps.  Returns (value, tail_bound, terms)."""
    a = math.pi * float(t) * float(c2)
    if a <= 0:
        raise ValidationError("theta needs t > 0 and a definite form")

    def tail(K: int) -> float:
        e = a * (K + 1) * (K + 1)
        if e > 700:
            return 0.0
        return 2.0 * math.exp(-e) / (1.0 - math.exp(-2.0 * a * (K + 1)))

    K = max(1, math.ceil(math.sqrt(max(math.log(4.0 / eps), 1.0) / a)))
    while tail(K) >= eps:
        K *= 2
        if K > 10**8:
            raise CapacityError("rank-one theta needs too many terms")
    am = ctx.real(Fraction(c2) * Fraction(t)) * ctx.pi
    exp = ctx.exp
    value = ctx.fsum([ctx.one] + [2 * exp(-am * k * k) for k in range(1, K + 1)])
    return value, tail(K), K


def theta(L: HermitianLattice, t, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP) -> SeriesValue:
    """theta(L, t) = sum over e in L of exp(-pi t |e|^2), rigorous bound.

    The truncation radius starts at R^2 = max(d/(2 pi t), 1) and R doubles
    until the tail bound drops below eps.  Diagonal Gram matrices use the
    exact factorisation into rank-one series (the same series, summed over
    a box instead of a ball); dense ones enumerate the ball.
    """
    tq = as_fraction(t)
    if tq <= 0:
        raise ValidationError("theta needs t > 0")
    if not (eps > 0):
        raise ValidationError("eps must be positive")
    if eps < 1e-250:
        raise ValidationError("eps below 1e-250 is not supported")
    d = L.rank

    if is_diagonal(L.gram):
        axis_eps = eps / (4.0 * d)
        while True:
            vals, tails, terms = [], [], 0
            for i in range(d):
                v, tl, k = _theta_1d(L.gram[i][i], tq, axis_eps, ctx)
                vals.append(v)
                tails.append(tl)
                terms += 2 * k + 1
            prod = ctx.one
            prod_up = 1.0
            for v, tl in zip(vals, tails):
                prod = prod * v
                prod_up *= float(v) + tl
            tail_total = prod_up - float(prod)
            if tail_total < eps or axis_eps < 1e-280:
                value = prod
                err = tail_total + _roundoff_allowance(float(value), ctx.bits)
                return SeriesValue(value, err, terms, True)
            axis_eps /= 4.0

    tf = float(tq)
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
    value = ctx.fsum_iter(exp(scale * q) for q in norms)
    err = tail + _roundoff_allowance(float(value), ctx.bits)
    return SeriesValue(value, err, len(norms), True)


def theta_functional_equation_defect(L: HermitianLattice, t, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX) -> TransformDefect:
    """Defect |theta(L, t) - vol^(-1) t^(-d/2) theta(dual, 1/t)| together
    with the allowance implied by the two reported error bounds."""
    tq = as_fraction(t)
    if tq <= 0:
        raise ValidationError("theta needs t > 0")
    lhs = theta(L, tq, eps, ctx)
    Ld = dual(L)
    rhs = theta(Ld, 1 / tq, eps, ctx)
    factor = 1.0 / (math.sqrt(float(L.det)) * float(tq) ** (L.rank / 2.0))
    defect = abs(float(lhs.value) - factor * float(rhs.value))
    allowance = lhs.error_bound + factor * rhs.error_bound + _roundoff_allowance(factor * float(rhs.value), ctx.bits)
    return TransformDefect(defect, allowance, lhs, rhs)


# -- completed Lambda and zeta ----------------------------------------


def _lambda_radius(d: int, re_a_max: float, eps_side: float, lam_lb: float) -> float:
    """Truncation radius for a sum of G(a, pi q) terms with tail < eps_side.

    Uses |G(a, x)| <= 2 e^(-x) / x valid for x >= max(2, 2 Re(a) - 2), then
    the theta tail bound at t = 1.
    """
    x_min = max(2.0, 2.0 * re_a_max - 2.0)
    R2 = max(x_min / math.pi, d / (2.0 * math.pi), 1.0)
    while True:
        bound = (2.0 / (math.pi * R2)) * _theta_tail_bound(d, 1.0, R2, lam_lb)
        if bound < eps_side and math.pi * R2 >= x_min:
            return R2
        R2 *= 4.0
        if R2 > 1e18:
            raise CapacityError("Lambda truncation radius diverged")


def _gamma_term_sum(L: HermitianLattice, a: complex, eps_side: float, ctx: Ctx, cap: int):
    """sum over nonzero e in L of G(a, pi |e|^2), truncated; returns
    (sum, nonzero term count)."""
    d = L.rank
    lam = float(_lambda_min_lower(L))
    R2 = _lambda_radius(d, a.real, eps_side, lam)
    norms = _norm_multiplicities(_enumerate_scaled(L, Fraction(R2), cap))
    c = L._int_scale
    terms = [mult * ctx.upper_G(a, ctx.pi * ctx.real(Fraction(q, c))) for q, mult in norms]
    return ctx.fsum_complex(terms), sum(mult for _, mult in norms)


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
    """
    s = complex(s)
    d = L.rank
    if s == 0 or s == complex(d):
        raise PoleError(f"Lambda has a pole at s = {s}")
    if not (eps > 0):
        raise ValidationError("eps must be positive")
    sv_f = float(L.det) ** 0.25  # sqrt of the covolume
    Ld = dual(L)
    a1 = s / 2.0
    a2 = (d - s) / 2.0
    # split eps between the two sums, weighted by their prefactors
    w1, w2 = sv_f, 1.0 / sv_f
    eps1 = eps / (2.0 * max(w1, 1.0))
    eps2 = eps / (2.0 * max(w2, 1.0))
    sum1, n1 = _gamma_term_sum(L, a1, eps1, ctx, cap)
    sum2, n2 = _gamma_term_sum(Ld, a2, eps2, ctx, cap)
    sv = _sqrt_covolume(L, ctx)
    sc = ctx.to_complex(s)
    value = -2 * sv / sc + 2 / (sv * (sc - d)) + sv * sum1 + (1 / sv) * sum2
    err = w1 * eps1 + w2 * eps2 + _roundoff_allowance(abs(complex(value)), ctx.bits)
    return SeriesValue(value, err, n1 + n2, False)


def lattice_zeta(L: HermitianLattice, s, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP) -> SeriesValue:
    """Meromorphic continuation of sum over nonzero e of |e|^(-s).

    Computed as Lambda(L, s) * pi^(s/2) / (sqrt(vol) Gamma(s/2)).  Shares
    Lambda's pole at s = d; s = 0 is excluded as well since the route
    through Lambda degenerates there.
    """
    s = complex(s)
    lam = completed_lambda(L, s, eps, ctx, cap)
    half_s = ctx.to_complex(s) / 2
    factor = ctx.pi_power(half_s) / (_sqrt_covolume(L, ctx) * ctx.gamma(half_s))
    value = lam.value * factor
    err = lam.error_bound * abs(complex(factor)) + _roundoff_allowance(abs(complex(value)), ctx.bits)
    return SeriesValue(value, err, lam.terms_used, False)


def zeta_direct_truncated(
    L: HermitianLattice, s, radius, tail_correction: bool = False, cap: int = ENUM_CAP
) -> SeriesValue:
    """Brute-force partial sum of |e|^(-s) over 0 < |e| <= radius.

    Only meaningful for Re(s) > d.  With ``tail_correction`` the smooth
    remainder is approximated by the radial integral
    (surface(d) / vol) * R^(d-s) / (s - d), which leaves an error of
    lower order than the plain truncation.
    """
    s = complex(s)
    d = L.rank
    if s.real <= d:
        raise ValidationError("direct zeta summation needs Re(s) > rank")
    Rq = as_fraction(radius)
    if Rq <= 0:
        raise ValidationError("radius must be positive")
    norms = _norm_multiplicities(_enumerate_scaled(L, Rq * Rq, cap))
    c = L._int_scale
    half = -s / 2.0
    value = fsum_c([mult * cmath.exp(half * math.log(q / c)) for q, mult in norms])
    nterms = sum(mult for _, mult in norms)
    Rf = float(Rq)
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    tail_size = (surf / math.sqrt(float(L.det))) * Rf ** (d - s.real) / (s.real - d)
    if tail_correction:
        corr = (surf / math.sqrt(float(L.det))) * Rf ** complex(d - s.real, -s.imag) / (s - d)
        value = value + corr
        est = tail_size * (d / 2.0 + abs(s) / 2.0 + 1.0) / (math.pi * Rf * Rf)
    else:
        est = tail_size
    return SeriesValue(value, est, nterms, False)
