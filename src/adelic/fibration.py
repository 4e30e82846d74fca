"""Hirzebruch surfaces as twisted P^1 fibrations over P^1.

The surface P(O + O(n)) carries a rank two fiber bundle whose second
summand twists by the degree n class of the base point.  A line class is
recorded as (k, w, j): fiber degree k, character weight w, base degree
j.  Heights only see k and the combination J = n*w + j, which is the
shadow of the Picard presentation: moving one unit of weight into the
character costs n units of base degree.

Fiber coordinates are always (plain, twisted); constructing the surface
with a negative class swaps the two roles and stores |n|, the two
surfaces being isomorphic that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import isqrt
from operator import itemgetter

from .arakelov import _canonical_pairs
from .counts import _as_bound
from .errors import CapacityError, ValidationError
from .exact import as_int, int_root, sqrt_or_float
from .heights import ArchKind, ProjPoint, canonical_vectors
from .places import Place, abs_v, euler_phi, support

FIBER_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class HirzebruchSurface:
    """P(O + O(n)) over P^1; negative n is normalized away."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", abs(as_int(self.n, "surface parameter n")))


@dataclass(frozen=True)
class FibrationLineClass:
    """Picard data (k, w, j): fiber degree, character weight, base degree."""

    k: int
    w: int
    j: int

    def __post_init__(self):
        for name in ("k", "w", "j"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"line class entry {name}"))

    def shifted(self, n: int, steps: int = 1) -> "FibrationLineClass":
        """Equivalent representative with ``steps`` units of base degree
        traded into the character weight."""
        return FibrationLineClass(self.k, self.w + steps, self.j - n * steps)


def _point_of_P1(x, message: str) -> ProjPoint:
    p = x if isinstance(x, ProjPoint) else ProjPoint(x)
    if p.n != 1:
        raise ValidationError(message)
    return p


@dataclass(frozen=True)
class FnPoint:
    """A rational point: base on P^1 plus projective fiber coordinates.

    Both representatives are normalised as a ``ProjPoint`` (primitive
    integers, positive leading entry), so equal points compare equal; a
    ``ProjPoint`` is taken as it is.  The fiber is stored as its
    coordinate pair.
    """

    base: ProjPoint
    fiber: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", _point_of_P1(self.base, "base point must lie on P^1"))
        object.__setattr__(self, "fiber", _point_of_P1(self.fiber, "fiber coordinates must be a pair").coords)

    @property
    def base_height(self) -> int:
        return int(max(abs(c) for c in self.base.coords))


def twisted_degree(Y: HirzebruchSurface, c: FibrationLineClass) -> int:
    """The only base exponent heights can see: n*w + j."""
    return Y.n * c.w + c.j


def _fiber_gauge_sq(s, t, scale: Fraction, arch: ArchKind) -> Fraction:
    # gauge of (s, t) in the fiber lattice diag(1, scale); over a base of
    # height N the twist makes scale = N^(-2n)
    a, b = Fraction(s * s), t * t * scale
    return max(a, b) if arch is ArchKind.MAX else a + b


def height_Fn_sq(Y: HirzebruchSurface, c: FibrationLineClass, P: FnPoint, arch=ArchKind.MAX) -> Fraction:
    """Exact square of the height: M^(2k) * N^(2(n*w+j)).

    N is the max height of the base point; M is the gauge of the fiber
    pair in the lattice Z + Z*N^(-n) twisted by the base, with the
    archimedean kind applying to the fiber gauge only.
    """
    arch = ArchKind.parse(arch)
    m_sq = _fiber_gauge_sq(*P.fiber, Fraction(1, P.base_height ** (2 * Y.n)), arch)
    return m_sq ** c.k * Fraction(P.base_height) ** (2 * twisted_degree(Y, c))


def height_Fn(Y: HirzebruchSurface, c: FibrationLineClass, P: FnPoint, arch=ArchKind.MAX):
    """Height of a point under (k, w, j); exact whenever the square root
    of the exact squared height is rational."""
    return sqrt_or_float(height_Fn_sq(Y, c, P, arch))


def character_shift_invariance(Y: HirzebruchSurface, c: FibrationLineClass, P: FnPoint, arch=ArchKind.MAX):
    """Heights of the two representatives (k, w, j) and (k, w+1, j-n).

    Both are returned so callers see the pair; they agree exactly since
    only k and n*w + j enter the height.
    """
    return (
        height_Fn(Y, c, P, arch),
        height_Fn(Y, c.shifted(Y.n), P, arch),
    )


def is_effective(Y: HirzebruchSurface, c: FibrationLineClass) -> bool:
    """Whether the class contains an effective divisor.

    Sections are spanned by bi-monomials s^a t^b u^c v^d with a + b = k
    and c + d = n*w + j - n*b; some choice of exponents works exactly
    when k >= 0 and n*w + j >= 0 (take b = 0).
    """
    return c.k >= 0 and twisted_degree(Y, c) >= 0


def anticanonical_class(Y: HirzebruchSurface) -> FibrationLineClass:
    """The class (2, 1, 2), summing the four torus invariant divisors:
    two fibers give base degree 2, the plain section gives fiber degree
    1, and the twisted section gives fiber degree 1 plus n units of base
    degree absorbed as one unit of character weight."""
    return FibrationLineClass(2, 1, 2)


def height_Fn_raw(Y: HirzebruchSurface, c: FibrationLineClass, base_vec, fiber_vec, arch=ArchKind.MAX):
    """Height from arbitrary rational representatives.

    ``base_vec`` is any nonzero rational pair for the base point;
    ``fiber_vec`` is any nonzero rational pair whose second entry
    transforms as a degree n form in the base representative.  The value
    is the product over all relevant places of

        (local fiber gauge)^k * (local base gauge)^(n*w+j),

    the base gauge being the max gauge everywhere and the fiber gauge
    seeing the twist through base-gauge^(-n) on the second entry.  By the
    product formula this is invariant under fiber rescaling and under
    base rescaling (u,v) -> (c*u, c*v) accompanied by t -> c^n * t, which
    is exactly the gluing between the two coordinate charts; on canonical
    representatives it reduces to height_Fn.
    """
    arch = ArchKind.parse(arch)
    n = Y.n
    J = twisted_degree(Y, c)
    beta = tuple(Fraction(x) for x in base_vec)
    phi = tuple(Fraction(x) for x in fiber_vec)
    if len(beta) != 2 or beta == (0, 0):
        raise ValidationError("base representative must be a nonzero rational pair")
    if len(phi) != 2 or phi == (0, 0):
        raise ValidationError("fiber representative must be a nonzero rational pair")

    primes = set()
    for x in (*beta, *phi):
        if x != 0:
            primes.update(support(x))

    base_sq = max(beta[0] ** 2, beta[1] ** 2)
    fiber_sq = _fiber_gauge_sq(*phi, base_sq ** (-n), arch)
    total_sq = fiber_sq ** c.k * base_sq ** J
    for p in sorted(primes):
        v = Place.finite(p)
        bg = max(abs_v(beta[0], v), abs_v(beta[1], v))
        fg = max(abs_v(phi[0], v), abs_v(phi[1], v) * bg ** (-n))
        total_sq *= fg ** (2 * c.k) * bg ** (2 * J)
    return sqrt_or_float(total_sq)


def _row_total(W: int, Q: int, arch: ArchKind, limit: int) -> int:
    """Candidates that ``canonical_vectors`` visits for the fiber pairs
    (s, t) of weighted gauge squared at most Q under the weights (W, 1):
    1 on the row s = 0 (t = 1 only), and the 2*|t|_max + 1 values of t on
    each row 1 <= s <= isqrt(Q // W).  The ``l2`` sum stops once it
    passes ``limit``."""
    rows = isqrt(Q // W)
    if arch is ArchKind.MAX:
        return 1 + rows * (2 * isqrt(Q) + 1)
    total = 1
    for s in range(1, rows + 1):
        total += 2 * isqrt(Q - W * s * s) + 1
        if total > limit:
            break
    return total


def enumerate_Fn(Y: HirzebruchSurface, c: FibrationLineClass, arch, H_bound, cap: int = FIBER_ENUM_CAP) -> list[FnPoint]:
    """Fiberwise enumeration below a height bound.

    Keeps the base points with N^(n*w+j) <= H_bound, then on each fiber
    the coprime pairs with M^k <= H_bound / N^(n*w+j); needs k >= 1 and
    n*w + j >= 1 so both stages are finite.  Note the base cut is part of
    the defined output: a class with n*w + j <= n*k admits points of
    small fiber gauge over arbitrarily tall bases (along the contracted
    section), and those fall outside this truncation.

    Output is grouped by base (height, then coordinates), each fiber
    sorted by gauge and then coordinates.  All comparisons are exact.

    Over a base of height N the fiber gauge squared is M^2 = g / W, with
    W = N^(2n) and g the integer gauge squared of (s, t) under the weights
    (W, 1); so M^k <= H_bound / N^J holds exactly when g <= Q_N, the
    integer k-th root of (H_bound / N^J)^2 * W^k.  The 4*phi(N) bases of
    height N share one fiber list, the ``canonical_vectors`` rows of
    budget Q_N.  Their exact candidate counts (``_row_total``) times
    4*phi(N) are summed over the heights and checked against ``cap``
    before any base or fiber is built.
    """
    arch = ArchKind.parse(arch)
    n, k = Y.n, c.k
    J = twisted_degree(Y, c)
    if k < 1 or J < 1:
        raise ValidationError("enumeration needs fiber degree >= 1 and twisted base degree >= 1")
    bound = _as_bound(H_bound, "H_bound")
    if bound < 1:
        return []
    budgets, total = [], 0
    for N in range(1, int_root(bound, J) + 1):
        W = N ** (2 * n)
        Q = int_root((bound / N**J) ** 2 * W**k, k)
        bases = 4 * euler_phi(N)
        total += bases * _row_total(W, Q, arch, (cap - total) // bases)
        if total > cap:
            raise CapacityError(f"fiber rows up to base height {N} hold more than the cap of {cap} candidates")
        budgets.append((W, Q))
    out: list[FnPoint] = []
    heights = groupby(_canonical_pairs(len(budgets), ArchKind.MAX), key=itemgetter(0))
    for (W, Q), (_, pairs) in zip(budgets, heights):
        fibers = [ProjPoint(v[1:]) for v in canonical_vectors(1, arch, Q, (W, 1))]
        for _, a, b in pairs:
            base = ProjPoint((a, b))
            out.extend(FnPoint(base, f) for f in fibers)
    return out
