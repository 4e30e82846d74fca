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
from math import gcd

from .arakelov import base_points_by_height
from .errors import CapacityError, ValidationError, brief
from .exact import int_root, sqrt_or_float
from .heights import ArchKind, ProjPoint
from .places import Place, abs_v, support

FIBER_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class HirzebruchSurface:
    """P(O + O(n)) over P^1; negative n is normalized away."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", abs(int(self.n)))


@dataclass(frozen=True)
class FibrationLineClass:
    """Picard data (k, w, j): fiber degree, character weight, base degree."""

    k: int
    w: int
    j: int

    def __post_init__(self):
        for name in ("k", "w", "j"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def shifted(self, n: int, steps: int = 1) -> "FibrationLineClass":
        """Equivalent representative with ``steps`` units of base degree
        traded into the character weight."""
        return FibrationLineClass(self.k, self.w + steps, self.j - n * steps)


def _canonical_pair(pair) -> tuple:
    s, t = (int(x) for x in pair)
    if s == 0 and t == 0:
        raise ValidationError("fiber coordinates must not both vanish")
    g = gcd(abs(s), abs(t))
    s //= g
    t //= g
    lead = s if s != 0 else t
    if lead < 0:
        s, t = -s, -t
    return (s, t)


@dataclass(frozen=True)
class FnPoint:
    """A rational point: base on P^1 plus projective fiber coordinates.

    Both representatives are stored primitive with positive leading
    entry, so equal points compare equal.
    """

    base: ProjPoint
    fiber: tuple

    def __post_init__(self):
        base = self.base if isinstance(self.base, ProjPoint) else ProjPoint(self.base)
        if base.n != 1:
            raise ValidationError("base point must lie on P^1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", _canonical_pair(self.fiber))

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

    Each fiber is scanned over the box 0 <= s <= s_cap, |t| <= t_cap
    around its gauge ball; the boxes, which bound the output, are summed
    over the bases and checked against ``cap`` before any fiber is scanned.
    """
    arch = ArchKind.parse(arch)
    n = Y.n
    J = twisted_degree(Y, c)
    if c.k < 1 or J < 1:
        raise ValidationError("enumeration needs fiber degree >= 1 and twisted base degree >= 1")
    bound = Fraction(H_bound)
    if bound < 1:
        return []
    boxes, total = [], 0
    for b in base_points_by_height(int_root(bound, J)):
        N = int(max(abs(x) for x in b.coords))
        budget_sq = (bound / Fraction(N) ** J) ** 2  # fiber gauge bound, squared: M^(2k) <= this
        # M >= s and M >= |t| / N^n, so M^(2k) <= budget_sq bounds both
        s_cap = int_root(budget_sq, 2 * c.k)
        t_cap = int_root(budget_sq * N ** (2 * n * c.k), 2 * c.k)
        total += (s_cap + 1) * (2 * t_cap + 1)
        if total > cap:
            raise CapacityError(f"fiber boxes up to base height {N} hold {brief(total)} candidates, over the cap {cap}")
        boxes.append((b, N, budget_sq, s_cap, t_cap))
    out: list[FnPoint] = []
    for b, N, budget_sq, s_cap, t_cap in boxes:
        scale = Fraction(1, N ** (2 * n))
        picked = []
        for s in range(0, s_cap + 1):
            for t in range(-t_cap, t_cap + 1):
                if s == 0:
                    if t != 1:
                        continue
                elif gcd(s, abs(t)) != 1:
                    continue
                m_sq = _fiber_gauge_sq(s, t, scale, arch)
                if m_sq**c.k > budget_sq:
                    continue
                picked.append((m_sq, (s, t)))
        picked.sort()
        out.extend(FnPoint(b, pair) for _, pair in picked)
    return out
