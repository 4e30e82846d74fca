"""Arakelov L-series over the projective line.

A direct sum of metrized line bundles O(m_1) + ... + O(m_d) on P^1
restricts at each rational base point to a rank d lattice with exact
diagonal Gram matrix; an L-series sums an integrand of that lattice over
all base points of height at most a cutoff.  Supported integrands: the
theta value at t=1 times a covolume power, the lattice zeta value times
a covolume power, or the bare covolume power (which simply counts points
when s=0).

The restriction at a base point depends on the point only through its
exact height squared, so the roughly (12/pi^2)*cutoff^2 base points fall
into far fewer height classes.  The restriction, the integrand, the
covolume power, the term and its error bound are formed once per class
and then repeated by the class multiplicity.  Terms are summed in a
deterministic order (base height, then canonical coordinates) with
exactly rounded accumulation.  The points of one class are contiguous in
that order and all carry the identical floating term, so the expanded
sequence is the one a per-point evaluation would sum, term for term:
equal inputs give equal bits, and regrouping terms by height cannot
change the value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional

from .errors import CapacityError, ValidationError, brief
from .heights import ArchKind, ProjPoint, restrict_bundle_sum
from .lattice import (
    ENUM_CAP,
    HermitianLattice,
    SeriesValue,
    _roundoff_allowance,
    lattice_zeta,
    theta,
    vol,
)
from .numeric import Ctx, DEFAULT_CTX
from .places import euler_phi


class PhiKind(enum.Enum):
    """Integrand applied to each restricted lattice."""

    THETA = "theta"  # theta(L, 1) * covol(L)^s
    ZETA = "zeta"    # lattice_zeta(L, d*s) * covol(L)^s
    NORM = "norm"    # covol(L)^s

    @classmethod
    def parse(cls, value) -> "PhiKind":
        if isinstance(value, PhiKind):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValidationError(f"integrand kind must be 'theta', 'zeta' or 'norm', got {value!r}") from None


@dataclass(frozen=True)
class ArakelovSeriesSpec:
    """A truncated L-series: which bundles, which metric, where to stop.

    ``cutoff`` keeps the base points whose degree one height is at most
    that integer.  ``point_filter`` optionally restricts the sum to a
    subset of the base; by default every rational point contributes.
    """

    bundle_degrees: tuple
    arch: ArchKind = ArchKind.MAX
    s: complex = 0j
    cutoff: int = 1
    phi_kind: PhiKind = PhiKind.THETA
    point_filter: Optional[Callable[[ProjPoint], bool]] = None

    def __post_init__(self):
        degrees = tuple(int(m) for m in self.bundle_degrees)
        if not degrees:
            raise ValidationError("need at least one bundle degree")
        cutoff = int(self.cutoff)
        if cutoff < 1:
            raise ValidationError("cutoff must be a positive integer")
        object.__setattr__(self, "bundle_degrees", degrees)
        object.__setattr__(self, "arch", ArchKind.parse(self.arch))
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "phi_kind", PhiKind.parse(self.phi_kind))

    @property
    def rank(self) -> int:
        return len(self.bundle_degrees)


@dataclass(frozen=True)
class TermRow:
    """One base point's contribution, in summation order."""

    height_sq: Fraction
    point: ProjPoint
    covolume: "Fraction | float"
    phi_value: "complex | float"
    phi_error: float
    term: "complex | float"
    term_error: float


@dataclass(frozen=True)
class GroupedRow:
    """Terms of the theta series sharing one base height.

    ``count`` comes from exhaustive enumeration: 4 points at N=1 and
    4*phi(N) at N>=2.  ``reference_coefficient`` carries a closed form
    quoted for this series, 2*(1 + 2*(summatory totient at N)); it
    disagrees with the enumerated count, is reported for side by side
    comparison only, and never enters the sum.
    """

    height: int
    count: int
    theta_value: "complex | float"
    term: "complex | float"
    reference_coefficient: int


@dataclass(frozen=True)
class ProbeRow:
    """Partial sums of the degree [1] theta series at three cutoffs."""

    s: complex
    partials: tuple
    growth_exponent: float  # log2 of |S_4B - S_2B| / |S_2B - S_B|
    stable: bool


@dataclass(frozen=True)
class _HeightClass:
    """The base points sharing one exact height squared, with the term
    they all contribute."""

    height_sq: int
    points: tuple  # canonical pairs (a, b), in summation order
    lattice: HermitianLattice
    phi_value: "complex | float"
    phi_error: float
    term: "complex | float"
    term_error: float


def _canonical_pairs(cutoff, arch: ArchKind) -> list[tuple[int, int, int]]:
    """(h^2, a, b) for every canonical pair of height at most ``cutoff``,
    sorted by h^2 and then by (a, b).

    The (cutoff + 1)*(2*cutoff + 1) candidate pairs are checked against
    ENUM_CAP before any of them is visited.
    """
    B = int(cutoff)
    if B < 1:
        raise ValidationError("cutoff must be a positive integer")
    candidates = (B + 1) * (2 * B + 1)
    if candidates > ENUM_CAP:
        raise CapacityError(f"base point enumeration needs {brief(candidates)} candidates, over the cap {ENUM_CAP}")
    euclid = arch is ArchKind.L2
    found = [(1, 0, 1)]  # (0 : 1), the one canonical pair with a = 0
    for a in range(1, B + 1):
        aa = a * a
        top = isqrt(B * B - aa) if euclid else B
        found.extend(
            (aa + b * b if euclid else max(aa, b * b), a, b) for b in range(-top, top + 1) if gcd(a, b) == 1
        )
    found.sort()
    return found


def base_points_by_height(cutoff, arch=ArchKind.MAX, point_filter=None) -> list[ProjPoint]:
    """All of P^1(Q) with height at most ``cutoff``, sorted by height and
    then by canonical coordinates.

    Canonical representatives are primitive integer pairs whose first
    nonzero entry is positive: (0, 1) together with (a, b), a >= 1,
    gcd(a, b) = 1.  For the max metric the height of such a pair is
    max(a, |b|); for the euclidean metric it is sqrt(a^2 + b^2).
    Raises CapacityError when the candidate box exceeds ENUM_CAP.
    """
    pts = [ProjPoint((a, b)) for _, a, b in _canonical_pairs(cutoff, ArchKind.parse(arch))]
    if point_filter is not None:
        pts = [p for p in pts if point_filter(p)]
    return pts


def _phi_factory(spec: ArakelovSeriesSpec, per_eps: float, ctx: Ctx, cap: int):
    # one evaluation per distinct restriction; distinct height classes
    # share a lattice only when every bundle degree is 0
    cache: dict[HermitianLattice, tuple] = {}
    d = spec.rank

    def phi(L: HermitianLattice) -> tuple:
        got = cache.get(L)
        if got is None:
            if spec.phi_kind is PhiKind.THETA:
                sv = theta(L, 1, per_eps, ctx, cap)
                got = (sv.value, sv.error_bound)
            elif spec.phi_kind is PhiKind.ZETA:
                sv = lattice_zeta(L, d * spec.s, per_eps, ctx, cap)
                got = (sv.value, sv.error_bound)
            else:
                got = (ctx.one, 0.0)
            cache[L] = got
        return got

    return phi


def _height_classes(spec: ArakelovSeriesSpec, eps: float, ctx: Ctx, cap: int) -> list[_HeightClass]:
    """The series' base points grouped by exact height squared, in
    summation order, each class carrying its one restriction and term.

    Each theta or zeta factor is evaluated to eps divided by the number
    of points, so the total reported error bound stays below eps plus the
    roundoff allowance.  A ProjPoint is built only for a class
    representative, or to ask the spec's point filter.
    """
    if not eps > 0.0:
        raise ValidationError("eps must be positive")
    keep = spec.point_filter
    members: list[tuple[int, list]] = []
    for h2, a, b in _canonical_pairs(spec.cutoff, spec.arch):
        if keep is not None and not keep(ProjPoint((a, b))):
            continue
        if members and members[-1][0] == h2:
            members[-1][1].append((a, b))
        else:
            members.append((h2, [(a, b)]))
    per_eps = eps / max(1, sum(len(pts) for _, pts in members))
    phi = _phi_factory(spec, per_eps, ctx, cap)
    half_s = spec.s / 2
    out = []
    for h2, pts in members:
        L = restrict_bundle_sum(spec.bundle_degrees, ProjPoint(pts[0]), spec.arch)
        val, err = phi(L)
        w = ctx.rational_power(L.det, half_s)
        term = val * w
        term_err = err * float(abs(w)) + _roundoff_allowance(float(abs(term)), ctx.bits)
        out.append(_HeightClass(h2, tuple(pts), L, val, err, term, term_err))
    return out


def _series_value(spec: ArakelovSeriesSpec, classes: list[_HeightClass], ctx: Ctx) -> SeriesValue:
    # expand each class by its multiplicity: the per-point term sequence
    value = ctx.fsum_mixed([c.term for c in classes for _ in c.points])
    err = math.fsum(c.term_error for c in classes for _ in c.points)
    # zeta factors lean on incomplete gamma truncation heuristics; theta
    # and bare covolume factors carry proved tail bounds
    rigorous = spec.phi_kind is not PhiKind.ZETA
    terms_used = sum(len(c.points) for c in classes)
    return SeriesValue(value=value, error_bound=err, terms_used=terms_used, rigorous=rigorous)


def arakelov_term_rows(
    spec: ArakelovSeriesSpec, eps: float = 1e-9, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP
) -> list[TermRow]:
    """Per point contributions Phi(restriction), in summation order.

    Each theta or zeta factor is evaluated to eps divided by the number
    of terms, so the total reported error bound stays below eps plus the
    roundoff allowance.  The restriction and term of a point are those
    of its height class, formed once and shared by every point of the
    class; only the rows themselves are built per point.
    """
    return _term_rows(_height_classes(spec, eps, ctx, cap))


def _term_rows(classes: list[_HeightClass]) -> list[TermRow]:
    rows = []
    for c in classes:
        h2 = Fraction(c.height_sq)
        covolume = vol(c.lattice)
        rows.extend(
            TermRow(
                height_sq=h2,
                point=ProjPoint(pair),
                covolume=covolume,
                phi_value=c.phi_value,
                phi_error=c.phi_error,
                term=c.term,
                term_error=c.term_error,
            )
            for pair in c.points
        )
    return rows


def arakelov_L_partial(
    spec: ArakelovSeriesSpec, eps: float = 1e-9, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP
) -> SeriesValue:
    """Truncated Arakelov L-series over the base points of height at most
    the cutoff.  Deterministic: equal inputs reproduce equal bits.

    Terms are formed once per height class and summed with each class
    term repeated by its multiplicity, in class order.  That is the
    per-point term sequence itself, so the value (the context's sum of
    that sequence), the error bound (exactly rounded) and the term count
    equal those of a per-point evaluation bit for bit.
    """
    return _series_value(spec, _height_classes(spec, eps, ctx, cap), ctx)


def arakelov_series_and_rows(
    spec: ArakelovSeriesSpec, eps: float = 1e-9, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP
) -> tuple[SeriesValue, list[TermRow]]:
    """``(arakelov_L_partial(...), arakelov_term_rows(...))`` from one
    pass over the height classes: the base points are enumerated and
    every class term is evaluated once for both results."""
    classes = _height_classes(spec, eps, ctx, cap)
    return _series_value(spec, classes, ctx), _term_rows(classes)


def theta_duality_defect(spec: ArakelovSeriesSpec, eps: float = 1e-12, ctx: Ctx = DEFAULT_CTX) -> float:
    """|series(spec at s) - series(mirror spec at 1-s)|, the mirror spec
    negating every bundle degree.

    Termwise this is the t=1 theta functional equation
    theta(L,1)*covol(L)^s = theta(dual L,1)*covol(dual L)^(1-s), so the
    defect must stay within the two reported error bounds; anything
    larger flags a real bug.
    """
    if spec.phi_kind is not PhiKind.THETA:
        raise ValidationError("duality defect is defined for the theta integrand")
    mirror = replace(spec, bundle_degrees=tuple(-m for m in spec.bundle_degrees), s=1 - spec.s)
    lhs = arakelov_L_partial(spec, eps, ctx)
    rhs = arakelov_L_partial(mirror, eps, ctx)
    return float(abs(lhs.value - rhs.value))


def grouped_series_coefficients(
    n_max: int,
    bundle_degrees=(1,),
    arch=ArchKind.MAX,
    s: complex = 0j,
    eps: float = 1e-9,
    ctx: Ctx = DEFAULT_CTX,
) -> list[GroupedRow]:
    """Group the theta series by base height N up to n_max.

    All points of height N share one restriction, hence one floating
    term; a group is one height class of the series, that term with its
    enumerated multiplicity, built once.  arakelov_L_partial sums exactly
    these terms repeated by multiplicity in this order, so the groups
    reassemble its value bit for bit.

    The reference column evaluates 2*(1 + 2*Phi(N)) with Phi the
    summatory totient, giving 6, 10, 18, 26, ...; enumeration yields 4,
    4, 8, 8, ... instead and is what the series actually sums.
    """
    arch = ArchKind.parse(arch)
    if arch is not ArchKind.MAX:
        raise ValidationError("integer height grouping requires the max metric")
    spec = ArakelovSeriesSpec(tuple(bundle_degrees), arch, s, int(n_max), PhiKind.THETA)
    classes = _height_classes(spec, eps, ctx, ENUM_CAP)

    summatory = {}
    running = 0
    for N in range(1, spec.cutoff + 1):
        running += euler_phi(N)
        summatory[N] = running

    out = []
    for c in classes:
        N = isqrt(c.height_sq)
        out.append(
            GroupedRow(
                height=N,
                count=len(c.points),
                theta_value=c.phi_value,
                term=c.term,
                reference_coefficient=2 * (1 + 2 * summatory[N]),
            )
        )
    return out


def convergence_abscissa_probe(
    spec: ArakelovSeriesSpec, s_grid, eps: float = 1e-9, ctx: Ctx = DEFAULT_CTX
) -> list[ProbeRow]:
    """Empirical convergence table for the degree [1] theta series.

    For each s the partial sums at cutoffs B, 2B, 4B are compared.  Terms
    at height N total about 4*phi(N)*N^(1-s), so block increments shrink
    for Re(s) > 3 and grow like 2^(3-Re(s)) per doubling below that; the
    sign of the measured exponent classifies the abscissa.  Counts per
    height use c_1 = 4 and c_N = 4*phi(N), the totient identity verified
    against enumeration by grouped_series_coefficients.
    """
    if spec.phi_kind is not PhiKind.THETA or spec.bundle_degrees != (1,):
        raise ValidationError("probe is defined for the theta series of degree list [1]")
    if spec.arch is not ArchKind.MAX:
        raise ValidationError("probe uses integer height grouping (max metric)")
    tops = (spec.cutoff, 2 * spec.cutoff, 4 * spec.cutoff)
    n_terms = 4 * sum(euler_phi(N) for N in range(1, tops[-1] + 1))
    per_eps = eps / n_terms
    theta_at = {}
    for N in range(1, tops[-1] + 1):
        theta_at[N] = theta(HermitianLattice([[Fraction(1, N * N)]]), 1, per_eps, ctx).value

    out = []
    for s0 in s_grid:
        s_c = complex(s0)
        terms = [
            4 * euler_phi(N) * theta_at[N] * ctx.rational_power(Fraction(1, N * N), s_c / 2)
            for N in range(1, tops[-1] + 1)
        ]
        partials = tuple(ctx.fsum_mixed(terms[:top]) for top in tops)
        inc1 = float(abs(partials[1] - partials[0]))
        inc2 = float(abs(partials[2] - partials[1]))
        if inc1 == 0.0:
            expo = float("-inf") if inc2 == 0.0 else float("inf")
        elif inc2 == 0.0:
            expo = float("-inf")
        else:
            expo = math.log2(inc2 / inc1)
        out.append(ProbeRow(s=s_c, partials=partials, growth_exponent=expo, stable=expo < 0.0))
    return out
