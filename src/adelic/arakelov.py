"""Arakelov L-series over the projective line.

A direct sum of metrized line bundles O(m_1) + ... + O(m_d) on P^1
restricts at each rational base point to a rank d lattice with exact
diagonal Gram matrix; an L-series sums an integrand of that lattice over
all base points of height at most a cutoff.  Supported integrands: the
theta value at t=1 times a covolume power, the lattice zeta value times
a covolume power, or the bare covolume power (which simply counts points
when s=0).

The restriction at a base point depends on the point only through its
exact height squared h^2: it is diag(h^(-2 m_1), ..., h^(-2 m_d)).  So
the roughly (12/pi^2)*cutoff^2 base points fall into far fewer height
classes, each just h^2 and its multiplicity, counted without listing the
points: 4*phi(N) points of height N >= 2 under the max metric (a totient
sieve), one gcd per pair a, b >= 1 under the euclidean metric; they are
listed only for the per-point rows and a point filter.  The restriction
(its diagonal entries, formed from h^2 and not kept), the integrand,
the covolume power, the term and its error bound are formed once per
class, and the term is repeated by the class multiplicity.  A class's
theta comes from those diagonal entries and its covolume power from
h^(-2 (m_1 + ... + m_d)); an exact lattice is built only for the zeta
integrand, whose Lambda balls are enumerated.  Terms are summed in a
deterministic order (base height, then canonical coordinates) with
exactly rounded accumulation.  The points of one class are contiguous
in that order and all carry the identical floating term, so the
repeated sequence is the one a per-point evaluation would sum, term for
term: equal inputs give equal bits, and regrouping terms by height
cannot change the value.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, repeat
from math import gcd, isqrt
from typing import Callable, Optional

from .errors import CapacityError, ValidationError, brief
from .exact import as_int, sqrt_or_float
from .heights import ArchKind, ProjPoint, canonical_vectors
from .lattice import (
    ENUM_CAP,
    HermitianLattice,
    SeriesValue,
    _ball_rows,
    _lambda_radius,
    _lambda_sides,
    _roundoff_allowance,
    _theta_diagonal,
    lattice_zeta,
    theta,  # unused here; bound so that tracing can wrap arakelov's theta evaluations by name
)
from .numeric import Ctx, DEFAULT_CTX


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
        degrees = tuple(as_int(m, "bundle degree") for m in self.bundle_degrees)
        if not degrees:
            raise ValidationError("need at least one bundle degree")
        cutoff = as_int(self.cutoff, "cutoff")
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

    ``count`` is the height class multiplicity: 4 points at N=1 and
    4*phi(N) at N>=2.  ``reference_coefficient`` carries a closed form
    quoted for this series, 2*(1 + 2*(summatory totient at N)); it
    disagrees with the class count, is reported for side by side
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


@dataclass(frozen=True, slots=True)
class _HeightClass:
    """The base points sharing one exact height squared h^2, with the
    term they all contribute.  The restriction is formed from h^2 as its
    diagonal entries h^(-2 m_i) and not kept: the theta integrand reads
    them directly, the covolume power is h^(-2 (m_1 + ... + m_d)) to the
    s/2, and only the zeta integrand builds a lattice from them."""

    height_sq: int
    count: int  # multiplicity: the number of base points in the class
    points: Optional[tuple]  # canonical pairs (a, b) in summation order, if listed
    phi_value: "complex | float"
    phi_error: float
    term: "complex | float"
    term_error: float


def _base_box(cutoff) -> int:
    """The cutoff as an int, once its (cutoff + 1)*(2*cutoff + 1)
    candidate pairs are checked against ENUM_CAP."""
    B = as_int(cutoff, "cutoff")
    if B < 1:
        raise ValidationError("cutoff must be a positive integer")
    candidates = (B + 1) * (2 * B + 1)
    if candidates > ENUM_CAP:
        raise CapacityError(f"base point enumeration needs {brief(candidates)} candidates, over the cap {ENUM_CAP}")
    return B


def _canonical_pairs(cutoff, arch: ArchKind) -> list[tuple[int, int, int]]:
    """(h^2, a, b) for every canonical pair of height at most ``cutoff``,
    sorted by h^2 and then by (a, b): ``canonical_vectors`` on P^1 with
    gauge squared at most cutoff^2.

    The (cutoff + 1)*(2*cutoff + 1) candidate pairs are checked against
    ENUM_CAP before any of them is visited.
    """
    B = _base_box(cutoff)
    return canonical_vectors(1, arch, B * B)


def _class_counts(cutoff, arch: ArchKind) -> list[tuple[int, int]]:
    """(h^2, multiplicity) for every height class of base points of
    height at most ``cutoff``, sorted by h^2: the classes of
    ``_canonical_pairs``, counted without listing the pairs, under the
    same cap.
    """
    B = _base_box(cutoff)
    if arch is ArchKind.MAX:
        # height N >= 2: (N, b) with gcd(N, b) = 1 and |b| < N, and
        # (a, +-N) with 1 <= a < N coprime to N, so 4*phi(N) points;
        # height 1: (0, 1), (1, -1), (1, 0), (1, 1)
        phi = list(range(B + 1))
        for p in range(2, B + 1):
            if phi[p] == p:
                for k in range(p, B + 1, p):
                    phi[k] -= phi[k] // p
        return [(1, 4)] + [(N * N, 4 * phi[N]) for N in range(2, B + 1)]
    # (0, 1) and (1, 0) have h^2 = 1; every other canonical pair is
    # (a, +-b) with a, b >= 1 coprime, of h^2 = a^2 + b^2
    B2 = B * B
    counts = Counter({1: 2})
    for a in range(1, B + 1):
        for b in range(1, isqrt(B2 - a * a) + 1):
            if gcd(a, b) == 1:
                counts[a * a + b * b] += 2
    return sorted(counts.items())


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


def _height_classes(
    spec: ArakelovSeriesSpec, eps: float, ctx: Ctx, cap: int, with_points: bool = False
) -> list[_HeightClass]:
    """The series' base points grouped by exact height squared, in
    summation order, each class carrying its multiplicity and its term.

    The classes are counted without listing their points, unless
    ``with_points`` asks for the per-point rows or the spec's point
    filter has to see every point; then each class also carries its
    canonical pairs.  The restriction is formed from h^2 alone, as its
    diagonal entries, and dropped once the class term is formed; a
    lattice is built from it for the zeta integrand only.  A class term
    or bound past the double range is refused.  Each theta or zeta factor is
    evaluated to eps divided by the number of points, so the total
    reported error bound stays below eps plus the roundoff allowance.
    With the zeta integrand every distinct restriction's two Lambda
    balls are counted by ``_ball_rows`` before the first class is
    evaluated, so a class over the cap is refused at once, with the
    error the evaluation would raise when it reached that class.
    """
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    keep = spec.point_filter
    if with_points or keep is not None:
        listed: list[tuple[int, list]] = []
        for h2, a, b in _canonical_pairs(spec.cutoff, spec.arch):
            if keep is not None and not keep(ProjPoint((a, b))):
                continue
            if listed and listed[-1][0] == h2:
                listed[-1][1].append((a, b))
            else:
                listed.append((h2, [(a, b)]))
        counts = [(h2, len(pts)) for h2, pts in listed]
        points = [tuple(pts) for _, pts in listed]
    else:
        counts, points = _class_counts(spec.cutoff, spec.arch), repeat(None)
    per_eps = eps / max(1, sum(n for _, n in counts))
    degrees = spec.bundle_degrees

    def restriction(h2: int) -> tuple:
        return tuple(Fraction(h2) ** -m for m in degrees)

    if spec.phi_kind is PhiKind.ZETA:
        # phi evaluates a run of equal restrictions once, so it is counted once
        for entries, _ in groupby(restriction(h2) for h2, _ in counts):
            for M, a, _, eps_side in _lambda_sides(HermitianLattice.diagonal(entries), spec.rank * spec.s, per_eps):
                _ball_rows(M, _lambda_radius(M, a, eps_side), cap)

    # classes arrive in ascending h^2 and share a restriction only when
    # every bundle degree is 0, so a repeat follows its first occurrence
    @lru_cache(maxsize=1)
    def phi(entries: tuple) -> tuple:
        if spec.phi_kind is PhiKind.THETA:
            sv = _theta_diagonal(entries, Fraction(1), per_eps, ctx)
        elif spec.phi_kind is PhiKind.ZETA:
            sv = lattice_zeta(HermitianLattice.diagonal(entries), spec.rank * spec.s, per_eps, ctx, cap)
        else:
            sv = SeriesValue(ctx.one, 0.0, 1, True)
        return sv.value, sv.error_bound

    half_s = spec.s / 2
    out = []
    for (h2, n), pts in zip(counts, points):
        val, err = phi(restriction(h2))
        try:
            # the restriction's det, h^(-2 (m_1 + ... + m_d)), as a reduced Fraction
            w = ctx.rational_power(Fraction(h2) ** -sum(degrees), half_s)
            term = val * w
            term_err = err * float(abs(w)) + _roundoff_allowance(float(abs(term)), ctx.bits)
        except OverflowError:
            term_err = math.inf
        # the bound is at least |term| 2^(14 - bits): finite only with the term
        if not math.isfinite(term_err):
            raise _overflow(spec, f"at base height squared {brief(h2)}")
        out.append(_HeightClass(h2, n, pts, val, err, term, term_err))
    return out


def _finite(z) -> bool:
    """Whether a real or complex value of either engine is a finite double."""
    try:
        return math.isfinite(abs(complex(z)))
    except OverflowError:
        return False


def _overflow(spec: ArakelovSeriesSpec, where: str) -> ValidationError:
    return ValidationError(f"covol^s * phi at s = {spec.s!r} overflows a float {where}")


def _series_value(spec: ArakelovSeriesSpec, classes: list[_HeightClass], ctx: Ctx) -> SeriesValue:
    # each class term repeated by its multiplicity: the per-point term sequence
    try:
        value = ctx.fsum_mixed(chain.from_iterable(repeat(c.term, c.count) for c in classes))
        err = math.fsum(chain.from_iterable(repeat(c.term_error, c.count) for c in classes))
    except OverflowError:
        err = math.inf
    if not math.isfinite(err):
        raise _overflow(spec, f"in the sum to cutoff {spec.cutoff}")
    # zeta factors lean on incomplete gamma truncation heuristics; theta
    # and bare covolume factors carry proved tail bounds
    rigorous = spec.phi_kind is not PhiKind.ZETA
    terms_used = sum(c.count for c in classes)
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
    return _term_rows(spec, _height_classes(spec, eps, ctx, cap, with_points=True))


def _term_rows(spec: ArakelovSeriesSpec, classes: list[_HeightClass]) -> list[TermRow]:
    rows = []
    for c in classes:
        h2 = Fraction(c.height_sq)
        covolume = sqrt_or_float(h2 ** -sum(spec.bundle_degrees))
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
    equal those of a per-point evaluation bit for bit.  The base points
    are counted per class, not listed, unless the spec's point filter
    has to see them.
    """
    return _series_value(spec, _height_classes(spec, eps, ctx, cap), ctx)


def arakelov_series_and_rows(
    spec: ArakelovSeriesSpec, eps: float = 1e-9, ctx: Ctx = DEFAULT_CTX, cap: int = ENUM_CAP
) -> tuple[SeriesValue, list[TermRow]]:
    """``(arakelov_L_partial(...), arakelov_term_rows(...))`` from one
    pass over the height classes: the base points are enumerated and
    every class term is evaluated once for both results."""
    classes = _height_classes(spec, eps, ctx, cap, with_points=True)
    return _series_value(spec, classes, ctx), _term_rows(spec, classes)


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
    multiplicity (4 at N=1, 4*phi(N) from a totient sieve at N>=2),
    built once without listing the points.  arakelov_L_partial sums
    exactly these terms repeated by multiplicity in this order, so the
    groups reassemble its value bit for bit.

    The reference column evaluates 2*(1 + 2*Phi(N)) with Phi the
    summatory totient, giving 6, 10, 18, 26, ...; it reads Phi(N) off the
    multiplicities as their running sum over 4, since phi(1) = 1 = 4/4.
    The counts themselves are 4, 4, 8, 8, ... instead and are what the
    series actually sums.
    """
    arch = ArchKind.parse(arch)
    if arch is not ArchKind.MAX:
        raise ValidationError("integer height grouping requires the max metric")
    spec = ArakelovSeriesSpec(tuple(bundle_degrees), arch, s, n_max, PhiKind.THETA)
    out = []
    running = 0  # points of height at most N: 4*Phi(N)
    for c in _height_classes(spec, eps, ctx, ENUM_CAP):
        running += c.count
        out.append(
            GroupedRow(
                height=isqrt(c.height_sq),
                count=c.count,
                theta_value=c.phi_value,
                term=c.term,
                reference_coefficient=2 * (1 + 2 * (running // 4)),
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
    sign of the measured exponent classifies the abscissa.  One pass of
    height classes to cutoff 4B gives each height's multiplicity and theta
    value, each to eps divided by the number of points; the points are
    counted per height, not listed.
    """
    if spec.phi_kind is not PhiKind.THETA or spec.bundle_degrees != (1,):
        raise ValidationError("probe is defined for the theta series of degree list [1]")
    if spec.arch is not ArchKind.MAX:
        raise ValidationError("probe uses integer height grouping (max metric)")
    tops = (spec.cutoff, 2 * spec.cutoff, 4 * spec.cutoff)
    classes = _height_classes(replace(spec, cutoff=tops[-1], s=0), eps, ctx, ENUM_CAP)
    out = []
    for s0 in s_grid:
        s_c = complex(s0)
        try:
            terms = [c.count * c.phi_value * ctx.rational_power(Fraction(1, c.height_sq), s_c / 2) for c in classes]
            if not all(map(_finite, terms)):
                raise OverflowError
            partials = tuple(ctx.fsum_mixed([t for c, t in zip(classes, terms) if c.height_sq <= top * top]) for top in tops)
            if not all(map(_finite, partials)):
                raise OverflowError
        except OverflowError:
            raise _overflow(replace(spec, s=s_c), f"in the sum to cutoff {tops[-1]}") from None
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
