"""Heights on projective space over Q via metrized line bundles.

A point of P^n(Q) is stored by its primitive integer representative.  The
bundle O(m) carries the model metric at every finite place and either the
sup metric or the Euclidean metric at the archimedean place.  For a section
s that does not vanish at x, the height is the product of inverse local
norms

    H(x) = prod over v of ||s||_v(x)^(-1),

independent of the section; on primitive coordinates it collapses to the
archimedean gauge raised to the bundle degree, hence is exact whenever the
gauge is rational.

Adelic points replace the governing vector at finitely many places, which
feeds the corresponding local factors with different data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import SectionZeroError, ValidationError
from .exact import as_fraction, as_int, sqrt_or_float
from .lattice import HermitianLattice
from .places import INF, Place, abs_v, is_prime, support


class ArchKind(enum.Enum):
    MAX = "max"
    L2 = "l2"

    @classmethod
    def parse(cls, text) -> "ArchKind":
        if isinstance(text, ArchKind):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise ValidationError(f"archimedean metric must be 'max' or 'l2', got {text!r}") from None


class ProjPoint:
    """Point of P^n(Q), reduced to the primitive integer representative
    whose first nonzero coordinate is positive."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = [as_fraction(c) for c in coords]
        if len(vals) < 2:
            raise ValidationError("projective point needs at least 2 coordinates")
        den = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        g = gcd(*ints)
        if g == 0:
            raise ValidationError("projective point cannot be the zero vector")
        if next(v for v in ints if v) < 0:
            g = -g
        self.coords = tuple(v // g for v in ints)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __lt__(self, other) -> bool:
        return self.coords < other.coords

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def canonical_vectors(n: int, arch: ArchKind, gauge_sq_max: int, weights=None) -> list[tuple[int, ...]]:
    """``(g2, x_0, ..., x_n)`` for each canonical representative x of
    P^n(Q) (primitive, first nonzero entry positive) whose gauge squared
    g2, max w_i*x_i^2 under ``max`` or sum w_i*x_i^2 under ``l2``, is at
    most ``gauge_sq_max >= 0``; sorted by g2, then coordinates.  The
    integer weights w_i >= 1 default to 1, and then the height for O(m)
    is g2^(m/2).  Only canonical prefixes are visited: x_i >= 0 while
    x_0..x_(i-1) are all zero, |x_i| is at most the isqrt of the budget
    left divided by w_i, and after an all-zero prefix the last coordinate
    takes only the value 1.
    """
    euclid = arch is ArchKind.L2
    ws = (1,) * (n + 1) if weights is None else tuple(weights)
    # (g2, gcd, coordinates) of a prefix, gcd 0 while it is all zero; the
    # last level makes the output tuples
    prefixes = [(0, 0, ())]
    for i, w in enumerate(ws):
        r = isqrt(gauge_sq_max // w)
        level = []
        for g2, g, xs in prefixes:
            top = isqrt((gauge_sq_max - g2) // w) if euclid else r
            if i == n and not g:
                # an all-zero prefix has g2 = 0 and only x = 1 is primitive
                if top:
                    level.append((w, *xs, 1))
                continue
            values = range(-top if g else 0, top + 1)
            if i < n:
                level.extend((g2 + w * x * x if euclid else max(g2, w * x * x), gcd(g, x), xs + (x,)) for x in values)
            else:
                level.extend((g2 + w * x * x if euclid else max(g2, w * x * x), *xs, x) for x in values if gcd(g, x) == 1)
        prefixes = level
    prefixes.sort()
    return prefixes


@dataclass(frozen=True)
class MetrizedLineBundle:
    """O(m) on P^n with model metrics at finite places and the chosen
    archimedean metric."""

    n: int
    m: int
    arch: ArchKind

    def __post_init__(self):
        if as_int(self.n, "ambient dimension") < 1:
            raise ValidationError(f"ambient dimension must be an int >= 1, got {self.n!r}")
        as_int(self.m, "bundle degree")
        if not isinstance(self.arch, ArchKind):
            object.__setattr__(self, "arch", ArchKind.parse(self.arch))


@dataclass(frozen=True)
class Section:
    """Monomial global section x^alpha of O(m), m = |alpha| >= 0."""

    bundle: MetrizedLineBundle
    exponents: tuple[int, ...]

    def __post_init__(self):
        e = tuple(as_int(v, "section exponent") for v in self.exponents)
        object.__setattr__(self, "exponents", e)
        if len(e) != self.bundle.n + 1:
            raise ValidationError("section exponent vector length must be n + 1")
        if any(v < 0 for v in e):
            raise ValidationError("section exponents must be nonnegative")
        if sum(e) != self.bundle.m:
            raise ValidationError(f"section exponents must sum to the bundle degree {self.bundle.m}")

    def value(self, vec) -> Fraction:
        out = Fraction(1)
        for v, a in zip(vec, self.exponents):
            if a:
                out *= as_fraction(v) ** a
        return out

    @classmethod
    def coordinate(cls, bundle: MetrizedLineBundle, i: int) -> "Section":
        if bundle.m != 1:
            raise ValidationError("coordinate sections live on degree 1 bundles")
        e = [0] * (bundle.n + 1)
        e[i] = 1
        return cls(bundle, tuple(e))


class AdelicPoint:
    """A projective point together with finitely many local replacements.

    ``default`` governs every place not listed in ``overrides``; an
    override supplies the governing vector (any nonzero scaling) at that
    place only.
    """

    __slots__ = ("default", "overrides")

    def __init__(self, default: ProjPoint, overrides=None):
        if not isinstance(default, ProjPoint):
            raise ValidationError("default must be a ProjPoint")
        self.default = default
        ov: dict[Place, tuple[Fraction, ...]] = {}
        for place, vec in (overrides or {}).items():
            if not isinstance(place, Place):
                raise ValidationError("override keys must be Places")
            vals = tuple(as_fraction(v) for v in vec)
            if len(vals) != len(default.coords):
                raise ValidationError("override vector length must match the default point")
            if all(v == 0 for v in vals):
                raise ValidationError("override vector cannot be zero")
            ov[place] = vals
        self.overrides = dict(sorted(ov.items()))

    def governing_vector(self, v: Place) -> tuple[Fraction, ...]:
        if v in self.overrides:
            return self.overrides[v]
        return tuple(Fraction(c) for c in self.default.coords)

    def __repr__(self) -> str:
        return f"AdelicPoint({self.default!r}, overrides={self.overrides!r})"


# -- local norms -------------------------------------------------------


def _gauge_sq_arch(vec, arch: ArchKind) -> Fraction:
    """Square of the archimedean gauge, always rational."""
    if arch == ArchKind.MAX:
        g = max(abs(as_fraction(v)) for v in vec)
        return g * g
    return sum(as_fraction(v) ** 2 for v in vec)


def _gauge_sq(vec, v: Place, arch: ArchKind) -> Fraction:
    """Square of the gauge of vec at v: the largest |x_i|_p at a finite
    place, the archimedean gauge of ``arch`` at infinity."""
    if v.is_finite:
        g = max(abs_v(x, v) for x in vec if x != 0)
        return g * g
    return _gauge_sq_arch(vec, arch)


def local_norm_sq(s: Section, vec, v: Place) -> Fraction:
    """Square of ||s||_v at the governing vector, exact.

    Model metric at finite places: |s(vec)|_p^2 / gauge_p(vec)^(2m).
    Archimedean: s(vec)^2 / gauge(vec)^(2m) with the bundle's gauge.
    """
    val = s.value(vec)
    if val == 0:
        raise SectionZeroError(f"section {s.exponents} vanishes at place {v}", place=v)
    a = abs_v(val, v)
    return (a * a) / _gauge_sq(vec, v, s.bundle.arch) ** s.bundle.m


def height_point(B: MetrizedLineBundle, x: ProjPoint):
    """Exact height of x for O(m): the archimedean gauge of the primitive
    representative raised to m.  Rational except for the Euclidean metric
    in odd degree with non-square norm, which falls back to a float."""
    if x.n != B.n:
        raise ValidationError(f"point lives in P^{x.n}, bundle on P^{B.n}")
    g2 = _gauge_sq_arch(x.coords, B.arch)
    h2 = g2**B.m
    return sqrt_or_float(h2)


def height_point_sq(B: MetrizedLineBundle, x: ProjPoint) -> Fraction:
    """Square of the height, always an exact Fraction."""
    if x.n != B.n:
        raise ValidationError(f"point lives in P^{x.n}, bundle on P^{B.n}")
    return _gauge_sq_arch(x.coords, B.arch) ** B.m


def height_adelic(B: MetrizedLineBundle, s: Section, A: AdelicPoint):
    """Height of an adelic point: product of inverse local norms of a
    nonvanishing section over every place where a factor can differ
    from 1 (the archimedean place, every override, and the support of
    the section value at the default representative)."""
    if s.bundle != B:
        raise ValidationError("section does not belong to the bundle")
    if A.default.n != B.n:
        raise ValidationError("adelic point dimension does not match the bundle")
    places = {INF}
    places.update(A.overrides)
    default_val = s.value(A.default.coords)
    if default_val != 0:
        places.update(Place.finite(p) for p in support(default_val))
    else:
        # the default governs all but finitely many places, so the
        # section vanishes somewhere no override can rescue
        if INF not in A.overrides:
            bad = INF
        else:
            p = 2
            while not is_prime(p) or Place.finite(p) in A.overrides:
                p += 1
            bad = Place.finite(p)
        raise SectionZeroError(f"section {s.exponents} vanishes at place {bad}", place=bad)
    total_sq = Fraction(1)
    for v in sorted(places):
        total_sq /= local_norm_sq(s, A.governing_vector(v), v)
    return sqrt_or_float(total_sq)


def restrict_to_point(B: MetrizedLineBundle, x: ProjPoint) -> HermitianLattice:
    """Restriction of O(m) to a rational point, as a rank one lattice:
    the section lattice with Gram [[ H(x)^(-2m) ]] for the degree 1
    height H.  Exact for both archimedean metrics."""
    if x.n != B.n:
        raise ValidationError(f"point lives in P^{x.n}, bundle on P^{B.n}")
    h2 = _gauge_sq_arch(x.coords, B.arch)
    return HermitianLattice([[h2 ** (-B.m)]])


def restrict_bundle_sum(degrees, x: ProjPoint, arch) -> HermitianLattice:
    """Direct sum of the restrictions of O(m) over m in ``degrees``: the
    diagonal lattice with entries H(x)^(-2m)."""
    arch = ArchKind.parse(arch)
    degrees = list(degrees)
    if not degrees:
        raise ValidationError("need at least one bundle degree")
    h2 = _gauge_sq_arch(x.coords, arch)
    return HermitianLattice.diagonal([h2 ** -as_int(m, "bundle degree") for m in degrees])
