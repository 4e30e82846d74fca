"""Twists of heights and metrics by adelic group elements.

An adelic group element g assigns an invertible rational n x n matrix to
each place: an explicit matrix at finitely many places, a shared default
matrix everywhere else (identity unless stated).  Twisting the model
metric family by g replaces each local gauge by the gauge of the locally
transformed representative:

    twisted height of x  =  prod over v of gauge_v(g_v xt)^m,

for a primitive representative xt of x; the product collapses to finitely
many factors through the content of the default image.  The twisted norm
of a section s at a place v is

    ||s||_{g,v}(x) = |s(xt)|_v / gauge_v(g_v xt)^m,

and for a diagonal twist and a monomial section this matches the model
norm at the translated point times the local modulus of the attached
character, which is what ``compare_twisted`` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SectionZeroError, ValidationError
from .exact import Matrix, as_fraction, as_int, det, identity, is_diagonal, sqrt_or_float
from .heights import MetrizedLineBundle, ProjPoint, Section, _gauge_sq, local_norm_sq
from .places import INF, Place, abs_v, content, support


def _as_matrix(rows, n: int) -> Matrix:
    mat = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if len(mat) != n or any(len(r) != n for r in mat):
        raise ValidationError(f"expected a {n} x {n} matrix")
    if det(mat) == 0:
        raise ValidationError("group element matrices must be invertible")
    return mat


def _mat_vec(mat: Matrix, vec) -> tuple[Fraction, ...]:
    return tuple(sum(m * as_fraction(v) for m, v in zip(row, vec)) for row in mat)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


class AdelicGroupElement:
    """GL_n over the adeles of Q, trivial outside finitely many places.

    ``n`` is the matrix size; the element acts on P^(n-1).  ``components``
    maps places to explicit matrices; ``default`` applies elsewhere.
    """

    __slots__ = ("n", "components", "default")

    def __init__(self, n: int, components=None, default=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValidationError(f"matrix size must be an int >= 2, got {n!r}")
        self.n = n
        self.default = _as_matrix(default, n) if default is not None else identity(n)
        comp: dict[Place, Matrix] = {}
        for place, mat in (components or {}).items():
            if not isinstance(place, Place):
                raise ValidationError("component keys must be Places")
            comp[place] = _as_matrix(mat, n)
        self.components = dict(sorted(comp.items()))

    def local_matrix(self, v: Place) -> Matrix:
        return self.components.get(v, self.default)

    def __repr__(self) -> str:
        return f"AdelicGroupElement(n={self.n}, components={sorted(self.components)}, default={'id' if self.default == identity(self.n) else 'custom'})"


@dataclass(frozen=True)
class Character:
    """Monomial character of the diagonal torus: diag(t) maps to the
    product of t_i^(e_i)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(as_int(v, "character exponent") for v in self.exponents))

    def value(self, diag_matrix: Matrix) -> Fraction:
        if not is_diagonal(diag_matrix):
            raise ValidationError("characters act on diagonal matrices")
        out = Fraction(1)
        for i, e in enumerate(self.exponents):
            if e:
                out *= diag_matrix[i][i] ** e
        return out


def section_character(s: Section) -> Character:
    """Character through which diagonal elements scale a monomial section
    under the contragredient action (g . s)(y) = s(g^(-1) y)."""
    return Character(tuple(-e for e in s.exponents))


# -- twisted heights ---------------------------------------------------


def twisted_height_sq(B: MetrizedLineBundle, x: ProjPoint, g: AdelicGroupElement) -> Fraction:
    """Exact square of the twisted height of a rational point."""
    if g.n != B.n + 1:
        raise ValidationError(f"group element size {g.n} does not act on P^{B.n}")
    if x.n != B.n:
        raise ValidationError("point dimension does not match the bundle")
    xt = x.coords
    w = _mat_vec(g.default, xt)
    cw = content(w)
    # default-governed finite places contribute |content|_p; their full
    # product is 1/(|content| * the listed places' contributions)
    total_sq = Fraction(1)
    finite_listed = [v for v in g.components if v.is_finite]
    if INF in g.components:
        total_sq *= _gauge_sq(_mat_vec(g.components[INF], xt), INF, B.arch)
    else:
        total_sq *= _gauge_sq(w, INF, B.arch)
    for v in finite_listed:
        total_sq *= _gauge_sq(_mat_vec(g.components[v], xt), v, B.arch)
    denom = abs(cw)
    for v in finite_listed:
        denom *= abs_v(cw, v)
    total_sq /= denom * denom
    return total_sq**B.m


def twisted_height(B: MetrizedLineBundle, x: ProjPoint, g: AdelicGroupElement):
    """Twisted height; exact Fraction whenever the square root is
    rational (always, for the sup metric)."""
    return sqrt_or_float(twisted_height_sq(B, x, g))


def twisted_metric_norm_sq(B: MetrizedLineBundle, s: Section, x: ProjPoint, g: AdelicGroupElement, v: Place) -> Fraction:
    """Exact square of the twisted local norm ||s||_{g,v}(x)."""
    if s.bundle != B:
        raise ValidationError("section does not belong to the bundle")
    if g.n != B.n + 1:
        raise ValidationError(f"group element size {g.n} does not act on P^{B.n}")
    xt = x.coords
    val = s.value(xt)
    if val == 0:
        raise SectionZeroError(f"section {s.exponents} vanishes at {x!r}", place=v)
    image = _mat_vec(g.local_matrix(v), xt)
    a = abs_v(val, v)
    return (a * a) / _gauge_sq(image, v, B.arch) ** B.m


def compare_twisted(B: MetrizedLineBundle, s: Section, x: ProjPoint, g: AdelicGroupElement):
    """For a diagonal twist and a monomial section, return the pair
    (twisted-metric height, character-corrected translated height).

    Left side: product over the relevant places of the inverse twisted
    norms.  Right side: same product with each factor replaced by
    |chi_s(g_v)|_v times the model norm of s at the locally translated
    representative.  These are equal place by place, so the pair must
    coincide exactly; both are returned for inspection.
    """
    if s.bundle != B:
        raise ValidationError("section does not belong to the bundle")
    for v, mat in list(g.components.items()) + [(None, g.default)]:
        if not is_diagonal(mat):
            raise ValidationError("compare_twisted needs diagonal twists")
    chi = section_character(s)
    xt = x.coords
    val = s.value(xt)
    if val == 0:
        raise SectionZeroError(f"section {s.exponents} vanishes at {x!r}", place=INF)
    places = {INF}
    places.update(g.components)
    places.update(Place.finite(p) for p in support(val))
    for v in list(g.components):
        img = _mat_vec(g.local_matrix(v), xt)
        places.update(Place.finite(p) for p in support(content(img)))
    w = _mat_vec(g.default, xt)
    places.update(Place.finite(p) for p in support(content(w)))

    lhs_sq = Fraction(1)
    rhs_sq = Fraction(1)
    for v in sorted(places):
        mat = g.local_matrix(v)
        lhs_sq /= twisted_metric_norm_sq(B, s, x, g, v)
        cva = abs_v(chi.value(mat), v)
        rhs_sq /= (cva * cva) * local_norm_sq(s, _mat_vec(mat, xt), v)
    return sqrt_or_float(lhs_sq), sqrt_or_float(rhs_sq)


def class_right_translate(g: AdelicGroupElement, gamma) -> AdelicGroupElement:
    """Right translation by a global rational matrix: every local matrix
    picks up gamma on the right, represented by composing it into the
    default and each listed component."""
    gm = _as_matrix(gamma, g.n)
    comps = {v: _mat_mul(mat, gm) for v, mat in g.components.items()}
    return AdelicGroupElement(g.n, comps, _mat_mul(g.default, gm))


def apply_global(gamma, x: ProjPoint) -> ProjPoint:
    """Image of a rational point under a global matrix."""
    gm = _as_matrix(gamma, len(x.coords))
    return ProjPoint(_mat_vec(gm, x.coords))
