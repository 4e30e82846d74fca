import random
from fractions import Fraction

import pytest

from adelic.errors import ValidationError
from adelic.heights import ArchKind, MetrizedLineBundle, ProjPoint, Section, height_point
from adelic.places import INF, Place
from adelic.twist import (
    AdelicGroupElement,
    Character,
    apply_global,
    class_right_translate,
    compare_twisted,
    section_character,
    twisted_height,
    twisted_height_sq,
    twisted_metric_norm_sq,
)
from helpers import random_invertible, random_unimodular

B1 = MetrizedLineBundle(1, 1, ArchKind.MAX)


def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def random_point(rng, n, bound=30):
    while True:
        c = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(c):
            return ProjPoint(c)


def test_group_element_validation():
    with pytest.raises(ValidationError):
        AdelicGroupElement(1)
    with pytest.raises(ValidationError):
        AdelicGroupElement(2, {Place.finite(2): [[1, 0], [0, 0]]})
    with pytest.raises(ValidationError):
        AdelicGroupElement(2, {"2": diag(1, 1)})
    g = AdelicGroupElement(2)
    assert g.local_matrix(Place.finite(7)) == ((1, 0), (0, 1))


def test_twisted_height_examples():
    x = ProjPoint([1, 1])
    g_inf = AdelicGroupElement(2, {INF: diag(2, 1)})
    assert twisted_height(B1, x, g_inf) == 2
    g_2 = AdelicGroupElement(2, {Place.finite(2): diag(2, 1)})
    assert twisted_height(B1, x, g_2) == 1


def test_twisted_height_default_matrix():
    # a default matrix acts at every place; the product telescopes
    # through the content of the image
    g = AdelicGroupElement(2, default=diag(5, 1))
    assert twisted_height(B1, ProjPoint([2, 3]), g) == 10
    g_half = AdelicGroupElement(2, default=diag(Fraction(1, 2), 1))
    assert twisted_height(B1, ProjPoint([1, 1]), g_half) == 2


def test_identity_twist_is_plain_height():
    from adelic.heights import height_point_sq

    rng = random.Random(601)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        B = MetrizedLineBundle(n, m, arch)
        x = random_point(rng, n)
        g = AdelicGroupElement(n + 1)
        assert twisted_height_sq(B, x, g) == height_point_sq(B, x)


def test_representative_independence():
    """Listing the default matrix explicitly at extra places must not
    change any twisted height."""
    rng = random.Random(602)
    for _ in range(20):
        n = rng.randint(1, 2)
        B = MetrizedLineBundle(n, 1, rng.choice([ArchKind.MAX, ArchKind.L2]))
        x = random_point(rng, n)
        d = random_invertible(rng, n + 1)
        extra = rng.choice([Place.finite(2), Place.finite(3), Place.finite(7)])
        g_implicit = AdelicGroupElement(n + 1, default=d)
        g_explicit = AdelicGroupElement(n + 1, {extra: d}, default=d)
        assert twisted_height_sq(B, x, g_implicit) == twisted_height_sq(B, x, g_explicit)


def test_power_law_in_degree():
    rng = random.Random(603)
    for _ in range(20):
        n = rng.randint(1, 2)
        x = random_point(rng, n)
        g = AdelicGroupElement(n + 1, {Place.finite(3): random_invertible(rng, n + 1)})
        h1 = twisted_height_sq(MetrizedLineBundle(n, 1, ArchKind.MAX), x, g)
        h3 = twisted_height_sq(MetrizedLineBundle(n, 3, ArchKind.MAX), x, g)
        assert h3 == h1**3


def test_finite_unimodular_invariance():
    """Left multiplication by GL_n(Z) at a finite place preserves every
    twisted norm: a 30 x 30 grid of (twist, point) by unimodular factors."""
    rng = random.Random(604)
    p = Place.finite(5)
    B = MetrizedLineBundle(1, 1, ArchKind.MAX)
    cases = []
    for _ in range(30):
        x = random_point(rng, 1)
        g = AdelicGroupElement(2, {p: random_invertible(rng, 2)})
        s = Section.coordinate(B, 0 if x.coords[0] else 1)
        cases.append((x, g, s))
    for _ in range(30):
        k = random_unimodular(rng, 2)
        for x, g, s in cases:
            twisted = AdelicGroupElement(2, {p: [[sum(Fraction(k[i][t]) * g.components[p][t][j] for t in range(2)) for j in range(2)] for i in range(2)]})
            assert twisted_metric_norm_sq(B, s, x, twisted, p) == twisted_metric_norm_sq(B, s, x, g, p)
            assert twisted_height_sq(B, x, twisted) == twisted_height_sq(B, x, g)


def test_orthogonal_invariance_at_infinity():
    """The Euclidean gauge is invariant under rational orthogonal
    matrices at the archimedean place."""
    rng = random.Random(605)
    B = MetrizedLineBundle(1, 1, ArchKind.L2)
    rot = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    flip = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    neg = [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(20):
        x = random_point(rng, 1)
        base = random_invertible(rng, 2)
        g = AdelicGroupElement(2, {INF: base})
        for k in (rot, flip, neg):
            kg = AdelicGroupElement(2, {INF: [[sum(Fraction(k[i][t]) * g.components[INF][t][j] for t in range(2)) for j in range(2)] for i in range(2)]})
            assert twisted_height_sq(B, x, kg) == twisted_height_sq(B, x, g)


def test_shear_twists():
    """Additive shear [[1,1],[0,1]] twisting one place at a time."""
    shear = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    g_inf = AdelicGroupElement(2, {INF: shear})
    assert twisted_height(B1, ProjPoint([2, 3]), g_inf) == 5
    g_2 = AdelicGroupElement(2, {Place.finite(2): shear})
    assert twisted_height(B1, ProjPoint([1, 1]), g_2) == 1
    # at p=2 the shear image of (1,1) is (2,1), still a unit vector
    assert twisted_height(B1, ProjPoint([1, 3]), g_2) == 3


def test_compare_twisted_examples():
    s0 = Section.coordinate(B1, 0)
    lhs, rhs = compare_twisted(B1, s0, ProjPoint([1, 1]), AdelicGroupElement(2, {INF: diag(3, 1)}))
    assert lhs == rhs == 3
    s1 = Section.coordinate(B1, 1)
    lhs2, rhs2 = compare_twisted(B1, s1, ProjPoint([2, 3]), AdelicGroupElement(2, {Place.finite(5): diag(5, 1)}))
    assert lhs2 == rhs2 == 3


def test_compare_twisted_random():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.randint(1, 2)
        B = MetrizedLineBundle(n, 1, rng.choice([ArchKind.MAX, ArchKind.L2]))
        x = random_point(rng, n)
        i = rng.randrange(n + 1)
        if x.coords[i] == 0:
            continue
        s = Section.coordinate(B, i)
        comps = {}
        for v in rng.sample([INF, Place.finite(2), Place.finite(3), Place.finite(5)], k=rng.randint(1, 3)):
            comps[v] = diag(*[Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3])) for _ in range(n + 1)])
        g = AdelicGroupElement(n + 1, comps)
        lhs, rhs = compare_twisted(B, s, x, g)
        assert lhs == rhs
        assert lhs == twisted_height(B, x, g)


def test_compare_twisted_rejects_nondiagonal():
    shear = [[1, 1], [0, 1]]
    g = AdelicGroupElement(2, {INF: shear})
    with pytest.raises(ValidationError):
        compare_twisted(B1, Section.coordinate(B1, 0), ProjPoint([1, 1]), g)


def test_character():
    chi = Character((1, -2))
    assert chi.value(tuple(tuple(Fraction(v) for v in row) for row in diag(3, 2))) == Fraction(3, 4)
    s = Section.coordinate(B1, 0)
    assert section_character(s).exponents == (-1, 0)
    with pytest.raises(ValidationError):
        chi.value(tuple(tuple(Fraction(v) for v in row) for row in [[1, 1], [0, 1]]))


def test_right_translation_law():
    """Twisting by g gamma equals twisting by g at the translated point,
    exactly, for rational gamma."""
    rng = random.Random(607)
    for _ in range(50):
        n = rng.randint(1, 2)
        B = MetrizedLineBundle(n, 1, rng.choice([ArchKind.MAX, ArchKind.L2]))
        x = random_point(rng, n)
        comps = {}
        for v in rng.sample([INF, Place.finite(2), Place.finite(7)], k=rng.randint(0, 2)):
            comps[v] = random_invertible(rng, n + 1)
        g = AdelicGroupElement(n + 1, comps, default=random_invertible(rng, n + 1) if rng.random() < 0.4 else None)
        gamma = random_invertible(rng, n + 1)
        lhs = twisted_height_sq(B, x, class_right_translate(g, gamma))
        rhs = twisted_height_sq(B, apply_global(gamma, x), g)
        assert lhs == rhs


def test_right_translate_structure():
    g = AdelicGroupElement(2, {Place.finite(2): diag(2, 1)}, default=diag(3, 1))
    gamma = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    t = class_right_translate(g, gamma)
    assert t.default == ((0, 3), (1, 0))
    assert t.components[Place.finite(2)] == ((0, 2), (1, 0))
