import itertools
import math
import random
from fractions import Fraction

import pytest

from adelic.errors import SectionZeroError, ValidationError
from adelic.heights import (
    AdelicPoint,
    ArchKind,
    MetrizedLineBundle,
    ProjPoint,
    Section,
    canonical_vectors,
    height_adelic,
    height_point,
    height_point_sq,
    local_norm_sq,
    restrict_bundle_sum,
    restrict_to_point,
)
from adelic.lattice import arithmetic_degree, dual, vol
from adelic.places import INF, Place
from adelic.twist import Character

B_MAX = MetrizedLineBundle(1, 1, ArchKind.MAX)


def random_point(rng, n, bound=50):
    while True:
        c = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(c):
            return ProjPoint(c)


def test_proj_point_normalisation():
    assert ProjPoint([4, 6]).coords == (2, 3)
    assert ProjPoint([-2, -3]).coords == (2, 3)
    assert ProjPoint([0, -5]).coords == (0, 1)
    assert ProjPoint([Fraction(1, 2), 1]).coords == (1, 2)
    assert ProjPoint([Fraction(2, 3), Fraction(4, 9)]).coords == (3, 2)


def test_proj_point_validation():
    with pytest.raises(ValidationError):
        ProjPoint([0, 0])
    with pytest.raises(ValidationError):
        ProjPoint([1])
    with pytest.raises(ValidationError):
        ProjPoint([0.5, 1])


def test_canonical_vectors_against_box_scan():
    # (n, weights, largest gauge_sq_max); weights of None mean all 1
    cases = [(n, None, 40) for n in (1, 2, 3)]
    cases += [(1, w, 130) for w in ((1, 1), (4, 1), (64, 1), (3, 2))]
    cases += [(2, w, 40) for w in ((1, 1, 1), (4, 1, 1), (1, 9, 2))]
    for n, weights, tops in cases:
        ws = weights or (1,) * (n + 1)
        for arch in ArchKind:
            for top in range(tops + 1):
                r = math.isqrt(top)
                want = []
                for x in itertools.product(range(-r, r + 1), repeat=n + 1):
                    if next((c for c in x if c), 0) <= 0 or math.gcd(*x) != 1:
                        continue
                    g = [w * c * c for w, c in zip(ws, x)]
                    g2 = max(g) if arch is ArchKind.MAX else sum(g)
                    if g2 <= top:
                        want.append((g2, *x))
                assert canonical_vectors(n, arch, top, weights) == sorted(want), (n, weights, arch, top)


def test_height_examples():
    assert height_point(B_MAX, ProjPoint([2, 3])) == 3
    assert height_point(MetrizedLineBundle(1, 2, ArchKind.MAX), ProjPoint([4, 6])) == 9
    assert height_point(B_MAX, ProjPoint([1, 1])) == 1
    assert height_point(MetrizedLineBundle(2, 1, ArchKind.MAX), ProjPoint([3, -7, 2])) == 7


def test_height_l2():
    BL = MetrizedLineBundle(1, 1, ArchKind.L2)
    h = height_point(BL, ProjPoint([3, 4]))
    assert h == 5 and isinstance(h, Fraction)
    h2 = height_point(BL, ProjPoint([1, 1]))
    assert isinstance(h2, float) and abs(h2 - math.sqrt(2)) < 1e-15
    # squared height is always exact
    assert height_point_sq(BL, ProjPoint([1, 1])) == 2


def test_bundle_validation():
    with pytest.raises(ValidationError):
        MetrizedLineBundle(0, 1, ArchKind.MAX)
    with pytest.raises(ValidationError):
        ArchKind.parse("sup")
    assert ArchKind.parse("MAX") is ArchKind.MAX


@pytest.mark.parametrize(
    "build",
    [
        lambda: Section(B_MAX, (1.5, 0)),
        lambda: Section(B_MAX, (True, 0)),
        lambda: Character((2.7, "3")),
        lambda: Character(("3",)),
        lambda: restrict_bundle_sum([1.9], ProjPoint((2, 3)), "max"),
        lambda: MetrizedLineBundle(True, 1, "max"),
        lambda: MetrizedLineBundle(1.0, 1, "max"),
        lambda: MetrizedLineBundle(1, False, "max"),
    ],
)
def test_integer_parameters_refuse_non_integers(build):
    # a float, bool or str is refused rather than truncated
    with pytest.raises(ValidationError, match="must be an int, got"):
        build()


def test_section_validation():
    B = MetrizedLineBundle(2, 2, ArchKind.MAX)
    Section(B, (1, 1, 0))
    with pytest.raises(ValidationError):
        Section(B, (1, 0, 0))
    with pytest.raises(ValidationError):
        Section(B, (3, -1, 0))
    with pytest.raises(ValidationError):
        Section(B, (1, 1))


def test_section_independence():
    """The height does not depend on which nonvanishing section is used."""
    rng = random.Random(501)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        B = MetrizedLineBundle(n, m, arch)
        x = random_point(rng, n)
        A = AdelicPoint(x, {})
        heights = []
        for e in _monomials(n, m):
            s = Section(B, e)
            if s.value(x.coords) != 0:
                heights.append(height_adelic(B, s, A))
        assert len(heights) >= 1
        assert all(h == heights[0] for h in heights)


def _monomials(n, m):
    if n == 0:
        return [(m,)]
    out = []
    for k in range(m + 1):
        out.extend((k,) + rest for rest in _monomials(n - 1, m - k))
    return out


def test_adelic_matches_height_point_without_overrides():
    rng = random.Random(502)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        B = MetrizedLineBundle(n, m, arch)
        x = random_point(rng, n)
        s = next(Section(B, e) for e in _monomials(n, m) if Section(B, e).value(x.coords) != 0)
        assert height_adelic(B, s, AdelicPoint(x, {})) == height_point(B, x)


def test_adelic_override_example():
    """Override at p = 2 by (1/2 : 1): after rescaling the override to a
    2-adic unit vector the local factor is 1, so the height is the
    default height."""
    s = Section.coordinate(B_MAX, 0)
    A = AdelicPoint(ProjPoint([1, 1]), {Place.finite(2): (Fraction(1, 2), Fraction(1))})
    assert height_adelic(B_MAX, s, A) == 1


def test_adelic_three_place_hand_product():
    """Oracle: every local factor computed from the definition directly."""
    s = Section.coordinate(B_MAX, 0)
    x = ProjPoint([2, 3])
    ov = {Place.finite(5): (Fraction(1, 5), Fraction(2))}
    A = AdelicPoint(x, ov)
    got = height_adelic(B_MAX, s, A)

    # at infinity: |2| / max(2,3) = 2/3, factor 3/2
    # at 2: |2|_2 / max-gauge 1 = 1/2, factor 2
    # at 5 (override): |1/5|_5 / max(|1/5|_5, |2|_5) = 5/5 = 1, factor 1
    expected = Fraction(3, 2) * 2 * 1
    assert got == expected == 3

    prod_sq = Fraction(1)
    for v in [INF, Place.finite(2), Place.finite(5)]:
        prod_sq /= local_norm_sq(s, A.governing_vector(v), v)
    assert prod_sq == expected * expected


def test_adelic_override_scaling_invariance():
    rng = random.Random(503)
    s = Section.coordinate(B_MAX, 0)
    for _ in range(20):
        x = random_point(rng, 1)
        if x.coords[0] == 0:
            continue
        vec = (Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9)))
        if vec[1] == 0:
            vec = (vec[0], Fraction(1))
        lam = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        A1 = AdelicPoint(x, {Place.finite(3): vec})
        A2 = AdelicPoint(x, {Place.finite(3): (vec[0] * lam, vec[1] * lam)})
        assert height_adelic(B_MAX, s, A1) == height_adelic(B_MAX, s, A2)


def test_height_multiplicative_in_degree():
    rng = random.Random(504)
    for _ in range(30):
        n = rng.randint(1, 3)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        x = random_point(rng, n)
        ha = height_point_sq(MetrizedLineBundle(n, a, arch), x)
        hb = height_point_sq(MetrizedLineBundle(n, b, arch), x)
        hab = height_point_sq(MetrizedLineBundle(n, a + b, arch), x)
        assert hab == ha * hb


def test_section_zero_errors():
    s = Section.coordinate(B_MAX, 0)
    with pytest.raises(SectionZeroError) as exc:
        height_adelic(B_MAX, s, AdelicPoint(ProjPoint([0, 1]), {}))
    assert exc.value.place == INF
    # an override at infinity cannot rescue vanishing at the default
    with pytest.raises(SectionZeroError) as exc2:
        height_adelic(B_MAX, s, AdelicPoint(ProjPoint([0, 1]), {INF: (Fraction(1), Fraction(1))}))
    assert exc2.value.place == Place.finite(2)
    # vanishing only at an override place
    with pytest.raises(SectionZeroError) as exc3:
        height_adelic(B_MAX, s, AdelicPoint(ProjPoint([1, 1]), {Place.finite(7): (Fraction(0), Fraction(1))}))
    assert exc3.value.place == Place.finite(7)


def test_restrict_examples():
    assert restrict_to_point(B_MAX, ProjPoint([2, 3])).gram == ((Fraction(1, 9),),)
    r = restrict_to_point(MetrizedLineBundle(1, -1, ArchKind.MAX), ProjPoint([2, 3]))
    assert vol(r) == 3
    assert dual(restrict_to_point(B_MAX, ProjPoint([2, 3]))).gram == r.gram


def test_restrict_bundle_sum_example():
    L = restrict_bundle_sum([0, 1], ProjPoint([1, 2]), ArchKind.MAX)
    assert L.gram == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 4)))


def test_restrict_degree_matches_log_height():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randint(1, 2)
        m = rng.randint(1, 3)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        B = MetrizedLineBundle(n, m, arch)
        x = random_point(rng, n)
        deg = arithmetic_degree(restrict_to_point(B, x))
        h2 = height_point_sq(B, x)
        assert abs(deg - 0.5 * math.log(float(h2))) < 1e-12


def test_restriction_gram_oracle():
    """Independent oracle: the restriction Gram entry must equal the
    inverse square of the height computed by the height machinery."""
    rng = random.Random(506)
    for _ in range(20):
        n = rng.randint(1, 2)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        x = random_point(rng, n)
        for m in (1, 2):
            B = MetrizedLineBundle(n, m, arch)
            got = restrict_to_point(B, x).gram[0][0]
            assert got == 1 / height_point_sq(B, x)
