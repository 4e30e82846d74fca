import random
from fractions import Fraction
from math import gcd

import pytest

from adelic.errors import CapacityError, ValidationError
from adelic.fibration import (
    FibrationLineClass,
    FnPoint,
    HirzebruchSurface,
    anticanonical_class,
    character_shift_invariance,
    enumerate_Fn,
    height_Fn,
    height_Fn_raw,
    height_Fn_sq,
    is_effective,
    twisted_degree,
)
from adelic.heights import ArchKind, MetrizedLineBundle, ProjPoint, height_point, restrict_bundle_sum


def random_fn_point(rng, span=9):
    while True:
        u, v = rng.randint(-span, span), rng.randint(-span, span)
        if (u, v) != (0, 0):
            break
    while True:
        s, t = rng.randint(-span, span), rng.randint(-span, span)
        if (s, t) != (0, 0):
            break
    return FnPoint(ProjPoint((u, v)), (s, t))


def test_surface_normalizes_negative_class():
    assert HirzebruchSurface(-3).n == 3
    assert HirzebruchSurface(0).n == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: HirzebruchSurface(1.5),
        lambda: HirzebruchSurface(-2.0),
        lambda: HirzebruchSurface("1"),
        lambda: HirzebruchSurface(True),
        lambda: FibrationLineClass(1.5, 0, 1),
        lambda: FibrationLineClass(1, 0.0, 1),
        lambda: FibrationLineClass(1, 0, "1"),
        lambda: FibrationLineClass(1, False, 1),
    ],
)
def test_surface_and_class_refuse_non_integers(build):
    # a float, bool or str is refused rather than truncated
    with pytest.raises(ValidationError, match="must be an int, got"):
        build()


def test_point_canonicalization():
    P = FnPoint((2, 4), (6, -9))
    assert tuple(int(c) for c in P.base.coords) == (1, 2)
    assert P.fiber == (2, -3)
    assert FnPoint((1, 1), (0, -5)).fiber == (0, 1)
    assert FnPoint((1, 1), (-2, 7)).fiber == (2, -7)
    with pytest.raises(ValidationError):
        FnPoint((1, 1), (0, 0))
    with pytest.raises(ValidationError):
        FnPoint(ProjPoint((1, 2, 3)), (1, 0))


def test_point_fiber_follows_projpoint_rule():
    # a rational fiber is scaled to primitive integers, not truncated
    assert FnPoint((2, 3), (Fraction(1, 2), 1)).fiber == (1, 2)
    assert FnPoint((2, 3), (Fraction(-2, 3), Fraction(4, 9))).fiber == (3, -2)
    with pytest.raises(ValidationError):
        FnPoint((2, 3), (0.5, 1))
    with pytest.raises(ValidationError):
        FnPoint((2, 3), (1, 2, 3))
    with pytest.raises(ValidationError):
        FnPoint((2, 3), ProjPoint((1, 2, 3)))
    # a ProjPoint fiber is taken as it is
    f = ProjPoint((3, -4))
    assert FnPoint((2, 3), f).fiber is f.coords


def test_height_examples():
    # trivial torsor: product of the two coordinate heights
    Y0 = HirzebruchSurface(0)
    P = FnPoint((1, 2), (1, 1))
    assert height_Fn(Y0, FibrationLineClass(1, 0, 1), P) == 2

    # twisted fiber gauge: max(3, 4/2) = 3
    Y1 = HirzebruchSurface(1)
    Q = FnPoint((1, 2), (3, 4))
    assert height_Fn(Y1, FibrationLineClass(1, 0, 0), Q) == 3

    # pure character factor N^(n*w)
    R = FnPoint((1, 3), (5, 7))
    assert height_Fn(Y1, FibrationLineClass(0, 1, 0), R) == 3


def test_height_l2_touches_only_the_fiber():
    Y1 = HirzebruchSurface(1)
    Q = FnPoint((1, 2), (3, 4))
    assert height_Fn_sq(Y1, FibrationLineClass(1, 0, 0), Q, ArchKind.L2) == 13  # 9 + 16/4
    # base factor stays the max height even under the euclidean fiber gauge
    assert height_Fn(Y1, FibrationLineClass(0, 0, 1), Q, ArchKind.L2) == 2


def test_character_shift_examples():
    Y0 = HirzebruchSurface(0)
    P = FnPoint((2, 3), (1, 4))
    c = FibrationLineClass(1, 0, 2)
    h1, h2 = character_shift_invariance(Y0, c, P)
    assert h1 == h2

    Y1 = HirzebruchSurface(1)
    Q = FnPoint((1, 2), (3, 4))
    a = height_Fn(Y1, FibrationLineClass(1, 0, 2), Q)
    b = height_Fn(Y1, FibrationLineClass(1, 1, 1), Q)
    assert a == b == 12

    Y2 = HirzebruchSurface(2)
    rng = random.Random(7)
    for _ in range(20):
        P = random_fn_point(rng)
        h1, h2 = character_shift_invariance(Y2, FibrationLineClass(2, 1, 0), P)
        assert h1 == h2
        assert height_Fn_sq(Y2, FibrationLineClass(2, 1, 0), P) == height_Fn_sq(
            Y2, FibrationLineClass(2, 2, -2), P
        )


def test_shift_invariance_random_classes():
    rng = random.Random(11)
    for _ in range(40):
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(-2, 3), rng.randint(-2, 2), rng.randint(-4, 4))
        P = random_fn_point(rng)
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        steps = rng.randint(-3, 3)
        assert height_Fn_sq(Y, c, P, arch) == height_Fn_sq(Y, c.shifted(Y.n, steps), P, arch)


def _monomial_section_exists(n, k, J):
    # bi-monomials s^a t^b u^c v^d: a+b = k, c+d = J - n*b with c, d >= 0
    return k >= 0 and any(J - n * b >= 0 for b in range(k + 1))


def test_effectivity_criterion():
    assert is_effective(HirzebruchSurface(2), FibrationLineClass(0, 0, 0))
    for n in range(0, 4):
        assert not is_effective(HirzebruchSurface(n), FibrationLineClass(-1, 0, 5))
    # boundary flip for n=1, c=(1,0,j) happens at j = 0
    Y1 = HirzebruchSurface(1)
    for j in range(-3, 4):
        assert is_effective(Y1, FibrationLineClass(1, 0, j)) is (j >= 0)
    for n in range(0, 4):
        Y = HirzebruchSurface(n)
        for k in range(-2, 4):
            for w in range(-2, 3):
                for j in range(-5, 6):
                    c = FibrationLineClass(k, w, j)
                    assert is_effective(Y, c) is _monomial_section_exists(n, k, twisted_degree(Y, c))


def test_effective_monomial_is_height_bounded():
    # for an effective class the b=0 monomial s^k u^c v^d with c+d = J
    # satisfies |m(P)| <= H(P) at every point, witnessing the section
    rng = random.Random(23)
    Y = HirzebruchSurface(2)
    c = FibrationLineClass(2, 1, 1)  # J = 3
    J = twisted_degree(Y, c)
    assert is_effective(Y, c)
    for _ in range(30):
        P = random_fn_point(rng)
        u, v = (int(x) for x in P.base.coords)
        s, _t = P.fiber
        m = Fraction(s) ** c.k * Fraction(max(abs(u), abs(v))) ** J
        assert m * m <= height_Fn_sq(Y, c, P)


def test_anticanonical_class_shape():
    for n in range(0, 4):
        acl = anticanonical_class(HirzebruchSurface(n))
        assert (acl.k, acl.w, acl.j) == (2, 1, 2)
        assert is_effective(HirzebruchSurface(n), acl)
        assert twisted_degree(HirzebruchSurface(n), acl) == n + 2


def test_anticanonical_on_product_surface():
    # n=0: the class acts as O(2,2), squaring both coordinate heights
    Y0 = HirzebruchSurface(0)
    acl = anticanonical_class(Y0)
    rng = random.Random(5)
    line = MetrizedLineBundle(1, 1, ArchKind.MAX)
    for _ in range(25):
        P = random_fn_point(rng)
        hb = height_point(line, P.base)
        hf = height_point(line, ProjPoint(P.fiber))
        assert height_Fn(Y0, acl, P) == (hb * hf) ** 2


def test_anticanonical_shifted_representatives_agree():
    Y1 = HirzebruchSurface(1)
    acl = anticanonical_class(Y1)
    rng = random.Random(31)
    for _ in range(10):
        P = random_fn_point(rng)
        h1, h2 = character_shift_invariance(Y1, acl, P)
        assert h1 == h2


def test_product_surface_factorizes():
    Y0 = HirzebruchSurface(0)
    rng = random.Random(13)
    line = MetrizedLineBundle(1, 1, ArchKind.MAX)
    for _ in range(30):
        P = random_fn_point(rng)
        k, w, j = rng.randint(0, 3), rng.randint(-2, 2), rng.randint(0, 3)
        expected = height_point(line, ProjPoint(P.fiber)) ** k * height_point(line, P.base) ** j
        assert height_Fn(Y0, FibrationLineClass(k, w, j), P) == expected


def test_fiber_gauge_matches_restricted_lattice():
    # M is the gauge of (s,t) in restrict_bundle_sum([0, n], base)
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(0, 3)
        Y = HirzebruchSurface(n)
        P = random_fn_point(rng)
        E = restrict_bundle_sum((0, n), P.base, ArchKind.MAX)
        s, t = P.fiber
        m_sq_l2 = height_Fn_sq(Y, FibrationLineClass(1, 0, 0), P, ArchKind.L2)
        assert m_sq_l2 == E.norm_sq((s, t))
        m_sq_max = height_Fn_sq(Y, FibrationLineClass(1, 0, 0), P, ArchKind.MAX)
        assert m_sq_max == max(s * s * E.gram[0][0], t * t * E.gram[1][1])


def test_raw_height_matches_model_on_canonical_reps():
    rng = random.Random(41)
    for _ in range(40):
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(-2, 3), rng.randint(-2, 2), rng.randint(-3, 3))
        P = random_fn_point(rng)
        for arch in (ArchKind.MAX, ArchKind.L2):
            raw = height_Fn_raw(Y, c, tuple(P.base.coords), P.fiber, arch)
            assert raw == height_Fn(Y, c, P, arch)


def test_chart_independence():
    # the v != 0 chart rescales the base to (u/v, 1) and the twisted fiber
    # entry by v^(-n); the product formula keeps the height unchanged
    rng = random.Random(43)
    done = 0
    while done < 100:
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-3, 3))
        P = random_fn_point(rng)
        u, v = (int(x) for x in P.base.coords)
        if v == 0:
            continue
        s, t = P.fiber
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        chart1 = height_Fn_raw(Y, c, (u, v), (s, t), arch)
        chart2 = height_Fn_raw(
            Y, c, (Fraction(u, v), 1), (s, Fraction(t, v**Y.n)), arch
        )
        assert chart1 == chart2
        done += 1


def test_raw_height_rescaling_invariance():
    rng = random.Random(47)
    for _ in range(40):
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(0, 2), rng.randint(-1, 2), rng.randint(-2, 3))
        P = random_fn_point(rng)
        u, v = (int(x) for x in P.base.coords)
        s, t = P.fiber
        lam = Fraction(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice([1, -1])
        rho = Fraction(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice([1, -1])
        base2 = (lam * u, lam * v)
        fiber2 = (rho * s, rho * lam**Y.n * t)
        assert height_Fn_raw(Y, c, base2, fiber2) == height_Fn_raw(Y, c, (u, v), (s, t))


def _brute_points(Y, c, arch, bound):
    # independent bi-graded box scan with the height recomputed from scratch,
    # then filtered to the same base truncation enumerate_Fn defines
    bound = Fraction(bound)
    J = twisted_degree(Y, c)
    got = set()
    box = int(bound) + 1
    for u in range(0, box + 1):
        for v in range(-box, box + 1):
            if u == 0:
                if v != 1:
                    continue
            elif gcd(u, abs(v)) != 1:
                continue
            N = max(abs(u), abs(v))
            if Fraction(N) ** J > bound:
                continue
            fb = int(bound) * N**Y.n + 1
            for s in range(0, fb + 1):
                for t in range(-fb, fb + 1):
                    if s == 0:
                        if t != 1:
                            continue
                    elif gcd(s, abs(t)) != 1:
                        continue
                    P = FnPoint((u, v), (s, t))
                    if height_Fn_sq(Y, c, P, arch) <= bound * bound:
                        got.add((tuple(P.base.coords), P.fiber))
    return got


def test_enumeration_product_surface():
    Y0 = HirzebruchSurface(0)
    c = FibrationLineClass(1, 0, 1)
    pts = enumerate_Fn(Y0, c, ArchKind.MAX, 2)
    # heights multiply: 4 bases of height 1 x 8 fibers up to height 2,
    # plus 4 bases of height 2 x 4 fibers of height 1
    assert len(pts) == 48
    assert {(tuple(p.base.coords), p.fiber) for p in pts} == _brute_points(Y0, c, ArchKind.MAX, 2)


def test_enumeration_twisted_unit_bound():
    Y1 = HirzebruchSurface(1)
    pts = enumerate_Fn(Y1, FibrationLineClass(1, 0, 1), ArchKind.MAX, 1)
    assert len(pts) == 16
    assert {p.base_height for p in pts} == {1}
    assert {p.fiber for p in pts} == {(0, 1), (1, -1), (1, 0), (1, 1)}


def test_enumeration_empty_below_one():
    Y1 = HirzebruchSurface(1)
    assert enumerate_Fn(Y1, FibrationLineClass(1, 0, 1), ArchKind.MAX, Fraction(1, 2)) == []


def test_enumeration_matches_bruteforce_random():
    rng = random.Random(19)
    for _ in range(6):
        Y = HirzebruchSurface(rng.randint(0, 2))
        c = FibrationLineClass(rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 2))
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        bound = rng.randint(1, 4)
        pts = enumerate_Fn(Y, c, arch, bound)
        keyed = {(tuple(p.base.coords), p.fiber) for p in pts}
        assert len(keyed) == len(pts)
        assert keyed == _brute_points(Y, c, arch, bound)


def test_enumeration_deterministic_order():
    Y1 = HirzebruchSurface(1)
    c = FibrationLineClass(1, 0, 2)
    a = enumerate_Fn(Y1, c, ArchKind.MAX, 6)
    b = enumerate_Fn(Y1, c, ArchKind.MAX, 6)
    assert a == b
    heights = [height_Fn(Y1, FibrationLineClass(0, 0, 1), p) for p in a]
    assert heights == sorted(heights)  # grouped by base height first


def test_enumeration_validation_and_capacity():
    Y1 = HirzebruchSurface(1)
    with pytest.raises(ValidationError):
        enumerate_Fn(Y1, FibrationLineClass(0, 0, 2), ArchKind.MAX, 5)
    with pytest.raises(ValidationError):
        enumerate_Fn(Y1, FibrationLineClass(1, 0, -1), ArchKind.MAX, 5)
    with pytest.raises(CapacityError):
        enumerate_Fn(Y1, FibrationLineClass(1, 0, 1), ArchKind.MAX, 50, cap=10)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "abc", 1j])
def test_enumeration_malformed_bound_refused(bad):
    with pytest.raises(ValidationError, match="H_bound"):
        enumerate_Fn(HirzebruchSurface(1), FibrationLineClass(1, 0, 1), ArchKind.MAX, bad)


@pytest.mark.parametrize(
    "n, arch, total",
    [
        # height 1: W = 1, Q = 4, rows s = 0, 1, 2 of 1 + 5 + 5 candidates;
        # height 2: W = 4, Q = 4, rows s = 0, 1 of 1 + 5; 4 bases each
        (1, ArchKind.MAX, 4 * 11 + 4 * 6),
        # height 1: W = 1, Q = 4, rows s = 0, 1, 2 of 1 + 3 + 1 candidates;
        # height 2: W = 1024, Q = 1024, rows s = 0, 1 of 1 + 1
        (5, ArchKind.L2, 4 * 5 + 4 * 2),
    ],
)
def test_enumeration_cap_is_the_exact_row_total(n, arch, total):
    Y, c = HirzebruchSurface(n), FibrationLineClass(1, 0, 1)
    pts = enumerate_Fn(Y, c, arch, 2, cap=total)
    assert {(tuple(p.base.coords), p.fiber) for p in pts} == _brute_points(Y, c, arch, 2)
    with pytest.raises(CapacityError):
        enumerate_Fn(Y, c, arch, 2, cap=total - 1)


def test_enumeration_tall_twists():
    # the fiber rows of F3 hold 112,504 points under H = 13, and over the
    # height 2 bases of F40 the row s = 0 visits t = 1 alone, not 2^40 values
    assert len(enumerate_Fn(HirzebruchSurface(3), FibrationLineClass(3, 0, 1), ArchKind.L2, 13)) == 112504
    pts = enumerate_Fn(HirzebruchSurface(40), FibrationLineClass(1, 0, 1), ArchKind.L2, 2)
    assert len(pts) == 24
    assert {p.fiber for p in pts if p.base_height == 2} == {(0, 1), (1, 0)}
