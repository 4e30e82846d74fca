import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from adelic.errors import CapacityError, PoleError, ValidationError
from adelic.lattice import (
    HermitianLattice,
    _ball_rows,
    _enumerate_scaled,
    arithmetic_degree,
    completed_lambda,
    direct_sum,
    dual,
    enumerate_vectors,
    lattice_zeta,
    theta,
    theta_functional_equation_defect,
    vol,
    zeta_direct_truncated,
)
from adelic.numeric import Ctx, gamma_complex, upper_G
from helpers import random_lattice

Z1 = HermitianLattice.identity(1)
Z2 = HermitianLattice.identity(2)
SHEARED = HermitianLattice([[1, 10**8], [10**8, 10**16 + 1]])  # a basis of Z^2


# -- construction and exact structure ---------------------------------


def test_gram_validation():
    with pytest.raises(ValidationError):
        HermitianLattice([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValidationError):
        HermitianLattice([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValidationError):
        HermitianLattice([[Fraction(-1)]])
    with pytest.raises(ValidationError):
        HermitianLattice([])
    with pytest.raises(ValidationError):
        HermitianLattice([[1, 0]])


def test_vol_exact_and_float():
    assert vol(HermitianLattice.diagonal([1, Fraction(1, 4)])) == Fraction(1, 2)
    assert vol(HermitianLattice.identity(3)) == 1
    v = vol(HermitianLattice([[2, 1], [1, 2]]))
    assert isinstance(v, float) and abs(v - math.sqrt(3)) < 1e-15


def test_arithmetic_degree():
    assert arithmetic_degree(Z1) == 0.0
    L = HermitianLattice.diagonal([1, Fraction(1, 4)])
    assert abs(arithmetic_degree(L) - math.log(2)) < 1e-15


def test_dual_involution_and_volume_product():
    rng = random.Random(101)
    assert dual(HermitianLattice.diagonal([1, Fraction(1, 4)])).gram == HermitianLattice.diagonal([1, 4]).gram
    for _ in range(25):
        L = random_lattice(rng, rng.randint(1, 4))
        Ld = dual(L)
        assert dual(Ld).gram == L.gram
        assert L.det * Ld.det == 1


def test_direct_sum():
    A = HermitianLattice.diagonal([2])
    B = HermitianLattice([[3, 1], [1, 3]])
    S = direct_sum(A, B)
    assert S.rank == 3
    assert S.det == A.det * B.det
    assert S.gram[0][1] == 0 and S.gram[1][2] == 1


# -- enumeration -------------------------------------------------------


def test_enumerate_identity_r1():
    assert enumerate_vectors(Z2, 1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_enumerate_skew_example():
    L = HermitianLattice.diagonal([1, Fraction(1, 4)])
    vecs = enumerate_vectors(L, 1)
    assert vecs == [(-1, 0), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (1, 0)]


def test_enumerate_zero_radius_and_errors():
    assert enumerate_vectors(Z2, 0) == [(0, 0)]
    with pytest.raises(ValidationError):
        enumerate_vectors(Z2, -1)
    with pytest.raises(CapacityError):
        enumerate_vectors(Z2, 100, cap=10)


def test_enumerate_against_box_scan():
    """Oracle: scan an integer box and keep vectors passing the exact
    norm comparison; must agree with the pruned enumeration."""
    rng = random.Random(77)
    for _ in range(10):
        d = rng.randint(1, 3)
        L = random_lattice(rng, d)
        R = Fraction(rng.randint(2, 5), rng.randint(1, 2))
        box = range(-12, 13)
        expected = []

        def scan(prefix):
            if len(prefix) == d:
                if L.norm_sq(prefix) <= R * R:
                    expected.append(tuple(prefix))
                return
            for k in box:
                scan(prefix + [k])

        scan([])
        got = enumerate_vectors(L, R)
        assert got == sorted(expected)


def test_enumerate_scaled_norms_against_box_scan():
    """Oracle for the raw enumerator up to rank 4: the vectors of the
    ball's rows match a box scan, a vector lying exactly on the sphere is
    kept, and the scaled norms are the exact norms of those vectors in
    row order."""
    rng = random.Random(78)
    for _ in range(12):
        d = rng.randint(1, 4)
        L = random_lattice(rng, d)
        on_sphere = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(d))
        R2 = L.norm_sq(on_sphere)
        # |x_i|^2 <= R2 * (G^-1)_ii bounds the box that holds the ball
        inv = dual(L).gram
        box = [range(-b, b + 1) for b in (math.isqrt(math.floor(R2 * inv[i][i])) + 1 for i in range(d))]
        expected = set()

        def scan(prefix):
            if len(prefix) == d:
                if L.norm_sq(prefix) <= R2:
                    expected.add(tuple(prefix))
                return
            for k in box[len(prefix)]:
                scan(prefix + [k])

        scan([])
        vecs = [(x,) + above for lo, hi, _, _, above in _ball_rows(L, R2) for x in range(lo, hi + 1)]
        assert len(vecs) == len(set(vecs)) and set(vecs) == expected
        assert on_sphere in vecs and tuple(-v for v in on_sphere) in vecs
        got = _enumerate_scaled(L, R2)
        assert got == [L.norm_sq(v) * L._int_scale for v in vecs]
        # the cap admits a ball of exactly cap vectors and refuses one more
        assert _enumerate_scaled(L, R2, cap=len(got)) == got
        with pytest.raises(CapacityError):
            _enumerate_scaled(L, R2, cap=len(got) - 1)
        R = math.isqrt(math.floor(R2)) + 1
        k = len(enumerate_vectors(L, R))
        assert len(enumerate_vectors(L, R, cap=k)) == k
        with pytest.raises(CapacityError):
            enumerate_vectors(L, R, cap=k - 1)


def test_enumerate_scaled_is_norms_of_enumerate_vectors():
    """The scaled norms come one per vector, in the order of nested loops
    with x_(d-1) outermost, which is lexicographic on reversed vectors."""
    rng = random.Random(80)
    for _ in range(20):
        L = random_lattice(rng, rng.randint(1, 4))
        R = rng.randint(1, 3)
        vecs = sorted(enumerate_vectors(L, R), key=lambda v: v[::-1])
        assert _enumerate_scaled(L, R * R) == [L.norm_sq(v) * L._int_scale for v in vecs]


def test_integer_pivots_reproduce_norms():
    """x^T (c G) x = sum_k (D_(k+1) x_k + B_k . x_above)^2 / (D_k D_(k+1))
    for the stored integer minors D and pivot rows B."""
    rng = random.Random(79)
    lattices = [random_lattice(rng, rng.randint(1, 4)) for _ in range(20)]
    lattices += [SHEARED, HermitianLattice([[10**400, 1], [1, 1]])]
    for L in lattices:
        D, B = L._int_minors, L._int_pivots
        assert D[0] == 1 and D[-1] == L.det * L._int_scale**L.rank
        for _ in range(10):
            x = [rng.randint(-5, 5) for _ in range(L.rank)]
            total = sum(
                Fraction((D[k + 1] * x[k] + sum(b * v for b, v in zip(B[k], x[k + 1 :]))) ** 2, D[k] * D[k + 1])
                for k in range(L.rank)
            )
            assert total == L.norm_sq(x) * L._int_scale


def test_enumerate_sheared_basis():
    assert enumerate_vectors(SHEARED, 1) == [(-(10**8), 1), (-1, 0), (0, 0), (1, 0), (10**8, -1)]


def test_enumerate_huge_gram_entry():
    L = HermitianLattice([[10**400, 1], [1, 1]])
    assert _enumerate_scaled(L, Fraction(1)) == [1, 0, 1]
    assert enumerate_vectors(L, 1) == [(0, -1), (0, 0), (0, 1)]


def test_enumerate_partial_vectors_bounded_by_cap():
    # the dual of the sheared basis is Z^2 again, but its last coordinate
    # ranges over about 2e8 values for R^2 = 1, nearly all of them with an
    # empty row below
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="partial vectors"):
        _enumerate_scaled(dual(SHEARED), Fraction(1))
    assert time.perf_counter() - t0 < 1.0
    # with a milder shear the five vectors come out, but 2001 partial
    # vectors are visited, so a cap between the two refuses the ball
    L = HermitianLattice([[1 + 10**6, 10**3], [10**3, 1]])
    assert len(_enumerate_scaled(L, Fraction(1), cap=2001)) == 5
    with pytest.raises(CapacityError, match="partial vectors"):
        _enumerate_scaled(L, Fraction(1), cap=2000)


def test_enumerate_membership_is_exact():
    # boundary vectors stay in: |(1,0)|^2 == 1 exactly
    vecs = enumerate_vectors(Z2, 1)
    assert (1, 0) in vecs and (-1, 0) in vecs


# -- theta -------------------------------------------------------------


def test_theta_z_frozen_value():
    t = theta(Z1, 1)
    assert t.rigorous
    assert abs(float(t.value) - 1.0864348112) < 5e-11
    assert t.error_bound < 1e-12


def test_theta_sheared_basis_equals_z2():
    a, b = theta(SHEARED, 1), theta(Z2, 1)
    assert abs(float(a.value) - float(b.value)) <= a.error_bound + b.error_bound


def test_theta_large_t():
    t = theta(Z1, 50)
    assert 1.0 <= float(t.value) <= 1.0 + 1e-12


def test_theta_scale_identity():
    for N in (2, 3, 5):
        a = theta(HermitianLattice.diagonal([N * N]), 1)
        b = theta(Z1, N * N)
        assert float(a.value) == float(b.value)


def test_theta_diagonal_matches_dense_path():
    """The rank-one product path and the ball enumeration path evaluate
    the same series; values must agree within combined bounds."""
    L = HermitianLattice.diagonal([1, Fraction(1, 4), 2])
    a = theta(L, 1)
    # same Gram fed through the dense code path via a tiny off-diagonal
    # perturbation is not exact; instead compare against mpmath directly
    ref = mpmath.mpf(0)
    for x in range(-30, 31):
        for y in range(-60, 61):
            for z in range(-25, 26):
                ref += mpmath.exp(-mpmath.pi * (x * x + y * y / mpmath.mpf(4) + 2 * z * z))
    assert abs(float(a.value) - float(ref)) < 1e-12


def test_theta_validation():
    with pytest.raises(ValidationError):
        theta(Z1, 0)
    with pytest.raises(ValidationError):
        theta(Z1, -2)
    with pytest.raises(ValidationError):
        theta(Z1, 1, eps=0.0)


def test_theta_functional_equation_random():
    rng = random.Random(2024)
    for _ in range(25):
        d = rng.randint(1, 3)
        L = random_lattice(rng, d)
        for t in (Fraction(1, 3), 1, 2):
            fe = theta_functional_equation_defect(L, t, eps=1e-12)
            assert fe.defect <= fe.allowance


def test_theta_truncation_monotone():
    L = HermitianLattice([[2, Fraction(1, 3)], [Fraction(1, 3), 3]])
    loose = theta(L, 1, eps=1e-6)
    tight = theta(L, 1, eps=1e-13)
    assert tight.error_bound <= loose.error_bound
    assert abs(float(loose.value) - float(tight.value)) <= loose.error_bound + tight.error_bound
    assert tight.terms_used >= loose.terms_used


def test_theta_direct_sum_product():
    rng = random.Random(12)
    A = random_lattice(rng, 2)
    B = random_lattice(rng, 1)
    S = direct_sum(A, B)
    ts = theta(S, 1)
    ta, tb = theta(A, 1), theta(B, 1)
    prod = float(ta.value) * float(tb.value)
    tol = ts.error_bound + ta.error_bound * float(tb.value) + tb.error_bound * float(ta.value) + 1e-13
    assert abs(float(ts.value) - prod) <= tol


def test_theta_high_precision_context():
    ctx = Ctx(160)
    t = theta(Z1, 1, eps=1e-30, ctx=ctx)
    with mpmath.workprec(200):
        ref = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi))
        assert abs(mpmath.mpf(t.value) - ref) < mpmath.mpf(10) ** -28


# -- incomplete gamma oracle ------------------------------------------


def test_upper_gamma_against_mpmath():
    rng = random.Random(31)
    for _ in range(120):
        a = complex(rng.uniform(-2, 3), rng.uniform(-3, 3))
        x = math.exp(rng.uniform(math.log(0.05), math.log(25)))
        mine = upper_G(a, x)
        with mpmath.workprec(120):
            ref = mpmath.power(x, -mpmath.mpc(a)) * mpmath.gammainc(mpmath.mpc(a), x, mpmath.inf)
            ref = complex(ref)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_upper_gamma_integer_a_small_x():
    # exact nonpositive integer a with x below the continued fraction
    # threshold: the recurrence must bottom out at E1, not divide by zero
    for a in (0, -1, -2, -3):
        for x in (0.05, 0.3, 0.9, 1.0):
            mine = upper_G(a, x)
            with mpmath.workprec(120):
                ref = complex(mpmath.power(x, -a) * mpmath.gammainc(a, x, mpmath.inf))
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_gamma_complex_against_mpmath():
    rng = random.Random(32)
    for _ in range(60):
        z = complex(rng.uniform(-4, 5), rng.uniform(-4, 4))
        if abs(z - round(z.real)) < 0.05 and z.real <= 0:
            continue
        mine = gamma_complex(z)
        ref = complex(mpmath.gamma(z))
        assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))


# -- completed Lambda --------------------------------------------------


def test_lambda_z_at_two():
    lam = completed_lambda(Z1, 2)
    assert abs(complex(lam.value) - math.pi / 3) < 1e-10
    assert not lam.rigorous


def test_lambda_pole_errors():
    for L, s in [(Z1, 0), (Z1, 1), (Z2, 2), (Z2, 0)]:
        with pytest.raises(PoleError):
            completed_lambda(L, s)


def test_lambda_functional_equation_grid():
    rng = random.Random(55)
    grid = [0.3 + 0.7j, -0.4 + 0.2j, 1.5 - 1.1j, 2.2 + 0.05j, 0.5]
    for _ in range(4):
        d = rng.randint(1, 3)
        L = random_lattice(rng, d)
        Ld = dual(L)
        for s in grid:
            a = complex(completed_lambda(L, s, 1e-13).value)
            b = complex(completed_lambda(Ld, d - s, 1e-13).value)
            assert abs(a - b) < 1e-10


def test_lambda_z_functional_equation_point():
    s = 0.3 + 0.7j
    a = complex(completed_lambda(Z1, s, 1e-13).value)
    b = complex(completed_lambda(Z1, 1 - s, 1e-13).value)
    assert abs(a - b) < 1e-10


def test_lambda_matches_direct_sum_for_large_re_s():
    """Anchor the normalisation: for Re s > d the completed function must
    equal sqrt(vol) pi^(-s/2) Gamma(s/2) times the raw Dirichlet series."""
    for L, s, R in [
        (Z1, 5.0, 2000),
        (HermitianLattice.diagonal([1, Fraction(1, 4)]), 6.0, 120),
        (HermitianLattice([[2, Fraction(1, 3)], [Fraction(1, 3), 3]]), 7.0, 60),
    ]:
        lam = complex(completed_lambda(L, s).value)
        zd = complex(zeta_direct_truncated(L, s, R).value)
        sv = float(L.det) ** 0.25
        ref = sv * math.pi ** (-s / 2) * math.gamma(s / 2) * zd
        assert abs(lam - ref) < 1e-8


def test_lambda_residues_by_extrapolation():
    """Residues at s = 0 and s = d are -2 sqrt(vol) and +2/sqrt(vol).
    A single Richardson step cancels the O(h) finite part, leaving
    O(h^2) error, about 1e-8 at h = 1e-4."""
    rng = random.Random(9)
    lattices = [HermitianLattice.identity(d) for d in (1, 2, 3)]
    lattices.append(random_lattice(rng, 2))
    for L in lattices:
        d = L.rank
        sv = float(L.det) ** 0.25
        h = 1e-4

        def near0(u):
            return u * complex(completed_lambda(L, u).value).real

        def neard(u):
            return (u - d) * complex(completed_lambda(L, u).value).real

        res0 = 2 * near0(h / 2) - near0(h)
        resd = 2 * neard(d - h / 2) - neard(d - h)
        assert abs(res0 + 2 * sv) < 1e-6
        assert abs(resd - 2 / sv) < 1e-6


def test_lambda_high_precision_context():
    ctx = Ctx(120)
    lam = completed_lambda(Z1, 2, eps=1e-25, ctx=ctx)
    with mpmath.workprec(160):
        assert abs(mpmath.mpc(lam.value) - mpmath.pi / 3) < mpmath.mpf(10) ** -22


# -- zeta --------------------------------------------------------------


def test_zeta_z_frozen_values():
    z2 = lattice_zeta(Z1, 2)
    z4 = lattice_zeta(Z1, 4)
    assert abs(complex(z2.value) - 3.28986813369645) < 1e-9
    assert abs(complex(z4.value) - 2.16464646742228) < 1e-9
    assert abs(complex(z2.value) - math.pi**2 / 3) < 1e-11
    assert abs(complex(z4.value) - math.pi**4 / 45) < 1e-11


def test_zeta_direct_identity_rank2():
    L = Z2
    direct = zeta_direct_truncated(L, 6, 1000)
    cont = lattice_zeta(L, 6)
    assert abs(complex(direct.value) - complex(cont.value)) < 1e-8


def test_zeta_direct_validation():
    with pytest.raises(ValidationError):
        zeta_direct_truncated(Z1, 0.5, 100)
    with pytest.raises(ValidationError):
        zeta_direct_truncated(Z1, 3, 0)


def test_zeta_pole():
    with pytest.raises(PoleError):
        lattice_zeta(Z1, 1)


def test_direct_vs_continued_row():
    rng = random.Random(404)
    for _ in range(4):
        d = rng.randint(1, 2)
        L = random_lattice(rng, d)
        s = d + 2.0
        if d == 1:
            direct = zeta_direct_truncated(L, s, 20000)
        else:
            direct = zeta_direct_truncated(L, s, 400, tail_correction=True)
        cont = lattice_zeta(L, s)
        assert abs(complex(direct.value) - complex(cont.value)) < 1e-8
