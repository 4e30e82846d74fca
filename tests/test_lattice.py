import cmath
import math
import operator
import random
import struct
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import adelic.lattice as lattice
from adelic.errors import CapacityError, PoleError, ValidationError
from adelic.exact import adjugate, is_diagonal, scaled_to_int
from adelic.lattice import (
    ENUM_CAP,
    HermitianLattice,
    _ball_rows,
    _enumerate_scaled,
    _gamma_term_sum,
    _gamma_term_sum_at,
    _lambda_min_lower,
    _lambda_sides,
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
from adelic.numeric import Ctx, fsum_c, gamma_complex, upper_G
from helpers import random_lattice

Z1 = HermitianLattice.identity(1)
Z2 = HermitianLattice.identity(2)
HUGE_DET = HermitianLattice.diagonal([10**400, 1])
TINY_DET = HermitianLattice.diagonal([Fraction(1, 10**400), 1])
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


@pytest.mark.parametrize("L", [HUGE_DET, TINY_DET], ids=["huge", "tiny"])
def test_det_outside_double_range_refused(L, monkeypatch):
    # these raised OverflowError, ZeroDivisionError or a math domain error
    def no_ball(*args):
        raise AssertionError("a ball was enumerated")

    monkeypatch.setattr(lattice, "_ball_rows", no_ball)
    for call, what in (
        (lambda: arithmetic_degree(L), "arithmetic degree"),
        (lambda: zeta_direct_truncated(L, 3.5, 10), "direct zeta"),
        (lambda: completed_lambda(L, 1.3), "Lambda"),
        (lambda: lattice_zeta(L, 1.3, ctx=Ctx(128)), "Lambda"),
        (lambda: theta_functional_equation_defect(L, 1), "the theta functional equation"),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"{what} needs det(G) inside the double range"


def test_dual_adjugate_read_off_the_gram(monkeypatch):
    """dual(L) hands the dual adj(A') = D'_d G / c', so the dual's
    eigenvalue bound 1 / ||G||_inf costs no elimination (check-02 lattices)."""
    rng = random.Random(20260822)
    lats = [random_lattice(rng, rng.randint(1, 4)) for _ in range(40)]
    for L in lats:
        lattice._adjugate(L)
    calls = []
    monkeypatch.setattr(lattice, "adjugate", lambda a: calls.append(a) or adjugate(a))
    for L in lats:
        Ld = dual(L)
        assert _lambda_min_lower(Ld) == 1 / max(sum(map(abs, row)) for row in L.gram)
        assert dual(Ld).gram == L.gram
        theta(Ld, 1)
        assert not calls
        assert Ld._adj == adjugate(scaled_to_int(Ld.gram)[1])[1]
        calls.clear()
    theta_functional_equation_defect(lats[0], 1)
    completed_lambda(lats[0], 0.5 + 1j)
    assert not calls


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


def _top_sign(v) -> int:
    """Sign of the last nonzero coordinate, 0 for the zero vector."""
    return next((1 if x > 0 else -1 for x in reversed(v) if x), 0)


def _half_vectors(L, R2):
    return [(x,) + above for lo, hi, _, _, above in _ball_rows(L, R2) for x in range(lo, hi + 1)]


def test_enumerate_scaled_norms_against_box_scan():
    """Oracle for the raw enumerator up to rank 4: the rows hold one
    vector of each pair {x, -x} of the box scan's nonzero vectors, the one
    with a positive top nonzero coordinate, a vector lying exactly on the
    sphere is kept (itself or its negative), and the scaled norms are the
    exact norms of the rows' vectors in row order."""
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
        vecs = _half_vectors(L, R2)
        ball = vecs + [tuple(-v for v in x) for x in vecs] + [(0,) * d]
        assert len(ball) == len(set(ball)) and set(ball) == expected
        assert all(_top_sign(v) == 1 for v in vecs)
        assert (on_sphere in vecs) != (tuple(-v for v in on_sphere) in vecs)
        got = _enumerate_scaled(L, R2)
        assert got == [L.norm_sq(v) * L._int_scale for v in vecs]
        # the cap admits a ball of exactly cap vectors and refuses one more
        assert _enumerate_scaled(L, R2, cap=len(expected)) == got
        with pytest.raises(CapacityError):
            _enumerate_scaled(L, R2, cap=len(expected) - 1)
        R = math.isqrt(math.floor(R2)) + 1
        k = len(enumerate_vectors(L, R))
        assert len(enumerate_vectors(L, R, cap=k)) == k
        with pytest.raises(CapacityError):
            enumerate_vectors(L, R, cap=k - 1)


def test_enumerate_scaled_is_norms_of_enumerate_vectors():
    """The scaled norms come one per vector with a positive top nonzero
    coordinate, in the order of nested loops with x_(d-1) outermost, which
    is lexicographic on reversed vectors."""
    rng = random.Random(80)
    for _ in range(20):
        L = random_lattice(rng, rng.randint(1, 4))
        R = rng.randint(1, 3)
        vecs = sorted((v for v in enumerate_vectors(L, R) if _top_sign(v) == 1), key=lambda v: v[::-1])
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
    assert _half_vectors(L, Fraction(1)) == [(0, 1)]
    assert _enumerate_scaled(L, Fraction(1)) == [1]
    assert enumerate_vectors(L, 1) == [(0, -1), (0, 0), (0, 1)]


def test_enumerate_partial_vectors_bounded_by_cap():
    # the dual of the sheared basis is Z^2 again, but its last coordinate
    # ranges over about 2e8 values for R^2 = 1, nearly all of them with an
    # empty row below
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="partial vectors"):
        _enumerate_scaled(dual(SHEARED), Fraction(1))
    assert time.perf_counter() - t0 < 1.0
    # with a milder shear the five vectors come out (two in the half
    # ball), but 2001 partial vectors of the whole ball are visited, so a
    # cap between the two refuses the ball
    L = HermitianLattice([[1 + 10**6, 10**3], [10**3, 1]])
    assert enumerate_vectors(L, 1, cap=2001) == [(-1, 1000), (0, -1), (0, 0), (0, 1), (1, -1000)]
    assert len(_enumerate_scaled(L, Fraction(1), cap=2001)) == 2
    with pytest.raises(CapacityError, match="partial vectors"):
        _enumerate_scaled(L, Fraction(1), cap=2000)
    with pytest.raises(CapacityError, match="partial vectors"):
        enumerate_vectors(L, 1, cap=2000)


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
    the same series; both must match an mpmath sum over a box far past
    their tails, which factors into three one-dimensional sums.  The
    dense path runs on the same lattice in the basis U = [[1, 1, 0],
    [0, 1, 1], [0, 0, 1]] (Gram U^T G U), which is unimodular."""
    G = HermitianLattice.diagonal([1, Fraction(1, 4), 2])
    U = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    L = HermitianLattice(
        [[sum(U[k][i] * G.gram[k][k] * U[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    )
    assert not is_diagonal(L.gram)
    ref = mpmath.mpf(1)
    for c, K in ((1, 30), (mpmath.mpf(1) / 4, 60), (2, 25)):
        ref *= mpmath.fsum(mpmath.exp(-mpmath.pi * c * k * k) for k in range(-K, K + 1))
    for M in (G, L):
        assert abs(float(theta(M, 1).value) - float(ref)) < 1e-12


def _ball_norms(L, R2):
    """Scaled norms x^T (c G) x of every vector of the ball |x|^2 <= R2,
    zero included, read from ``enumerate_vectors`` on a larger ball, in
    the nested-loop order with x_(d-1) outermost."""
    c, T = L._int_scale, math.floor(R2 * L._int_scale)
    A = [[int(g * c) for g in row] for row in L.gram]
    R = Fraction(math.isqrt(math.floor(R2 * 64**2)) + 1, 64)
    vecs = sorted(enumerate_vectors(L, R), key=lambda v: v[::-1])
    norms = (sum(x * sum(map(operator.mul, row, v)) for x, row in zip(v, A)) for v in vecs)
    return [q for q in norms if q <= T]


def test_theta_half_ball_sum_is_bitwise_full_sum(monkeypatch):
    """theta sums 1 for the zero vector, then one doubled term per pair
    {x, -x}.  Doubling is exact, so these terms have the same exact sum as
    one term per vector of the ball, and a sum rounded once from its exact
    value is the same bits.  math.fsum always rounds once.  mpmath's fsum
    (``mpf_sum``) adds into an exact integer accumulator man * 2^exp and
    drops a term only when its leading bit lies more than 2 prec bits
    below the accumulator's lowest bit, or drops the accumulator when its
    leading bit lies more than 2 prec bits below the new term's lowest
    bit.  With every term in [2^(-2 prec), 2] neither can happen in any
    order (the lowest bit stays <= 0 and the leading bit >= 1 - 2 prec),
    so the 128-bit sum is exact before its one rounding, too; the test
    checks that the grid's smallest term is in that range."""
    radii = []  # the R^2 that theta enumerates
    enumerate_scaled = lattice._enumerate_scaled

    def recording(L, R2, cap):
        radii.append(R2)
        return enumerate_scaled(L, R2, cap)

    monkeypatch.setattr(lattice, "_enumerate_scaled", recording)
    ctx = Ctx(128)
    rng = random.Random(81)
    for _ in range(6):
        L = random_lattice(rng, rng.randint(2, 4))
        for M in (L, dual(L)):
            for t in (Fraction(1, 3), Fraction(1), Fraction(2)):
                radii.clear()
                v = theta(M, t)
                if v.terms_used > 30_000:
                    continue  # a rank-4 dual at t = 1/3: 0.5-0.75 M vector tuples
                norms = _ball_norms(M, radii[0])
                scale = -(math.pi * float(t) / M._int_scale)
                assert v.value == math.fsum(math.exp(scale * q) for q in norms)
                assert v.terms_used == len(norms)
                half = enumerate_scaled(M, radii[0], lattice.ENUM_CAP)
                assert lattice._norm_multiplicities(half) == sorted(Counter(q for q in norms if q).items())
                if M.rank > 3:
                    continue
                radii.clear()
                v = theta(M, t, ctx=ctx)
                scale = -(ctx.pi * ctx.real(t) / M._int_scale)
                terms = [ctx.exp(scale * q) for q in _ball_norms(M, radii[0])]
                assert min(terms) >= mpmath.mpf(2) ** (-2 * ctx.bits)
                assert v.value == ctx.fsum(terms)
                assert v.terms_used == len(terms)


def test_theta_validation():
    with pytest.raises(ValidationError):
        theta(Z1, 0)
    with pytest.raises(ValidationError):
        theta(Z1, -2)
    with pytest.raises(ValidationError):
        theta(Z1, 1, eps=0.0)


@pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
def test_non_finite_eps_refused(eps):
    with pytest.raises(ValidationError, match="eps"):
        theta(Z1, 1, eps=eps)
    with pytest.raises(ValidationError, match="eps"):
        theta(HermitianLattice([[2, 1], [1, 2]]), 1, eps=eps)
    with pytest.raises(ValidationError, match="eps"):
        completed_lambda(Z1, 0.5, eps=eps)


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



def _skewed_diagonal(h):
    # the restriction diag(h^-2, h, h^-3) of the Euclidean (2, -1, 3)
    # Arakelov theta series, whose product reaches about 1.2e5 at h = 109
    return HermitianLattice.diagonal([Fraction(1, h**2), h, Fraction(1, h**3)])


@pytest.mark.parametrize("h", [10, 30, 50, 70, 90, 109])
def test_theta_diagonal_128_bit_bound(h):
    # the tail of the diagonal product is bounded in the context's
    # precision, so the bound is nonnegative and holds at 128 bits
    t = theta(_skewed_diagonal(h), 1, 1e-9 / 132, Ctx(128))
    assert t.error_bound >= 0
    with mpmath.workprec(256):
        ref = mpmath.fprod(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * mpmath.mpf(c.numerator) / c.denominator))
                           for c in (Fraction(1, h**2), Fraction(h), Fraction(1, h**3)))
        assert abs(mpmath.mpf(t.value) - ref) <= t.error_bound


def test_theta_diagonal_128_bit_terms_match_64_bit():
    L = _skewed_diagonal(109)
    want = theta(L, 1, 1e-9 / 132).terms_used
    t0 = time.perf_counter()
    got = theta(L, 1, 1e-9 / 132, Ctx(128)).terms_used
    assert time.perf_counter() - t0 < 2.0
    assert got == want == 15285


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


# -- the two-entry memo of gamma-term sums ---------------------------


CHECK03 = (HermitianLattice([[2]]), HermitianLattice([[2, 1], [1, 2]]), HermitianLattice.diagonal([1, 2, 3]))
DET14 = HermitianLattice([[3, 1], [1, 5]])  # its two side weights round one ulp apart


def _bits(v):
    if isinstance(v, (int, float, complex)):
        return struct.pack("<2d", v.real, v.imag)
    return v.real._mpf_, v.imag._mpf_


def _same(x, y):
    return (_bits(x.value), x.error_bound, x.terms_used) == (_bits(y.value), y.error_bound, y.terms_used)


def _count_upper_G(monkeypatch, ctx):
    calls = []
    inner = ctx._upper_G
    monkeypatch.setattr(ctx, "_upper_G", lambda a, x: calls.append(a) or inner(a, x))
    return calls


def test_det14_pair_shares_a_radius_not_an_eps():
    # det^(1/4) and 1/det(dual)^(1/4) round one ulp apart, so the L side's
    # eps_side differs between the halves of a pair while its radius agrees
    s = 0.5 + 1j
    (L, a1, w1, e1), _ = _lambda_sides(DET14, s, 1e-12)
    _, (L2, a2, w2, e2) = _lambda_sides(dual(DET14), 2 - s, 1e-12)
    assert L2 == L and a2 == a1 and w2 != w1 and e2 != e1
    assert lattice._lambda_radius(L2, a2, e2) == lattice._lambda_radius(L, a1, e1)


@pytest.mark.parametrize("bits", [64, 128])
def test_lambda_pair_memo_is_bit_identical(bits):
    """The second Lambda of a functional-equation pair, read from the memo,
    equals a memo-free evaluation to the bit: value, bound, term count."""
    ctx = Ctx(bits)
    rng = random.Random(25)
    lats = list(CHECK03) + [DET14] + [random_lattice(rng, d) for d in (1, 2, 3)]
    for i, L in enumerate(lats):
        d, Ld = L.rank, dual(L)
        s_values = [complex(d / 2 + rng.uniform(-3.5, 3.5), rng.uniform(-2.0, 2.0)), complex(d / 2 + 0.3, -0.0)]
        # at 128 bits the lattices take the two kinds of s in turn
        for s in s_values if bits == 64 else s_values[i % 2 :][:1]:
            _gamma_term_sum_at.cache_clear()
            completed_lambda(L, s, 1e-12, ctx)
            rhs = completed_lambda(Ld, d - s, 1e-12, ctx)
            _gamma_term_sum_at.cache_clear()
            assert _same(rhs, completed_lambda(Ld, d - s, 1e-12, ctx)), (L.gram, s)


def _side_calls(monkeypatch, L, s, ctx):
    """upper_G calls of each gamma-term sum of Lambda(L, s), memo-free."""
    calls = _count_upper_G(monkeypatch, ctx)
    out = []
    for M, a, _, eps_side in _lambda_sides(L, complex(s), 1e-12):
        _gamma_term_sum_at.cache_clear()
        _gamma_term_sum(M, a, eps_side, ctx, ENUM_CAP)
        out.append(len(calls))
        calls.clear()
    return out


def test_lambda_pair_sums_each_side_once(monkeypatch):
    ctx = Ctx(128)
    L = CHECK03[1]
    s = 1.25 + 0.5j  # 2 - (2 - s) == s: the pair's a's match
    n_L, n_Ld = _side_calls(monkeypatch, L, s, ctx)
    calls = _count_upper_G(monkeypatch, ctx)
    _gamma_term_sum_at.cache_clear()
    completed_lambda(L, s, 1e-12, ctx)
    assert len(calls) == n_L + n_Ld > 0
    completed_lambda(dual(L), 2 - s, 1e-12, ctx)
    assert len(calls) == n_L + n_Ld

    # 1 - (1 - 0.1) != 0.1, so the pair's second L side is a different a
    L = CHECK03[0]
    s = 0.1 + 0.5j
    assert 1 - (1 - s) != s
    n_L, n_Ld = _side_calls(monkeypatch, L, s, ctx)
    n_L2 = _side_calls(monkeypatch, dual(L), 1 - s, ctx)[1]
    calls = _count_upper_G(monkeypatch, ctx)
    _gamma_term_sum_at.cache_clear()
    completed_lambda(L, s, 1e-12, ctx)
    completed_lambda(dual(L), 1 - s, 1e-12, ctx)
    assert len(calls) == n_L + n_Ld + n_L2  # L summed twice, its dual once


def test_lambda_memo_keys_a_by_its_bits(monkeypatch):
    ctx = Ctx(128)
    calls = _count_upper_G(monkeypatch, ctx)
    _gamma_term_sum_at.cache_clear()
    _gamma_term_sum(Z2, 0.65 + 0j, 1e-12, ctx, ENUM_CAP)
    n = len(calls)
    for a in (complex(0.65, -0.0), 0.65 + 0j):
        _gamma_term_sum(Z2, a, 1e-12, ctx, ENUM_CAP)
    info = _gamma_term_sum_at.cache_info()
    assert (info.hits, info.misses, len(calls)) == (1, 2, 2 * n)


def test_lambda_memo_keeps_the_cap():
    s = 1.25 + 0.5j
    _gamma_term_sum_at.cache_clear()
    completed_lambda(Z2, s)
    with pytest.raises(CapacityError):
        completed_lambda(Z2, s, cap=5)
    completed_lambda(Z2, s)
    with pytest.raises(CapacityError):
        completed_lambda(dual(Z2), 2 - s, cap=5)


def test_lambda_memo_holds_two_sums(monkeypatch):
    """A Lambda on another lattice between the two halves of a pair
    leaves nothing of the first to reuse; the memo never grows past two."""
    ctx = Ctx(128)
    L, M = CHECK03[1], DET14
    s = 1.25 + 0.5j
    n_Ld, n_L = _side_calls(monkeypatch, dual(L), 2 - s, ctx)
    calls = _count_upper_G(monkeypatch, ctx)
    _gamma_term_sum_at.cache_clear()
    assert _gamma_term_sum_at.cache_info().maxsize == 2
    for K, u in ((L, s), (M, 0.5 + 1j), (dual(L), 2 - s)):
        calls.clear()
        completed_lambda(K, u, 1e-12, ctx)
        assert _gamma_term_sum_at.cache_info().currsize == 2
    assert len(calls) == n_Ld + n_L


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


def _zeta_direct_reference(L, groups, s, R, tail_correction):
    """zeta_direct_truncated rebuilt from ``groups``, the (exact norm,
    number of vectors) pairs of the ball's nonzero vectors in ascending
    order: each group weighted as mult * exp(...), and a plain math.fsum
    of real and of imaginary parts."""
    s = complex(s)
    d = L.rank
    terms = [mult * cmath.exp(-s / 2.0 * math.log(q)) for q, mult in groups]
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    Rf = float(R)
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    tail_size = (surf / math.sqrt(float(L.det))) * Rf ** (d - s.real) / (s.real - d)
    est = tail_size
    if tail_correction:
        value = value + (surf / math.sqrt(float(L.det))) * Rf ** complex(d - s.real, -s.imag) / (s - d)
        est = tail_size * (d / 2.0 + abs(s) / 2.0 + 1.0) / (math.pi * Rf * Rf)
    return value, est, sum(mult for _, mult in groups)


def test_zeta_direct_bitwise_matches_grouped_reference():
    """The direct sum counts half-ball norms in insertion order; math.fsum
    rounds the exact sum once, so it equals the sorted whole-ball sum to
    the bit.  R = 1/2 holds only the zero vector: random_lattice's Gram is
    diagonally dominant by 1/2, so every nonzero |e|^2 >= 1/2 > R^2."""
    rng = random.Random(1313)
    for _ in range(24):
        d = rng.randint(1, 3)
        L = random_lattice(rng, d)
        for R in (Fraction(1, 2), Fraction(7, 3), {1: 300, 2: 40, 3: 9}[d]):
            groups = sorted(Counter(L.norm_sq(v) for v in enumerate_vectors(L, R) if any(v)).items())
            for s in (d + 0.5, d + 2.0, complex(d + 1.25, -3.5)):
                for tc in (False, True):
                    got = zeta_direct_truncated(L, s, R, tail_correction=tc)
                    value, est, nterms = _zeta_direct_reference(L, groups, s, R, tc)
                    assert complex(got.value) == value
                    assert got.error_bound == est
                    assert got.terms_used == nterms
                    if R == Fraction(1, 2):
                        assert nterms == 0


def _split_fsum_c(terms):
    """Reference complex sum: every term converted by complex(t), its parts
    copied into two lists, and each list summed by math.fsum."""
    re, im = [], []
    for t in map(complex, terms):
        re.append(t.real)
        im.append(t.imag)
    return complex(math.fsum(re), math.fsum(im))


def _same_bits(a: complex, b: complex) -> bool:
    return a == b and all(math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in ((a.real, b.real), (a.imag, b.imag)))


def test_fsum_c_reads_parts_in_place():
    rng = random.Random(77)
    makers = (
        lambda: rng.randint(-(10**18), 10**18),
        lambda: rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30),
        lambda: complex(rng.uniform(-9, 9), rng.choice((0.0, -0.0, rng.uniform(-9, 9)))),
        lambda: Fraction(rng.randint(-999, 999), rng.randint(1, 997)),
        lambda: rng.choice((0.0, -0.0, 0)),
        lambda: complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))),
    )
    for _ in range(300):
        terms = [rng.choice(makers)() for _ in range(rng.randint(0, 30))]
        want = _split_fsum_c(terms)
        assert _same_bits(fsum_c(terms), want)
        assert _same_bits(fsum_c(tuple(terms)), want)
        assert _same_bits(fsum_c(t for t in terms), want)
        assert _same_bits(fsum_c(iter(terms)), want)
        rng.shuffle(terms)
        assert fsum_c(terms) == want
    for zeros in ([-0.0], [complex(-0.0, -0.0)], [-0.0, complex(0.0, -0.0)], [0, -0.0], []):
        assert _same_bits(fsum_c(zeros), _split_fsum_c(zeros))
        assert _same_bits(fsum_c(iter(zeros)), _split_fsum_c(zeros))


def test_zeta_direct_peak_memory_per_vector():
    """The rank-2 check-04 lattice with the largest ball at R = 400 sets
    the zeta_cont workload's peak memory.  Counting its half-ball norms in
    one Counter peaks at about 103 B per half-ball vector under
    tracemalloc; sorting (norm, multiplicity) tuples and copying every
    term into part lists peaked at about 192 B."""
    rng = random.Random(20260822)
    ranks = [1 if i < 12 else 2 for i in range(20)]
    rank2 = [L for L in (random_lattice(rng, d) for d in ranks) if L.rank == 2]
    n, L = max(((len(_enumerate_scaled(L, Fraction(400**2))), L) for L in rank2), key=lambda p: p[0])
    assert n > 150_000
    tracemalloc.start()
    try:
        zeta_direct_truncated(L, 4.0, 400, tail_correction=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 150, f"{peak / n:.0f} B per half-ball vector"


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
