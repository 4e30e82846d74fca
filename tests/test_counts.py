import math
from fractions import Fraction

import pytest

from adelic.arakelov import base_points_by_height
from adelic.counts import (
    AsymptoticFit,
    CountTable,
    count_Pn,
    count_table,
    enumerate_Pn,
    fit_asymptotics,
    height_zeta_partial,
    render_count_csv,
)
from adelic.errors import CapacityError, ValidationError
from adelic.heights import ArchKind, MetrizedLineBundle, height_point_sq
from adelic.numeric import fsum_c

O1_MAX = MetrizedLineBundle(1, 1, ArchKind.MAX)
O1_L2 = MetrizedLineBundle(1, 1, ArchKind.L2)
P2_MAX = MetrizedLineBundle(2, 1, ArchKind.MAX)
P2_L2 = MetrizedLineBundle(2, 1, ArchKind.L2)


def _phi_upto(n):
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def test_enumerate_p1_max_small():
    pts = enumerate_Pn(1, O1_MAX, 1)
    assert [p.coords for p in pts] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(enumerate_Pn(1, O1_MAX, 2)) == 8
    assert enumerate_Pn(1, O1_MAX, Fraction(1, 2)) == []


def test_enumerate_p2_max_h1():
    pts = enumerate_Pn(2, P2_MAX, 1)
    assert len(pts) == 13
    assert all(max(abs(c) for c in p.coords) == 1 for p in pts)


def test_enumerate_l2_small():
    assert [p.coords for p in enumerate_Pn(1, O1_L2, 1)] == [(0, 1), (1, 0)]
    pts = enumerate_Pn(1, O1_L2, 2)
    assert [p.coords for p in pts] == [(0, 1), (1, 0), (1, -1), (1, 1)]


def test_enumerate_agrees_with_arakelov_listing():
    # independent generator of the same canonical points, same order
    for cutoff in (1, 2, 5, 12):
        assert enumerate_Pn(1, O1_MAX, cutoff) == base_points_by_height(cutoff)


def test_enumerate_degree_rescales_threshold():
    for m, arch in ((2, ArchKind.MAX), (3, ArchKind.MAX), (2, ArchKind.L2)):
        Bm = MetrizedLineBundle(1, m, arch)
        B1 = MetrizedLineBundle(1, 1, arch)
        for N in (1, 2, 3, 5):
            assert enumerate_Pn(1, Bm, N**m) == enumerate_Pn(1, B1, N)


def test_enumerate_validation():
    with pytest.raises(ValidationError):
        enumerate_Pn(1, MetrizedLineBundle(1, 0, ArchKind.MAX), 5)
    with pytest.raises(ValidationError):
        enumerate_Pn(2, O1_MAX, 5)
    with pytest.raises(CapacityError):
        enumerate_Pn(1, O1_MAX, 10**4, cap=1000)


def test_sieve_count_matches_enumeration():
    for H in list(range(1, 41)) + [Fraction(7, 2), Fraction(99, 10)]:
        assert count_Pn(1, O1_MAX, H) == len(enumerate_Pn(1, O1_MAX, H))
    for H in range(1, 21):
        assert count_Pn(1, O1_L2, H) == len(enumerate_Pn(1, O1_L2, H))
    for H in range(1, 9):
        assert count_Pn(2, P2_MAX, H) == len(enumerate_Pn(2, P2_MAX, H))
        assert count_Pn(2, P2_L2, H) == len(enumerate_Pn(2, P2_L2, H))
    B3 = MetrizedLineBundle(3, 1, ArchKind.MAX)
    for H in (1, 2, 3):
        assert count_Pn(3, B3, H) == len(enumerate_Pn(3, B3, H))
    for m in (2, 3):
        Bm = MetrizedLineBundle(1, m, ArchKind.MAX)
        for H in (1, 4, 9, 30):
            assert count_Pn(1, Bm, H) == len(enumerate_Pn(1, Bm, H))


def test_count_table_examples_and_backends():
    t = count_table(1, O1_MAX, [1, 2])
    assert t.counts == (4, 8)
    thr = list(range(1, 31))
    assert count_table(1, O1_MAX, thr, method="sieve") == count_table(
        1, O1_MAX, thr, method="enumerate")
    assert count_table(1, O1_L2, thr, method="sieve") == count_table(
        1, O1_L2, thr, method="enumerate")
    thr2 = list(range(1, 7))
    assert count_table(2, P2_MAX, thr2, method="sieve") == count_table(
        2, P2_MAX, thr2, method="enumerate")
    # degree m sees the same points at the m-th power threshold
    O2 = MetrizedLineBundle(1, 2, ArchKind.MAX)
    for N in (2, 3, 7, 20):
        assert count_Pn(1, O2, N**2) == count_Pn(1, O1_MAX, N)


def test_count_table_validation():
    with pytest.raises(ValidationError):
        count_table(1, O1_MAX, [])
    with pytest.raises(ValidationError):
        count_table(1, O1_MAX, [2, 2])
    with pytest.raises(ValidationError):
        count_table(1, O1_MAX, [0, 1])
    with pytest.raises(ValidationError):
        count_table(1, O1_MAX, [1, 2], method="guess")
    with pytest.raises(ValidationError):
        CountTable((1, 2), (5, 4))
    with pytest.raises(ValidationError):
        CountTable((1, 2), (4,))


def test_totient_identity_up_to_2000():
    H_MAX = 2000
    phi = _phi_upto(H_MAX)
    running = 4
    assert count_Pn(1, O1_MAX, 1) == 4
    for H in range(2, H_MAX + 1):
        running += 4 * phi[H]
        assert count_Pn(1, O1_MAX, H) == running


def test_zeta_partial_s0_is_count():
    z = height_zeta_partial(1, O1_MAX, 0, 2)
    assert z.value == 8.0
    assert z.terms_used == 8
    z = height_zeta_partial(1, O1_MAX, 0.0, 50)
    assert z.value == float(count_Pn(1, O1_MAX, 50))
    z = height_zeta_partial(2, P2_L2, 0j, 5)
    assert z.value == float(count_Pn(2, P2_L2, 5))


def test_zeta_partial_complex_s_matches_per_point_sum():
    s = 1.5 + 0.7j
    z = height_zeta_partial(1, O1_L2, s, 40)
    pts = enumerate_Pn(1, O1_L2, 40)
    # one power per point, summed exactly rounded, nothing shared
    want = fsum_c([complex(height_point_sq(O1_L2, x)) ** (-0.5 * s) for x in pts])
    assert isinstance(z.value, complex)
    assert z.value.real == want.real and z.value.imag == want.imag
    assert z.terms_used == len(pts)


def test_zeta_partial_matches_totient_series():
    B = 60
    phi = _phi_upto(B)
    expected = 4.0 + sum(4 * phi[N] * N**-3.0 for N in range(2, B + 1))
    z = height_zeta_partial(1, O1_MAX, 3, B)
    assert abs(z.value - expected) < 1e-11
    assert abs(z.value - expected) <= z.error_bound + 1e-11


def test_zeta_partial_cauchy_stable():
    s = 3.5
    z50 = height_zeta_partial(1, O1_MAX, s, 50).value
    z100 = height_zeta_partial(1, O1_MAX, s, 100).value
    z200 = height_zeta_partial(1, O1_MAX, s, 200).value
    # terms are 4*phi(N)*N^-3.5 <= 4*N^-2.5, so the tail from B is
    # bounded by 4*B^-1.5/1.5 plus one term
    assert abs(z200 - z100) < abs(z100 - z50)
    assert abs(z200 - z100) < 4.0 * 100.0**-1.5 / 1.5 + 4.0 * 100.0**-2.5
    z_rerun = height_zeta_partial(1, O1_MAX, s, 200).value
    assert z_rerun == z200


def test_fit_recovers_exact_quadratic_model():
    ts = tuple(10 * 2**k for k in range(10))
    table = CountTable(ts, tuple(7 * t * t for t in ts))
    fit = fit_asymptotics(table)
    assert abs(fit.a - 2.0) < 1e-6
    assert abs(fit.b - 1.0) < 1e-6
    assert abs(fit.theta - 7.0) / 7.0 < 1e-6
    assert fit.residual < 1e-9
    pinned = fit_asymptotics(table, a=2, b=1)
    assert abs(pinned.theta - 7.0) / 7.0 < 1e-9
    assert pinned.residual < 1e-9
    half = fit_asymptotics(table, a=2)
    assert abs(half.b - 1.0) < 1e-6 and abs(half.theta - 7.0) < 1e-5
    full_window = fit_asymptotics(table, window=1.0)
    assert abs(full_window.a - 2.0) < 1e-6


def test_fit_recovers_log_factor_model():
    theta = 10**6
    ts = tuple(10 * 2**k for k in range(10))
    counts = tuple(round(theta * t * t * math.log(t)) for t in ts)
    fit = fit_asymptotics(CountTable(ts, counts))
    assert abs(fit.a - 2.0) < 1e-6
    assert abs(fit.b - 2.0) < 1e-6
    assert abs(fit.theta - theta) / theta < 1e-5
    assert fit.residual < 1e-9


def test_fit_validation_and_degeneracy():
    ts = (10, 20, 40, 80)
    with pytest.raises(ValidationError):
        fit_asymptotics(CountTable(ts, tuple(t * t for t in ts)))
    ts = (10, 20, 40, 80, 160)  # 5 thresholds but span only 16x
    with pytest.raises(ValidationError):
        fit_asymptotics(CountTable(ts, tuple(t * t for t in ts)))
    # wide overall span, but the fitted window is a cluster at 1e6
    ts = tuple([2, 5] + [10**6 + k for k in range(8)])
    cs = tuple(t * t for t in ts)
    with pytest.raises(ValidationError, match="degenerate"):
        fit_asymptotics(CountTable(ts, cs))
    with pytest.raises(ValidationError):
        fit_asymptotics(CountTable((1, 2, 3, 200, 300), (1, 2, 3, 4, 5)), window=0.0)
    with pytest.raises(ValidationError):
        AsymptoticFit(2.0, 1.0, 0.0, 0.0)


def test_fit_p1_max_leading_constant():
    ts = [100, 200, 400, 800, 1600, 3200, 5000, 6500, 8000, 10000]
    table = count_table(1, O1_MAX, ts)
    fit = fit_asymptotics(table, a=2, b=1)
    target = 12.0 / math.pi**2
    assert abs(fit.theta - target) / target < 0.01


def test_fit_p1_l2_leading_constant():
    # Euclidean ball: area pi H^2, primitive density 6/pi^2, halved for +-
    ts = [100, 500, 1000, 2000, 4000, 7000, 10000]
    table = count_table(1, O1_L2, ts)
    fit = fit_asymptotics(table, a=2, b=1)
    target = 3.0 / math.pi
    assert abs(fit.theta - target) / target < 0.02


def test_fit_p2_max_leading_constant():
    ts = [3, 6, 12, 25, 50, 100, 150, 200, 250, 300]
    table = count_table(2, P2_MAX, ts)
    fit = fit_asymptotics(table, a=3, b=1)
    target = 4.0 / 1.2020569031595943  # 2^3 / (2 zeta(3))
    assert abs(fit.theta - target) / target < 0.03


def test_render_count_csv():
    table = count_table(1, O1_MAX, [10, 20, 40, 100, 1000, 2000])
    bare = render_count_csv(table)
    lines = bare.strip().split("\n")
    assert lines[0] == "threshold,count,model"
    assert len(lines) == 7
    assert lines[1] == "10,%d," % table.counts[0]
    fit = fit_asymptotics(table, a=2, b=1)
    full = render_count_csv(table, fit)
    assert full == render_count_csv(table, fit)
    last = full.strip().split("\n")[-1].split(",")
    assert float(last[2]) == pytest.approx(fit.theta * 2000.0**2, rel=1e-12)
