import json
import math
from fractions import Fraction

import numpy as np
import pytest

from adelic.errors import QuadratureError, ValidationError
from adelic.fibration import HirzebruchSurface
from adelic.heights import ArchKind
from adelic.places import primes_upto
from adelic.tamagawa import (
    Pn,
    TamagawaSpec,
    archimedean_density,
    convergence_factor,
    local_density_finite,
    peyre_constant_check,
    picard_lstar,
    picard_rank,
    tamagawa_number,
    tamagawa_report,
)

P1 = Pn(1)
P2 = Pn(2)


def test_finite_density_examples():
    assert local_density_finite(P1, 2) == Fraction(3, 2)
    assert local_density_finite(P2, 3) == Fraction(13, 9)
    for n in (0, 1, 2):
        assert local_density_finite(HirzebruchSurface(n), 5) == Fraction(36, 25)
    assert isinstance(local_density_finite(P1, 7), Fraction)


def test_convergence_factor_examples():
    assert convergence_factor(P1, 2) == Fraction(1, 2)
    assert convergence_factor(HirzebruchSurface(1), 2) == Fraction(1, 4)
    assert picard_rank(P2) == 1
    assert picard_rank(HirzebruchSurface(3)) == 2
    for p in primes_upto(50):
        combined = convergence_factor(P1, p) * local_density_finite(P1, p)
        assert combined == 1 - Fraction(1, p**2)
        surf = convergence_factor(HirzebruchSurface(2), p) * local_density_finite(
            HirzebruchSurface(2), p)
        assert surf == (1 - Fraction(1, p**2)) ** 2
        cubic = convergence_factor(P2, p) * local_density_finite(P2, p)
        assert cubic == 1 - Fraction(1, p**3)


def test_local_data_validation():
    with pytest.raises(ValidationError):
        local_density_finite(P1, 4)
    with pytest.raises(ValidationError):
        convergence_factor(P1, 1)
    with pytest.raises(ValidationError):
        local_density_finite("P1", 2)
    with pytest.raises(ValidationError):
        Pn(0)


def test_arch_density_pn_max_exact():
    assert archimedean_density(P1, ArchKind.MAX) == 4.0
    assert archimedean_density(P2, ArchKind.MAX) == 12.0
    assert archimedean_density(Pn(3), ArchKind.MAX) == 32.0


def test_arch_density_pn_l2():
    assert abs(archimedean_density(P1, "l2") - math.pi) < 1e-9
    assert abs(archimedean_density(P2, "l2") - 2 * math.pi) < 1e-9
    assert abs(archimedean_density(Pn(3), "l2") - math.pi**2) < 1e-9


def test_arch_density_surfaces():
    p1_sq = archimedean_density(P1, "max") ** 2
    for n in (0, 1, 2):
        F = HirzebruchSurface(n)
        assert abs(archimedean_density(F, "max") - 16.0) < 1e-8
        assert abs(archimedean_density(F, "max") - p1_sq) < 1e-8
        assert abs(archimedean_density(F, "l2") - math.pi**2) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("arch", ["max", "l2"])
def test_arch_density_surfaces_refused_beyond_two(n, arch):
    # the fiber-base quadrature reads 15.966 for F3 (max metric, exact 16)
    # with a reported error near 1e-10, so these densities are refused
    with pytest.raises(QuadratureError, match=f"F{n}"):
        archimedean_density(HirzebruchSurface(n), arch)
    with pytest.raises(QuadratureError):
        tamagawa_number(TamagawaSpec(HirzebruchSurface(-n), arch, 100))


def test_arch_density_p2_max_monte_carlo():
    # importance sampling from a product of t(0.5) laws; the weight
    # max(1,|x|,|y|)^-3 / q(x,y) is bounded, so the mean converges at
    # the CLT rate with finite variance
    rng = np.random.default_rng(20260822)
    c = math.gamma(0.75) / (math.sqrt(0.5 * math.pi) * math.gamma(0.25))
    total = 10**7
    chunk = 10**6
    sums = 0.0
    sumsq = 0.0
    done = 0
    while done < total:
        m = min(chunk, total - done)
        x = rng.standard_t(0.5, size=m)
        y = rng.standard_t(0.5, size=m)
        gauge = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        q = (c * (1.0 + 2.0 * x * x) ** -0.75) * (c * (1.0 + 2.0 * y * y) ** -0.75)
        ratio = gauge**-3.0 / q
        sums += float(ratio.sum())
        sumsq += float((ratio * ratio).sum())
        done += m
    mc = sums / total
    sem = math.sqrt((sumsq / total - mc * mc) / total)
    exact = archimedean_density(P2, "max")
    assert abs(mc - exact) / exact < 1e-3
    assert abs(mc - exact) < 4.0 * sem


def test_quadrature_failure_reports_achieved():
    with pytest.raises(QuadratureError) as info:
        archimedean_density(P1, "l2", quad_eps=1e-30)
    assert info.value.achieved > 0
    with pytest.raises(QuadratureError):
        archimedean_density(HirzebruchSurface(1), "max", quad_eps=1e-30)


def test_tamagawa_p1_max_value():
    tau = tamagawa_number(TamagawaSpec(P1, ArchKind.MAX, 10**5))
    target = 24.0 / math.pi**2
    assert abs(tau.value - target) < 1e-3
    assert abs(tau.value - target) < tau.error_estimate
    assert tau.archimedean == 4.0
    assert tau.lstar == 1
    assert tau.leading_factors[0] == (2, Fraction(3, 4))
    assert len(tau.leading_factors) == 20


def test_doubling_cutoff_within_tail():
    for variety in (P1, HirzebruchSurface(1)):
        small = tamagawa_number(TamagawaSpec(variety, ArchKind.MAX, 2000))
        big = tamagawa_number(TamagawaSpec(variety, ArchKind.MAX, 4000))
        assert abs(big.value - small.value) < small.tail_estimate
    small = tamagawa_number(TamagawaSpec(P1, ArchKind.MAX, 10))
    big = tamagawa_number(TamagawaSpec(P1, ArchKind.MAX, 20))
    assert abs(big.value - small.value) < small.tail_estimate


def test_product_theorem_surface_vs_base_squared():
    for n, arch in ((0, "max"), (1, "max"), (2, "max"), (1, "l2")):
        tf = tamagawa_number(TamagawaSpec(HirzebruchSurface(n), arch, 2000))
        tb = tamagawa_number(TamagawaSpec(P1, arch, 2000))
        budget = tf.error_estimate + 2.0 * abs(tb.value) * tb.error_estimate
        assert abs(tf.value - tb.value**2) < 5.0 * budget
    tf = tamagawa_number(TamagawaSpec(HirzebruchSurface(0), ArchKind.MAX, 10**4))
    tb = tamagawa_number(TamagawaSpec(P1, ArchKind.MAX, 10**4))
    assert abs(tf.value - tb.value**2) < 2e-3
    tf = tamagawa_number(TamagawaSpec(HirzebruchSurface(1), ArchKind.MAX, 10**4))
    assert abs(tf.value - tb.value**2) < 2e-3


def test_sigma_independence():
    assert picard_lstar(P1, {2, 3}) == Fraction(1, 3)
    assert picard_lstar(HirzebruchSurface(1), {2}) == Fraction(1, 4)
    for variety in (P1, HirzebruchSurface(2)):
        plain = tamagawa_number(TamagawaSpec(variety, ArchKind.MAX, 500))
        shifted = tamagawa_number(
            TamagawaSpec(variety, ArchKind.MAX, 500, sigma=frozenset({2, 3})))
        assert abs(plain.value - shifted.value) < 1e-12 * abs(plain.value)


def test_spec_validation():
    with pytest.raises(ValidationError):
        TamagawaSpec(P1, ArchKind.MAX, 1)
    with pytest.raises(ValidationError):
        TamagawaSpec(P1, ArchKind.MAX, 100, sigma=frozenset({4}))
    with pytest.raises(ValidationError):
        TamagawaSpec(P1, ArchKind.MAX, 5, sigma=frozenset({7}))
    with pytest.raises(ValidationError):
        TamagawaSpec("P1", ArchKind.MAX, 100)
    with pytest.raises(ValidationError):
        peyre_constant_check(3, 100, 10**8)
    with pytest.raises(ValidationError):
        peyre_constant_check(1, 1000, 10**4)


def test_report_shape_and_determinism():
    spec = TamagawaSpec(P1, ArchKind.MAX, 200, sigma=frozenset({3}))
    rep = tamagawa_report(spec)
    assert rep["schema_version"] == 1
    assert rep["variety"] == "P1" and rep["arch"] == "max"
    assert rep["sigma_finite"] == [3]
    assert rep["lstar"] == "2/3"
    assert len(rep["per_prime_factors"]) == 20
    assert rep["per_prime_factors"][0] == {"p": 2, "factor": "3/4", "value": 0.75}
    # p = 3 lies in sigma: bare density, no convergence factor
    assert rep["per_prime_factors"][1]["factor"] == "4/3"
    assert json.dumps(rep, sort_keys=True) == json.dumps(
        tamagawa_report(spec), sort_keys=True)
    surf = tamagawa_report(TamagawaSpec(HirzebruchSurface(2), "l2", 50))
    assert surf["variety"] == "F2"
    assert surf["error_budget"]["quadrature"] > 0


def test_peyre_check_p1_max():
    predicted, fitted = peyre_constant_check(1, 10**5, 10**8)
    target = 12.0 / math.pi**2
    assert abs(predicted - target) / target < 1e-3
    assert abs(predicted - fitted) / predicted < 0.02


def test_peyre_check_p1_l2():
    predicted, fitted = peyre_constant_check(1, 10**4, 10**8, arch="l2")
    assert abs(predicted - fitted) / predicted < 0.03


def test_peyre_check_p2_max():
    predicted, fitted = peyre_constant_check(2, 10**4, 300**3)
    target = 4.0 / 1.2020569031595943
    assert abs(predicted - target) / target < 1e-3
    assert abs(predicted - fitted) / predicted < 0.05
