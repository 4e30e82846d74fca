import math
from fractions import Fraction

import pytest

from adelic.arakelov import (
    ArakelovSeriesSpec,
    PhiKind,
    _det_power,
    arakelov_L_partial,
    arakelov_series_and_rows,
    arakelov_term_rows,
    base_points_by_height,
    convergence_abscissa_probe,
    grouped_series_coefficients,
    theta_duality_defect,
)
from adelic.errors import CapacityError, PoleError, ValidationError
from adelic.heights import ArchKind, MetrizedLineBundle, ProjPoint, height_point_sq, restrict_bundle_sum
from adelic.lattice import ENUM_CAP, HermitianLattice, _roundoff_allowance, dual, lattice_zeta, theta, vol
from adelic.numeric import Ctx, DEFAULT_CTX, fsum_c
from adelic.places import euler_phi


def test_spec_validation():
    with pytest.raises(ValidationError):
        ArakelovSeriesSpec(())
    with pytest.raises(ValidationError):
        ArakelovSeriesSpec((1,), cutoff=0)
    with pytest.raises(ValidationError):
        ArakelovSeriesSpec((1,), phi_kind="fourier")
    spec = ArakelovSeriesSpec([1, 2], arch="l2", s=1, cutoff=3, phi_kind="theta")
    assert spec.bundle_degrees == (1, 2)
    assert spec.arch is ArchKind.L2
    assert spec.s == 1 + 0j
    assert spec.phi_kind is PhiKind.THETA
    assert spec.rank == 2


def test_base_points_small_listing():
    pts = base_points_by_height(2)
    coords = [tuple(int(c) for c in p.coords) for p in pts]
    assert coords == [
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
        (1, -2),
        (1, 2),
        (2, -1),
        (2, 1),
    ]


def test_base_points_l2_cutoff():
    # euclidean height: (2, 1) and (1, 2) have height sqrt(5) > 2 and drop out
    pts = base_points_by_height(2, arch=ArchKind.L2)
    coords = [tuple(int(c) for c in p.coords) for p in pts]
    assert coords == [(0, 1), (1, 0), (1, -1), (1, 1)]


def test_base_point_counts_by_height():
    pts = base_points_by_height(60)
    by_height = {}
    for p in pts:
        h = max(abs(int(c)) for c in p.coords)
        by_height[h] = by_height.get(h, 0) + 1
    assert by_height[1] == 4
    for n in range(2, 61):
        assert by_height[n] == 4 * euler_phi(n)


def test_norm_kind_counts_points():
    spec = ArakelovSeriesSpec((1,), s=0, cutoff=2, phi_kind=PhiKind.NORM)
    sv = arakelov_L_partial(spec, eps=1e-12)
    assert sv.value == 8.0
    assert sv.terms_used == 8
    assert sv.rigorous


def test_point_filter_subsets():
    spec = ArakelovSeriesSpec(
        (1,), s=0, cutoff=2, phi_kind=PhiKind.NORM, point_filter=lambda p: p.coords[0] != 0
    )
    assert arakelov_L_partial(spec, eps=1e-9).value == 7.0


def test_unit_restriction_theta_multiple():
    # degree 0 restricts to the unit lattice everywhere, so the series is
    # (number of points) * theta(Z, 1) regardless of s
    spec = ArakelovSeriesSpec((0,), s=2.25, cutoff=2, phi_kind=PhiKind.THETA)
    sv = arakelov_L_partial(spec, eps=1e-10)
    unit = theta(HermitianLattice.identity(1), 1, 1e-14)
    assert abs(sv.value - 8 * unit.value) < 1e-10
    assert abs(sv.value - 8.6914784897) < 1e-9


def test_term_rows_match_single_restrictions():
    spec = ArakelovSeriesSpec((1,), s=1.5, cutoff=3, phi_kind=PhiKind.THETA)
    rows = arakelov_term_rows(spec, eps=1e-9)
    assert len(rows) == 4 + 4 + 8
    for row in rows:
        L = restrict_bundle_sum((1,), row.point, ArchKind.MAX)
        sv = theta(L, 1, 1e-9 / len(rows))
        n = math.isqrt(int(row.height_sq))
        assert row.phi_value == sv.value
        assert row.covolume == Fraction(1, n)
        assert abs(row.term - sv.value * n**-1.5) < 1e-12
        assert row.term_error >= sv.error_bound * n**-1.5


def test_rerun_bit_identical():
    spec = ArakelovSeriesSpec((1, 2), s=0.5 + 0.25j, cutoff=8, phi_kind=PhiKind.THETA)
    a = arakelov_L_partial(spec, eps=1e-10)
    b = arakelov_L_partial(spec, eps=1e-10)
    assert a.value == b.value
    assert a.error_bound == b.error_bound


def test_duality_defect_self_dual_degrees():
    spec = ArakelovSeriesSpec((0,), s=1.75, cutoff=5, phi_kind=PhiKind.THETA)
    assert theta_duality_defect(spec, eps=1e-12) <= 1e-12


def test_duality_defect_rank_one():
    spec = ArakelovSeriesSpec((1,), s=2, cutoff=50, phi_kind=PhiKind.THETA)
    assert theta_duality_defect(spec, eps=1e-12) < 1e-9


def test_duality_defect_rank_two_complex():
    spec = ArakelovSeriesSpec((1, 2), s=0.7 + 0.3j, cutoff=20, phi_kind=PhiKind.THETA)
    assert theta_duality_defect(spec, eps=1e-12) < 1e-8


def test_duality_defect_within_reported_error():
    spec = ArakelovSeriesSpec((1,), s=1.2, cutoff=12, phi_kind=PhiKind.THETA)
    mirror = ArakelovSeriesSpec((-1,), s=-0.2, cutoff=12, phi_kind=PhiKind.THETA)
    lhs = arakelov_L_partial(spec, eps=1e-12)
    rhs = arakelov_L_partial(mirror, eps=1e-12)
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_duality_requires_theta_kind():
    spec = ArakelovSeriesSpec((1,), s=2, cutoff=3, phi_kind=PhiKind.NORM)
    with pytest.raises(ValidationError):
        theta_duality_defect(spec)


def test_restrict_then_dualize_commutes():
    for coords in [(1, 0), (2, 3), (5, -7), (1, 1)]:
        x = ProjPoint(coords)
        for degrees in [(1,), (1, 2), (0, 3, -2)]:
            mirrored = tuple(-m for m in degrees)
            assert dual(restrict_bundle_sum(degrees, x, ArchKind.MAX)) == restrict_bundle_sum(
                mirrored, x, ArchKind.MAX
            )


def test_grouped_counts_match_totient():
    rows = grouped_series_coefficients(30, eps=1e-9)
    assert [r.height for r in rows] == list(range(1, 31))
    assert rows[0].count == 4
    for r in rows[1:]:
        assert r.count == 4 * euler_phi(r.height)


def test_grouped_reference_column_reported_not_patched():
    rows = grouped_series_coefficients(4)
    assert [r.reference_coefficient for r in rows] == [6, 10, 18, 26]
    # the reference closed form and the enumerated counts disagree; the
    # sum is built from the counts and the mismatch stays visible
    assert [r.count for r in rows] == [4, 4, 8, 8]


def test_grouped_matches_direct_bitwise():
    rows = grouped_series_coefficients(25, s=2.0, eps=1e-10)
    spec = ArakelovSeriesSpec((1,), s=2.0, cutoff=25, phi_kind=PhiKind.THETA)
    direct = arakelov_L_partial(spec, eps=1e-10)
    terms = []
    for r in rows:
        terms.extend([r.term] * r.count)
    assert len(terms) == direct.terms_used
    assert math.fsum(terms) == direct.value


def test_grouped_theta_common_value():
    rows = grouped_series_coefficients(6, eps=1e-9)
    n_terms = 4 * sum(euler_phi(k) for k in range(1, 7))
    for r in rows:
        unit = theta(HermitianLattice([[Fraction(1, r.height**2)]]), 1, 1e-9 / n_terms)
        assert r.theta_value == unit.value


def test_grouped_rejects_euclidean_metric():
    with pytest.raises(ValidationError):
        grouped_series_coefficients(5, arch=ArchKind.L2)


def test_zeta_kind_terms_and_poles():
    spec = ArakelovSeriesSpec((1,), s=2.0, cutoff=3, phi_kind=PhiKind.ZETA)
    rows = arakelov_term_rows(spec, eps=1e-8)
    for row in rows:
        L = restrict_bundle_sum((1,), row.point, ArchKind.MAX)
        zv = lattice_zeta(L, 2.0, 1e-8 / len(rows))
        assert row.phi_value == zv.value
    assert arakelov_L_partial(spec, eps=1e-8).rigorous is False
    for bad_s in (0.0, 1.0):
        with pytest.raises(PoleError):
            arakelov_L_partial(
                ArakelovSeriesSpec((1,), s=bad_s, cutoff=2, phi_kind=PhiKind.ZETA), eps=1e-6
            )


def test_probe_classification_flip():
    spec = ArakelovSeriesSpec((1,), cutoff=16, phi_kind=PhiKind.THETA)
    rows = convergence_abscissa_probe(spec, [4.0, 3.5, 2.5, 2.0], eps=1e-9)
    by_s = {row.s.real: row for row in rows}
    assert by_s[4.0].stable and by_s[3.5].stable
    assert not by_s[2.5].stable and not by_s[2.0].stable
    # block increments scale like 2^(3 - Re s) per cutoff doubling
    for s_re in (4.0, 3.5, 2.5, 2.0):
        assert abs(by_s[s_re].growth_exponent - (3.0 - s_re)) < 0.2
    s4 = by_s[4.0].partials
    assert abs(s4[2] - s4[1]) < abs(s4[1] - s4[0])


def test_probe_requires_degree_one_theta():
    with pytest.raises(ValidationError):
        convergence_abscissa_probe(ArakelovSeriesSpec((2,), cutoff=4), [2.0])
    with pytest.raises(ValidationError):
        convergence_abscissa_probe(
            ArakelovSeriesSpec((1,), cutoff=4, phi_kind=PhiKind.NORM), [2.0]
        )


def test_base_point_cap_checked_before_enumeration():
    B = 1
    while (B + 2) * (2 * B + 3) <= ENUM_CAP:
        B += 1
    # B is the largest cutoff whose (B+1)(2B+1) candidate box fits the cap
    with pytest.raises(CapacityError):
        base_points_by_height(B + 1)
    with pytest.raises(CapacityError):
        arakelov_L_partial(ArakelovSeriesSpec((1,), s=2, cutoff=B + 1, phi_kind=PhiKind.NORM))
    with pytest.raises(CapacityError):
        grouped_series_coefficients(B + 1)


def _oracle_rows(spec, eps, ctx):
    """Per point evaluation: every base point gets its own restriction,
    integrand, covolume power and term, nothing shared between points."""
    meter = MetrizedLineBundle(1, 1, spec.arch)
    B = spec.cutoff
    pts = {ProjPoint((a, b)) for a in range(B + 1) for b in range(-B, B + 1) if (a, b) != (0, 0)}
    pts = [x for x in pts if height_point_sq(meter, x) <= B * B]
    if spec.point_filter is not None:
        pts = [x for x in pts if spec.point_filter(x)]
    pts.sort(key=lambda x: (height_point_sq(meter, x), x.coords))
    per_eps = eps / max(1, len(pts))
    rows = []
    for x in pts:
        L = restrict_bundle_sum(spec.bundle_degrees, x, spec.arch)
        if spec.phi_kind is PhiKind.THETA:
            sv = theta(L, 1, per_eps, ctx)
            val, err = sv.value, sv.error_bound
        elif spec.phi_kind is PhiKind.ZETA:
            sv = lattice_zeta(L, spec.rank * spec.s, per_eps, ctx)
            val, err = sv.value, sv.error_bound
        else:
            val, err = (1.0 if ctx.is_float else ctx.real(1)), 0.0
        w = _det_power(L.det, spec.s / 2, ctx)
        term = val * w
        mag_w = abs(w) if ctx.is_float else float(abs(w))
        mag_t = abs(term) if ctx.is_float else float(abs(term))
        term_err = err * mag_w + _roundoff_allowance(mag_t, ctx.bits)
        rows.append((height_point_sq(meter, x), x, vol(L), val, err, term, term_err))
    return rows


def _oracle_sum(rows, ctx):
    terms = [r[5] for r in rows]
    if ctx.is_float:
        z = fsum_c(terms)
        value = z.real if z.imag == 0.0 else z
    else:
        value = ctx.fsum_complex(terms)
    return value, math.fsum(r[6] for r in rows), len(rows)


def _oracle_specs():
    for arch in (ArchKind.MAX, ArchKind.L2):
        for degrees in ((1,), (1, 2), (-1,), (2, -1, 3)):
            for s in (0, 2.5, 3 + 1j):
                yield ArakelovSeriesSpec(degrees, arch, s, 5, PhiKind.THETA), DEFAULT_CTX
                yield ArakelovSeriesSpec(degrees, arch, s, 7, PhiKind.NORM), DEFAULT_CTX
        yield ArakelovSeriesSpec((1,), arch, 2.5, 3, PhiKind.ZETA), DEFAULT_CTX
        yield ArakelovSeriesSpec((1, 2), arch, 3 + 1j, 3, PhiKind.ZETA), DEFAULT_CTX
        yield ArakelovSeriesSpec((1, 2), arch, 2.5, 4, PhiKind.THETA), Ctx(128)
        yield ArakelovSeriesSpec((-1,), arch, 3 + 1j, 4, PhiKind.NORM), Ctx(128)
    odd_first = lambda p: p.coords[0] % 2 == 1  # noqa: E731
    yield ArakelovSeriesSpec((1,), ArchKind.MAX, 2.5, 8, PhiKind.THETA, odd_first), DEFAULT_CTX
    yield ArakelovSeriesSpec((1, 2), ArchKind.L2, 3 + 1j, 8, PhiKind.NORM, odd_first), DEFAULT_CTX
    yield ArakelovSeriesSpec((1,), ArchKind.L2, 0, 6, PhiKind.THETA, odd_first), Ctx(128)


def test_partial_sum_matches_per_point_oracle_bitwise():
    eps = 1e-9
    for spec, ctx in _oracle_specs():
        rows = _oracle_rows(spec, eps, ctx)
        want = _oracle_sum(rows, ctx)
        sv = arakelov_L_partial(spec, eps, ctx)
        assert (sv.value, sv.error_bound, sv.terms_used) == want, (spec, ctx.bits)
        got = [
            (r.height_sq, r.point, r.covolume, r.phi_value, r.phi_error, r.term, r.term_error)
            for r in arakelov_term_rows(spec, eps, ctx)
        ]
        assert got == rows, (spec, ctx.bits)
        sv2, rows2 = arakelov_series_and_rows(spec, eps, ctx)
        assert (sv2.value, sv2.error_bound, sv2.terms_used, sv2.rigorous) == (*want, sv.rigorous)
        assert [
            (r.height_sq, r.point, r.covolume, r.phi_value, r.phi_error, r.term, r.term_error)
            for r in rows2
        ] == rows, (spec, ctx.bits)
