"""Acceptance gate: one test per advertised guarantee, in order.

Each test prints a single line `check NN: PASS/FAIL; ...` with the
measured quantities next to the pinned tolerances, then asserts.  The
numbered guarantees are listed in README.md; test order follows it.

Check 03 is expected RED: its middle clause pins a tolerance below the
mathematical floor of the quantity it measures.  The test asserts the
clause as written, prints the measured defect together with a Richardson
diagnostic showing the underlying limit is correct, and fails.  See the
acceptance notes in README.md.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from helpers import random_lattice, random_nonzero_rational

from adelic.arakelov import (
    ArakelovSeriesSpec,
    arakelov_L_partial,
    convergence_abscissa_probe,
    grouped_series_coefficients,
    theta_duality_defect,
)
from adelic.counts import count_table, fit_asymptotics
from adelic.fibration import (
    FibrationLineClass,
    FnPoint,
    HirzebruchSurface,
    enumerate_Fn,
    height_Fn,
    height_Fn_raw,
    height_Fn_sq,
    twisted_degree,
)
from adelic.heights import ArchKind, MetrizedLineBundle, ProjPoint, Section, height_point, height_point_sq
from adelic.lattice import (
    HermitianLattice,
    completed_lambda,
    dual,
    lattice_zeta,
    theta_functional_equation_defect,
    vol,
    zeta_direct_truncated,
)
from adelic.places import INF, Place, euler_phi, product_formula_check
from adelic.tamagawa import Pn, TamagawaSpec, tamagawa_number
from adelic.twist import (
    AdelicGroupElement,
    apply_global,
    class_right_translate,
    compare_twisted,
    twisted_height_sq,
    twisted_metric_norm_sq,
)

TWELVE_OVER_PI_SQ = 12 / math.pi**2


def test_01_product_formula_bulk():
    rng = random.Random(20260822)
    xs = [random_nonzero_rational(rng) for _ in range(10**4)]
    t0 = time.perf_counter()
    bad = sum(1 for x in xs if product_formula_check(x) != 1)
    elapsed = time.perf_counter() - t0
    print(f"check 01: {'PASS' if bad == 0 and elapsed < 1.0 else 'FAIL'}; "
          f"10000 rationals, {bad} violations, {elapsed:.2f} s (< 1 s)")
    assert bad == 0
    assert elapsed < 1.0


def test_02_theta_functional_equation_bulk():
    rng = random.Random(20260822)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        L = random_lattice(rng, rng.randint(1, 4))
        for t in (Fraction(1, 3), Fraction(1), Fraction(2)):
            rep = theta_functional_equation_defect(L, t, 1e-12)
            assert rep.defect <= rep.allowance, (L.gram, t, rep.defect, rep.allowance)
            worst = max(worst, rep.defect)
    elapsed = time.perf_counter() - t0
    print(f"check 02: {'PASS' if elapsed < 30.0 else 'FAIL'}; 100 lattices x 3 scales, "
          f"eps 1e-12, worst defect {worst:.2e} within reported bounds, {elapsed:.1f} s (< 30 s)")
    assert elapsed < 30.0


def test_03_lambda_continuation():
    t0 = time.perf_counter()

    # special value: the completed function of the unit rank-1 lattice
    sv = complex(completed_lambda(HermitianLattice.identity(1), 2.0).value)
    special = abs(sv - math.pi / 3)

    # two-sided duality on a 20-point grid per rank
    grid_worst = 0.0
    for L in (
        HermitianLattice.diagonal([2]),
        HermitianLattice([[2, 1], [1, 2]]),
        HermitianLattice.diagonal([1, 2, 3]),
    ):
        d = L.rank
        Ld = dual(L)
        for j in range(1, 21):
            s = d / 2 + (j - 10.5) * 0.37
            a = complex(completed_lambda(L, s).value)
            b = complex(completed_lambda(Ld, d - s).value)
            grid_worst = max(grid_worst, abs(a - b))

    # residue-limit clause, taken literally: s * Lambda(s) + 2 sqrt(vol)
    # at s = 1e-4 must vanish to 1e-6
    h = 1e-4
    literal = []
    richardson = []
    for d in (1, 2, 3):
        L = HermitianLattice.identity(d)

        def f(u, L=L):
            return u * complex(completed_lambda(L, u).value).real

        literal.append(abs(f(h) + 2.0))
        richardson.append(abs(2 * f(h / 2) - f(h) + 2.0))
    elapsed = time.perf_counter() - t0

    ok = special < 1e-10 and grid_worst < 1e-9 and max(literal) < 1e-6 and elapsed < 60.0
    lit = "/".join(f"{v:.3e}" for v in literal)
    ric = "/".join(f"{v:.1e}" for v in richardson)
    print(f"check 03: {'PASS' if ok else 'FAIL'}; special value off by {special:.1e} (< 1e-10), "
          f"grid duality worst {grid_worst:.1e} (< 1e-9), residue-limit defect {lit} vs 1e-6 "
          f"at s=1e-4 (Richardson 2f(h/2)-f(h): {ric}), {elapsed:.1f} s (< 60 s)")
    assert special < 1e-10
    assert grid_worst < 1e-9
    assert elapsed < 60.0
    # s * Lambda(L, s) = -2 sqrt(vol) + c1 * s + O(s^2) with c1 of order one
    # (about 1.95, 0.90, 0.50 for the unit lattices), so the defect at
    # s = 1e-4 sits near c1 * 1e-4, two orders above the pinned 1e-6; the
    # Richardson line above cancels the c1 term and lands at ~1e-8,
    # certifying the limit itself.  The clause is kept as written and is
    # expected to fail.  See README.md, acceptance notes.
    assert max(literal) < 1e-6, (
        f"residue-limit defects {lit} at s=1e-4 cannot reach 1e-6; "
        f"the Taylor term of the finite part floors them near 2e-4/9e-5/5e-5 "
        f"(Richardson extrapolants {ric} confirm the limit -2*sqrt(vol))"
    )


def test_04_zeta_direct_vs_continued():
    rng = random.Random(20260822)
    worst = 0.0
    for i in range(20):
        d = 1 if i < 12 else 2
        L = random_lattice(rng, d)
        s = d + 2.0
        if d == 1:
            direct = zeta_direct_truncated(L, s, 20000)
        else:
            direct = zeta_direct_truncated(L, s, 400, tail_correction=True)
        cont = lattice_zeta(L, s)
        worst = max(worst, abs(complex(direct.value) - complex(cont.value)))
    print(f"check 04: {'PASS' if worst < 1e-8 else 'FAIL'}; 20 lattices, "
          f"continued vs direct sum at Re(s)=rank+2, worst gap {worst:.2e} (< 1e-8)")
    assert worst < 1e-8


def _random_diag(rng, n):
    out = []
    for _ in range(n):
        v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 8))
        out.append(v)
    return [[out[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _random_invertible(rng, n, bound=4):
    from adelic.twist import _det

    while True:
        m = [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if _det(tuple(tuple(r) for r in m)) != 0:
            return m


def _random_unimodular(rng, n, steps=6):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.5:
            c = rng.choice([-1, 1])
            for k in range(n):
                m[i][k] += c * m[j][k]
        else:
            m[i], m[j] = m[j], m[i]
    return m


def _random_point(rng, n, nonzero_coords=False):
    while True:
        c = [rng.randint(-20, 20) for _ in range(n + 1)]
        if nonzero_coords:
            c = [v if v else 1 for v in c]
        if any(c):
            return ProjPoint(c)


def test_05_twisted_height_laws():
    rng = random.Random(20260822)

    # identity twist is the plain height, exactly
    for _ in range(50):
        n = rng.randint(1, 2)
        B = MetrizedLineBundle(n, rng.randint(1, 2), rng.choice([ArchKind.MAX, ArchKind.L2]))
        x = _random_point(rng, n)
        assert twisted_height_sq(B, x, AdelicGroupElement(n + 1)) == height_point_sq(B, x)

    # metric twisting vs character-corrected translation, 100 diagonal cases
    for _ in range(100):
        n = rng.randint(1, 2)
        m = rng.randint(1, 3)
        B = MetrizedLineBundle(n, m, ArchKind.MAX)
        x = _random_point(rng, n, nonzero_coords=True)
        expo = [0] * (n + 1)
        for _ in range(m):
            expo[rng.randrange(n + 1)] += 1
        s = Section(B, tuple(expo))
        comps = {}
        for v in rng.sample([INF, Place.finite(2), Place.finite(7)], k=rng.randint(1, 2)):
            comps[v] = _random_diag(rng, n + 1)
        g = AdelicGroupElement(n + 1, comps, default=_random_diag(rng, n + 1) if rng.random() < 0.5 else None)
        lhs, rhs = compare_twisted(B, s, x, g)
        assert lhs == rhs, (x.coords, expo)

    # finite unimodular invariance on a 30 x 30 grid
    p = Place.finite(5)
    B = MetrizedLineBundle(1, 1, ArchKind.MAX)
    cases = []
    for _ in range(30):
        x = _random_point(rng, 1)
        g = AdelicGroupElement(2, {p: _random_invertible(rng, 2)})
        s = Section.coordinate(B, 0 if x.coords[0] else 1)
        cases.append((x, g, s))
    for _ in range(30):
        k = _random_unimodular(rng, 2)
        for x, g, s in cases:
            kg = [[sum(k[i][t] * g.components[p][t][j] for t in range(2)) for j in range(2)] for i in range(2)]
            tg = AdelicGroupElement(2, {p: kg})
            assert twisted_metric_norm_sq(B, s, x, tg, p) == twisted_metric_norm_sq(B, s, x, g, p)
            assert twisted_height_sq(B, x, tg) == twisted_height_sq(B, x, g)

    # right-translation law for 50 random triples
    for _ in range(50):
        n = rng.randint(1, 2)
        B = MetrizedLineBundle(n, 1, rng.choice([ArchKind.MAX, ArchKind.L2]))
        x = _random_point(rng, n)
        comps = {}
        for v in rng.sample([INF, Place.finite(2), Place.finite(7)], k=rng.randint(0, 2)):
            comps[v] = _random_invertible(rng, n + 1)
        g = AdelicGroupElement(n + 1, comps, default=_random_invertible(rng, n + 1) if rng.random() < 0.4 else None)
        gamma = _random_invertible(rng, n + 1)
        assert twisted_height_sq(B, x, class_right_translate(g, gamma)) == twisted_height_sq(
            B, apply_global(gamma, x), g
        )

    print("check 05: PASS; identity twist exact on 50 cases, metric vs translation exact on 100 "
          "diagonal cases, unimodular invariance exact on 30x30, right translation exact on 50 triples")


def test_06_arakelov_duality_and_grouping():
    t0 = time.perf_counter()
    # two-sided symmetry of the truncated series under dualizing, at B=50
    defects = []
    for degrees in ((1,), (1, 2)):
        spec = ArakelovSeriesSpec(degrees, s=2.5, cutoff=50)
        defects.append(theta_duality_defect(spec, 1e-12))
    assert all(v < 1e-9 for v in defects), defects

    # per-height grouping: counts are enumerated, the quoted closed form
    # is reported beside them and never summed
    rows = grouped_series_coefficients(500, (1,), ArchKind.MAX, 2.5, 1e-8)
    for r in rows:
        want = 4 if r.height == 1 else 4 * euler_phi(r.height)
        assert r.count == want, (r.height, r.count, want)
    sample = rows[1]
    assert sample.reference_coefficient == 10 and sample.count == 4

    direct = arakelov_L_partial(ArakelovSeriesSpec((1,), s=2.5, cutoff=500), 1e-8)
    terms = []
    for r in rows:
        terms.extend([r.term] * r.count)
    assert len(terms) == direct.terms_used
    assert math.fsum(terms) == direct.value  # bit-identical regrouping

    # convergence classification flips across Re(s) = 3
    probe = convergence_abscissa_probe(ArakelovSeriesSpec((1,), cutoff=16), [4.0, 3.5, 2.5, 2.0], eps=1e-9)
    by_s = {row.s.real: row.stable for row in probe}
    assert by_s[4.0] and by_s[3.5] and not by_s[2.5] and not by_s[2.0]
    elapsed = time.perf_counter() - t0

    print(f"check 06: PASS; duality defects {defects[0]:.1e}/{defects[1]:.1e} at cutoff 50 (< 1e-9), "
          f"grouped counts match 4*phi(N) for N <= 500 (quoted coefficient reported only: N=2 "
          f"count 4 vs quoted 10), regrouped sum bit-identical, convergence flips across Re(s)=3, "
          f"{elapsed:.1f} s")


def test_07_leading_constant_two_pipelines():
    t0 = time.perf_counter()
    B = MetrizedLineBundle(1, 1, ArchKind.MAX)
    table = count_table(1, B, [100, 200, 400, 800, 1600, 3200, 6400, 10000], method="sieve")
    fit = fit_asymptotics(table, a=2.0, b=1.0)
    fit_rel = abs(fit.theta - TWELVE_OVER_PI_SQ) / TWELVE_OVER_PI_SQ

    tau = tamagawa_number(TamagawaSpec(Pn(1), ArchKind.MAX, 10**5))
    target = 24 / math.pi**2
    tau_rel = abs(tau.value - target) / target

    # alpha = 1/(n+1) = 1/2 and beta = 1 for the projective line
    predicted = 0.5 * tau.value
    agree_rel = abs(predicted - fit.theta) / fit.theta
    elapsed = time.perf_counter() - t0

    ok = fit_rel < 0.01 and tau_rel < 1e-3 and agree_rel < 0.02 and elapsed < 120.0
    print(f"check 07: {'PASS' if ok else 'FAIL'}; fitted constant {fit.theta:.6f} vs 12/pi^2 "
          f"rel {fit_rel:.1e} (< 1e-2), tau {tau.value:.6f} vs 24/pi^2 rel {tau_rel:.1e} (< 1e-3), "
          f"pipelines agree rel {agree_rel:.1e} (< 2e-2), {elapsed:.1f} s (< 120 s)")
    assert fit_rel < 0.01
    assert tau_rel < 1e-3
    assert agree_rel < 0.02
    assert elapsed < 120.0


def _brute_points(Y, c, arch, bound):
    # independent bi-graded box scan, heights recomputed from scratch
    bound = Fraction(bound)
    J = twisted_degree(Y, c)
    got = set()
    box = int(bound) + 1
    for u in range(0, box + 1):
        for v in range(-box, box + 1):
            if u == 0:
                if v != 1:
                    continue
            elif math.gcd(u, abs(v)) != 1:
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
                    elif math.gcd(s, abs(t)) != 1:
                        continue
                    P = FnPoint((u, v), (s, t))
                    if height_Fn_sq(Y, c, P, arch) <= bound * bound:
                        got.add((tuple(P.base.coords), P.fiber))
    return got


def _random_fn_point(rng):
    return FnPoint(
        (rng.randint(1, 9), rng.randint(-9, 9)),
        (rng.randint(1, 9), rng.randint(-9, 9)),
    )


def test_08_fibration_geometry_bulk():
    rng = random.Random(20260822)

    # trading base degree for character weight never moves a height
    from adelic.fibration import character_shift_invariance

    for _ in range(1000):
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-3, 3))
        P = _random_fn_point(rng)
        arch = ArchKind.MAX if rng.random() < 0.5 else ArchKind.L2
        h1, h2 = character_shift_invariance(Y, c, P, arch)
        assert h1 == h2

    # the two coordinate charts assign one height
    done = 0
    while done < 100:
        Y = HirzebruchSurface(rng.randint(0, 3))
        c = FibrationLineClass(rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-3, 3))
        P = _random_fn_point(rng)
        u, v = (int(x) for x in P.base.coords)
        if v == 0:
            continue
        s, t = P.fiber
        arch = rng.choice([ArchKind.MAX, ArchKind.L2])
        assert height_Fn_raw(Y, c, (u, v), (s, t), arch) == height_Fn_raw(
            Y, c, (Fraction(u, v), 1), (s, Fraction(t, v**Y.n)), arch
        )
        done += 1

    # fiberwise enumeration equals the direct scan
    scans = []
    for n, bound in ((0, 6), (1, 4), (2, 3)):
        Y = HirzebruchSurface(n)
        c = FibrationLineClass(1, 0, 1)
        for arch in (ArchKind.MAX, ArchKind.L2):
            pts = enumerate_Fn(Y, c, arch, bound)
            keyed = {(tuple(p.base.coords), p.fiber) for p in pts}
            assert len(keyed) == len(pts)
            assert keyed == _brute_points(Y, c, arch, bound)
            scans.append(len(pts))

    # on the product surface heights factor exactly
    line = MetrizedLineBundle(1, 1, ArchKind.MAX)
    Y0 = HirzebruchSurface(0)
    for _ in range(50):
        P = _random_fn_point(rng)
        k, w, j = rng.randint(0, 3), rng.randint(-2, 2), rng.randint(0, 3)
        expected = height_point(line, ProjPoint(P.fiber)) ** k * height_point(line, P.base) ** j
        assert height_Fn(Y0, FibrationLineClass(k, w, j), P) == expected

    print(f"check 08: PASS; shift invariance exact on 1000 cases, chart independence exact on 100, "
          f"enumeration equals direct scan on 6 surface/metric pairs (sizes {scans}), "
          f"product-surface factorization exact on 50 cases")


def test_09_tamagawa_product_theorem():
    t0 = time.perf_counter()
    details = []
    worst_ratio = 0.0
    tb = tamagawa_number(TamagawaSpec(Pn(1), ArchKind.MAX, 10**4))
    for n in (0, 1, 2):
        tf = tamagawa_number(TamagawaSpec(HirzebruchSurface(n), ArchKind.MAX, 10**4))
        budget = tf.error_estimate + (2 * abs(tb.value) + tb.error_estimate) * tb.error_estimate
        diff = abs(tf.value - tb.value**2)
        details.append(f"n={n} diff {diff:.1e} budget {budget:.1e}")
        worst_ratio = max(worst_ratio, diff / budget)
        assert diff < budget, (n, diff, budget)
    elapsed = time.perf_counter() - t0
    print(f"check 09: PASS; surface vs squared base within budget ({'; '.join(details)}), "
          f"worst ratio {worst_ratio:.1e}, {elapsed:.1f} s (< 300 s)")
    assert elapsed < 300.0


def test_10_scope_and_property_suites():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert "Scope" in readme or "scope" in readme
    assert "acceptance" in readme.lower()
    suites = {
        "test_places.py",
        "test_lattice.py",
        "test_heights.py",
        "test_twist.py",
        "test_arakelov.py",
        "test_fibration.py",
        "test_counts.py",
        "test_tamagawa.py",
        "test_cli.py",
    }
    present = {p.name for p in (root / "tests").glob("test_*.py")}
    missing = suites - present
    assert not missing, missing
    print(f"check 10: PASS; continuation of height series beyond the line and blowup asymptotics "
          f"stay out of scope (documented in README.md); {len(suites)} property suites stand in")
