"""Tamagawa numbers of projective spaces and Hirzebruch surfaces over Q.

The number is assembled from three layers:

- finite local densities: exact rational point counts over F_p per unit
  of p-adic volume, renormalized by convergence factors coming from the
  local zeta factor of the Picard lattice;
- the archimedean density of the anticanonical metric: exact piecewise
  integration for the sup metric on P^n, adaptive quadrature otherwise;
- the leading coefficient at s = 1 of the partial Picard L-function for
  the chosen exceptional place set, an exact rational.

For both families the combined factor at a good prime collapses to an
exact rational, 1 - p^-(n+1) for P^n and (1 - p^-2)^2 for a Hirzebruch
surface, so the Euler product tail is bounded explicitly and the
surface factors are the squares of the base ones prime by prime.

The sup metric is continuous but not smooth; the measure construction
only needs continuity of the metric, so the piecewise-exact integrals
here are legitimate archimedean densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counts import _int_root, count_table, fit_asymptotics
from .errors import QuadratureError, ValidationError
from .fibration import HirzebruchSurface
from .heights import ArchKind, MetrizedLineBundle
from .places import is_prime, primes_upto

_INF = float("inf")


@dataclass(frozen=True)
class Pn:
    """Projective n-space over Q as an integration target."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(
                f"projective space needs an int dimension >= 1, got {self.n!r}")


def _check_variety(variety):
    if not isinstance(variety, (Pn, HirzebruchSurface)):
        raise ValidationError(
            f"variety must be Pn(n) or HirzebruchSurface(n), got {type(variety).__name__}")


def picard_rank(variety) -> int:
    _check_variety(variety)
    return 1 if isinstance(variety, Pn) else 2


def _check_prime(p):
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValidationError(f"expected a prime, got {p!r}")


def local_density_finite(variety, p: int) -> Fraction:
    """Local density at a finite prime: number of F_p points divided by
    p^dim, exact.

    P^n has (p^(n+1) - 1)/(p - 1) points over F_p; a Hirzebruch surface
    fibers P^1 over P^1, so it has (p + 1)^2 points regardless of the
    twist.
    """
    _check_variety(variety)
    _check_prime(p)
    if isinstance(variety, Pn):
        n = variety.n
        return Fraction(p ** (n + 1) - 1, (p - 1) * p**n)
    return Fraction((p + 1) ** 2, p**2)


def convergence_factor(variety, p: int) -> Fraction:
    """(1 - 1/p)^r with r the Picard rank: the inverse local L-factor of
    the (trivially acted on) Picard lattice at s = 1."""
    _check_prime(p)
    return (1 - Fraction(1, p)) ** picard_rank(variety)


def picard_lstar(variety, sigma) -> Fraction:
    """Leading coefficient at s = 1 of the Picard L-function with the
    Euler factors at the finite places of sigma removed.

    The Picard module is Z^r with trivial Galois action, so the full
    L-function is zeta^r with residue 1^r; removing the factor at p
    multiplies the leading coefficient by (1 - 1/p)^r.
    """
    r = picard_rank(variety)
    out = Fraction(1)
    for p in sigma:
        _check_prime(p)
        out *= (1 - Fraction(1, p)) ** r
    return out


@dataclass(frozen=True)
class TamagawaSpec:
    """What to integrate: a variety, an archimedean metric kind, an
    Euler product cutoff, and the exceptional place set.

    ``sigma`` holds the finite primes of the exceptional set; the
    archimedean place always belongs to it.  Convergence factors are
    applied at every finite prime outside ``sigma`` and compensated
    exactly by the leading L-coefficient, so the result does not depend
    on the choice.
    """

    variety: object
    arch: ArchKind = ArchKind.MAX
    prime_cutoff: int = 1000
    sigma: frozenset = frozenset()

    def __post_init__(self):
        _check_variety(self.variety)
        object.__setattr__(self, "arch", ArchKind.parse(self.arch))
        P = self.prime_cutoff
        if not isinstance(P, int) or isinstance(P, bool) or P < 2:
            raise ValidationError(f"prime cutoff must be an int >= 2, got {P!r}")
        sig = frozenset(self.sigma)
        for p in sig:
            _check_prime(p)
            if p > P:
                raise ValidationError(
                    f"exceptional prime {p} lies beyond the cutoff {P}")
        object.__setattr__(self, "sigma", sig)


def _quad_panel(f, a, b, epsabs):
    # imported on first use: scipy is most of a cold CLI start
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=epsabs, epsrel=1e-12, limit=200, full_output=1)
    return out[0], abs(out[1])


def _box_density_exact(n: int) -> Fraction:
    """Integral of max(1, |x|_inf)^-(n+1) over R^n, region by region.

    Split each coordinate at |x_i| = 1.  On the region where a fixed
    set of k coordinates is large, inverting those coordinates turns
    the integral into a Beta integral with value k!(n-k)!/n!, and the
    2^n sign choices are a constant factor.  Each k contributes exactly
    2^n over its C(n, k) regions, whence the closed value 2^n (n + 1).
    """
    total = Fraction(0)
    for k in range(n + 1):
        per_region = Fraction(2**n) * Fraction(
            math.factorial(k) * math.factorial(n - k), math.factorial(n))
        total += math.comb(n, k) * per_region
    return total


def _pn_l2_density(n: int, quad_eps: float, excise):
    # Rotation invariance reduces the chart integral of
    # (1 + |x|^2)^(-(n+1)/2) to a radial one; the sphere area factor is
    # 2 pi^(n/2) / Gamma(n/2).
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    def f(r):
        return r ** (n - 1) * (1.0 + r * r) ** (-(n + 1) / 2.0)

    cuts = {0.0, 1.0}
    if excise is not None:
        if not float(excise) > 0:
            raise ValidationError("excised radius must be positive")
        cuts.add(float(excise))
    cuts = sorted(cuts)
    per = quad_eps / (omega * (len(cuts) + 1) * 2.0)
    total = 0.0
    err = 0.0
    for a, b in zip(cuts, cuts[1:] + [_INF]):
        v, e = _quad_panel(f, a, b, per)
        total += v
        err += e
    value = omega * total
    achieved = omega * err
    if achieved > quad_eps:
        raise QuadratureError(
            f"radial quadrature achieved {achieved:.3e}, wanted {quad_eps:.3e}",
            achieved=achieved)
    return value, achieved


def _fn_density(surface: HirzebruchSurface, arch: ArchKind, quad_eps: float, excise):
    # Iterated quadrature: for each base coordinate u the fiber integral
    # uses the twisted gauge max(1, |z| / N^n) resp. (1 + z^2/N^2n)^(1/2)
    # with N the base gauge, then the base integral weights by N^-(n+2).
    # Fiber tolerances scale with the twist so their weighted total is
    # bounded by 4 * inner_eps (the base weight integrates to < 4).
    n = surface.n
    inner_eps = quad_eps / 64.0
    outer_eps = quad_eps / 16.0
    is_max = arch is ArchKind.MAX

    def base_gauge(u):
        return max(1.0, abs(u)) if is_max else math.hypot(1.0, u)

    def fiber_integral(u):
        T = base_gauge(u) ** n
        eps_call = inner_eps * max(1.0, T) / 2.0
        if is_max:
            v1, _ = _quad_panel(lambda z: 1.0, 0.0, T, eps_call)
            v2, _ = _quad_panel(lambda z: (T / z) ** 2, T, _INF, eps_call)
        else:
            v1, _ = _quad_panel(lambda z: 1.0 / (1.0 + (z / T) ** 2), 0.0, T, eps_call)
            v2, _ = _quad_panel(lambda z: 1.0 / (1.0 + (z / T) ** 2), T, _INF, eps_call)
        return 2.0 * (v1 + v2)

    def g(u):
        return fiber_integral(u) / base_gauge(u) ** (n + 2)

    cuts = {0.0, 1.0}
    if excise is not None:
        if not float(excise) > 0:
            raise ValidationError("excised base coordinate must be positive")
        cuts.add(abs(float(excise)))
    cuts = sorted(cuts)
    total = 0.0
    outer_err = 0.0
    for a, b in zip(cuts, cuts[1:] + [_INF]):
        v, e = _quad_panel(g, a, b, outer_eps)
        total += v
        outer_err += e
    value = 2.0 * total
    achieved = 2.0 * outer_err + 4.0 * inner_eps
    if achieved > quad_eps:
        raise QuadratureError(
            f"fiber-base quadrature achieved {achieved:.3e}, wanted {quad_eps:.3e}",
            achieved=achieved)
    return value, achieved


def _archimedean_density_err(variety, arch, quad_eps, excise):
    _check_variety(variety)
    arch = ArchKind.parse(arch)
    if not quad_eps > 0:
        raise ValidationError(f"quadrature tolerance must be positive, got {quad_eps!r}")
    if isinstance(variety, Pn):
        if arch is ArchKind.MAX:
            # exact; excising a measure-zero locus refines the region
            # decomposition without changing any region integral
            return float(_box_density_exact(variety.n)), 0.0
        return _pn_l2_density(variety.n, quad_eps, excise)
    return _fn_density(variety, arch, quad_eps, excise)


def archimedean_density(variety, arch, quad_eps: float = 1e-9, excise=None) -> float:
    """Archimedean density of the anticanonical metric.

    P^n sup metric: exact piecewise value 2^n (n + 1).  P^n Euclidean:
    adaptive radial quadrature to ``quad_eps``.  Hirzebruch surfaces:
    iterated fiber-base quadrature with the twisted fiber gauge.

    ``excise`` removes a measure-zero closed locus before integrating:
    the points at reduced coordinate ``excise`` (for P^1 a hyperplane
    section, for a surface the pair of fibers over u = +-excise, else a
    sphere).  By design the value can move by at most the quadrature
    tolerance, and not at all on the exact path.
    """
    value, _ = _archimedean_density_err(variety, arch, quad_eps, excise)
    return value


@dataclass(frozen=True)
class TamagawaNumber:
    """Tamagawa number with its error budget and leading Euler factors."""

    value: float
    error_estimate: float
    archimedean: float
    quadrature_error: float
    finite_partial: float
    tail_estimate: float
    lstar: Fraction
    primes_used: int
    leading_factors: tuple


def tamagawa_number(spec: TamagawaSpec, quad_eps: float = 1e-9) -> TamagawaNumber:
    """L*(1, Pic) times the archimedean density times the finite Euler
    product with convergence factors, over primes up to the cutoff.

    The tail estimate is rigorous for the families here: each combined
    factor is 1 - delta_p with delta_p <= c/p^2 (c = 1 for P^n, 2 for a
    surface), delta_p <= 2/9 for p >= 3, and sum_{p > P} delta_p < c/P,
    so the missing factor lies within [exp(-1.2 c / P), 1].
    """
    if not isinstance(spec, TamagawaSpec):
        raise ValidationError(f"expected a TamagawaSpec, got {type(spec).__name__}")
    v = spec.variety
    mu, qerr = _archimedean_density_err(v, spec.arch, quad_eps, None)
    lstar = picard_lstar(v, spec.sigma)
    primes = primes_upto(spec.prime_cutoff)
    finite = 1.0
    leading = []
    for p in primes:
        fac = local_density_finite(v, p)
        if p not in spec.sigma:
            fac *= convergence_factor(v, p)
        if len(leading) < 20:
            leading.append((p, fac))
        finite *= float(fac)
    value = float(lstar) * mu * finite
    tail_coeff = 1.0 if isinstance(v, Pn) else 2.0
    tail = abs(value) * 1.2 * tail_coeff / spec.prime_cutoff
    roundoff = abs(value) * (len(primes) + 8) * 2.0**-50
    err = tail + qerr * float(lstar) * finite + roundoff
    return TamagawaNumber(
        value=value,
        error_estimate=err,
        archimedean=mu,
        quadrature_error=qerr,
        finite_partial=finite,
        tail_estimate=tail,
        lstar=lstar,
        primes_used=len(primes),
        leading_factors=tuple(leading),
    )


def tamagawa_report(spec: TamagawaSpec, quad_eps: float = 1e-9) -> dict:
    """JSON-ready report: identification, tau, error budget, and the
    first 20 per-prime factors as exact rationals."""
    t = tamagawa_number(spec, quad_eps)
    v = spec.variety
    name = f"P{v.n}" if isinstance(v, Pn) else f"F{v.n}"
    return {
        "schema_version": 1,
        "variety": name,
        "arch": spec.arch.value,
        "prime_cutoff": spec.prime_cutoff,
        "sigma_finite": sorted(spec.sigma),
        "tau": t.value,
        "archimedean_density": t.archimedean,
        "finite_partial_product": t.finite_partial,
        "lstar": f"{t.lstar.numerator}/{t.lstar.denominator}",
        "primes_used": t.primes_used,
        "error_budget": {
            "total": t.error_estimate,
            "tail": t.tail_estimate,
            "quadrature": t.quadrature_error,
        },
        "per_prime_factors": [
            {"p": p, "factor": f"{f.numerator}/{f.denominator}", "value": float(f)}
            for p, f in t.leading_factors
        ],
    }


# Leading-constant conventions for P^n with Picard group Z: the
# effective-cone factor is alpha = 1/(n + 1) (anticanonical degree
# n + 1) and the arithmetic factor beta = 1 (trivial Galois action,
# trivial Brauer obstruction).  These are fixed documented constants of
# the expected-asymptotic framework, not computed from a general cone.

def peyre_constant_check(n: int, prime_cutoff: int, H_bound,
                         arch=ArchKind.MAX, quad_eps: float = 1e-9):
    """Compare the predicted anticanonical leading constant
    alpha * beta * tau against a least-squares fit of actual counts.

    Counts use the anticanonical height (the degree n+1 bundle with the
    chosen archimedean gauge) up to ``H_bound``, on a geometric ladder
    of thresholds; the fit pins a = 1, b = 1, the expected shape for
    Picard rank 1.  Returns (predicted, fitted).
    """
    if n not in (1, 2):
        raise ValidationError(f"leading-constant check supports n in {{1, 2}}, got {n!r}")
    arch = ArchKind.parse(arch)
    spec = TamagawaSpec(Pn(n), arch, prime_cutoff)
    tau = tamagawa_number(spec, quad_eps)
    predicted = tau.value / (n + 1)
    bound = Fraction(H_bound)
    r_max = _int_root(bound, n + 1)
    if r_max < 300:
        raise ValidationError(
            f"H_bound {H_bound} reaches degree-1 height {r_max}; need >= 300 "
            "for a stable fit window")
    fracs = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.5, 0.65, 0.8, 1.0)
    rs = sorted({max(2, round(f * r_max)) for f in fracs})
    anti = MetrizedLineBundle(n, n + 1, arch)
    thresholds = [Fraction(r) ** (n + 1) for r in rs]
    table = count_table(n, anti, thresholds)
    fit = fit_asymptotics(table, a=1, b=1)
    return predicted, fit.theta
