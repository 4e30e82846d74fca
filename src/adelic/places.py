"""Places of Q and exact local absolute values.

A place is either the archimedean place or a finite prime p.  All absolute
values of rational numbers are themselves rational, so everything here is
exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import count
from math import gcd, lcm

from .errors import CapacityError, ValidationError, brief
from .exact import as_fraction

# Deterministic Miller-Rabin witness set, sound for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_TRIAL_DIVISION_LIMIT = 1 << 20
# A composite below _MR_LIMIT with no factor under 2^20 has one under 2^41;
# rho took at most 2^22 steps on 60 such semiprimes.  Past _MR_LIMIT it probes.
_RHO_STEPS = 1 << 23
_RHO_PROBE_STEPS = 1 << 16


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with a fixed witness set, proven below _MR_LIMIT (about
    3.3e24).  Above it a number with no factor up to 37 is refused with
    a ValidationError: no test here is both proven and fast there.  The
    cache matters: place validation re-proves the same small primes
    constantly.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValidationError(f"primality of {brief(n)} is not decided: the test is proven only below 3.3e24")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@total_ordering
class Place:
    """The archimedean place or a finite prime of Q.

    Ordered with the archimedean place first, then primes ascending, so
    iteration over place sets is deterministic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        if p is not None:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValidationError(f"finite place needs an int prime, got {p!r}")
            if not is_prime(p):
                raise ValidationError(f"finite place needs a prime, got {p}")
        self.p = p

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        if p is None:
            raise ValidationError("finite place needs a prime")
        return cls(p)

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Place) and self.p == other.p

    def __lt__(self, other) -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        if self.p is None:
            return other.p is not None
        if other.p is None:
            return False
        return self.p < other.p

    def __hash__(self) -> int:
        return hash(("Place", self.p))

    def __repr__(self) -> str:
        return "Place(inf)" if self.p is None else f"Place({self.p})"


INF = Place.infinite()


def ord_p(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = as_fraction(x)
    if x == 0:
        raise ValidationError("ord_p of zero is undefined")
    if not is_prime(p):
        raise ValidationError(f"ord_p needs a prime, got {p}")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def abs_v(x, v: Place) -> Fraction:
    """Normalised absolute value |x|_v, exact.

    |x|_inf is the usual absolute value; |x|_p = p^(-ord_p(x)); |0|_v = 0.
    """
    x = as_fraction(x)
    if not isinstance(v, Place):
        raise ValidationError(f"expected a Place, got {type(v).__name__}")
    if x == 0:
        return Fraction(0)
    if not v.is_finite:
        return abs(x)
    e = ord_p(x, v.p)
    if e >= 0:
        return Fraction(1, v.p**e)
    return Fraction(v.p ** (-e))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd n (no factor below 2^20, composite if
    below _MR_LIMIT) by Brent's variant of Pollard rho with one gcd per 128
    steps; a gcd of n (all factors met in one batch) retries with c + 1."""
    budget = _RHO_STEPS if n < _MR_LIMIT else _RHO_PROBE_STEPS
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                if n < _MR_LIMIT:
                    raise CapacityError(f"cannot factor {brief(n)} within {budget} rho steps")
                raise ValidationError(f"factors of {brief(n)} are not decided past 3.3e24 within {budget} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of a positive integer as {p: exponent}.

    Trial division runs to 2^20, then Pollard rho splits the cofactor into
    parts that ``is_prime`` proves prime.  A part rho cannot split within its
    budget raises CapacityError, or ValidationError past 3.3e24.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"factorize needs a positive int, got {n!r}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # candidates coprime to 30, the classic 8-step wheel
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= _TRIAL_DIVISION_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += steps[i]
        i = (i + 1) & 7
    # every prime factor left is at least f, so a part below f^2 is prime
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < f * f or m < _MR_LIMIT and is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            parts += [d, m // d]
    return dict(sorted(out.items()))


def support(x) -> list[int]:
    """Primes at which a nonzero rational has a nontrivial absolute value."""
    x = as_fraction(x)
    if x == 0:
        raise ValidationError("support of zero is undefined")
    ps = set(factorize(abs(x.numerator))) | set(factorize(x.denominator))
    return sorted(ps)


def product_formula_check(x) -> Fraction:
    """Exact product of |x|_v over the archimedean place and all primes in
    the support of x.  Equals 1 for every nonzero rational."""
    x = as_fraction(x)
    if x == 0:
        raise ValidationError("product formula needs a nonzero rational")
    # Multiply numerators and denominators as integers and reduce once:
    # one gcd instead of one per place.
    num, den = 1, 1
    for v in (INF, *map(Place.finite, support(x))):
        a = abs_v(x, v)
        num *= a.numerator
        den *= a.denominator
    return Fraction(num, den)


def euler_phi(n: int) -> int:
    """Euler totient."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"euler_phi needs a positive int, got {n!r}")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def mobius(n: int) -> int:
    """Moebius function."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"mobius needs a positive int, got {n!r}")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def content(vec) -> Fraction:
    """Positive rational c with vec = c * (primitive integer vector).

    For a rational vector (v_0, ..., v_k), c = gcd(numerators)/lcm-adjusted
    common scale; concretely c is the unique positive rational such that
    vec/c has coprime integer entries.  Zero vector is rejected.
    """
    fracs = [as_fraction(v) for v in vec]
    if all(f == 0 for f in fracs):
        raise ValidationError("content of the zero vector is undefined")
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for i in ints:
        g = gcd(g, i)
    return Fraction(g, den)
