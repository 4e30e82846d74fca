"""Floating point engines and special functions.

Two evaluation contexts are provided: IEEE double (the default, 64 format
bits, with ``math.fsum`` as the exactly-rounded accumulator) and an mpmath
context for higher precision.  Series code talks to a context object so the
same evaluation logic drives both.

The incomplete gamma machinery computes

    G(a, x) = x^(-a) * Gamma(a, x)        (upper incomplete, complex a, x > 0)

directly in a cancellation-free arrangement: the continued fraction branch
yields e^(-x) * CF(a, x) with no x^a factor at all, and the series branch
subtracts the lower series from x^(-a) * Gamma(a).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ValidationError

# Lanczos approximation, g = 7, 9 coefficients.  Relative error ~ 1e-14
# over the right half plane.
_EULER_GAMMA = 0.5772156649015328606

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument via Lanczos, with reflection."""
    z = complex(z)
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise ValidationError(f"gamma pole at z = {z}")
        return cmath.pi / (s * gamma_complex(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * (t ** (z + 0.5)) * cmath.exp(-t) * acc


def _upper_G_cf(a: complex, x: float) -> complex:
    """G(a,x) = e^(-x) * CF for x > Re(a) + 1, by modified Lentz.

    The classical continued fraction gives
        Gamma(a, x) = e^(-x) x^a / (x + 1 - a - 1(1-a)/(x + 3 - a - ...))
    so G(a, x) = x^(-a) Gamma(a, x) = e^(-x) / (b0 + a1/(b1 + ...)).
    """
    tiny = 1e-300
    b = x + 1.0 - a
    if abs(b) < tiny:
        b = tiny
    c = 1e300
    d = 1.0 / b
    f = d
    for j in range(1, 400):
        aj = -j * (j - a)
        b += 2.0
        d = aj * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + aj / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return cmath.exp(-x) * f
    raise ValidationError(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def _upper_G_series(a: complex, x: float) -> complex:
    """G(a,x) via Gamma(a) minus the lower incomplete series, for small x.

    gamma(a, x) = x^a e^(-x) sum_{n>=0} x^n / (a (a+1) ... (a+n)),
    so G(a, x) = x^(-a) Gamma(a) - e^(-x) sum_{n>=0} x^n / (a ... (a+n)).

    Near the poles of Gamma(a) (a at or close to a nonpositive integer)
    both pieces blow up while their difference stays finite, so that
    region is routed through the recurrence
        G(a, x) = (x G(a+1, x) - e^(-x)) / a
    which climbs to a safe argument.  The climb bottoms out at a = 0
    exactly, where G(0, x) = E1(x); this branch only sees x <= 1, small
    enough for the alternating exponential-integral series.
    """
    if a == 0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 80):
            term *= -x / k
            total -= term / k
            if abs(term) < 1e-18 * (1.0 + abs(total)):
                break
        return complex(total)
    if a.real < 0.5:
        nearest = round(a.real)
        if nearest <= 0 and abs(a - nearest) < 0.1:
            return (x * upper_G(a + 1.0, x) - math.exp(-x)) / a
    term = 1.0 / a
    total = term
    for n in range(1, 800):
        term *= x / (a + n)
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            break
    else:
        raise ValidationError(f"incomplete gamma series stalled at a={a}, x={x}")
    xa = cmath.exp(-a * math.log(x))
    return xa * gamma_complex(a) - math.exp(-x) * total


def upper_G(a: complex, x: float) -> complex:
    """G(a, x) = x^(-a) * Gamma(a, x) for complex a and real x > 0.

    The continued fraction is only well behaved when x dominates |a|;
    below that the absolutely convergent lower series takes over.
    """
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise ValidationError(f"upper_G needs real x > 0, got {x}")
    a = complex(a)
    if x > abs(a) + 1.0:
        return _upper_G_cf(a, x)
    return _upper_G_series(a, x)


def fsum_c(terms) -> complex:
    """Exactly-rounded complex sum: one math.fsum over the real parts and
    one over the imaginary parts.  Each is the exact sum rounded once, so
    the result does not depend on the order of the terms.

    ``terms`` is any iterable of numbers with ``.real`` and ``.imag`` that
    convert to float (int, float, complex, Fraction); a list or tuple is
    read twice in place, and a one-shot iterator is first gathered into a
    list."""
    if iter(terms) is terms:
        terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _float_rational_power(q: Fraction, expo: complex):
    ln = math.log(q.numerator) - math.log(q.denominator)
    if expo.imag == 0.0:
        return math.exp(expo.real * ln)
    return cmath.exp(expo * ln)


def _float_pi_power(z: complex) -> complex:
    return cmath.exp(z * math.log(math.pi))


def _float_fsum_mixed(terms):
    z = fsum_c(terms)
    return z.real if z.imag == 0.0 else z


def _float_decimal(z) -> str:
    if isinstance(z, complex):
        return repr(z.real) if z.imag == 0.0 else repr(z)
    return repr(float(z))


class Ctx:
    """Evaluation context.

    ``bits`` is the total floating point format width; 64 selects IEEE
    double (the default engine), anything larger selects mpmath with the
    working precision set to ``bits`` bits of mantissa.  The engine is
    chosen here, once: the attributes below are bound to its functions,
    so neither the callers nor the methods ask which engine runs.

    - ``real(x)``: exact rational or float to the engine's real type
    - ``to_complex(z)``: complex to the engine's complex type
    - ``pi``, ``one``: constants
    - ``exp(u)``, ``power(b, e)``: elementary functions
    - ``pi_power(z)``: pi^z for complex z
    - ``fsum(terms)``, ``fsum_complex(terms)``: exactly rounded sums of
      any iterable, a generator consumed as it is produced
    - ``fsum_mixed(terms)``: sum of real or complex terms; IEEE double
      gives a float when the imaginary part sums to exactly 0, mpmath a
      complex value whenever a term is complex
    - ``decimal(z)``: a value as text, with every digit the engine holds
    """

    def __init__(self, bits: int = 64):
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < 64:
            raise ValidationError(f"precision_bits must be an int >= 64, got {bits!r}")
        self.bits = bits
        if bits == 64:
            self.real = float
            self.to_complex = complex
            self.pi = math.pi
            self.one = 1.0
            self.exp = math.exp
            self.power = pow
            self.pi_power = _float_pi_power
            self.fsum_mixed = _float_fsum_mixed
            self.decimal = _float_decimal
            self._rational_power = _float_rational_power
            self._fsum = math.fsum
            self._fsum_complex = fsum_c
            self._gamma = gamma_complex
            self._upper_G = upper_G
            return

        import mpmath

        mp = mpmath.mp.clone()
        mp.prec = bits
        dps = max(17, int(bits * 0.30103) + 2)

        def mp_real(x):
            if isinstance(x, Fraction):
                return mp.mpf(x.numerator) / mp.mpf(x.denominator)
            return mp.mpf(x)

        def mp_pi_power(z):
            return mp.power(mp.pi, z)

        def mp_decimal(z) -> str:
            if isinstance(z, Fraction):
                z = mp_real(z)
            elif isinstance(z, (int, float, complex)):
                return _float_decimal(z)
            if z.imag == 0:
                z = z.real
            return mp.nstr(z, dps)

        def mp_rational_power(q, expo):
            return mp.power(mp_real(q), mp.mpc(expo))

        def mp_upper_G(a, x):
            a = mp.mpc(a)
            x = mp_real(x)
            return mp.power(x, -a) * mp.gammainc(a, x, mp.inf)

        self.real = mp_real
        self.to_complex = mp.mpc
        self.pi = mp.pi
        self.one = mp.mpf(1)
        self.exp = mp.exp
        self.power = mp.power
        self.pi_power = mp_pi_power
        self.fsum_mixed = mp.fsum
        self.decimal = mp_decimal
        self._rational_power = mp_rational_power
        self._fsum = mp.fsum
        self._fsum_complex = mp.fsum
        self._gamma = mp.gamma
        self._upper_G = mp_upper_G

    def rational_power(self, q: Fraction, expo: complex):
        """q^expo for an exact positive rational q; det(L)^(s/2) is the
        covolume power covol(L)^s."""
        if expo == 0 or q == 1:
            return self.one
        return self._rational_power(q, expo)

    def fsum(self, terms):
        return self._fsum(terms)

    def fsum_complex(self, terms):
        return self._fsum_complex(terms)

    # -- special -------------------------------------------------------

    def gamma(self, z):
        return self._gamma(z)

    def upper_G(self, a, x):
        """x^(-a) Gamma(a, x); the mpmath engine defers to its gammainc."""
        return self._upper_G(a, x)


DEFAULT_CTX = Ctx(64)
