"""Exact rational kernels shared by every layer.

Rational coercion, square roots, integer roots and Gaussian elimination
over ``fractions.Fraction``.  Nothing here rounds: every result is the
exact value, so callers that agree on inputs agree to the bit.  Floats
are refused rather than converted, since a float entry would carry its
binary rounding into an exact pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError

Matrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(x) -> Fraction:
    """``x`` as a Fraction; accepts int and Fraction only."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValidationError(f"expected an exact rational (int or Fraction), got {type(x).__name__}")


def as_int(x, what: str) -> int:
    """``x`` if it is an int; a bool, float, str or any other value is
    refused rather than truncated."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValidationError(f"{what} must be an int, got {x!r}")


def sqrt_or_float(x: Fraction):
    """sqrt(x) for x >= 0: an exact Fraction when x is the square of a
    rational, math.sqrt(float(x)) otherwise."""
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return math.sqrt(x)


def int_root(x, k: int) -> int:
    """Largest integer t >= 0 with t**k <= x, for rational x and k >= 1.

    t**k <= x holds exactly when t**k <= floor(x), so this is the integer
    k-th root of floor(x), found by Newton's iteration from above.
    """
    n = as_fraction(x) // 1
    if n < 1:
        return 0
    t = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) > n**(1/k)
    while True:
        s = ((k - 1) * t + n // t ** (k - 1)) // k
        if s >= t:
            return t
        t = s


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def is_diagonal(rows) -> bool:
    return all(v == 0 for i, row in enumerate(rows) for j, v in enumerate(row) if i != j)


def _eliminate(rows, invert: bool):
    """Gaussian elimination of a square matrix over Fraction, taking the
    first nonzero entry of each column as pivot.

    Returns (det, reduced).  ``reduced`` is None when det == 0, else
    [I | A^(-1)] from reducing [A | I] when ``invert`` is set.
    """
    n = len(rows)
    a = [[as_fraction(v) for v in r] for r in rows]
    if invert:
        a = [r + list(e) for r, e in zip(a, identity(n))]
    d = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        piv = a[k][k]
        d *= piv
        if invert:
            a[k] = [v / piv for v in a[k]]
        for i in range(n) if invert else range(k + 1, n):
            if i != k and a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [vi - f * vk for vi, vk in zip(a[i], a[k])]
    return d, a


def det(rows) -> Fraction:
    return _eliminate(rows, False)[0]


def inverse(rows) -> Matrix:
    d, reduced = _eliminate(rows, True)
    if d == 0:
        raise ValidationError("matrix is singular")
    n = len(reduced)
    return tuple(tuple(r[n:]) for r in reduced)
