"""Exact rational kernels shared by every layer.

Rational coercion, square roots, integer roots and one fraction-free
(Bareiss) elimination of integer matrices, which gives determinants,
leading minors and, on [A | I] with back substitution, adjugates.  A
rational matrix is scaled to an integer one by its common denominator
first, so no ``Fraction`` arithmetic runs inside the elimination.
Nothing here rounds: every result is the exact value, so callers that
agree on inputs agree to the bit.  Floats are refused rather than
converted, since a float entry would carry its binary rounding into an
exact pipeline.
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


def scaled_to_int(rows) -> tuple[int, list[list[int]]]:
    """(c, c * rows) for a matrix of ints and Fractions, c the least common
    denominator of its entries."""
    c = math.lcm(*[v.denominator for r in rows for v in r])
    return c, [[v.numerator * (c // v.denominator) for v in r] for r in rows]


def bareiss(a: list[list[int]]):
    """Fraction-free (Bareiss) elimination of the first n columns of the n
    integer rows ``a`` (each of length >= n, modified in place), taking the
    first nonzero entry of each column as pivot.

    Returns None when those columns are singular, else (swaps, D, pivots):
    the number of row exchanges, the pivots D_0 = 1, D_1, ..., D_n, and
    pivot row k's entries past its diagonal.  Each division by the
    previous pivot is exact (Sylvester's identity): the rows stand for a
    row permutation of ``a`` fixed in advance, whose leading minors are
    the D_k, so D_n = (-1)^swaps det; entry j of pivot row k is its minor
    on rows 0..k and columns 0..k-1, j.
    """
    n = len(a)
    swaps, D, pivots = 0, [1], []
    for k in range(n):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return None
            a[k], a[p] = a[p], a[k]
            swaps += 1
        piv, prev, tail = a[k][k], D[k], a[k][k + 1 :]
        pivots.append(tuple(tail))
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(piv * v - f * w) // prev for v, w in zip(row[k + 1 :], tail)]
        D.append(piv)
    return swaps, D, pivots


def det(rows) -> Fraction:
    c, a = scaled_to_int([[as_fraction(v) for v in r] for r in rows])
    e = bareiss(a)
    return Fraction(0) if e is None else Fraction((-1) ** e[0] * e[1][-1], c ** len(a))


def adjugate(a: list[list[int]]):
    """(D_n, X) with X A = D_n I for the square integer matrix A = ``a``,
    or None when A is singular: D_n = (-1)^swaps det A is the last pivot of
    ``bareiss`` on [A | I], so X = (-1)^swaps adj A.  The pivot rows hold
    U | R with U upper triangular, diag(U) = D_1..D_n and A^(-1) = U^(-1) R,
    so X follows by back substitution from the last row up, each row
    divided exactly by its pivot since X is an integer matrix.
    """
    n = len(a)
    e = bareiss([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)])
    if e is None:
        return None
    _, D, pivots = e
    x = []  # rows k + 1..n - 1 of X
    for k in reversed(range(n)):
        u, r = pivots[k][: n - k - 1], pivots[k][n - k - 1 :]
        x.insert(0, [(D[n] * rj - sum(ui * row[j] for ui, row in zip(u, x))) // D[k + 1] for j, rj in enumerate(r)])
    return D[n], x
