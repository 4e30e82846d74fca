"""Shared test utilities: seeded random generators for exact test data."""

from fractions import Fraction

from adelic.exact import det
from adelic.lattice import HermitianLattice


def random_fraction(rng, lo, hi, max_den=8) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator <= max_den."""
    den = rng.randint(1, max_den)
    lo_n = int(Fraction(lo) * den) + 1
    hi_n = int(Fraction(hi) * den)
    if lo_n > hi_n:
        lo_n = hi_n
    return Fraction(rng.randint(lo_n, hi_n), den)


def random_lattice(rng, d, lo=Fraction(1, 4), hi=Fraction(4)) -> HermitianLattice:
    """Random symmetric positive definite Gram with entries in [lo, hi].

    Strict diagonal dominance keeps the matrix definite (and the
    determinant bounded below) without any floating point checks.
    """
    off = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = random_fraction(rng, lo, min(hi, Fraction(3, 4)))
            off[i][j] = off[j][i] = v
    rows = []
    for i in range(d):
        row_abs = sum(off[i][j] for j in range(d) if j != i)
        dlo = max(Fraction(lo), row_abs + Fraction(1, 2))
        dhi = max(Fraction(hi), dlo)
        diag = random_fraction(rng, dlo, dhi)
        rows.append([off[i][j] if j != i else diag for j in range(d)])
    return HermitianLattice(rows)


def random_nonzero_rational(rng, max_num=10**6, max_den=10**6) -> Fraction:
    n = 0
    while n == 0:
        n = rng.randint(-max_num, max_num)
    return Fraction(n, rng.randint(1, max_den))


def random_invertible(rng, n, bound=4) -> list[list[Fraction]]:
    """Random invertible n x n rational matrix, by rejection."""
    while True:
        m = [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def random_unimodular(rng, n, steps=6) -> list[list[Fraction]]:
    """Product of elementary shears and swaps, so the determinant is +-1
    and all entries are integers."""
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
