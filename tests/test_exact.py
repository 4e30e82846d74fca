import math
import random
from fractions import Fraction

import pytest

from adelic.errors import ValidationError
from adelic.exact import as_fraction, det, identity, int_root, inverse, is_diagonal, leading_minors, sqrt_or_float
from adelic.lattice import HermitianLattice


def cofactor_det(m) -> Fraction:
    """Laplace expansion along the first row; independent of elimination."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m)) if m[0][j]
    )


def random_matrix(rng, n):
    """Rational matrix with frequent zeros (forcing row exchanges) and,
    one time in three, a row made dependent on the others."""
    m = [[Fraction(rng.choice([0, 0, rng.randint(-5, 5)]), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 1 / 3:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[i] = [c * v for v in m[j]]
    return m


def test_elimination_against_cofactor_expansion():
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        d = det(m)
        assert d == cofactor_det(m)
        assert leading_minors(m) == [cofactor_det([r[:k] for r in m[:k]]) for k in range(1, n + 1)]
        if d == 0:
            singular += 1
            with pytest.raises(ValidationError):
                inverse(m)
            continue
        inv = inverse(m)
        prod = tuple(tuple(sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)) for i in range(n))
        assert prod == identity(n)
    assert 0 < singular < 300


def test_indefinite_gram_rejected():
    for g in ([[0, 1], [1, 0]], [[1, 2], [2, 1]], [[1, 0], [0, -1]], [[0]], [[1, 1], [1, 1]], [[2, 0, 1], [0, 0, 0], [1, 0, 2]]):
        assert any(v <= 0 for v in leading_minors(g))
        with pytest.raises(ValidationError, match="positive definite"):
            HermitianLattice(g)
    L = HermitianLattice([[2, 1], [1, 2]])
    assert L.det == 3


def test_is_diagonal_and_identity():
    assert is_diagonal(identity(3)) and is_diagonal([[Fraction(2)]])
    assert not is_diagonal([[1, 0], [Fraction(1, 2), 1]])
    assert identity(2) == ((1, 0), (0, 1))


def test_int_root_against_brute_force():
    def brute(x, k):
        return max((t for t in range(0, 42) if t**k <= x), default=0)

    for k in range(1, 6):
        for t in range(0, 40):
            for x in (t**k - 1, t**k, t**k + 1):
                assert int_root(x, k) == brute(x, k)
                assert int_root(Fraction(x), k) == brute(x, k)
                assert int_root(x + Fraction(3, 4), k) == brute(x + Fraction(3, 4), k)
    assert int_root(Fraction(1, 2), 3) == 0 and int_root(-8, 3) == 0
    big = 10**400
    assert int_root(big, 1) == big
    assert int_root(big, 2) == 10**200
    assert int_root(big - 1, 2) == 10**200 - 1
    for k in (3, 7, 13):
        t = int_root(big, k)
        assert t**k <= big < (t + 1) ** k


def test_sqrt_or_float():
    for q in (Fraction(0), Fraction(9, 4), Fraction(1, 49), Fraction(10**40)):
        r = sqrt_or_float(q)
        assert isinstance(r, Fraction) and r * r == q
    for q in (Fraction(2), Fraction(9, 2), Fraction(3, 4)):
        r = sqrt_or_float(q)
        assert isinstance(r, float) and r == math.sqrt(q)


def test_as_fraction_accepts_exact_only():
    assert as_fraction(3) == Fraction(3) and isinstance(as_fraction(3), Fraction)
    q = Fraction(2, 7)
    assert as_fraction(q) is q
    for bad in (0.5, 1.0, True, False, "1/2", None, 1j):
        with pytest.raises(ValidationError, match="exact rational"):
            as_fraction(bad)


def test_exact_imports_only_stdlib_and_errors():
    import ast
    import sys
    from pathlib import Path

    import adelic.exact

    tree = ast.parse(Path(adelic.exact.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "errors"
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names


def test_float_entries_rejected_by_lattice():
    with pytest.raises(ValidationError):
        HermitianLattice([[1.5]])
    with pytest.raises(ValidationError):
        HermitianLattice.diagonal([2, 0.5])
    assert HermitianLattice.diagonal([2, Fraction(1, 2)]).det == 1
