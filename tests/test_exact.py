import math
import random
from fractions import Fraction

import pytest

from adelic.errors import ValidationError
from adelic.exact import adjugate, as_fraction, bareiss, det, identity, int_root, is_diagonal, scaled_to_int, sqrt_or_float
from adelic.lattice import HermitianLattice, _lambda_min_lower, dual
from adelic.twist import AdelicGroupElement


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


def random_positive_definite(rng, n):
    """B^T B + I for a random rational B."""
    b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return [[sum(r[i] * r[j] for r in b) + (i == j) for j in range(n)] for i in range(n)]


def cofactor_inverse(m):
    """m^(-1) from cofactors: entry (i, j) is (-1)^(i+j) det(m without row
    j and column i) / det(m)."""
    n, d = len(m), cofactor_det(m)
    minor = [[cofactor_det([r[:i] + r[i + 1 :] for k, r in enumerate(m) if k != j]) for j in range(n)] for i in range(n)]
    return tuple(tuple((-1) ** (i + j) * minor[i][j] / d for j in range(n)) for i in range(n))


def test_elimination_against_cofactor_expansion():
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        d = det(m)
        assert d == cofactor_det(m)
        c, a = scaled_to_int(m)
        assert c == math.lcm(*(v.denominator for row in m for v in row))
        assert a == [[c * v for v in row] for row in m]
        if d == 0:
            singular += 1
            assert bareiss([list(r) for r in a]) is None and adjugate(a) is None
            continue
        # X A = D_n I with D_n = (-1)^swaps det A, the last pivot of [A | I]
        Dn, x = adjugate(a)
        swaps = bareiss([list(r) for r in a])[0]
        assert Dn == (-1) ** swaps * cofactor_det(a)
        assert [[sum(x[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
            [Dn * (i == j) for j in range(n)] for i in range(n)
        ]
    assert 0 < singular < 300
    for _ in range(100):
        n = rng.randint(1, 5)
        g = random_positive_definite(rng, n)
        L = HermitianLattice(g)
        assert L._int_scale == math.lcm(*(v.denominator for row in g for v in row))
        a = [[L._int_scale * v for v in row] for row in g]
        assert L._int_minors == tuple(cofactor_det([r[:k] for r in a[:k]]) for k in range(n + 1))
        assert L.det == cofactor_det(g)
        # Sylvester: after k fraction-free eliminations, entry (k, j) is the
        # minor of A on rows 0..k and columns 0..k-1, j
        for k in range(n):
            want = tuple(cofactor_det([[r[c] for c in (*range(k), j)] for r in a[: k + 1]]) for j in range(k + 1, n))
            assert L._int_pivots[k] == want
        inv = cofactor_inverse(g)
        assert dual(L).gram == inv
        assert _lambda_min_lower(L) == 1 / max(sum(abs(v) for v in row) for row in inv)
        assert dual(dual(L)).gram == L.gram


def test_indefinite_gram_rejected():
    # [[0, 1], [1, 1]] has a zero leading minor but positive pivots after
    # one row exchange; a definite Gram needs no exchange
    for g in (
        [[0, 1], [1, 1]],
        [[0, 1], [1, 0]],
        [[1, 2], [2, 1]],
        [[1, 0], [0, -1]],
        [[0]],
        [[-1]],
        [[1, 1], [1, 1]],
        [[2, 0, 1], [0, 0, 0], [1, 0, 2]],
    ):
        with pytest.raises(ValidationError) as exc:
            HermitianLattice(g)
        assert str(exc.value) == "Gram matrix must be positive definite"
    with pytest.raises(ValidationError) as exc:
        HermitianLattice([[1, 2], [0, 1]])
    assert str(exc.value) == "Gram matrix must be symmetric"
    L = HermitianLattice([[2, 1], [1, 2]])
    assert L.det == 3


def test_singular_twist_matrix_refused():
    with pytest.raises(ValidationError) as exc:
        AdelicGroupElement(2, default=[[1, 2], [2, 4]])
    assert str(exc.value) == "group element matrices must be invertible"


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
