import random
from fractions import Fraction

import pytest

from adelic.errors import ValidationError
from adelic.places import (
    INF,
    Place,
    abs_v,
    content,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    ord_p,
    primes_upto,
    product_formula_check,
    support,
)
from helpers import random_nonzero_rational


def test_abs_v_examples():
    x = Fraction(-12, 5)
    assert abs_v(x, Place.finite(2)) == Fraction(1, 4)
    assert abs_v(x, Place.finite(3)) == Fraction(1, 3)
    assert abs_v(x, Place.finite(5)) == Fraction(5)
    assert abs_v(x, Place.finite(7)) == Fraction(1)
    assert abs_v(x, INF) == Fraction(12, 5)
    assert abs_v(Fraction(0), INF) == 0
    assert abs_v(7, Place.finite(7)) == Fraction(1, 7)


def test_abs_v_is_exact_fraction():
    v = abs_v(Fraction(9, 8), Place.finite(2))
    assert isinstance(v, Fraction) and v == 8


def test_abs_v_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        x = random_nonzero_rational(rng, 10**4, 10**4)
        y = random_nonzero_rational(rng, 10**4, 10**4)
        for v in (INF, Place.finite(2), Place.finite(3), Place.finite(13)):
            assert abs_v(x * y, v) == abs_v(x, v) * abs_v(y, v)


def test_ord_p():
    assert ord_p(Fraction(40), 2) == 3
    assert ord_p(Fraction(3, 40), 5) == -1
    with pytest.raises(ValidationError):
        ord_p(Fraction(0), 2)
    with pytest.raises(ValidationError):
        ord_p(Fraction(1), 4)


def test_product_formula_exact():
    assert product_formula_check(Fraction(-360, 77)) == 1
    assert product_formula_check(1) == 1
    rng = random.Random(7)
    for _ in range(500):
        x = random_nonzero_rational(rng)
        assert product_formula_check(x) == 1


def test_product_formula_matches_plain_fraction_product():
    rng = random.Random(11)
    xs = [1, -1, 2, -360, 7**5, -(2**10 * 3**4), Fraction(-360, 77),
          Fraction(1, 2**20), Fraction(-(10**9 + 7), 10**9 + 9)]
    xs += [random_nonzero_rational(rng) for _ in range(300)]
    xs += [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(100)]
    for x in xs:
        plain = abs_v(x, INF)
        for p in support(x):
            plain *= abs_v(x, Place.finite(p))
        got = product_formula_check(x)
        assert type(got) is Fraction
        assert got == plain == 1, x


def test_product_formula_rejects_zero():
    with pytest.raises(ValidationError):
        product_formula_check(Fraction(0))


def test_is_prime():
    assert [p for p in range(2, 40) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    # Carmichael numbers must not fool the deterministic witness set
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)
    assert is_prime(2**31 - 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)
    # the fixed witnesses are proven only below 3.3e24; above that a
    # number with a small factor is still decided, any other is refused
    with pytest.raises(ValidationError):
        is_prime(10**25 + 13)
    assert not is_prime(10**25 + 14) and not is_prime(3 * 10**30)


def test_factorize_and_support():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert support(Fraction(45, 8)) == [2, 3, 5]
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_euler_phi():
    vals = [euler_phi(n) for n in range(1, 13)]
    assert vals == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    rng = random.Random(5)
    for _ in range(40):
        import math

        a, b = rng.randint(2, 5000), rng.randint(2, 5000)
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_totient_divisor_sum():
    for n in (1, 2, 12, 96, 97, 360):
        total = sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0)
        assert total == n


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for n in range(2, 200):
        s = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert s == 0
    assert sum(mobius(d) for d in [1]) == 1


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert len(primes_upto(10**5)) == 9592


def test_place_ordering_and_hash():
    ps = [Place.finite(5), INF, Place.finite(2), Place.finite(3)]
    assert sorted(ps) == [INF, Place.finite(2), Place.finite(3), Place.finite(5)]
    assert len({INF, Place.infinite(), Place.finite(2)}) == 2
    with pytest.raises(ValidationError):
        Place.finite(6)


def test_content():
    assert content([Fraction(4, 6), Fraction(-2, 3), Fraction(8, 3)]) == Fraction(2, 3)
    assert content([6, 10, 15]) == 1
    assert content([Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        content([0, Fraction(0)])
