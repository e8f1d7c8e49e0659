import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomlcm import (
    DomainError,
    NotPrimeError,
    OutOfRangeError,
    ZeroValueError,
    binomial,
    carries_when_adding,
    expand,
    primes_upto,
    vp,
    vp_binomial_kummer,
    vp_binomial_legendre,
    vp_factorial,
)

PRIMES_50 = primes_upto(50)
PRIMES_100 = primes_upto(100)

some_prime = st.sampled_from(PRIMES_100)


# -------------------------------------------------------------- expansions


def test_expand_examples():
    assert expand(0, 2) == ()
    five = expand(5, 2)
    assert type(five) is tuple and five == (1, 0, 1)
    assert expand(7, 2) == (1, 1, 1)


def test_expand_rejects_composite_base():
    with pytest.raises(NotPrimeError):
        expand(5, 4)
    with pytest.raises(OutOfRangeError):
        expand(-1, 2)


def test_expand_round_trip_exhaustive():
    for p in primes_upto(100):
        for k in range(3000):
            digits = expand(k, p)
            assert sum(d * p**i for i, d in enumerate(digits)) == k
            if k:
                assert digits[-1] != 0
            assert all(0 <= d < p for d in digits)


@given(st.integers(min_value=0, max_value=10**6), some_prime)
def test_expand_round_trip_random(k, p):
    digits = expand(k, p)
    # independent digit oracle
    assert digits == tuple((k // p**i) % p for i in range(len(digits)))
    assert sum(d * p**i for i, d in enumerate(digits)) == k


# -------------------------------------------------------------- valuations


def test_vp_examples():
    assert vp(1, 5) == 0
    assert vp(12, 2) == 2
    assert vp(6, 2) == 1


def test_vp_domain_errors():
    with pytest.raises(ZeroValueError):
        vp(0, 3)
    with pytest.raises(NotPrimeError):
        vp(12, 6)


@given(some_prime, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=10**6))
def test_vp_extracts_constructed_exponent(p, e, m):
    while m % p == 0:
        m += 1
    assert vp(p**e * m, p) == e


# ------------------------------------------------------------ borrow count


def test_kummer_examples():
    assert all(vp_binomial_kummer(7, idx, 2) == 0 for idx in range(8))
    assert vp_binomial_kummer(5, 2, 2) == 1
    assert vp_binomial_kummer(10, 4, 3) == 1


def test_kummer_domain_errors():
    with pytest.raises(OutOfRangeError):
        vp_binomial_kummer(3, 5, 2)
    with pytest.raises(NotPrimeError):
        vp_binomial_kummer(5, 2, 4)
    with pytest.raises(OutOfRangeError):
        vp_binomial_kummer(-1, -2, 2)


def test_carries_examples():
    assert carries_when_adding(0, 9, 3) == 0
    # 10 + 11 base 2: the only carry comes out of index 1 (v2 of C(5,2) = 1)
    assert carries_when_adding(2, 3, 2) == 1
    assert carries_when_adding(4, 6, 3) == 1


def test_carries_domain_errors():
    with pytest.raises(NotPrimeError):
        carries_when_adding(1, 2, 9)
    with pytest.raises(OutOfRangeError):
        carries_when_adding(-1, 2, 3)


def test_vp_factorial_examples():
    assert vp_factorial(0, 7) == 0
    assert vp_factorial(10, 2) == 8
    assert vp_factorial(10, 3) == 4


def test_vp_factorial_matches_literal_factorial():
    for p in (2, 3, 5, 13):
        for n in range(1, 201):
            assert vp_factorial(n, p) == vp(math.factorial(n), p)


def test_legendre_examples():
    assert vp_binomial_legendre(9, 0, 2) == 0
    assert vp_binomial_legendre(5, 2, 2) == 1
    assert vp_binomial_legendre(10, 4, 3) == 1
    with pytest.raises(OutOfRangeError):
        vp_binomial_legendre(2, 4, 3)
    for n, k in [(3, -1), (-1, 0), (4, -2)]:
        with pytest.raises(DomainError, match="vp_binomial_legendre"):
            vp_binomial_legendre(n, k, 2)


# ------------------------------------------------- the three routes agree


def test_borrow_legendre_carry_agree_on_grid():
    for n in range(301):
        for k in range(n + 1):
            for p in PRIMES_50:
                borrow = vp_binomial_kummer(n, k, p)
                assert borrow == vp_binomial_legendre(n, k, p)
                assert borrow == carries_when_adding(k, n - k, p)


def test_borrow_count_matches_exact_binomial_valuation():
    for n in range(121):
        row = [binomial(n, k) for k in range(n + 1)]
        for k, value in enumerate(row):
            for p in PRIMES_50:
                assert vp_binomial_kummer(n, k, p) == vp(value, p)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(PRIMES_50),
)
def test_borrow_equals_legendre_random(n, k, p):
    if k > n:
        n, k = k, n
    assert vp_binomial_kummer(n, k, p) == vp_binomial_legendre(n, k, p)
