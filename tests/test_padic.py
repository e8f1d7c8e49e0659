import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomlcm import (
    DomainError,
    NotPrimeError,
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


def carries_when_adding(a: int, b: int, p: int) -> int:
    """Carry count of the schoolbook base-p addition a + b, for a, b >= 0
    and p prime: the third route to v_p(C(a + b, a))."""
    carries = 0
    carry = 0
    while a or b or carry:
        a, ad = divmod(a, p)
        b, bd = divmod(b, p)
        carry = 1 if ad + bd + carry >= p else 0
        carries += carry
    return carries


# -------------------------------------------------------------- expansions


def test_expand_examples():
    assert expand(0, 2) == ()
    five = expand(5, 2)
    assert type(five) is tuple and five == (1, 0, 1)
    assert expand(7, 2) == (1, 1, 1)


def test_expand_rejects_composite_base():
    with pytest.raises(NotPrimeError):
        expand(5, 4)
    with pytest.raises(DomainError):
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


def test_vp_domain_errors():
    with pytest.raises(DomainError):
        vp(0, 3)
    with pytest.raises(NotPrimeError):
        vp(12, 6)


@given(some_prime, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=10**6))
def test_vp_extracts_constructed_exponent(p, e, m):
    while m % p == 0:
        m += 1
    assert vp(p**e * m, p) == e


# ------------------------------------------------------------ borrow count


def test_kummer_domain_errors():
    with pytest.raises(DomainError):
        vp_binomial_kummer(3, 5, 2)
    with pytest.raises(NotPrimeError):
        vp_binomial_kummer(5, 2, 4)
    with pytest.raises(DomainError):
        vp_binomial_kummer(-1, -2, 2)


def test_carries_examples():
    assert carries_when_adding(0, 9, 3) == 0
    # 10 + 11 base 2: the only carry comes out of index 1 (v2 of C(5,2) = 1)
    assert carries_when_adding(2, 3, 2) == 1
    assert carries_when_adding(4, 6, 3) == 1


def test_vp_factorial_matches_literal_factorial():
    for p in (2, 3, 5, 13):
        for n in range(1, 201):
            assert vp_factorial(n, p) == vp(math.factorial(n), p)


def test_legendre_examples():
    assert vp_binomial_legendre(9, 0, 2) == 0
    assert vp_binomial_legendre(5, 2, 2) == 1
    assert vp_binomial_legendre(10, 4, 3) == 1
    with pytest.raises(DomainError):
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


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(PRIMES_50),
)
def test_borrow_equals_legendre_random(n, k, p):
    if k > n:
        n, k = k, n
    assert vp_binomial_kummer(n, k, p) == vp_binomial_legendre(n, k, p)
