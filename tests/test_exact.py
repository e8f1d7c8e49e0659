import math
import random
import sys
from bisect import bisect_right
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomlcm import (
    DomainError,
    binomial,
    binomial_row,
    factored_decimal,
    factored_value,
    is_prime,
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    primes_upto,
)
from binomlcm.exact import PRIMALITY_LIMIT, SIEVE_LIMIT

# ---------------------------------------------------------------- oracles


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def brute_lcm(values: list[int]) -> int:
    """Smallest positive integer divisible by every value; scan multiples."""
    if not values:
        return 1
    step = max(values)
    candidate = step
    while any(candidate % v for v in values):
        candidate += step
    return candidate


# -------------------------------------------------------------------- lcm


def test_row_fold_matches_multiple_scan():
    for k in range(21):
        assert lcm_binom_row_direct(k) == brute_lcm(list(binomial_row(k))), k


# --------------------------------------------------------------- binomial


def test_binomial_examples():
    assert binomial(12, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(7, 3) == 35


def test_binomial_domain_errors():
    with pytest.raises(DomainError):
        binomial(3, 5)
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(4, -2)


def test_row_max_is_the_central_entry_up_to_500():
    for k in range(501):
        assert max(binomial_row(k)) == binomial(k, k // 2)


def test_pascal_rule_up_to_500():
    prev = list(binomial_row(0))
    assert prev == [1]
    for n in range(1, 501):
        row = list(binomial_row(n))
        assert row[0] == 1 and row[-1] == 1
        for k in range(1, n):
            assert row[k] == prev[k - 1] + prev[k]
        prev = row


# ----------------------------------------------------------------- primes


def test_primes_upto_rejects_bounds_above_the_ceiling():
    with pytest.raises(DomainError, match=str(SIEVE_LIMIT)):
        primes_upto(SIEVE_LIMIT + 1)


def test_primes_upto_agrees_with_trial_division():
    reference = [i for i in range(2, 10001) if trial_division_is_prime(i)]
    for n in range(10001):
        assert primes_upto(n) == reference[: bisect_right(reference, n)]


def test_is_prime_agrees_with_trial_division():
    for n in range(20001):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_on_hard_composites_and_large_primes():
    # Carmichael numbers fool Fermat tests; the strong test must not budge.
    for carmichael in (561, 1105, 1729, 2465, 41041, 825265):
        assert not is_prime(carmichael)
    assert is_prime(2**61 - 1)
    assert is_prime(10**9 + 7)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)


def test_is_prime_refuses_the_least_pseudoprime_to_its_bases():
    # psi_12 is composite, yet a strong probable prime to every base 2..37.
    assert PRIMALITY_LIMIT == 399165290221 * 798330580441
    for n in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 1, PRIMALITY_LIMIT**2):
        with pytest.raises(DomainError, match=str(PRIMALITY_LIMIT)):
            is_prime(n)
    assert not is_prime(PRIMALITY_LIMIT - 1)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_is_prime_rejects_products(a, b):
    assert not is_prime(a * b)


# --------------------------------------------------------- factored values


def test_factored_value_examples():
    assert factored_value({}) == 1
    assert factored_value({2: 2, 3: 1, 5: 1}) == 60
    assert factored_value({2: 3, 3: 2, 5: 1, 7: 1}) == 2520


def test_negative_exponents_are_domain_errors():
    # p**e is a float for e < 0; multiplied out it was truncated or crashed.
    assert factored_value({2: 0}) == 1
    for factors in ({2: -1}, {2: 3, 3: -1}):
        for multiply_out in (factored_value, factored_decimal):
            with pytest.raises(DomainError, match="non-negative integer exponents"):
                multiply_out(factors)


# ------------------------------------------------- product-tree kernel


@contextmanager
def unlimited_int_str():
    """Lift the interpreter's int -> str digit cap for the reference path."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def assert_kernel_matches_left_fold(factors):
    reference = math.prod(p**e for p, e in factors.items())
    assert factored_value(factors) == reference
    with unlimited_int_str():
        assert factored_decimal(factors) == str(reference)


def test_kernel_matches_left_fold_on_every_small_row_and_range():
    for k in range(0, 2001):
        assert_kernel_matches_left_fold(lcm_binom_row_identity(k))
    for n in range(1, 2001):
        assert_kernel_matches_left_fold(lcm_range_factored(n))


def test_kernel_takes_a_map_or_pairs_from_any_iterable():
    # Every prefix of the first 300 primes: 0 to 5 leaves, odd counts included.
    primes = primes_upto(2000)[:300]
    assert len(primes) == 300
    rng = random.Random(300)
    exponents = [rng.randint(1, 4) for _ in primes]
    for n in range(len(primes) + 1):
        pairs = list(zip(primes[:n], exponents[:n]))
        reference = math.prod(p**e for p, e in pairs)
        for multiply_out, expected in ((factored_value, reference), (factored_decimal, str(reference))):
            assert multiply_out(dict(pairs)) == expected
            assert multiply_out(pairs) == expected
            assert multiply_out(pair for pair in pairs) == expected


def test_pair_streams_check_exponents_and_may_be_empty():
    for multiply_out in (factored_value, factored_decimal):
        # the negative exponent arrives in the second block of the stream
        stream = ((p, -1 if i == 64 else 1) for i, p in enumerate(primes_upto(1000)))
        with pytest.raises(DomainError, match="non-negative integer exponents"):
            multiply_out(stream)
    assert factored_value(iter(())) == 1
    assert factored_decimal(iter(())) == "1"


@given(st.integers(min_value=1, max_value=10**5))
def test_kernel_matches_left_fold_on_random_rows(k):
    assert_kernel_matches_left_fold(lcm_binom_row_identity(k))


@pytest.mark.parametrize("factors", [{2: 9000, 3: 1}, {3: 30_000, 5: 20_000, 7: 1}, {65537: 4000}])
def test_kernel_on_wide_prime_powers(factors):
    assert_kernel_matches_left_fold(factors)


def test_factored_decimal_past_a_million_digits():
    e = 3_400_000
    assert factored_value({2: e}) == 1 << e
    digits = factored_decimal({2: e})
    assert len(digits) == math.floor(e * math.log10(2)) + 1 > 10**6
    assert int(digits[-18:]) == pow(2, e, 10**18)
