import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomlcm import (
    DomainError,
    NotPrimeError,
    OutOfRangeError,
    ZeroValueError,
    factored_value,
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    primes_upto,
    row_max_vp,
    row_max_vp_bruteforce,
    validate_factored,
    vp,
    vp_binomial_kummer,
    vp_binomial_legendre,
    vp_lcm_range,
    vp_row_lcm_formula,
    vp_successor_formula,
)
from binomlcm.identities import _SCAN_BLOCK, _digit_span

PRIMES_50 = primes_upto(50)


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# -------------------------------------------------------------- digit span


def test_digit_span_examples():
    assert _digit_span(7, 2) == (2, None)
    assert _digit_span(5, 2) == (2, 1)
    assert _digit_span(4, 2) == (2, 0)
    assert _digit_span(1, 2) == (0, None)
    assert _digit_span(25, 3) == (2, 0)
    assert _digit_span(26, 3) == (2, None)


def test_digit_span_open_digit_absent_iff_successor_is_base_power():
    for p in primes_upto(20):
        for k in range(1, 2000):
            top, lowest_open = _digit_span(k, p)
            assert p**top <= k < p ** (top + 1)
            assert (lowest_open is None) == is_power_of(k + 1, p)


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from(primes_upto(100)))
def test_digit_span_open_digit_absent_iff_successor_is_base_power_random(k, p):
    _, lowest_open = _digit_span(k, p)
    assert (lowest_open is None) == is_power_of(k + 1, p)


# ------------------------------------------------------------- row maximum


@pytest.mark.parametrize(
    "k,p,max_valuation,attained_at",
    [
        (7, 2, 0, 3),
        (5, 2, 1, 3),
        (4, 2, 2, 3),
        (5, 3, 0, 2),
        (0, 2, 0, None),
        (1, 2, 0, 0),
    ],
)
def test_row_max_examples(k, p, max_valuation, attained_at):
    result = row_max_vp(k, p)
    assert result.max_valuation == max_valuation
    assert result.attained_at == attained_at


def test_row_max_bruteforce_examples():
    assert row_max_vp_bruteforce(0, 2) == 0
    assert row_max_vp_bruteforce(5, 2) == 1
    assert row_max_vp_bruteforce(7, 2) == 0


@pytest.mark.parametrize(
    "function,bad_k",
    [(vp_successor_formula, 0), (vp_row_lcm_formula, 0), (row_max_vp_bruteforce, -1)],
)
def test_prime_check_left_to_the_callee_still_rejects_bad_input(function, bad_k):
    with pytest.raises(NotPrimeError):
        function(5, 4)
    with pytest.raises(DomainError):
        function(bad_k, 2)


def test_row_max_bruteforce_checks_the_prime_before_scanning():
    # At k = 0 the row has one entry; the up-front check is the only one run.
    with pytest.raises(NotPrimeError):
        row_max_vp_bruteforce(0, 4)


def test_half_row_scan_matches_full_row_factorial_route():
    for k in range(201):
        for p in PRIMES_50:
            full_row = max(vp_binomial_legendre(k, i, p) for i in range(k + 1))
            assert row_max_vp_bruteforce(k, p) == full_row, (k, p)


def kummer_half_row_max(k, p):
    """The scan the row walk replaced: one borrow count per half-row entry."""
    return max(vp_binomial_kummer(k, i, p) for i in range(k // 2 + 1))


def test_row_walk_matches_full_row_kummer_route():
    for k in range(301):
        for p in PRIMES_50:
            full_row = max(vp_binomial_kummer(k, i, p) for i in range(k + 1))
            assert row_max_vp_bruteforce(k, p) == full_row, (k, p)


def _block_edge_rows():
    # 3 blocks: at p = 3 the maximum then lies only where the running
    # valuation was carried across block edges from a positive value.
    halves = (_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 2 * _SCAN_BLOCK, 3 * _SCAN_BLOCK)
    for p in (2, 3, 47):
        for half in halves:
            yield 2 * half, p
            yield 2 * half + 1, p
        power = p
        while power <= 4 * _SCAN_BLOCK + 1:
            yield power - 1, p
            yield power, p
            power *= p


@pytest.mark.parametrize("k,p", sorted(set(_block_edge_rows())))
def test_row_walk_at_block_edges_and_prime_powers(k, p):
    assert row_max_vp_bruteforce(k, p) == kummer_half_row_max(k, p)


@given(st.integers(min_value=0, max_value=20000), st.sampled_from(PRIMES_50))
def test_row_walk_matches_kummer_scan_property(k, p):
    assert row_max_vp_bruteforce(k, p) == kummer_half_row_max(k, p)


def test_row_walk_memory_does_not_grow_with_k():
    # The walk holds a few lists of _SCAN_BLOCK entries (about 0.17 MB here);
    # a list of the whole half row at this k would alone take 0.8 MB.
    row_max_vp_bruteforce(10, 2)  # fills the primality cache outside the traced region
    tracemalloc.start()
    try:
        assert row_max_vp_bruteforce(200_000, 2) == row_max_vp(200_000, 2).max_valuation
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_row_max_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        row_max_vp(5, 6)
    with pytest.raises(OutOfRangeError):
        row_max_vp(-1, 2)


def test_row_max_formula_matches_scan_and_witness():
    for k in range(201):
        for p in (2, 3, 5, 7, 11, 13):
            result = row_max_vp(k, p)
            scanned = row_max_vp_bruteforce(k, p)
            assert result.max_valuation == scanned
            if result.attained_at is not None:
                assert 0 <= result.attained_at <= k
                assert vp_binomial_kummer(k, result.attained_at, p) == scanned


# --------------------------------------------------------- range exponents


def test_vp_lcm_range_examples():
    assert vp_lcm_range(1, 2) == 0
    assert vp_lcm_range(8, 2) == 3
    assert vp_lcm_range(10, 3) == 2
    with pytest.raises(ZeroValueError):
        vp_lcm_range(0, 2)


@given(st.sampled_from(PRIMES_50), st.integers(min_value=1, max_value=40))
def test_vp_lcm_range_exact_power_boundaries(p, e):
    # off-by-one here is exactly what a float log would get wrong
    assert vp_lcm_range(p**e, p) == e
    assert vp_lcm_range(p**e - 1, p) == e - 1
    assert vp_lcm_range(p**e + 1, p) == e


def test_vp_lcm_range_matches_fold_oracle():
    for n in range(1, 201):
        fold = math.lcm(*range(1, n + 1))
        for p in primes_upto(n):
            assert vp_lcm_range(n, p) == vp(fold, p)


# ------------------------------------------------------- successor formula


def test_vp_successor_examples():
    assert vp_successor_formula(7, 2) == 3
    assert vp_successor_formula(5, 2) == 1
    assert vp_successor_formula(4, 2) == 0
    with pytest.raises(ZeroValueError):
        vp_successor_formula(0, 2)


def test_vp_successor_matches_direct_valuation():
    for k in range(1, 2001):
        for p in PRIMES_50:
            assert vp_successor_formula(k, p) == vp(k + 1, p)


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from(PRIMES_50))
def test_vp_successor_matches_direct_valuation_random(k, p):
    assert vp_successor_formula(k, p) == vp(k + 1, p)


# -------------------------------------------------------- row lcm exponent


def test_vp_row_lcm_formula_examples():
    assert vp_row_lcm_formula(7, 2) == 0
    assert vp_row_lcm_formula(5, 2) == 1
    assert vp_row_lcm_formula(4, 2) == 2


def test_row_lcm_formula_equals_difference_and_row_max():
    for k in range(1, 301):
        for p in PRIMES_50:
            formula = vp_row_lcm_formula(k, p)
            assert formula == vp_lcm_range(k + 1, p) - vp_successor_formula(k, p)
            assert formula == row_max_vp(k, p).max_valuation


# ------------------------------------------------------------ factored lcm


def test_lcm_range_factored_examples():
    assert lcm_range_factored(1) == {}
    assert lcm_range_factored(6) == {2: 2, 3: 1, 5: 1}
    assert factored_value(lcm_range_factored(6)) == 60
    assert lcm_range_factored(10) == {2: 3, 3: 2, 5: 1, 7: 1}
    assert factored_value(lcm_range_factored(10)) == 2520
    with pytest.raises(ZeroValueError):
        lcm_range_factored(0)


def test_lcm_range_factored_matches_fold_oracle():
    for n in range(1, 301):
        factors = lcm_range_factored(n)
        validate_factored(factors)
        assert factored_value(factors) == math.lcm(*range(1, n + 1))


def test_lcm_range_factored_monotone():
    prev = lcm_range_factored(1)
    for n in range(2, 10001):
        cur = lcm_range_factored(n)
        for p, e in prev.items():
            assert cur.get(p, 0) >= e, (n, p)
        prev = cur


# -------------------------------------------------------------- row lcm(s)


def test_row_identity_examples():
    assert lcm_binom_row_identity(0) == {}
    assert lcm_binom_row_identity(1) == {}
    assert factored_value(lcm_binom_row_identity(5)) == 10  # lcm(1..6)/6
    assert factored_value(lcm_binom_row_identity(7)) == 105  # lcm(1..8)/8
    with pytest.raises(OutOfRangeError):
        lcm_binom_row_identity(-3)


def test_row_direct_examples():
    assert lcm_binom_row_direct(0) == 1
    assert lcm_binom_row_direct(5) == 10
    assert lcm_binom_row_direct(6) == 60  # row 1,6,15,20,15,6,1 = lcm(1..7)/7
    assert lcm_binom_row_direct(7) == 105
    with pytest.raises(DomainError):
        lcm_binom_row_direct(-1)
    with pytest.raises(DomainError):
        lcm_binom_row_direct(-2)


def test_row_identity_matches_direct_fold():
    for k in range(401):
        factors = lcm_binom_row_identity(k)
        validate_factored(factors)
        assert factored_value(factors) == lcm_binom_row_direct(k), k


def test_row_identity_times_successor_is_range_lcm():
    for k in range(2001):
        lhs = (k + 1) * factored_value(lcm_binom_row_identity(k))
        assert lhs == factored_value(lcm_range_factored(k + 1)), k


def _row_lcm_from_digits(k):
    """Paper eq. (5) at every prime <= k+1, zero exponents dropped; it reads
    only the base-p digits of k, never vp_lcm_range or vp."""
    exponents = ((p, vp_row_lcm_formula(k, p)) for p in primes_upto(k + 1))
    return [(p, e) for p, e in exponents if e]


def test_row_identity_matches_digit_formula():
    for k in range(1, 2001):
        assert list(lcm_binom_row_identity(k).items()) == _row_lcm_from_digits(k), k


# k+1 = 2^19, 3^12, 720720 = 2^4*3^2*5*7*11*13, the prime 999983, and 10^6.
@pytest.mark.parametrize("k", [524287, 531440, 720719, 999982, 999999])
def test_row_identity_matches_digit_formula_at_large_k(k):
    assert list(lcm_binom_row_identity(k).items()) == _row_lcm_from_digits(k)


def test_no_prime_exceeds_range_exponent():
    # the tripwire precondition: v_p(k+1) never exceeds the range exponent
    for k in range(1, 501):
        for p in primes_upto(k + 1):
            assert vp(k + 1, p) <= vp_lcm_range(k + 1, p)
