import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomlcm import (
    DomainError,
    InternalInvariantError,
    NotPrimeError,
    factored_value,
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    primes_upto,
    row_max_vp,
    row_max_vp_bruteforce,
    vp,
    vp_binomial_kummer,
    vp_lcm_range,
    vp_row_lcm_formula,
    vp_successor_formula,
)
from binomlcm import identities
from binomlcm.identities import _SCAN_BLOCK, _digit_span

PRIMES_50 = primes_upto(50)


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# -------------------------------------------------------------- digit span


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
    with pytest.raises(DomainError):
        row_max_vp(-1, 2)


# --------------------------------------------------------- range exponents


def test_vp_lcm_range_examples():
    assert vp_lcm_range(1, 2) == 0
    assert vp_lcm_range(8, 2) == 3
    assert vp_lcm_range(10, 3) == 2
    with pytest.raises(DomainError):
        vp_lcm_range(0, 2)


@given(st.sampled_from(PRIMES_50), st.integers(min_value=1, max_value=40))
def test_vp_lcm_range_exact_power_boundaries(p, e):
    # off-by-one here is exactly what a float log would get wrong
    assert vp_lcm_range(p**e, p) == e
    assert vp_lcm_range(p**e - 1, p) == e - 1
    assert vp_lcm_range(p**e + 1, p) == e


# ------------------------------------------------------- successor formula


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from(PRIMES_50))
def test_vp_successor_matches_direct_valuation_random(k, p):
    assert vp_successor_formula(k, p) == vp(k + 1, p)


# ------------------------------------------------------------ factored lcm


def test_lcm_range_factored_examples():
    assert lcm_range_factored(1) == {}
    assert lcm_range_factored(6) == {2: 2, 3: 1, 5: 1}
    assert factored_value(lcm_range_factored(6)) == 60
    assert lcm_range_factored(10) == {2: 3, 3: 2, 5: 1, 7: 1}
    assert factored_value(lcm_range_factored(10)) == 2520
    with pytest.raises(DomainError):
        lcm_range_factored(0)


def test_lcm_range_factored_is_the_power_fit_map():
    # Reference built by trial division alone: at each n = p**e, with p the
    # smallest factor of n, p's exponent rises to e. Each prime enters at
    # n = p, so the reference stays in ascending key order.
    reference = {}
    assert lcm_range_factored(1) == reference
    for n in range(2, 10001):
        p = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
        if is_power_of(n, p):
            reference[p] = reference.get(p, 0) + 1
        assert list(lcm_range_factored(n).items()) == list(reference.items()), n


# -------------------------------------------------------------- row lcm(s)


def test_row_identity_examples():
    assert lcm_binom_row_identity(0) == {}
    assert lcm_binom_row_identity(1) == {}
    assert factored_value(lcm_binom_row_identity(5)) == 10  # lcm(1..6)/6
    assert lcm_binom_row_identity(7) == {3: 1, 5: 1, 7: 1}  # lcm(1..8)/8 = 105
    with pytest.raises(DomainError):
        lcm_binom_row_identity(-3)


def test_negative_row_exponent_is_an_internal_invariant_failure():
    # v_2(16) = 4 exceeds 3, the exponent of 2 in lcm(1..8).
    with pytest.raises(InternalInvariantError, match=r"prime 2:"):
        identities._power_fit_map(8, 16)


def test_row_direct_examples():
    assert lcm_binom_row_direct(0) == 1
    assert lcm_binom_row_direct(5) == 10
    assert lcm_binom_row_direct(6) == 60  # row 1,6,15,20,15,6,1 = lcm(1..7)/7
    assert lcm_binom_row_direct(7) == 105
    with pytest.raises(DomainError):
        lcm_binom_row_direct(-1)
    with pytest.raises(DomainError):
        lcm_binom_row_direct(-2)


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
