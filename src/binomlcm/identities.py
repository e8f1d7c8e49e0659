"""Closed forms for binomial-row valuations and range lcms.

The centerpiece: the lcm of the row C(k, 0), ..., C(k, k) equals
lcm(1, ..., k+1) / (k+1). The fast path takes the power-fit map of
lcm(1..k+1), the largest e with p**e <= k+1 at each prime p <= k+1, and
divides v_p(k+1) out in the same pass, never touching a binomial
coefficient. The digit formulas of Prop. 1 and eqs. (4)-(5) live here, as
do the independent oracles: the brute-force row scan and the big-integer
fold over the literal row.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from operator import sub
from typing import NamedTuple

from .errors import DomainError, InternalInvariantError
from .exact import binomial_row, primes_upto, require_prime
from .padic import expand

__all__ = [
    "RowMaxResult",
    "row_max_vp",
    "row_max_vp_bruteforce",
    "vp_lcm_range",
    "vp_successor_formula",
    "vp_row_lcm_formula",
    "lcm_range_factored",
    "lcm_binom_row_identity",
    "lcm_binom_row_direct",
]


class RowMaxResult(NamedTuple):
    """Maximum p-adic valuation over one binomial row, and an index
    realizing it: p**N - 1 for the top digit index N of k, or None for the
    single-entry row k = 0."""

    max_valuation: int
    attained_at: int | None


def _digit_span(k: int, p: int) -> tuple[int, int | None]:
    """Top digit index of k in base p, and the lowest digit index whose
    digit is not p-1 (None when every digit is p-1, i.e. when k+1 is a
    power of p). Every caller has already rejected k < 1."""
    digits = expand(k, p)
    lowest_open = next((i for i, digit in enumerate(digits) if digit != p - 1), None)
    return len(digits) - 1, lowest_open


def row_max_vp(k: int, p: int) -> RowMaxResult:
    """Row-maximum valuation computed from the digits of k alone.

    Zero when every base-p digit of k is p-1; otherwise the distance from
    the lowest non-maximal digit up to the top digit index.
    """
    require_prime(p)
    if k < 0:
        raise DomainError(f"row_max_vp expects k >= 0, got {k}")
    if k == 0:
        return RowMaxResult(max_valuation=0, attained_at=None)
    top, lowest_open = _digit_span(k, p)
    max_valuation = 0 if lowest_open is None else top - lowest_open
    return RowMaxResult(max_valuation=max_valuation, attained_at=p**top - 1)


# Row indices the brute-force scan walks per block; bounds its memory at any k.
_SCAN_BLOCK = 4096


def _block_valuations(lo: int, hi: int, p: int) -> list[int]:
    """v_p(n) for each n in lo..hi (1 <= lo <= hi), ascending. The multiples
    of p, p**2, ... inside the block are marked in turn, each power
    overwriting the exponent the one below it wrote."""
    valuations = [0] * (hi - lo + 1)
    power, exponent = p, 1
    while power <= hi:
        first = -lo % power
        valuations[first::power] = [exponent] * len(range(first, len(valuations), power))
        power *= p
        exponent += 1
    return valuations


def row_max_vp_bruteforce(k: int, p: int) -> int:
    """Independent oracle: walk the row entry by entry, keeping the largest
    valuation.

    C(k, i+1) = C(k, i) * (k-i) / (i+1), so v_p(C(k, i+1)) is v_p(C(k, i))
    plus v_p(k-i) minus v_p(i+1). C(k, i) = C(k, k - i), so the half row
    i <= k // 2 holds every value. The walk runs _SCAN_BLOCK indices at a
    time, carrying the running valuation across blocks, and never reads a
    base-p digit of k.
    """
    require_prime(p)
    if k < 0:
        raise DomainError(f"row_max_vp_bruteforce expects k >= 0, got {k}")
    best = carry = 0
    half = k // 2
    for start in range(0, half, _SCAN_BLOCK):
        end = min(start + _SCAN_BLOCK, half)  # steps i -> i + 1 for start <= i < end
        numerators = reversed(_block_valuations(k - end + 1, k - start, p))
        denominators = _block_valuations(start + 1, end, p)
        running = list(accumulate(map(sub, numerators, denominators), initial=carry))
        best = max(best, max(running))
        carry = running[-1]
    return best


def vp_lcm_range(n: int, p: int) -> int:
    """Largest e with p**e <= n, which is the exponent of p in lcm(1..n).

    Found by exact repeated multiplication, so boundaries at exact powers
    of p cannot be missed. The range-lcm map computes its exponents
    inline, so this stays eq. (5)'s independent side.
    """
    require_prime(p)
    if n < 1:
        raise DomainError(f"vp_lcm_range expects n >= 1, got {n}")
    exponent = 0
    power = p
    while power <= n:
        exponent += 1
        power *= p
    return exponent


def vp_successor_formula(k: int, p: int) -> int:
    """Valuation of k+1 read off the digits of k: adding one rolls over
    exactly the low run of (p-1)-digits, whose length is the valuation."""
    if k < 1:
        raise DomainError(f"vp_successor_formula expects k >= 1, got {k}")
    top, lowest_open = _digit_span(k, p)
    return top + 1 if lowest_open is None else lowest_open


def vp_row_lcm_formula(k: int, p: int) -> int:
    """Per-prime exponent of the row lcm straight from the digits of k:
    zero when every digit is p-1, else top index minus the lowest
    non-maximal digit index, which is the row maximum of Prop. 1."""
    if k < 1:
        raise DomainError(f"vp_row_lcm_formula expects k >= 1, got {k}")
    return row_max_vp(k, p).max_valuation


def _power_fit_map(n: int, d: int) -> dict[int, int]:
    """lcm(1..n) / d as an ascending prime -> exponent map, for d = 1 or
    d = n, in one pass over the sieve primes.

    Every prime p <= n has exponent 1 except p <= isqrt(n), which is raised
    by exact repeated multiplication and has v_p(d) divided out on the spot.
    What is left of d is then 1 or one prime above isqrt(n), popped. Zero
    exponents are dropped. A negative one cannot occur, so it is reported
    as an internal invariant failure rather than a user error.
    """
    primes = primes_upto(n)
    for p in primes:
        require_prime(p)
    factors = dict.fromkeys(primes, 1)
    rest = d
    root = math.isqrt(n)
    for p in primes:
        if p > root:
            break
        exponent, power = 1, p * p
        while power <= n:
            exponent += 1
            power *= p
        while rest % p == 0:
            rest //= p
            exponent -= 1
        if exponent < 0:
            raise InternalInvariantError(
                f"negative exponent {exponent} for prime {p}: "
                f"v_{p}({d}) exceeded its exponent in lcm(1..{n})"
            )
        if exponent:
            factors[p] = exponent
        else:
            del factors[p]
    if rest > 1:
        factors.pop(rest)
    return factors


def lcm_range_factored(n: int) -> dict[int, int]:
    """lcm(1..n) as a prime -> exponent map, ascending: each sieve prime p
    <= n with the largest e such that p**e <= n."""
    if n < 1:
        raise DomainError(f"lcm_range_factored expects n >= 1, got {n}")
    return _power_fit_map(n, 1)


def lcm_binom_row_identity(k: int) -> dict[int, int]:
    """Row lcm of C(k, 0..k) in factored form, via the fast path.

    Theorem 1 as written: lcm(1..k+1) / (k+1), built in one pass that
    divides v_p(k+1) out at each prime up to isqrt(k+1) and drops the one
    cofactor prime above it, never touching a binomial coefficient.
    """
    if k < 0:
        raise DomainError(f"lcm_binom_row_identity expects k >= 0, got {k}")
    return _power_fit_map(k + 1, k + 1)


def lcm_binom_row_direct(k: int) -> int:
    """Independent oracle: big-integer lcm fold over the literal row."""
    return reduce(math.lcm, binomial_row(k))
