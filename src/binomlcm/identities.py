"""Closed forms for binomial-row valuations and range lcms.

The centerpiece: the lcm of the row C(k, 0), ..., C(k, k) equals
lcm(1, ..., k+1) / (k+1), so the row lcm can be produced per prime from
digit data alone, never touching a binomial coefficient. The brute-force
row scan and the big-integer fold over the literal row live here too, as
the independent oracles everything is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import sub

from .errors import DomainError, InternalInvariantError
from .exact import binomial_row, primes_upto, require_prime
from .padic import expand, vp

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


@dataclass(frozen=True)
class RowMaxResult:
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
    of p cannot be missed.
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


def lcm_range_factored(n: int) -> dict[int, int]:
    """lcm(1..n) as a prime -> exponent map (largest power fitting in n)."""
    if n < 1:
        raise DomainError(f"lcm_range_factored expects n >= 1, got {n}")
    return {p: vp_lcm_range(n, p) for p in primes_upto(n)}


def lcm_binom_row_identity(k: int) -> dict[int, int]:
    """Row lcm of C(k, 0..k) in factored form, via the fast path.

    Theorem 1 as written: the lcm(1..k+1) map divided by k+1, i.e. v_p(k+1)
    subtracted at each prime p dividing k+1, with zero exponents dropped.
    Negative exponents cannot occur, so one is reported as an internal
    invariant failure rather than a user error.
    """
    if k < 0:
        raise DomainError(f"lcm_binom_row_identity expects k >= 0, got {k}")
    successor = k + 1
    factors = lcm_range_factored(successor)
    for p in [p for p in factors if successor % p == 0]:
        exponent = factors[p] - vp(successor, p)
        if exponent < 0:
            raise InternalInvariantError(
                f"negative exponent {exponent} for prime {p} at k={k}: "
                f"v_p(k+1) exceeded the range-lcm exponent"
            )
        if exponent:
            factors[p] = exponent
        else:
            del factors[p]
    return factors


def lcm_binom_row_direct(k: int) -> int:
    """Independent oracle: big-integer lcm fold over the literal row."""
    return reduce(math.lcm, binomial_row(k))
