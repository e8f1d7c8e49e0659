"""Exact integer arithmetic: binomial coefficients, prime sieving,
primality, and prime-exponent maps ("factored" values) multiplied out
exactly."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Overflow, Rounded, localcontext
from functools import lru_cache
from itertools import compress, islice, starmap
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import DomainError, NotPrimeError

__all__ = [
    "binomial",
    "binomial_row",
    "primes_upto",
    "is_prime",
    "require_prime",
    "factored_value",
    "factored_decimal",
]


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial expects non-negative arguments, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"binomial expects k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def binomial_row(n: int) -> Iterator[int]:
    """Yield C(n, 0), C(n, 1), ..., C(n, n) by successive exact updates."""
    if n < 0:
        raise DomainError(f"binomial_row expects n >= 0, got {n}")
    entry = 1
    yield entry
    for i in range(n):
        entry = entry * (n - i) // (i + 1)
        yield entry


# Largest n primes_upto serves; checked before allocating. At this bound a
# fresh process takes about 1.7 s and peaks at 301 MB (ru_maxrss, CPython
# 3.11, x86-64 Linux, 2 CPUs): the 50 MB odd-only bytearray sieve plus the
# list of its 5,761,455 primes.
SIEVE_LIMIT = 10**8


def primes_upto(n: int) -> list[int]:
    """All primes p with 2 <= p <= n, ascending; empty for n < 2."""
    if n > SIEVE_LIMIT:
        raise DomainError(f"primes_upto serves n <= {SIEVE_LIMIT}, got {n}")
    if n < 2:
        return []
    # Odd-only sieve: flags[i] stands for 2i + 1, so stepping one odd
    # multiple of p to the next moves p places.
    flags = bytearray(b"\x01") * ((n + 1) // 2)
    flags[0] = 0
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p >> 1]:
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return [2, *compress(range(1, n + 1, 2), flags)]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to every base above.
PRIMALITY_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division, then strong-pseudoprime
    rounds over _MR_BASES; exact for n < PRIMALITY_LIMIT, DomainError at or above it."""
    if n >= PRIMALITY_LIMIT:
        raise DomainError(f"primality is decided only below {PRIMALITY_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _is_prime_cached(n: int) -> bool:
    return is_prime(n)


def require_prime(p: int) -> None:
    """Raise NotPrimeError unless p is prime. Verdicts are cached, so hot
    sweeps pay the primality test once per distinct prime."""
    if not _is_prime_cached(p):
        raise NotPrimeError(f"p must be prime, got {p}")


# A factored value: a prime -> exponent map, or its (p, e) pairs in any order.
Factored = Mapping[int, int] | Iterable[tuple[int, int]]

# Prime powers per leaf of the product tree: few enough Python objects for
# the tree to stay small, narrow enough for each leaf product to stay cheap.
_BLOCK = 64

# Integer-only decimal arithmetic: any rounding raises instead of dropping a
# digit. The default Emax (999999) would overflow at a million digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, Overflow])

# Widest int handed to Decimal() in one piece. That conversion is quadratic
# in the width; wider ints are split in half by bits first.
_DECIMAL_LEAF_BITS = 1 << 13


def _tree_product(leaves: list) -> Any:
    """Product of a nonempty list by recursive halving: a balanced tree."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return _tree_product(leaves[:half]) * _tree_product(leaves[half:])


def _multiply_out(factors: Factored, leaf: Callable[[int], Any]) -> Any:
    """Product of a prime -> exponent map, or of (p, e) pairs, as a balanced
    tree: the prime powers are multiplied in blocks of _BLOCK, each block
    product becomes a leaf, and the leaves are multiplied by recursive
    halving. A negative or non-integer exponent makes its block product a
    non-int and raises DomainError."""
    pairs = iter(factors.items() if isinstance(factors, Mapping) else factors)
    leaves = []
    while block := list(islice(pairs, _BLOCK)):
        product = math.prod(starmap(pow, block))
        if type(product) is not int:
            p, e = next((p, e) for p, e in block if type(p**e) is not int)
            raise DomainError(f"factored maps take non-negative integer exponents, got {p}**{e}")
        leaves.append(leaf(product))
    return _tree_product(leaves) if leaves else leaf(1)


def _to_decimal(n: int) -> Decimal:
    """Exact Decimal of a natural n; call inside the _EXACT context."""
    width = n.bit_length()
    if width <= _DECIMAL_LEAF_BITS:
        return Decimal(n)
    half = width >> 1
    high = n >> half
    return _to_decimal(high) * Decimal(2) ** half + _to_decimal(n - (high << half))


def factored_value(factors: Factored) -> int:
    """Multiply out a prime -> exponent map or an iterable of (p, e) pairs;
    no factors give 1. Exponents must be non-negative integers (DomainError
    otherwise)."""
    return _multiply_out(factors, int)


def factored_decimal(factors: Factored) -> str:
    """Decimal digits of factored_value(factors), multiplied out in exact
    decimal arithmetic so that no quadratic int -> str conversion runs."""
    with localcontext(_EXACT):
        return str(_multiply_out(factors, _to_decimal))
