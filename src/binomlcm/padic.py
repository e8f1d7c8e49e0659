"""Base-p digits and p-adic valuations.

expand gives the base-p digits of k as a plain tuple, least significant
first; the digit formulas in identities read positions straight off it.
The valuation of a binomial coefficient is computed two independent ways:
by counting borrows in the schoolbook base-p subtraction, and through
factorial valuations built from floor divisions. The two must always
agree, which the test suite leans on heavily; it also counts the carries
of the addition k + (n - k) as a third route.
"""

from __future__ import annotations

from .errors import DomainError
from .exact import require_prime

__all__ = [
    "expand",
    "vp",
    "vp_binomial_kummer",
    "vp_factorial",
    "vp_binomial_legendre",
]


def expand(k: int, p: int) -> tuple[int, ...]:
    """Base-p digits of k, least significant first. The top digit is
    nonzero, and k == 0 yields the empty tuple."""
    require_prime(p)
    if k < 0:
        raise DomainError(f"expand expects k >= 0, got {k}")
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    return tuple(digits)


def vp(n: int, p: int) -> int:
    """Exponent of the largest power of the prime p dividing n (n >= 1)."""
    require_prime(p)
    if n < 1:
        raise DomainError(f"vp expects n >= 1, got {n}")
    exponent = 0
    q, r = divmod(n, p)
    while r == 0:
        exponent += 1
        n = q
        q, r = divmod(n, p)
    return exponent


def vp_binomial_kummer(n: int, k: int, p: int) -> int:
    """Valuation of C(n, k) as the borrow count of the base-p subtraction n - k.

    Digits are processed least significant first; each position whose digit
    subtraction goes negative counts one borrow, which propagates into the
    next position.
    """
    require_prime(p)
    if n < 0 or k < 0:
        raise DomainError(f"vp_binomial_kummer expects non-negative arguments, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"vp_binomial_kummer expects k <= n, got n={n}, k={k}")
    borrows = 0
    borrow = 0
    while k or borrow:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if nd < kd + borrow:
            borrow = 1
            borrows += 1
        else:
            borrow = 0
    return borrows


def vp_factorial(n: int, p: int) -> int:
    """Valuation of n! from the floor-division cascade n//p + n//p**2 + ..."""
    require_prime(p)
    if n < 0:
        raise DomainError(f"vp_factorial expects n >= 0, got {n}")
    total = 0
    q = n // p
    while q:
        total += q
        q //= p
    return total


def vp_binomial_legendre(n: int, k: int, p: int) -> int:
    """Valuation of C(n, k) from factorial valuations; independent of the
    borrow-counting path and used as its oracle."""
    if n < 0 or k < 0:
        raise DomainError(f"vp_binomial_legendre expects non-negative arguments, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"vp_binomial_legendre expects k <= n, got n={n}, k={k}")
    return vp_factorial(n, p) - vp_factorial(k, p) - vp_factorial(n - k, p)
