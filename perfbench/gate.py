"""Exactness gate for every benchmark output.

It runs outside the timed region and imports nothing from binomlcm: its
sieve, its primality test and its row-lcm reference are its own. The row
lcm of C(k, 0..k) has, for each prime p <= k+1, the exponent
floor(log_p(k+1)) - v_p(k+1). An exact decimal value is checked by
reducing its digit string modulo a few seeded 61-bit primes and comparing
with the product of p^e modulo the same primes, so a single changed digit
always shows.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from typing import Any

_CHUNK = 18
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve(n: int) -> list[int]:
    """Primes <= n from an odd-only sieve: index i stands for 2i+1."""
    if n < 2:
        return []
    size = (n - 1) // 2
    flags = bytearray(b"\x01") * (size + 1)
    flags[0] = 0
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size + 1, p)))
    return [2, *(2 * i + 1 for i in itertools.compress(range(size + 1), flags))]


def is_prime(n: int) -> bool:
    """Strong-pseudoprime test, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_moduli(seed: int, count: int = 3) -> list[int]:
    """`count` distinct 61-bit primes drawn from the seed."""
    rng = random.Random(f"moduli:{seed}")
    moduli: list[int] = []
    while len(moduli) < count:
        candidate = rng.getrandbits(61) | (1 << 60) | 1
        if candidate not in moduli and is_prime(candidate):
            moduli.append(candidate)
    return moduli


def row_lcm_factors(k: int, primes: list[int]) -> list[list[int]]:
    """[p, e] pairs of lcm{C(k, 0..k)}, ascending, from the closed form.

    `primes` must hold every prime <= k+1.
    """
    n = k + 1
    root = math.isqrt(n)
    successor: dict[int, int] = {}
    rest = n
    for p in primes:
        if p > root:
            break
        while rest % p == 0:
            successor[p] = successor.get(p, 0) + 1
            rest //= p
    if rest > 1:
        successor[rest] = successor.get(rest, 0) + 1
    pairs = []
    for p in primes[: bisect.bisect_right(primes, n)]:
        exponent = 1
        if p <= root:
            power = p * p
            while power <= n:
                exponent += 1
                power *= p
        exponent -= successor.get(p, 0)
        if exponent:
            pairs.append([p, exponent])
    return pairs


def decimal_mod(digits: str, m: int) -> int:
    """int(digits) % m, reduced chunk by chunk in linear time."""
    r = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        r = (r * 10 ** len(chunk) + int(chunk)) % m
    return r


def _single_record(stdout: str) -> dict[str, Any]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _first_difference(got: list, want: list) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"factor {i}: got {a}, want {b}"
    return f"got {len(got)} factors, want {len(want)}"


class Gate:
    """References for one run: a sieve up to the largest k + 1 it will
    see, and the seeded moduli for value checks."""

    def __init__(self, seed: int, max_k: int):
        self.primes = sieve(max_k + 1)
        self.moduli = seeded_moduli(seed)

    def check_row(self, k: int, stdout: str, want_value: bool) -> str | None:
        """None when an lcm-binom-row record is exact, else why it is not."""
        try:
            record = _single_record(stdout)
            output = record["output"]
            if record["op"] != "lcm-binom-row" or record["input"]["k"] != str(k) or record["ok"] is not True:
                return f"unexpected record header for k={k}"
            expected = row_lcm_factors(k, self.primes)
            if output["factors"] != expected:
                return f"k={k}: {_first_difference(output['factors'], expected)}"
            if not want_value:
                return None if "value" not in output else f"k={k}: unexpected value"
            value = output["value"]
            if not (isinstance(value, str) and value.isascii() and value.isdigit() and value[0] != "0"):
                return f"k={k}: value is not a decimal numeral"
            for m in self.moduli:
                want = 1
                for p, e in expected:
                    want = want * pow(p, e, m) % m
                if decimal_mod(value, m) != want:
                    return f"k={k}: value differs from the product of its factors mod {m}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"k={k}: malformed output ({exc!r})"
        return None


def check_sweep(check: str, lo: int, hi: int, stdout: str) -> str | None:
    """None when a verify record covers [lo, hi] with no failures."""
    try:
        record = _single_record(stdout)
        output = record["output"]
        if (record["op"], output["check"], output["from"], output["to"]) != ("verify", check, str(lo), str(hi)):
            return f"{check} [{lo}, {hi}]: unexpected record header"
        if output["total"] != hi - lo + 1:
            return f"{check} [{lo}, {hi}]: total {output['total']} != {hi - lo + 1}"
        if output["failures"] != 0 or record["ok"] is not True:
            return f"{check} [{lo}, {hi}]: {output['failures']} failures, first {output['first_failure']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"{check} [{lo}, {hi}]: malformed output ({exc!r})"
    return None
