"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured numbers as they happen. Everything is compared exactly except the
psi ratio (an explicit wide-tolerance diagnostic) and the wall-clock
performance gates of criterion 7.
"""

import functools
import json
import os
import random
import time

import pytest

from binomlcm import (
    RangeSummary,
    binomial,
    factored_value,
    lcm_binom_row_identity,
    lcm_binom_row_direct,
    primes_upto,
    psi_ratio,
    verify_range_detailed,
    vp,
    vp_binomial_kummer,
    vp_binomial_legendre,
)
from fresh_python import run_python

WORKERS = os.cpu_count() or 1
PRIMES_50 = primes_upto(50)

_COLD_IDENTITY = """
import json, sys, time
from binomlcm import lcm_binom_row_identity
started = time.perf_counter()
factors = lcm_binom_row_identity(int(sys.argv[1]))
print(json.dumps({"seconds": time.perf_counter() - started, "factors": list(factors.items())}))
"""


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}" + (f" [{detail}]" if detail else "")
    print(line)
    assert ok, line


@functools.cache
def _theorem1_sweep_one_worker() -> RangeSummary:
    """The single-worker k <= 2000 theorem1 sweep, run once for criteria 1 and 8."""
    return verify_range_detailed("theorem1", 0, 2000, workers=1)


def test_criterion_1_theorem_sweep_exact():
    summary = _theorem1_sweep_one_worker()
    _report(
        "criterion 1: row-lcm identity = direct fold, bit-exact, 0 <= k <= 2000",
        summary.failures == 0,
        f"{summary.total} inputs, {summary.elapsed:.1f}s single-threaded",
    )


def test_criterion_2_row_max_sweep():
    summary = verify_range_detailed("prop1", 1, 1500, workers=WORKERS)
    _report(
        "criterion 2: row-max formula = brute force and attained at witness, "
        "k <= 1500, p <= 50",
        summary.failures == 0,
        f"{summary.total} inputs x {len(PRIMES_50)} primes, {summary.elapsed:.1f}s",
    )


def test_criterion_3_valuation_triple_agreement():
    mismatches = 0
    for n in range(121):
        row = [binomial(n, k) for k in range(n + 1)]
        for k, value in enumerate(row):
            for p in PRIMES_50:
                borrow = vp_binomial_kummer(n, k, p)
                if borrow != vp_binomial_legendre(n, k, p) or borrow != vp(value, p):
                    mismatches += 1

    rng = random.Random(0xB1705)
    random_trials = 10_000
    for _ in range(random_trials):
        n = rng.randrange(1, 10**9 + 1)
        k = rng.randrange(0, n + 1)
        p = rng.choice(PRIMES_50)
        if vp_binomial_kummer(n, k, p) != vp_binomial_legendre(n, k, p):
            mismatches += 1

    _report(
        "criterion 3: Kummer = Legendre = direct valuation (n <= 120 exhaustive, "
        f"{random_trials} random triples with n <= 1e9)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_4_formula_checks():
    range_exp = verify_range_detailed("eq3", 1, 1000, workers=WORKERS)
    successor = verify_range_detailed("eq4", 1, 100_000, workers=WORKERS)
    row_lcm_exp = verify_range_detailed("eq5", 1, 1500, workers=WORKERS)
    ok = range_exp.failures == successor.failures == row_lcm_exp.failures == 0
    _report(
        "criterion 4: range-exponent, successor, and row-lcm-exponent formulas "
        "match their direct counterparts",
        ok,
        f"range n<=1000 in {range_exp.elapsed:.1f}s, successor k<=1e5 in "
        f"{successor.elapsed:.1f}s, row-lcm k<=1500 in {row_lcm_exp.elapsed:.1f}s",
    )


def test_criterion_5_lower_bound_and_proof_chain():
    bound = verify_range_detailed("lower-bound", 1, 5000, workers=WORKERS)
    chain = verify_range_detailed("proof-chain", 1, 1000, workers=WORKERS)
    _report(
        "criterion 5: lcm(1..n) >= 2^(n-1) for n <= 5000, full proof chain for n <= 1000",
        bound.failures == 0 and chain.failures == 0,
        f"bound {bound.elapsed:.1f}s, chain {chain.elapsed:.1f}s",
    )


def test_criterion_6_hanson_bound_and_psi_ratio():
    ceiling = verify_range_detailed("hanson", 1, 5000, workers=WORKERS)
    ratio = psi_ratio(100_000)
    ok = ceiling.failures == 0 and abs(ratio - 1.0) < 0.05
    _report(
        "criterion 6: lcm(1..n) <= 3^n for n <= 5000; |psi_ratio(1e5) - 1| < 0.05",
        ok,
        f"hanson {ceiling.elapsed:.1f}s, psi_ratio(1e5) = {ratio:.6f}",
    )


def _warm_identity(k: int) -> tuple[float, dict[int, int]]:
    """lcm_binom_row_identity(k) timed in this interpreter, whose primality
    cache earlier calls may have filled; returns the seconds and the result."""
    started = time.perf_counter()
    factors = lcm_binom_row_identity(k)
    return time.perf_counter() - started, factors


def _cold_identity(k: int) -> tuple[float, dict[int, int]]:
    """lcm_binom_row_identity(k) timed in a fresh interpreter, whose primality
    cache is empty; returns the seconds and the factored result."""
    record = json.loads(run_python(_COLD_IDENTITY, str(k)))
    return record["seconds"], dict(record["factors"])


@pytest.mark.parametrize(
    "timed_identity,name",
    [
        pytest.param(
            _warm_identity,
            "criterion 7: identity path >= 10x direct at k=5000 and < 1s at k=1e5",
            id="warm",
        ),
        pytest.param(
            _cold_identity,
            "criterion 7, cold: identity path >= 10x direct at k=5000 and < 1s at k=1e5, "
            "each in a fresh interpreter",
            id="cold",
        ),
    ],
)
def test_criterion_7_fast_path_performance(timed_identity, name):
    fast_seconds, fast = timed_identity(5000)

    started = time.perf_counter()
    direct = lcm_binom_row_direct(5000)
    direct_seconds = time.perf_counter() - started

    values_match = factored_value(fast) == direct
    speedup = direct_seconds / max(fast_seconds, 1e-9)
    big_seconds, _ = timed_identity(100_000)

    ok = values_match and speedup >= 10.0 and big_seconds < 1.0
    _report(
        name,
        ok,
        f"k=5000: identity {fast_seconds:.4f}s vs direct {direct_seconds:.4f}s "
        f"({speedup:.0f}x); k=1e5: {big_seconds:.3f}s; values match: {values_match}",
    )


def test_criterion_8_worker_determinism():
    summaries = [_theorem1_sweep_one_worker()]
    summaries += [verify_range_detailed("theorem1", 0, 2000, workers=w) for w in (4, 8)]
    normalized = {s._replace(elapsed=0.0) for s in summaries}
    ok = len(normalized) == 1 and summaries[0].failures == 0
    _report(
        "criterion 8: identical sweep content for workers in {1, 4, 8}",
        ok,
        f"elapsed {', '.join(f'{s.elapsed:.1f}s' for s in summaries)}",
    )
