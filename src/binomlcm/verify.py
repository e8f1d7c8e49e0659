"""Verification harness: every check recomputes one identity or bound along
two independent routes and reports both sides plus, on disagreement, a
witness. Failures are data, not exceptions; a sweep finishes the whole
range and returns one RangeSummary of its failing inputs and the first
witness, identical for every worker count."""

from __future__ import annotations

import math
import time
from decimal import Decimal
from itertools import repeat
from typing import Callable, NamedTuple, Union

from .errors import DomainError, UnknownCheckError
from .exact import SIEVE_LIMIT, binomial, factored_value, primes_upto
from .identities import (
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    row_max_vp,
    row_max_vp_bruteforce,
    vp_lcm_range,
    vp_row_lcm_formula,
    vp_successor_formula,
)
from .padic import vp, vp_binomial_kummer

__all__ = [
    "CheckReport",
    "RangeSummary",
    "check_theorem1",
    "check_prop1",
    "prop1_at",
    "check_eq3",
    "check_eq4",
    "check_eq5",
    "check_lower_bound",
    "check_proof_chain",
    "check_hanson",
    "psi_ratio",
    "verify_range_detailed",
    "CHECKS",
]

# Per-input prime sweep bound for the digit-formula checks.
CHECK_PRIME_BOUND = 50

# Most sweep workers, whatever --jobs asks for: the pool starts every worker
# up front, and 61 is the largest max_workers ProcessPoolExecutor accepts on
# Windows.
MAX_WORKERS = 61

Side = Union[int, dict[int, int]]


class CheckReport(NamedTuple):
    """Outcome of one check at one input: both sides, and on failure a
    witness naming the first divergence."""

    lhs: Side
    rhs: Side
    witness: str | None

    @property
    def passed(self) -> bool:
        return self.witness is None


class RangeSummary(NamedTuple):
    """A sweep over [lo, hi]: its failing inputs, ascending, and the witness
    of the first of them, both independent of execution order."""

    check_name: str
    lo: int
    hi: int
    failing: tuple[int, ...]
    first_witness: str | None
    elapsed: float

    @property
    def total(self) -> int:
        return self.hi - self.lo + 1

    @property
    def failures(self) -> int:
        return len(self.failing)

    @property
    def first_failure(self) -> int | None:
        return self.failing[0] if self.failing else None


# (lowest, highest) input of each check. highest is the sieve ceiling of the
# range map the check builds (of k + 1 for theorem1); prop1, eq4 and eq5 build
# none. A sweep checks both ends here; a direct call is refused by the kernel
# the check calls first.
_DOMAIN = {"theorem1": (0, SIEVE_LIMIT - 1), "prop1": (0, math.inf),
           "eq3": (1, SIEVE_LIMIT), "eq4": (1, math.inf), "eq5": (1, math.inf),
           "lower-bound": (1, SIEVE_LIMIT), "proof-chain": (1, SIEVE_LIMIT),
           "hanson": (1, SIEVE_LIMIT)}


def _int_text(n: int) -> str:
    """str(n) for a witness, at any size: Decimal's text is the int's, but
    is not bound by the interpreter's int->str digit limit."""
    return str(Decimal(n))


def _at_each_prime(k: int, at: Callable[[int, int], CheckReport]) -> CheckReport:
    """One per-prime comparison at every prime up to the sweep bound, merged
    into prime -> side maps; the witness is that of the smallest failing
    prime."""
    reports = {p: at(k, p) for p in primes_upto(CHECK_PRIME_BOUND)}
    witness = next((r.witness for r in reports.values() if not r.passed), None)
    return CheckReport({p: r.lhs for p, r in reports.items()},
                       {p: r.rhs for p, r in reports.items()}, witness)


def check_theorem1(k: int) -> CheckReport:
    """Row lcm two ways: factored fast path vs. big-integer fold over the row."""
    identity = factored_value(lcm_binom_row_identity(k))
    direct = lcm_binom_row_direct(k)
    witness = None
    if identity != direct:
        witness = f"k={k}: identity path {_int_text(identity)} != direct fold {_int_text(direct)}"
    return CheckReport(identity, direct, witness)


def prop1_at(k: int, p: int) -> CheckReport:
    """Prop. 1 at one prime: the digit formula's row maximum vs. the row
    scan, then the valuation at the formula's witness index vs. the scan."""
    result = row_max_vp(k, p)
    scanned = row_max_vp_bruteforce(k, p)
    witness = None
    if result.max_valuation != scanned:
        witness = f"p={p}: digit formula {result.max_valuation} != row scan {scanned}"
    elif result.attained_at is not None:
        at_witness = vp_binomial_kummer(k, result.attained_at, p)
        if at_witness != scanned:
            witness = (
                f"p={p}: valuation {at_witness} at witness index "
                f"{result.attained_at} != row maximum {scanned}"
            )
    return CheckReport(result.max_valuation, scanned, witness)


def check_prop1(k: int) -> CheckReport:
    """prop1_at at every prime up to the sweep bound."""
    return _at_each_prime(k, prop1_at)


def check_eq3(n: int) -> CheckReport:
    """Range-lcm exponents: largest-power formula vs. valuations of the fold
    oracle at every prime of the map, then the map's value vs. the fold, so
    a prime missing from the map fails too."""
    formula = lcm_range_factored(n)
    fold = math.lcm(*range(1, n + 1))
    direct = {p: vp(fold, p) for p in formula}
    mismatches = (f"p={p}: power-fit exponent {e} != fold valuation {direct[p]}"
                  for p, e in formula.items() if e != direct[p])
    witness = next(mismatches, None)
    if witness is None and (value := factored_value(formula)) != fold:
        witness = f"n={n}: power-fit map value {_int_text(value)} != fold lcm {_int_text(fold)}"
    return CheckReport(formula, direct, witness)


def _eq4_at(k: int, p: int) -> CheckReport:
    """Successor valuation at one prime: digit-rollover formula vs. direct
    division count."""
    formula = vp_successor_formula(k, p)
    direct = vp(k + 1, p)
    witness = None
    if formula != direct:
        witness = f"p={p}: rollover formula {formula} != v_p(k+1) {direct}"
    return CheckReport(formula, direct, witness)


def check_eq4(k: int) -> CheckReport:
    """_eq4_at at every prime up to the sweep bound."""
    return _at_each_prime(k, _eq4_at)


def _eq5_at(k: int, p: int) -> CheckReport:
    """Row-lcm exponent at one prime: the formula, read off the digits of k,
    vs. the range exponent of k+1 less v_p(k+1) by division, which reads no
    digit."""
    formula = vp_row_lcm_formula(k, p)
    difference = vp_lcm_range(k + 1, p) - vp(k + 1, p)
    witness = None
    if formula != difference:
        witness = f"p={p}: row-lcm formula {formula} != range/successor difference {difference}"
    return CheckReport(formula, difference, witness)


def check_eq5(k: int) -> CheckReport:
    """_eq5_at at every prime up to the sweep bound."""
    return _at_each_prime(k, _eq5_at)


def check_lower_bound(n: int) -> CheckReport:
    """lcm(1..n) >= 2**(n-1), compared as exact integers."""
    range_lcm = factored_value(lcm_range_factored(n))
    floor = 1 << (n - 1)
    witness = None
    if range_lcm < floor:
        witness = f"n={n}: lcm(1..n) = {_int_text(range_lcm)} < 2^(n-1) = {_int_text(floor)}"
    return CheckReport(range_lcm, floor, witness)


def check_proof_chain(n: int) -> CheckReport:
    """The three exact links from the row at n-1 up to the power-of-two floor:
    lcm(1..n) = n * row lcm, n * row max >= 2**(n-1), lcm(1..n) >= n * row max.
    The row is unimodal, so its max is the central entry C(n-1, (n-1) // 2)."""
    range_lcm = factored_value(lcm_range_factored(n))
    row_lcm = lcm_binom_row_direct(n - 1)
    row_max = binomial(n - 1, (n - 1) // 2)
    floor = 1 << (n - 1)
    broken = []
    if range_lcm != n * row_lcm:
        broken.append(f"lcm(1..n) = {_int_text(range_lcm)} != n * row lcm = {_int_text(n * row_lcm)}")
    if n * row_max < floor:
        broken.append(f"n * row max = {_int_text(n * row_max)} < 2^(n-1) = {_int_text(floor)}")
    if range_lcm < n * row_max:
        broken.append(f"lcm(1..n) = {_int_text(range_lcm)} < n * row max = {_int_text(n * row_max)}")
    witness = "; ".join(broken) if broken else None
    return CheckReport(range_lcm, floor, witness)


def check_hanson(n: int) -> CheckReport:
    """lcm(1..n) <= 3**n, compared as exact integers."""
    range_lcm = factored_value(lcm_range_factored(n))
    ceiling = 3**n
    witness = None
    if range_lcm > ceiling:
        witness = f"n={n}: lcm(1..n) = {_int_text(range_lcm)} > 3^n = {_int_text(ceiling)}"
    return CheckReport(range_lcm, ceiling, witness)


def psi_ratio(n: int) -> float:
    """log lcm(1..n) divided by n, summed from the factored representation
    so the huge value itself is never constructed. Diagnostic output only."""
    if n < 1:
        raise DomainError(f"psi_ratio expects n >= 1, got {n}")
    log_lcm = sum(e * math.log(p) for p, e in lcm_range_factored(n).items())
    return log_lcm / n


CHECKS = {
    "theorem1": check_theorem1,
    "prop1": check_prop1,
    "eq3": check_eq3,
    "eq4": check_eq4,
    "eq5": check_eq5,
    "lower-bound": check_lower_bound,
    "proof-chain": check_proof_chain,
    "hanson": check_hanson,
}


def _failing_in(check: str, lo: int, hi: int) -> list[tuple[int, str]]:
    """(input, witness) for each failing input of one named check over
    [lo, hi], ascending."""
    run = CHECKS[check]
    reports = ((value, run(value)) for value in range(lo, hi + 1))
    return [(value, report.witness) for value, report in reports if not report.passed]


def verify_range_detailed(check: str, lo: int, hi: int, workers: int = 1) -> RangeSummary:
    """Run one named check on every input in [lo, hi] and summarize it.

    Workers get contiguous ascending chunks, concatenated in chunk order, so
    the summary never depends on worker count or scheduling. A range past
    either end of the check's domain is rejected before any input runs, so
    the error is also the same at every worker count. The process pool is
    imported only when one starts.
    """
    if check not in CHECKS:
        raise UnknownCheckError(f"unknown check {check!r}; expected one of {sorted(CHECKS)}")
    if lo > hi:
        raise DomainError(f"empty range: from={lo} > to={hi}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    lowest, highest = _DOMAIN[check]
    if lo < lowest:
        raise DomainError(f"check {check} expects inputs >= {lowest}, got {lo}")
    if hi > highest:
        raise DomainError(f"check {check} expects inputs <= {highest}, got {hi}")
    started = time.perf_counter()
    total = hi - lo + 1
    workers = min(workers, total, MAX_WORKERS)
    if workers == 1:
        chunks = [_failing_in(check, lo, hi)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, total // (workers * 8))
        starts = range(lo, hi + 1, size)
        ends = (min(start + size - 1, hi) for start in starts)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_failing_in, repeat(check), starts, ends))
    failed = [pair for chunk in chunks for pair in chunk]
    return RangeSummary(
        check_name=check,
        lo=lo,
        hi=hi,
        failing=tuple(value for value, _ in failed),
        first_witness=failed[0][1] if failed else None,
        elapsed=time.perf_counter() - started,
    )
