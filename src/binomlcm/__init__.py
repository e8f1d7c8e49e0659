"""Exact lcm identities for binomial coefficient rows.

The lcm of the row C(k, 0), ..., C(k, k) equals lcm(1, ..., k+1) / (k+1);
this package computes both sides independently (a per-prime digit-formula
fast path and a big-integer fold oracle), exposes the underlying p-adic
valuation machinery, and ships a verification harness plus CLI that sweep
the identities and the classical 2^(n-1) <= lcm(1..n) <= 3^n bounds.
"""

from .errors import (
    DomainError,
    InternalInvariantError,
    NotPrimeError,
    OutOfRangeError,
    UnknownCheckError,
    ZeroOperandError,
    ZeroValueError,
)
from .exact import (
    binomial,
    binomial_row,
    factored_decimal,
    factored_value,
    is_prime,
    primes_upto,
    require_prime,
    validate_factored,
)
from .identities import (
    RowMaxResult,
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    row_max_vp,
    row_max_vp_bruteforce,
    vp_lcm_range,
    vp_row_lcm_formula,
    vp_successor_formula,
)
from .padic import (
    carries_when_adding,
    expand,
    vp,
    vp_binomial_kummer,
    vp_binomial_legendre,
    vp_factorial,
)
from .verify import (
    CHECKS,
    CheckReport,
    RangeSummary,
    check_eq3,
    check_eq4,
    check_eq5,
    check_hanson,
    check_lower_bound,
    check_proof_chain,
    check_prop1,
    check_theorem1,
    psi_ratio,
    verify_range_detailed,
)

__version__ = "0.1.0"
