import math
import sys
from decimal import Decimal

import pytest

import binomlcm.identities as identities
import binomlcm.verify as verify
from binomlcm import (
    DomainError,
    NotPrimeError,
    UnknownCheckError,
    check_eq3,
    check_hanson,
    check_lower_bound,
    check_proof_chain,
    check_theorem1,
    factored_value,
    lcm_binom_row_identity,
    prop1_at,
    psi_ratio,
    verify_range_detailed,
)


def test_check_theorem1_examples():
    for k, value in [(0, 1), (5, 10), (6, 60)]:
        report = check_theorem1(k)
        assert report.passed and report.witness is None
        assert report.lhs == report.rhs == value


def test_check_lower_bound_examples():
    report = check_lower_bound(1)
    assert report.passed and report.lhs == 1 and report.rhs == 1
    report = check_lower_bound(7)
    assert report.passed and report.lhs == 420 and report.rhs == 64
    report = check_lower_bound(2)
    assert report.passed and report.lhs == 2 and report.rhs == 2
    with pytest.raises(DomainError):
        check_lower_bound(0)


def test_check_proof_chain_examples():
    assert check_proof_chain(1).passed
    report = check_proof_chain(6)
    assert report.passed and report.lhs == 60 and report.rhs == 32
    report = check_proof_chain(8)
    assert report.passed and report.lhs == 840 and report.rhs == 128
    with pytest.raises(DomainError):
        check_proof_chain(0)


def test_check_hanson_examples():
    assert check_hanson(1).passed
    report = check_hanson(7)
    assert report.passed and report.lhs == 420 and report.rhs == 3**7
    report = check_hanson(10)
    assert report.passed and report.lhs == 2520 and report.rhs == 59049


def test_eq3_sides_stop_at_n():
    report = check_eq3(10)
    assert report.lhs == report.rhs == {2: 3, 3: 2, 5: 1, 7: 1}


def test_prop1_at_compares_formula_with_scan():
    report = prop1_at(5, 2)
    assert report.passed and report.lhs == report.rhs == 1
    assert prop1_at(0, 5) == verify.CheckReport(0, 0, None)
    with pytest.raises(NotPrimeError):
        prop1_at(5, 4)


# 10**4999 as an int, as a factored map and as text: 5000 digits, past
# CPython's default int->str limit of 4300.
HUGE = 10**4999
HUGE_MAP = {2: 4999, 5: 4999}
HUGE_TEXT = "1" + "0" * 4999

# check, the verify name one side looks up, a fake of it built from the real
# function, the swept range, and the failing inputs and first witness the
# sweep must report. Each sweep runs under the default digit limit, so a
# 5000-digit side shows that a failure stays data at any size.
BROKEN_SIDES = [
    pytest.param("theorem1", "lcm_binom_row_direct",
        lambda real: lambda k: 999 if k in (5, 9) else real(k),
        (0, 12), (5, 9), "k=5: identity path 10 != direct fold 999",
        id="theorem1"),
    pytest.param("prop1", "row_max_vp_bruteforce",
        lambda real: lambda k, p: real(k, p) + (k in (6, 9) and p in (3, 5)),
        (0, 12), (6, 9), "p=3: digit formula 1 != row scan 2",
        id="prop1-scan"),
    pytest.param("prop1", "vp_binomial_kummer",
        lambda real: lambda n, k, p: real(n, k, p) + (n == 5),
        (0, 12), (5,), "p=2: valuation 2 at witness index 3 != row maximum 1",
        id="prop1-witness-index"),
    pytest.param("eq3", "lcm_range_factored",
        lambda real: lambda n: {p: e for p, e in real(n).items() if p != 7},
        (1, 12), (7, 8, 9, 10, 11, 12), "n=7: power-fit map value 60 != fold lcm 420",
        id="eq3-missing-prime"),
    pytest.param("eq3", "lcm_range_factored",
        lambda real: lambda n: {**real(n), 3: 3} if n in (9, 10) else real(n),
        (1, 12), (9, 10), "p=3: power-fit exponent 3 != fold valuation 2",
        id="eq3-exponent"),
    pytest.param("eq4", "vp_successor_formula",
        lambda real: lambda k, p: real(k, p) + (k in (3, 8)),
        (1, 12), (3, 8), "p=2: rollover formula 3 != v_p(k+1) 2",
        id="eq4-rollover"),
    pytest.param("eq5", "vp_row_lcm_formula",
        lambda real: lambda k, p: real(k, p) + (k in (2, 11) and p == 3),
        (1, 12), (2, 11), "p=3: row-lcm formula 1 != range/successor difference 0",
        id="eq5-formula"),
    pytest.param("eq5", "vp",
        lambda real: lambda n, p: real(n, p) + (n == 8 and p == 2),
        (1, 12), (7,), "p=2: row-lcm formula 0 != range/successor difference -1",
        id="eq5-division"),
    pytest.param("lower-bound", "lcm_range_factored",
        lambda real: lambda n: {} if n in (5, 9) else real(n),
        (1, 12), (5, 9), "n=5: lcm(1..n) = 1 < 2^(n-1) = 16",
        id="lower-bound"),
    pytest.param("proof-chain", "lcm_binom_row_direct",
        lambda real: lambda k: 2 * real(k) if k in (4, 10) else real(k),
        (1, 12), (5, 11), "lcm(1..n) = 60 != n * row lcm = 120",
        id="proof-chain"),
    pytest.param("hanson", "lcm_range_factored",
        lambda real: lambda n: {2: 2 * n} if n in (4, 6) else real(n),
        (1, 12), (4, 6), "n=4: lcm(1..n) = 256 > 3^n = 81",
        id="hanson"),
    pytest.param("theorem1", "lcm_binom_row_direct",
        lambda real: lambda k: HUGE if k == 5 else real(k),
        (0, 8), (5,), f"k=5: identity path 10 != direct fold {HUGE_TEXT}",
        id="theorem1-5000-digits"),
    pytest.param("eq3", "factored_value",
        lambda real: lambda f: HUGE if f == {2: 2, 3: 1, 5: 1, 7: 1} else real(f),
        (1, 8), (7,), f"n=7: power-fit map value {HUGE_TEXT} != fold lcm 420",
        id="eq3-5000-digits"),
    pytest.param("lower-bound", "lcm_range_factored",
        lambda real: lambda n: {} if n == 16610 else real(n),
        (16609, 16611), (16610,), f"n=16610: lcm(1..n) = 1 < 2^(n-1) = {Decimal(1 << 16609)}",
        id="lower-bound-5000-digits"),
    pytest.param("proof-chain", "lcm_range_factored",
        lambda real: lambda n: HUGE_MAP if n == 5 else real(n),
        (1, 8), (5,), f"lcm(1..n) = {HUGE_TEXT} != n * row lcm = 60",
        id="proof-chain-5000-digits"),
    pytest.param("hanson", "lcm_range_factored",
        lambda real: lambda n: HUGE_MAP if n == 4 else real(n),
        (1, 8), (4,), f"n=4: lcm(1..n) = {HUGE_TEXT} > 3^n = 81",
        id="hanson-5000-digits"),
]


@pytest.mark.parametrize("check, name, fake, bounds, failing, witness", BROKEN_SIDES)
def test_broken_side_fails_the_sweep(monkeypatch, digit_limit, check, name, fake, bounds,
                                    failing, witness):
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    summary = verify_range_detailed(check, *bounds, workers=1)
    assert summary.failing == failing
    assert summary.first_witness == witness


# The routes a check compares share no kernel. One side per row, one input,
# and the kernels that side must not reach; each is replaced by one that
# raises in every binomlcm module that binds it, so a late
# `from .exact import ...` inside a function meets the replacement too.
ISOLATED_SIDES = [
    pytest.param(identities.lcm_binom_row_direct, (30,),
        ["primes_upto", "vp", "vp_lcm_range", "lcm_range_factored", "lcm_binom_row_identity",
         "factored_value"],
        id="theorem1-fold"),
    pytest.param(lambda k: factored_value(lcm_binom_row_identity(k)), (30,),
        ["binomial_row", "lcm_binom_row_direct"],
        id="theorem1-identity"),
    pytest.param(identities.row_max_vp_bruteforce, (30, 2),
        ["expand", "_digit_span", "row_max_vp"],
        id="prop1-scan"),
    pytest.param(identities.row_max_vp, (30, 2), ["row_max_vp_bruteforce"], id="prop1-formula"),
    pytest.param(identities.vp_successor_formula, (23, 2), ["vp"], id="eq4-formula"),
    pytest.param(identities.vp_row_lcm_formula, (30, 3), ["vp", "vp_lcm_range"], id="eq5-formula"),
    pytest.param(identities.lcm_range_factored, (30,), ["vp", "binomial_row"], id="eq3-power-fit"),
]


@pytest.mark.parametrize("side, args, forbidden", ISOLATED_SIDES)
def test_side_reaches_no_forbidden_kernel(monkeypatch, side, args, forbidden):
    expected = side(*args)
    modules = [module for name, module in sys.modules.items()
               if name == "binomlcm" or name.startswith("binomlcm.")]
    for name in forbidden:
        def reached(*_, name=name):
            raise AssertionError(f"reached {name}")

        binders = [module for module in modules if name in vars(module)]
        assert binders, f"no binomlcm module binds {name}"
        for module in binders:
            monkeypatch.setattr(module, name, reached)
    assert side(*args) == expected


def test_eq5_sees_a_shifted_digit_span(monkeypatch):
    """The formula side reads digits; the difference side must not, or a
    shift in the shared digit helper cancels out of the comparison."""
    real = identities._digit_span

    def shifted(k, p):
        top, lowest_open = real(k, p)
        return top, None if lowest_open is None else lowest_open + 1

    monkeypatch.setattr(identities, "_digit_span", shifted)
    eq4 = verify_range_detailed("eq4", 1, 60)
    eq5 = verify_range_detailed("eq5", 1, 60)
    assert eq4.failing == eq5.failing == tuple(range(1, 61))
    assert eq5.first_witness == "p=3: row-lcm formula -1 != range/successor difference 0"


def test_psi_ratio_values():
    assert psi_ratio(1) == 0.0
    assert abs(psi_ratio(2) - math.log(2) / 2) < 1e-12
    assert abs(psi_ratio(10) - math.log(2520) / 10) < 1e-12
    with pytest.raises(DomainError):
        psi_ratio(0)


def test_verify_range_counts_and_summary():
    summary = verify_range_detailed("theorem1", 0, 200, 1)
    assert summary.failures == 0
    assert summary.total == 201
    assert summary.first_failure is None
    assert summary.elapsed > 0

    summary = verify_range_detailed("lower-bound", 1, 1, 4)
    assert summary.failures == 0 and summary.total == 1


def test_verify_range_is_worker_independent(monkeypatch):
    results = [verify_range_detailed("theorem1", 0, 60, workers) for workers in (1, 2, 3)]
    normalized = {s._replace(elapsed=0.0) for s in results}
    assert len(normalized) == 1

    real = verify.lcm_binom_row_direct
    monkeypatch.setattr(verify, "lcm_binom_row_direct",
                        lambda k: 999 if k in (3, 17, 18, 40) else real(k))
    results = [verify_range_detailed("theorem1", 0, 45, workers) for workers in (1, 2, 3)]
    normalized = {s._replace(elapsed=0.0) for s in results}
    (summary,) = normalized
    assert summary.failing == (3, 17, 18, 40)
    assert summary.first_witness == verify.check_theorem1(3).witness


def test_verify_range_domain_errors():
    with pytest.raises(UnknownCheckError):
        verify_range_detailed("no-such-check", 0, 10)
    with pytest.raises(DomainError):
        verify_range_detailed("theorem1", 5, 2)
    with pytest.raises(DomainError):
        verify_range_detailed("theorem1", 0, 5, workers=0)
    with pytest.raises(DomainError):
        verify_range_detailed("lower-bound", 0, 3, workers=1)


def test_pool_gets_contiguous_chunks_and_at_most_one_worker_per_input(pools):
    summary = verify_range_detailed("lower-bound", 1, 32, workers=2)
    assert pools[-1] == (2, [(a, a + 1) for a in range(1, 33, 2)])
    assert summary.total == 32 and summary.failures == 0

    verify_range_detailed("lower-bound", 1, 37, workers=2)
    assert pools[-1] == (2, [(a, min(a + 1, 37)) for a in range(1, 38, 2)])

    verify_range_detailed("lower-bound", 1, 3, workers=5000)
    assert pools[-1] == (3, [(1, 1), (2, 2), (3, 3)])

    summary = verify_range_detailed("lower-bound", 7, 7, workers=5000)
    assert len(pools) == 3 and summary.total == 1 and summary.failures == 0

    verify_range_detailed("lower-bound", 1, 200, workers=5000)
    assert pools[-1][0] == verify.MAX_WORKERS == 61


@pytest.mark.parametrize("check, lo, hi", [("eq4", 0, 300000), ("theorem1", -1, 50)])
def test_pooled_sweep_rejects_out_of_domain_range_before_any_pool(pools, check, lo, hi):
    lowest = verify._DOMAIN[check][0]
    with pytest.raises(DomainError, match=f"check {check} expects inputs >= {lowest}, got {lo}"):
        verify_range_detailed(check, lo, hi, workers=2)
    assert pools == []


def test_domain_table_names_every_check_and_its_smallest_input():
    assert set(verify._DOMAIN) == set(verify.CHECKS)
    for check, (lowest, _) in verify._DOMAIN.items():
        assert verify.CHECKS[check](lowest).passed


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_check_refuses_each_domain_end_before_any_fold(monkeypatch, check):
    """A direct call past either end of the domain is refused by the first
    kernel the check calls, before any fold or row runs: at the sieve
    ceiling a fold would build a 1e8-entry argument list first."""
    def fold(*_):
        raise AssertionError("a fold ran outside the domain")

    for name in ("lcm_binom_row_direct", "binomial", "row_max_vp_bruteforce"):
        monkeypatch.setattr(verify, name, fold)
    monkeypatch.setattr(math, "lcm", fold)
    monkeypatch.setattr(verify, "range", fold, raising=False)
    lowest, highest = verify._DOMAIN[check]
    with pytest.raises(DomainError):
        verify.CHECKS[check](lowest - 1)
    if highest < math.inf:
        with pytest.raises(DomainError):
            verify.CHECKS[check](highest + 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_sweep_refuses_a_range_past_either_end_before_any_input(monkeypatch, pools, check,
                                                                workers):
    def run(n):
        raise AssertionError(f"input {n} ran")

    monkeypatch.setitem(verify.CHECKS, check, run)
    lowest, highest = verify._DOMAIN[check]
    with pytest.raises(DomainError) as below:
        verify_range_detailed(check, lowest - 1, lowest, workers)
    assert str(below.value) == f"check {check} expects inputs >= {lowest}, got {lowest - 1}"
    if highest < math.inf:
        with pytest.raises(DomainError) as above:
            verify_range_detailed(check, highest, highest + 1, workers)
        assert str(above.value) == f"check {check} expects inputs <= {highest}, got {highest + 1}"
    assert pools == []


def test_check_report_is_both_sides_and_the_witness():
    assert verify.CheckReport._fields == ("lhs", "rhs", "witness")
    assert verify.CheckReport(0, 1, "w").passed is False
    assert verify.CheckReport(1, 1, None).passed is True
    report = verify.CheckReport(0, 1, "w")
    with pytest.raises(AttributeError):
        report.passed = True


def test_range_summary_stores_failing_inputs_once():
    assert verify.RangeSummary._fields == (
        "check_name", "lo", "hi", "failing", "first_witness", "elapsed",
    )
    summary = verify.RangeSummary("eq4", 3, 12, (4, 7, 11), "w4", 0.5)
    assert (summary.total, summary.failures, summary.first_failure) == (10, 3, 4)
    clean = verify.RangeSummary("eq4", 3, 3, (), None, 0.5)
    assert (clean.total, clean.failures, clean.first_failure) == (1, 0, None)
    with pytest.raises(AttributeError):
        clean.total = 2


def test_row_max_result_is_the_maximum_and_its_index():
    assert identities.RowMaxResult._fields == ("max_valuation", "attained_at")
    result = identities.row_max_vp(5, 2)
    assert result == identities.RowMaxResult(max_valuation=1, attained_at=3)
    with pytest.raises(AttributeError):
        result.max_valuation = 2
