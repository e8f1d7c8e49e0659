"""Mutation runner: every mutant in MUTANTS must make its killing test fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

The runner copies src/, tests/ and pyproject.toml into one temporary
directory and runs every distinct killing test there unmutated, in one pytest
call that must exit 0. Pytest loads no plugin but hypothesis's. Then, for
each mutant in turn, it replaces the one occurrence of the old text with the
new text in that copy, runs the killing test, and restores the file. Only
pytest's exit code 1 (a test failed) counts as a kill. Any other exit code,
such as 4 or 5 for a node id that names no test, fails the runner as a
surviving mutant does. No bytecode is written, so a restored source never
meets its mutant's cached .pyc. The runner exits 0 when every mutant is
killed and 1 otherwise.

Mutation testing follows DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978. This file uses the standard library
only; tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# id, file, old text (must occur exactly once), new text, killing test node id
MUTANTS = [
    ("shared-kernel", "src/binomlcm/identities.py",
     "    return reduce(math.lcm, binomial_row(k))\n",
     "    from .exact import factored_value\n"
     "    return factored_value(lcm_binom_row_identity(k))\n",
     "tests/test_verify.py::test_side_reaches_no_forbidden_kernel[theorem1-fold]"),
    ("range-map-descending", "src/binomlcm/identities.py",
     "factors = dict.fromkeys(primes, 1)",
     "factors = dict.fromkeys(reversed(primes), 1)",
     "tests/test_identities.py::test_lcm_range_factored_is_the_power_fit_map"),
    ("row-map-keeps-zero-exponents", "src/binomlcm/identities.py",
     "        if exponent:\n            factors[p] = exponent\n        else:\n            del factors[p]\n",
     "        factors[p] = exponent\n",
     "tests/test_identities.py::test_row_identity_examples"),
    ("range-exponent-misses-exact-power", "src/binomlcm/identities.py",
     "    while power <= n:\n        exponent += 1\n",
     "    while power < n:\n        exponent += 1\n",
     "tests/test_identities.py::test_vp_lcm_range_examples"),
    ("cli-caret", "src/binomlcm/cli.py",
     'f"{p}^{e}"',
     'f"{p}**{e}"',
     "tests/test_cli.py::test_cli_contract[lcm-range-value]"),
    ("cli-digit-limit-not-restored", "src/binomlcm/cli.py",
     "    finally:\n        sys.set_int_max_str_digits(found)\n",
     "    finally:\n        pass\n",
     "tests/test_cli.py::test_cli_contract[vp]"),
    ("cli-input-not-stringified", "src/binomlcm/cli.py",
     '"input": {key: str(value) for key, value in inputs.items()},',
     '"input": inputs,',
     "tests/test_cli.py::test_cli_contract[vp-json]"),
    ("cli-error-to-stdout", "src/binomlcm/cli.py",
     'print(f"error: {exc}", file=sys.stderr)',
     'print(f"error: {exc}")',
     "tests/test_cli.py::test_cli_contract[vp-composite-p]"),
    ("cli-chunk-joint-without-separator", "src/binomlcm/cli.py",
     "        write(sep + chunk)\n",
     "        write(chunk)\n",
     "tests/test_cli.py::test_factored_output_matches_whole_record[json-lcm-binom-row-720719]"),
    ("cli-failed-check-exits-0", "src/binomlcm/cli.py",
     "    return 0 if ok else 1\n",
     "    return 0\n",
     "tests/test_cli.py::test_verify_failure_exit_and_listing"),
    ("cli-pairs-reversed", "src/binomlcm/cli.py",
     "for p, e in factors.items())",
     "for p, e in reversed(factors.items()))",
     "tests/test_cli.py::test_factored_output_matches_whole_record[json-lcm-binom-row-720719]"),
    ("cli-broken-pipe-exits-1", "src/binomlcm/cli.py",
     "        return 141\n",
     "        return 1\n",
     "tests/test_cli.py::test_closed_stdout_exits_141_quietly"),
    ("tree-drops-odd-last-leaf", "src/binomlcm/exact.py",
     "_tree_product(leaves[half:])",
     "_tree_product(leaves[half : 2 * half])",
     "tests/test_exact.py::test_kernel_takes_a_map_or_pairs_from_any_iterable"),
    ("kernel-drops-last-partial-block", "src/binomlcm/exact.py",
     "    while block := list(islice(pairs, _BLOCK)):",
     "    while len(block := list(islice(pairs, _BLOCK))) == _BLOCK:",
     "tests/test_exact.py::test_kernel_takes_a_map_or_pairs_from_any_iterable"),
    ("kernel-ignores-exponents", "src/binomlcm/exact.py",
     "product = math.prod(starmap(pow, block))",
     "product = math.prod(p for p, e in block)",
     "tests/test_exact.py::test_kernel_takes_a_map_or_pairs_from_any_iterable"),
    ("base-multiple-passes", "src/binomlcm/exact.py",
     "            return n == p",
     "            return True",
     "tests/test_exact.py::test_is_prime_agrees_with_trial_division"),
    ("sieve-keeps-squares", "src/binomlcm/exact.py",
     "start = p * p // 2",
     "start = p * p // 2 + p",
     "tests/test_exact.py::test_primes_upto_agrees_with_trial_division"),
    ("sieve-start-index-not-halved", "src/binomlcm/exact.py",
     "start = p * p // 2",
     "start = p * p",
     "tests/test_exact.py::test_primes_upto_agrees_with_trial_division"),
    ("block-valuation-offset", "src/binomlcm/identities.py",
     "first = -lo % power",
     "first = lo % power",
     "tests/test_identities.py::test_row_walk_matches_full_row_kummer_route"),
    ("rollover-misses-carry-out", "src/binomlcm/identities.py",
     "return top + 1 if lowest_open is None",
     "return top if lowest_open is None",
     "tests/test_acceptance.py::test_criterion_4_formula_checks"),
    ("row-lcm-formula-shifted", "src/binomlcm/identities.py",
     "row_max_vp(k, p).max_valuation",
     "row_max_vp(k + 1, p).max_valuation",
     "tests/test_acceptance.py::test_criterion_4_formula_checks"),
    ("range-map-short-at-4096", "src/binomlcm/identities.py",
     "        while power <= n:\n            exponent += 1\n",
     "        while power <= n - (n == 4096):\n            exponent += 1\n",
     "tests/test_identities.py::test_lcm_range_factored_is_the_power_fit_map"),
    ("range-exponent-inline-misses-exact-power", "src/binomlcm/identities.py",
     "        while power <= n:\n            exponent += 1\n",
     "        while power < n:\n            exponent += 1\n",
     "tests/test_identities.py::test_lcm_range_factored_is_the_power_fit_map"),
    ("row-drops-prime-cofactor", "src/binomlcm/identities.py",
     "    if rest > 1:\n        factors.pop(rest)\n",
     "",
     "tests/test_identities.py::test_row_identity_matches_digit_formula"),
    ("invariant-guard-off-by-one", "src/binomlcm/identities.py",
     "        if exponent < 0:",
     "        if exponent < -1:",
     "tests/test_identities.py::test_negative_row_exponent_is_an_internal_invariant_failure"),
    ("identity-reads-digit-formula", "src/binomlcm/identities.py",
     "    return _power_fit_map(k + 1, k + 1)\n",
     "    return {p: e for p in primes_upto(k + 1) if k and (e := vp_row_lcm_formula(k, p))}\n",
     "tests/test_verify.py::test_side_reaches_no_forbidden_kernel[theorem1-identity]"),
    ("sweep-ignores-hi", "src/binomlcm/verify.py",
     "    if hi > highest:\n"
     '        raise DomainError(f"check {check} expects inputs <= {highest}, got {hi}")\n',
     "",
     "tests/test_verify.py::test_sweep_refuses_a_range_past_either_end_before_any_input[eq3-1]"),
    ("proof-chain-fold-first", "src/binomlcm/verify.py",
     "    range_lcm = factored_value(lcm_range_factored(n))\n"
     "    row_lcm = lcm_binom_row_direct(n - 1)\n",
     "    row_lcm = lcm_binom_row_direct(n - 1)\n"
     "    range_lcm = factored_value(lcm_range_factored(n))\n",
     "tests/test_verify.py::test_check_refuses_each_domain_end_before_any_fold[proof-chain]"),
    ("eq3-fold-first", "src/binomlcm/verify.py",
     "    formula = lcm_range_factored(n)\n    fold = math.lcm(*range(1, n + 1))\n",
     "    fold = math.lcm(*range(1, n + 1))\n    formula = lcm_range_factored(n)\n",
     "tests/test_verify.py::test_check_refuses_each_domain_end_before_any_fold[eq3]"),
    ("eq3-drops-value-witness", "src/binomlcm/verify.py",
     'f"n={n}: power-fit map value {_int_text(value)} "\n'
     '                                   f"!= fold lcm {_int_text(fold)}")',
     "None)",
     "tests/test_verify.py::test_broken_side_fails_the_sweep[eq3-missing-prime]"),
    ("sweep-witness-of-last-failure", "src/binomlcm/verify.py",
     "CHECKS[check](failing[0]).witness",
     "CHECKS[check](failing[-1]).witness",
     "tests/test_verify.py::test_broken_side_fails_the_sweep[theorem1]"),
    ("sweep-chunks-out-of-order", "src/binomlcm/verify.py",
     "for chunk in chunks for value in chunk",
     "for chunk in reversed(chunks) for value in chunk",
     "tests/test_cli.py::test_verify_failure_exit_and_listing"),
]


def _pytest(tree: Path, *nodes: str) -> int:
    # Only the test dependency's plugin loads: plugin autoloading made each
    # pytest start about a second slower (pytest 9.0, CPython 3.11, Linux).
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-p", "_hypothesis_pytestplugin", *nodes]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(tree: Path, file: str, old: str, new: str, node: str) -> str:
    """Verdict on one mutant of the clean copy at tree: "killed", or why it
    counts as not killed. The file is restored afterwards."""
    target = tree / file
    text = target.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {file}"
    target.write_text(text.replace(old, new))
    try:
        code = _pytest(tree, node)
    finally:
        target.write_text(text)
    if code == 1:
        return "killed"
    return "survived" if code == 0 else f"pytest exits {code} on the mutant"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="binomlcm-mutant-") as temp:
        tree = Path(temp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        nodes = list(dict.fromkeys(node for *_, node in MUTANTS))
        code = _pytest(tree, *nodes)
        print(f"{len(nodes)} killing tests unmutated: pytest exits {code} "
              f"({time.perf_counter() - start:.1f} s)")
        if code != 0:
            return 1
        killed = 0
        for mutant_id, file, old, new, node in MUTANTS:
            began = time.perf_counter()
            verdict = run_mutant(tree, file, old, new, node)
            killed += verdict == "killed"
            print(f"{mutant_id}: {verdict} ({node}, {time.perf_counter() - began:.1f} s)")
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
