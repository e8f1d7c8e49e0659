import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest

import binomlcm.cli as cli
import binomlcm.verify as verify
from binomlcm import DomainError
from binomlcm.cli import main
from binomlcm.exact import PRIMALITY_LIMIT, SIEVE_LIMIT, factored_decimal
from binomlcm.identities import lcm_binom_row_identity, lcm_range_factored
from binomlcm.verify import CheckReport
from fresh_python import fresh_env, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(out):
    lines = [line for line in out.splitlines() if line.strip()]
    records = [json.loads(line) for line in lines]
    for record in records:
        assert set(record) == {"op", "input", "output", "ok"}
    return records


# The CLI's contract, one row per argv: id, argv, and the exact exit code,
# stdout and stderr of main, with verify's elapsed time masked as *. Every
# error row is a ValueError: exit 2, no stdout and one "error: <message>" line
# on stderr. The readme-* rows, vp, digits and lcm-range-value are the
# examples of README.md's CLI block.
CONTRACT = [
    ("vp", "vp 12 2", 0, "2\n", ""),
    ("vp-json", "vp 12 2 --json", 0,
     '{"op": "vp", "input": {"n": "12", "p": "2"}, "output": "2", "ok": true}\n', ""),
    ("vp-composite-p", "vp 12 9", 2, "", "error: p must be prime, got 9\n"),
    ("vp-psi12", f"vp {PRIMALITY_LIMIT**2} {PRIMALITY_LIMIT}", 2, "",
     f"error: primality is decided only below {PRIMALITY_LIMIT}, got {PRIMALITY_LIMIT}\n"),
    # 4772 digits, read by main's own argparse under the caller's limit
    ("vp-past-digit-limit", f"vp {Decimal(3**10000)} 3", 0, "10000\n", ""),
    ("vp-binom-kummer", "vp-binom 5 2 2", 0, "1\n", ""),
    ("readme-vp-binom-kummer", "vp-binom 5 2 2 --method kummer", 0, "1\n", ""),
    ("vp-binom-legendre", "vp-binom 5 2 2 --method legendre", 0, "1\n", ""),
    ("vp-binom-direct-json", "vp-binom 5 2 2 --method direct --json", 0,
     '{"op": "vp-binom", "input": {"n": "5", "k": "2", "p": "2", "method": "direct"}, '
     '"output": "1", "ok": true}\n', ""),
    ("vp-binom-k-above-n", "vp-binom 3 5 2", 2, "",
     "error: vp_binomial_kummer expects k <= n, got n=3, k=5\n"),
    ("digits", "digits 5 2", 0, "5 in base 2: [1, 0, 1] (least significant first)\n", ""),
    ("digits-json", "digits 5 2 --json", 0,
     '{"op": "digits", "input": {"k": "5", "p": "2"}, "output": [1, 0, 1], "ok": true}\n', ""),
    ("digits-zero-json", "digits 0 2 --json", 0,
     '{"op": "digits", "input": {"k": "0", "p": "2"}, "output": [], "ok": true}\n', ""),
    ("row-max-oracle", "row-max 5 2 --oracle --json", 0,
     '{"op": "row-max", "input": {"k": "5", "p": "2"}, '
     '"output": {"max_valuation": 1, "attained_at": "3", "oracle": 1}, "ok": true}\n', ""),
    ("readme-row-max-oracle", "row-max 20 3 --oracle", 0,
     "max v_3 over row 20: 1 (attained at index 8)\nrow scan oracle: 1 (agrees)\n", ""),
    ("row-max-zero", "row-max 0 2 --json", 0,
     '{"op": "row-max", "input": {"k": "0", "p": "2"}, '
     '"output": {"max_valuation": 0, "attained_at": null}, "ok": true}\n', ""),
    # the row scan over many blocks of indices, at a deep and a shallow prime
    ("row-max-many-blocks-2", "row-max 999999 2 --oracle --json", 0,
     '{"op": "row-max", "input": {"k": "999999", "p": "2"}, '
     '"output": {"max_valuation": 13, "attained_at": "524287", "oracle": 13}, "ok": true}\n', ""),
    ("row-max-many-blocks-47", "row-max 999999 47 --oracle --json", 0,
     '{"op": "row-max", "input": {"k": "999999", "p": "47"}, '
     '"output": {"max_valuation": 3, "attained_at": "103822", "oracle": 3}, "ok": true}\n', ""),
    ("lcm-range-value", "lcm-range 10 --value", 0, "lcm(1..10) = 2^3 * 3^2 * 5 * 7 = 2520\n", ""),
    ("lcm-range-value-json", "lcm-range 10 --value --json", 0,
     '{"op": "lcm-range", "input": {"n": "10"}, '
     '"output": {"factors": [[2, 3], [3, 2], [5, 1], [7, 1]], "value": "2520"}, "ok": true}\n', ""),
    ("lcm-range-one-json", "lcm-range 1 --json", 0,
     '{"op": "lcm-range", "input": {"n": "1"}, "output": {"factors": []}, "ok": true}\n', ""),
    ("lcm-range-zero", "lcm-range 0", 2, "", "error: lcm_range_factored expects n >= 1, got 0\n"),
    ("lcm-binom-row-zero-json", "lcm-binom-row 0 --json", 0,
     '{"op": "lcm-binom-row", "input": {"k": "0", "method": "identity"}, '
     '"output": {"factors": []}, "ok": true}\n', ""),
    ("lcm-binom-row-one-json", "lcm-binom-row 1 --json", 0,
     '{"op": "lcm-binom-row", "input": {"k": "1", "method": "identity"}, '
     '"output": {"factors": []}, "ok": true}\n', ""),
    ("lcm-binom-row-json", "lcm-binom-row 10 --json", 0,
     '{"op": "lcm-binom-row", "input": {"k": "10", "method": "identity"}, '
     '"output": {"factors": [[2, 3], [3, 2], [5, 1], [7, 1]]}, "ok": true}\n', ""),
    ("lcm-binom-row-value", "lcm-binom-row 5 --value", 0, "lcm of row 5 = 2 * 5 = 10\n", ""),
    ("readme-lcm-binom-row-value", "lcm-binom-row 10 --method identity --value", 0,
     "lcm of row 10 = 2^3 * 3^2 * 5 * 7 = 2520\n", ""),
    ("lcm-binom-row-direct-json", "lcm-binom-row 10 --method direct --json", 0,
     '{"op": "lcm-binom-row", "input": {"k": "10", "method": "direct"}, '
     '"output": {"value": "2520"}, "ok": true}\n', ""),
    ("lcm-binom-row-sieve-ceiling", f"lcm-binom-row {SIEVE_LIMIT}", 2, "",
     f"error: primes_upto serves n <= {SIEVE_LIMIT}, got {SIEVE_LIMIT + 1}\n"),
    ("verify", "verify theorem1 --from 0 --to 200", 0,
     "check=theorem1 from=0 to=200 total=201 failures=0 elapsed=*s\n", ""),
    ("verify-json", "verify theorem1 --from 0 --to 40 --jobs 1 --json", 0,
     '{"op": "verify", "input": {"check": "theorem1", "from": "0", "to": "40"}, '
     '"output": {"check": "theorem1", "from": "0", "to": "40", "total": 41, "failures": 0, '
     '"first_failure": null, "first_witness": null, "elapsed": *, "failing": []}, "ok": true}\n', ""),
    ("verify-hanson-past-ceiling", f"verify hanson --from {SIEVE_LIMIT + 1} --to {SIEVE_LIMIT + 1}",
     2, "", f"error: check hanson expects inputs <= {SIEVE_LIMIT}, got {SIEVE_LIMIT + 1}\n"),
    ("readme-verify-eq4-quiet", "verify eq4 --from 1 --to 3000 --quiet", 0,
     "check=eq4 from=1 to=3000 total=3000 failures=0 elapsed=*s\n", ""),
    ("psi-ratio-zero", "psi-ratio 0", 2, "", "error: psi_ratio expects n >= 1, got 0\n"),
]

ELAPSED = re.compile(r'(?<=elapsed=)[0-9.]+(?=s)|(?<="elapsed": )[0-9.e-]+')


@pytest.mark.parametrize("argv, code, out, err",
                         [pytest.param(*row[1:], id=row[0]) for row in CONTRACT])
def test_cli_contract(capsys, digit_limit, argv, code, out, err):
    result_code, result_out, result_err = run_cli(capsys, *argv.split())
    assert (result_code, ELAPSED.sub("*", result_out), result_err) == (code, out, err)
    assert sys.get_int_max_str_digits() == digit_limit


def test_contract_has_a_row_for_every_subcommand():
    (sub,) = [action for action in cli.build_parser()._actions if action.dest == "command"]
    assert set(sub.choices) == {row[1].split()[0] for row in CONTRACT}


def whole_record_output(command, size, flags):
    """Stdout of a factored result built in one piece: a json.dumps of the
    whole record with its pairs as a list, or the whole human line."""
    if command == "lcm-binom-row":
        factors, inputs = lcm_binom_row_identity(size), {"k": str(size), "method": "identity"}
        label = f"lcm of row {size}"
    else:
        factors, inputs = lcm_range_factored(size), {"n": str(size)}
        label = f"lcm(1..{size})"
    output = {"factors": list(factors.items())}
    if "--value" in flags:
        output["value"] = factored_decimal(factors)
    if "--json" in flags:
        return json.dumps({"op": command, "input": inputs, "output": output, "ok": True}) + "\n"
    line = f"{label} = " + (" * ".join(f"{p}^{e}" if e > 1 else str(p)
                                         for p, e in factors.items()) or "1")
    if "--value" in flags:
        line += f" = {output['value']}"
    return line + "\n"


# lcm-binom-row 720719 has 58,083 pairs, so its output spans several writes.
@pytest.mark.parametrize("command, size", [
    ("lcm-binom-row", 0),
    ("lcm-binom-row", 1),
    ("lcm-binom-row", 10),
    ("lcm-binom-row", 720719),
    ("lcm-range", 1),
    ("lcm-range", 1000),
])
@pytest.mark.parametrize("flags", [[], ["--value"], ["--json"], ["--value", "--json"]],
                         ids=["human", "value", "json", "value-json"])
def test_factored_output_matches_whole_record(capsys, command, size, flags):
    assert run_cli(capsys, command, str(size), *flags) == (
        0, whole_record_output(command, size, flags), "")


def test_domain_error_exits_2(capsys, monkeypatch):
    def out_of_domain(n):
        raise DomainError(f"n={n} is outside the domain")

    monkeypatch.setattr(cli, "lcm_range_factored", out_of_domain)
    code, out, err = run_cli(capsys, "lcm-range", "5")
    assert (code, out, err) == (2, "", "error: n=5 is outside the domain\n")


@pytest.mark.parametrize("name", ["row_max_vp_bruteforce", "vp_binomial_kummer"])
def test_row_max_oracle_disagreement_exits_1(capsys, monkeypatch, name):
    monkeypatch.setattr(verify, name, lambda *args: 7)
    code, out, _ = run_cli(capsys, "row-max", "5", "2", "--oracle", "--json")
    assert code == 1
    (record,) = parse_records(out)
    assert record["ok"] is False
    code, out, _ = run_cli(capsys, "row-max", "5", "2", "--oracle")
    assert code == 1 and "DISAGREES" in out


def test_verify_failure_exit_and_listing(capsys, monkeypatch):
    def always_fail(value):
        return CheckReport(0, 1, f"forced mismatch at {value}")

    monkeypatch.setitem(verify.CHECKS, "theorem1", always_fail)

    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--from", "3", "--to", "6",
                               "--jobs", jobs)
        assert code == 1
        assert "failures=4" in out
        assert "failing inputs: 3, 4, 5, 6" in out
        assert "first witness: forced mismatch at 3\n" in out

        code, out, _ = run_cli(capsys, "verify", "theorem1", "--from", "3", "--to", "6",
                               "--jobs", jobs, "--quiet")
        assert code == 1
        assert "failing inputs" not in out
        assert "witness" not in out

        code, out, _ = run_cli(capsys, "verify", "theorem1", "--from", "3", "--to", "6",
                               "--jobs", jobs, "--json")
        assert code == 1
        (record,) = parse_records(out)
        assert record["ok"] is False
        assert record["output"]["first_failure"] == "3"
        assert record["output"]["first_witness"] == "forced mismatch at 3"
        assert record["output"]["failing"] == ["3", "4", "5", "6"]


@pytest.mark.parametrize("argv", [
    ["vp", "12", "2"],
    ["vp-binom", "5", "2", "2"],
    ["digits", "5", "2"],
    ["row-max", "5", "2"],
    ["lcm-range", "10"],
    ["lcm-binom-row", "5"],
    ["psi-ratio", "10"],
])
def test_quiet_is_a_verify_option_only(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--quiet"])
    assert exit_info.value.code == 2
    assert "--quiet" in capsys.readouterr().err


def test_verify_jobs_default_counts_the_cpus_this_process_may_use(capsys, monkeypatch):
    calls = []

    def recording(check, lo, hi, workers):
        calls.append(workers)
        return verify.verify_range_detailed(check, lo, hi, workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "verify_range_detailed", recording)
    code, out, _ = run_cli(capsys, "verify", "eq4", "--from", "1", "--to", "8")
    assert code == 0 and "failures=0" in out
    assert calls == [1]


def test_in_process_sweep_never_imports_the_process_pool():
    script = (
        "import sys\n"
        "from binomlcm.cli import main\n"
        "code = main(['verify', 'eq4', '--from', '1', '--to', '8', '--jobs', '1'])\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    assert run_python(script) == "0 False"


# lcm-range 200000 prints 151 KB human and 223 KB of JSON, more than a 64 KB
# pipe holds, so the child is still writing when its reader closes the pipe.
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_closed_stdout_exits_141_quietly(flags):
    argv = [sys.executable, "-m", "binomlcm", "lcm-range", "200000", *flags]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=fresh_env()) as child:
        head = child.stdout.read(40)
        child.stdout.close()
        code = child.wait(timeout=120)
        err = child.stderr.read()
    assert (len(head), code, err) == (40, 141, b"")


def test_import_leaves_dataclasses_and_inspect_unloaded():
    script = (
        "import sys\n"
        "import binomlcm.cli\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    assert run_python(script) == "False False"


@pytest.mark.parametrize("check, lo", [("eq4", "0"), ("theorem1", "-1")])
def test_out_of_domain_sweep_exits_2_alike_at_every_jobs(capsys, pools, check, lo):
    results = {run_cli(capsys, "verify", check, "--from", lo, "--to", "300000", "--jobs", jobs)
               for jobs in ("1", "2")}
    lowest = verify._DOMAIN[check][0]
    assert results == {(2, "", f"error: check {check} expects inputs >= {lowest}, got {lo}\n")}
    assert pools == []


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "bogus", "--from", "0", "--to", "1"])
    assert excinfo.value.code == 2


def test_psi_ratio_output(capsys):
    code, out, _ = run_cli(capsys, "psi-ratio", "10")
    assert code == 0
    assert abs(float(out.strip()) - 0.7832014180505469) < 1e-12

    code, out, _ = run_cli(capsys, "psi-ratio", "10", "--json")
    (record,) = parse_records(out)
    assert record["op"] == "psi-ratio" and record["input"] == {"n": "10"}
    assert abs(record["output"] - 0.7832014180505469) < 1e-12


@pytest.mark.parametrize("command", ["lcm-binom-row", "lcm-range"])
def test_json_mode_builds_no_human_text(capsys, monkeypatch, command):
    def unused(factors):
        raise AssertionError("human text built in --json mode")

    monkeypatch.setattr(cli, "_format_factored", unused)
    code, out, _ = run_cli(capsys, command, "100", "--value", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"]["factors"][0][0] == 2
