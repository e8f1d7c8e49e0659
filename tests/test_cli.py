import json

import pytest

import binomlcm.cli as cli
import binomlcm.verify as verify
from binomlcm import DomainError, OutOfRangeError, ZeroOperandError, ZeroValueError
from binomlcm.cli import main
from binomlcm.exact import PRIMALITY_LIMIT, SIEVE_LIMIT, factored_value
from binomlcm.identities import lcm_binom_row_identity, lcm_range_factored
from binomlcm.verify import CheckReport


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


def test_vp_human_and_json_agree(capsys):
    code, out, _ = run_cli(capsys, "vp", "12", "2")
    assert code == 0 and out.strip() == "2"

    code, out, _ = run_cli(capsys, "vp", "12", "2", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"] == "2" and record["ok"] is True
    assert record["input"] == {"n": "12", "p": "2"}


def test_vp_composite_p_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "vp", "12", "9")
    assert code == 2
    assert "p" in err and "9" in err


def test_vp_above_primality_limit_is_usage_error(capsys):
    psi12 = str(PRIMALITY_LIMIT)
    code, out, err = run_cli(capsys, "vp", str(PRIMALITY_LIMIT**2), psi12)
    assert code == 2 and out == ""
    assert psi12 in err


def test_vp_binom_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "vp-binom", "5", "2", "2", "--method", "kummer")
    assert code == 0 and out.strip() == "1"
    for method in ("legendre", "direct"):
        code, out, _ = run_cli(capsys, "vp-binom", "5", "2", "2", "--method", method)
        assert code == 0 and out.strip() == "1"


def test_vp_binom_rejects_k_above_n(capsys):
    code, _, err = run_cli(capsys, "vp-binom", "3", "5", "2")
    assert code == 2 and "k <= n" in err


def test_digits(capsys):
    code, out, _ = run_cli(capsys, "digits", "5", "2")
    assert code == 0 and out == "5 in base 2: [1, 0, 1] (least significant first)\n"

    code, out, _ = run_cli(capsys, "digits", "5", "2", "--json")
    (record,) = parse_records(out)
    assert code == 0 and record["output"] == [1, 0, 1]

    code, out, _ = run_cli(capsys, "digits", "0", "2", "--json")
    (record,) = parse_records(out)
    assert record["output"] == []


def test_row_max_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "row-max", "5", "2", "--oracle", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"]["max_valuation"] == 1
    assert record["output"]["attained_at"] == "3"
    assert record["output"]["oracle"] == 1
    assert record["ok"] is True


@pytest.mark.parametrize("p", ["2", "47"])
def test_row_max_oracle_over_many_blocks(capsys, p):
    code, out, _ = run_cli(capsys, "row-max", "999999", p, "--oracle", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"]["oracle"] == record["output"]["max_valuation"]
    assert record["ok"] is True


def test_lcm_range_outputs(capsys):
    code, out, _ = run_cli(capsys, "lcm-range", "10", "--value", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"]["factors"] == [[2, 3], [3, 2], [5, 1], [7, 1]]
    assert record["output"]["value"] == "2520"

    code, human, _ = run_cli(capsys, "lcm-range", "10", "--value")
    assert "2^3" in human and "2520" in human

    code, _, err = run_cli(capsys, "lcm-range", "0")
    assert code == 2 and "n >= 1" in err


@pytest.mark.parametrize("argv", [
    ["lcm-binom-row", "0"],
    ["lcm-binom-row", "1"],
    ["lcm-binom-row", "10"],
    ["lcm-binom-row", "720719"],
    ["lcm-range", "1"],
    ["lcm-range", "10"],
    ["lcm-range", "1000"],
])
def test_json_factor_primes_strictly_ascending(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    (record,) = parse_records(out)
    primes = [p for p, _ in record["output"]["factors"]]
    assert all(a < b for a, b in zip(primes, primes[1:]))


def test_lcm_binom_row_methods(capsys):
    code, out, _ = run_cli(capsys, "lcm-binom-row", "5", "--method", "identity", "--value")
    assert code == 0 and out.strip().endswith("= 10")

    code, out, _ = run_cli(capsys, "lcm-binom-row", "5", "--method", "direct", "--json")
    (record,) = parse_records(out)
    assert record["output"]["value"] == "10"

    code, out, _ = run_cli(capsys, "lcm-binom-row", "5", "--json")
    (record,) = parse_records(out)
    assert record["output"]["factors"] == [[2, 1], [5, 1]]


def test_verify_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--from", "0", "--to", "200")
    assert code == 0
    assert "failures=0" in out and "total=201" in out

    code, out, _ = run_cli(capsys, "verify", "theorem1", "--from", "0", "--to", "40",
                           "--jobs", "1", "--json")
    (record,) = parse_records(out)
    assert record["ok"] is True
    assert record["output"]["failures"] == 0
    assert record["output"]["total"] == 41
    assert record["output"]["first_failure"] is None
    assert record["output"]["first_witness"] is None
    assert record["output"]["failing"] == []


def test_verify_failure_exit_and_listing(capsys, monkeypatch):
    def always_fail(value):
        return CheckReport("theorem1", value, 0, 1, False, f"forced mismatch at {value}")

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


def test_former_domain_error_names_are_domain_error_and_exit_2(capsys, monkeypatch):
    for former in (ZeroOperandError, OutOfRangeError, ZeroValueError):
        assert former is DomainError

        def raise_former(n, former=former):
            raise former(f"n={n} is outside the domain")

        monkeypatch.setattr(cli, "lcm_range_factored", raise_former)
        code, out, err = run_cli(capsys, "lcm-range", "5")
        assert (code, out, err) == (2, "", "error: n=5 is outside the domain\n")


def test_sieve_ceiling_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "lcm-binom-row", str(SIEVE_LIMIT))
    assert code == 2 and out == ""
    assert err == f"error: primes_upto serves n <= {SIEVE_LIMIT}, got {SIEVE_LIMIT + 1}\n"


def test_verify_unknown_check_is_usage_error(capsys):
    # `bench` is gone too: perfbench/run.py times the fast path.
    for argv in (["verify", "bogus", "--from", "0", "--to", "1"],
                 ["bench", "row-lcm", "--sizes", "5"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_psi_ratio_output(capsys):
    code, out, _ = run_cli(capsys, "psi-ratio", "10")
    assert code == 0
    assert abs(float(out.strip()) - 0.7832014180505469) < 1e-12

    code, out, _ = run_cli(capsys, "psi-ratio", "10", "--json")
    (record,) = parse_records(out)
    assert abs(record["output"] - 0.7832014180505469) < 1e-12


def test_human_and_json_numeric_parity(capsys):
    _, human, _ = run_cli(capsys, "lcm-binom-row", "12", "--method", "identity", "--value")
    _, machine, _ = run_cli(capsys, "lcm-binom-row", "12", "--method", "identity", "--value", "--json")
    (record,) = parse_records(machine)
    assert record["output"]["value"] in human
    for p, e in record["output"]["factors"]:
        assert str(p) in human


@pytest.mark.parametrize("command, size, factored", [
    ("lcm-binom-row", 5000, lcm_binom_row_identity),
    ("lcm-range", 5000, lcm_range_factored),
])
def test_value_digits_identical_in_human_and_json(capsys, command, size, factored):
    code, human, _ = run_cli(capsys, command, str(size), "--value")
    assert code == 0
    human_digits = human.strip().rsplit(" = ", 1)[1]
    _, machine, _ = run_cli(capsys, command, str(size), "--value", "--json")
    (record,) = parse_records(machine)
    assert human_digits == record["output"]["value"] == str(factored_value(factored(size)))


@pytest.mark.parametrize("command", ["lcm-binom-row", "lcm-range"])
def test_json_mode_builds_no_human_text(capsys, monkeypatch, command):
    def unused(factors):
        raise AssertionError("human text built in --json mode")

    monkeypatch.setattr(cli, "_format_factored", unused)
    code, out, _ = run_cli(capsys, command, "100", "--value", "--json")
    assert code == 0
    (record,) = parse_records(out)
    assert record["output"]["factors"][0][0] == 2
