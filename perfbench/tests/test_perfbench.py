"""Tests of the benchmark itself: seeded inputs, the exactness gate and the
span arithmetic. Run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from gate import Gate, check_sweep, decimal_mod, is_prime, row_lcm_factors, seeded_moduli, sieve
from run import END_TO_END, PER_LAYER, Op, gate_op, quantile
from spans import Tracer, append_spans, self_times
from workloads import WORKLOADS


def cli_stdout(argv: list[str]) -> str:
    from binomlcm import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    first = w.first_inputs(7, 40)
    assert first == w.first_inputs(7, 40)
    assert first != w.first_inputs(8, 40)
    assert all(w.lo <= value <= w.hi for value in first)


def test_inputs_come_in_mirrored_pairs_that_cover_the_range():
    w = WORKLOADS["row-value-warm"]
    values = w.first_inputs(3, 32)
    for a, b in zip(values[::2], values[1::2]):
        assert abs((a - w.lo) + (b - w.lo) - (w.hi - w.lo)) <= 1
    quarters = [sum(w.lo + q * (w.hi - w.lo) / 4 <= v < w.lo + (q + 1) * (w.hi - w.lo) / 4 for v in values)
                for q in range(4)]
    assert quarters == [8, 8, 8, 8]


def test_sieve_and_primality_match_trial_division():
    naive = [n for n in range(2, 3000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert sieve(2999) == naive
    assert [n for n in range(3000) if is_prime(n)] == naive
    assert sieve(1) == [] and sieve(2) == [2] and sieve(3) == [2, 3]


def test_seeded_moduli_are_distinct_61_bit_primes():
    moduli = seeded_moduli(5)
    assert moduli == seeded_moduli(5) != seeded_moduli(6)
    assert len(set(moduli)) == 3
    assert all(m.bit_length() == 61 and is_prime(m) for m in moduli)


def test_row_lcm_reference_matches_literal_lcm_of_the_row():
    primes = sieve(400)
    for k in range(1, 400):
        value = math.prod(p**e for p, e in row_lcm_factors(k, primes))
        assert value == math.lcm(*(math.comb(k, i) for i in range(k + 1))), k


def test_decimal_mod_matches_int_mod():
    rng = random.Random(1)
    for length in (1, 17, 18, 19, 36, 1000):
        digits = str(rng.randrange(10 ** (length - 1), 10**length))
        for m in seeded_moduli(length):
            assert decimal_mod(digits, m) == int(digits) % m


def test_gate_accepts_real_outputs():
    gate = Gate(seed=11, max_k=3000)
    assert gate.check_row(2500, cli_stdout(["lcm-binom-row", "2500", "--json"]), want_value=False) is None
    assert gate.check_row(2500, cli_stdout(["lcm-binom-row", "2500", "--value", "--json"]), want_value=True) is None
    stdout = cli_stdout(["verify", "theorem1", "--from", "40", "--to", "47", "--jobs", "1", "--json"])
    assert check_sweep("theorem1", 40, 47, stdout) is None


def test_gate_counts_a_bumped_exponent_as_a_failure():
    w = WORKLOADS["row-cold"]
    record = json.loads(cli_stdout(["lcm-binom-row", "2500", "--json"]))
    record["output"]["factors"][3][1] += 1
    op = Op(2500, 0.1, 0, json.dumps(record) + "\n", None)
    assert not gate_op(w, op, Gate(seed=1, max_k=3000))
    assert "factor 3" in op.failure


def test_gate_counts_a_flipped_digit_as_a_failure():
    w = WORKLOADS["row-value-warm"]
    record = json.loads(cli_stdout(["lcm-binom-row", "2500", "--value", "--json"]))
    value = record["output"]["value"]
    for position in (0, len(value) // 2, len(value) - 1):
        flipped = dict(record, output=dict(record["output"]))
        digit = "1" if value[position] != "1" else "2"
        flipped["output"]["value"] = value[:position] + digit + value[position + 1 :]
        op = Op(2500, 0.1, 0, json.dumps(flipped) + "\n", None)
        assert not gate_op(w, op, Gate(seed=1, max_k=3000)), position


def test_gate_counts_errors_exit_codes_and_bad_sweeps_as_failures():
    w = WORKLOADS["sweep-prop1"]
    good = cli_stdout(["verify", "prop1", "--from", "300", "--to", "331", "--jobs", "1", "--json"])
    assert gate_op(w, Op(300, 0.1, 0, good, None), None)
    assert not gate_op(w, Op(300, 0.1, 1, good, None), None)
    assert not gate_op(w, Op(300, 0.1, None, "", "Traceback ...\nValueError: boom"), None)
    record = json.loads(good)
    record["output"]["failures"] = 1
    assert not gate_op(w, Op(300, 0.1, 0, json.dumps(record), None), None)
    assert check_sweep("prop1", 300, 332, good) is not None
    assert check_sweep("prop1", 300, 331, "not json") is not None


def test_self_time_of_a_hand_built_span_tree():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "op": 0}

    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: the union counts once
        span("c", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        span("a.1", 1.5, 2.0, 1),
        span("other", 20.0, 21.0, None),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2 - 0.5, 3, 4, 0.5, 1])


def test_tracer_nests_spans_counts_work_and_rebases_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda n: list(range(n)), lambda args, result: ("work.items", len(result)))
    outer = tracer.wrap("outer", lambda n: inner(n) + inner(n))
    assert outer(3) == [0, 1, 2, 0, 1, 2]
    assert tracer.spans == []  # inactive: calls pass straight through
    tracer.active, tracer.op = True, 4
    outer(3)
    spans, counts = tracer.drain()
    assert [(s["name"], s["parent"], s["op"]) for s in spans] == [("outer", None, 4), ("inner", 0, 4), ("inner", 0, 4)]
    assert counts == {"work.items": 6}
    merged = [{"name": "x", "start": 0.0, "end": 1.0, "parent": None, "op": None}]
    append_spans(merged, spans, op=9)
    assert [(s["parent"], s["op"]) for s in merged[1:]] == [(None, 9), (1, 9), (1, 9)]


def test_harrell_davis_quantiles():
    values = [float(v) for v in range(1, 42)]
    assert quantile(values, 0.5) == pytest.approx(21.0)
    assert quantile(list(reversed(values)), 0.5) == pytest.approx(21.0)
    assert 34 < quantile(values, 0.9) < 40
    assert quantile([3.0], 0.9) == 3.0
    assert quantile([2.0, 2.0, 2.0], 0.9) == pytest.approx(2.0)


def test_benchmark_json_lists_exactly_the_metrics_run_py_reports():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
