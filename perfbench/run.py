#!/usr/bin/env python3
"""The binomlcm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
its src/ directory. With --trace 0 it runs the workload's ops for S
seconds with tracing off and prints the end-to-end metrics. With --trace 1
it runs a fixed, seed-determined list of ops (S x the workload's traced
rate) twice, untraced then traced, prints the per-layer split and writes
the spans to .perfbench/. Every output goes through the exactness gate
after the timed region; the last stdout line is one JSON object, and the
exit code is 1 when any op failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from gate import Gate, check_sweep
from spans import Span, append_spans, self_total, total
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
OP_TIMEOUT_S = 150

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "inputs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "exact.primes_upto_s": "s",
    "identities.row_identity_s": "s",
    "identities.row_identity_cold_s": "s",
    "identities.row_identity_warm_s": "s",
    "identities.cold_penalty_s": "s",
    "exact.factored_value_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "identities.row_direct_s": "s",
    "exact.binomial_row_s": "s",
    "identities.row_max_bruteforce_s": "s",
    "identities.row_max_formula_s": "s",
    "verify.check_busy_s": "s",
    "verify.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "work.primes": "count",
    "work.digits": "count",
    "work.row_entries": "count",
    "work.kummer_calls": "count",
}


class WorkerError(RuntimeError):
    """A worker process died or answered out of protocol."""


@dataclass
class Op:
    value: int  # k, or the window start of a sweep
    seconds: float
    code: Any
    stdout: str
    error: str | None
    failure: str | None = None


class Program:
    """Launches interpreters that import binomlcm from the checkout's src/."""

    def __init__(self, root: Path):
        self.python = sys.executable
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def cli(self, value: int, argv: list[str]) -> Op:
        """`binomlcm ARGV` in a fresh interpreter, timed from launch to exit."""
        start = time.perf_counter()
        try:
            done = subprocess.run([self.python, "-m", "binomlcm", *argv], capture_output=True,
                                  text=True, env=self.env, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Op(value, time.perf_counter() - start, None, "", f"timed out after {OP_TIMEOUT_S} s")
        seconds = time.perf_counter() - start
        error = (done.stderr.strip() or None) if done.returncode else None
        return Op(value, seconds, done.returncode, done.stdout, error)

    def probe(self, k: int) -> list[Span]:
        """Cold and warm lcm_binom_row_identity(k) spans from a fresh interpreter."""
        done = subprocess.run([self.python, str(HERE / "worker.py"), "probe", str(k)], capture_output=True,
                              text=True, env=self.env, timeout=OP_TIMEOUT_S)
        if done.returncode:
            raise WorkerError(f"probe at k={k} failed: {done.stderr.strip()}")
        return json.loads(done.stdout)["spans"]


class Worker:
    """A long-lived interpreter running worker.py serve; see that file."""

    def __init__(self, program: Program, args: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([program.python, str(HERE / "worker.py"), "serve", *args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=program.env)
        try:
            ready = self._read()
        except WorkerError:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - self.started
        if not ready.get("ready"):
            self.close()
            raise WorkerError(f"worker did not start: {ready}")

    def _read(self) -> dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **message: Any) -> dict[str, Any]:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("worker is gone") from None
        return self._read()

    def op(self, value: int, argv: list[str], trace: bool = False, op_id: int | None = None) -> tuple[Op, dict]:
        reply = self.request(argv=argv, trace=trace, op=op_id)
        return Op(value, reply["seconds"], reply["code"], reply["stdout"], reply["error"]), reply

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def worker_args(w: Workload, jobs: int, trace: bool) -> list[str]:
    warmup = w.warmup_argv(jobs)
    return [*(["--warmup", json.dumps(warmup)] if warmup else []), *(["--trace"] if trace else [])]


def gate_op(w: Workload, op: Op, gate: Gate | None) -> bool:
    """Set op.failure when the op errored or its output is not exact; True if it passed."""
    if op.error is not None:
        op.failure = op.error.strip().splitlines()[-1] if op.error.strip() else "error"
    elif op.code != 0:
        op.failure = f"exit code {op.code}"
    elif w.kind == "row":
        op.failure = gate.check_row(op.value, op.stdout, w.value)
    else:
        op.failure = check_sweep(w.check, op.value, op.value + w.width - 1, op.stdout)
    return op.failure is None


def write_record(name: str, record: dict[str, Any]) -> None:
    """Keep a run's raw samples or spans in .perfbench/ of the checkout."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / name, "w") as handle:
        json.dump(record, handle)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: all order statistics,
    weighted by the Beta((n+1)p, (n+1)(1-p)) density over their rank
    intervals. Its run-to-run spread is smaller than that of interpolating
    between the two nearest order statistics."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200 * n
    weights = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        weights[j * n // steps] += x ** (a - 1) * (1 - x) ** (b - 1)
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def run_untraced(w: Workload, seed: int, seconds: float, program: Program, jobs: int) -> dict[str, Any]:
    gate = Gate(seed, w.hi) if w.kind == "row" else None
    setups = []
    worker = None
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        worker = Worker(program, worker_args(w, jobs, trace=False))
        setups.append(worker.setup_seconds)
    if w.fresh:
        worker.close()
        worker = None
    ops: list[Op] = []
    started = time.perf_counter()
    try:
        for value in w.inputs(seed):
            if len(ops) % 2 == 0 and time.perf_counter() - started >= seconds:
                break
            argv = w.argv(value, jobs)
            ops.append(program.cli(value, argv) if worker is None else worker.op(value, argv)[0])
        wall = time.perf_counter() - started
    finally:
        if worker is not None:
            worker.close()
    failed = [op for op in ops if not gate_op(w, op, gate)]
    latencies = [op.seconds for op in ops]
    metrics = {
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "ops_per_s": len(ops) / wall,
        "inputs_per_s": len(ops) * w.inputs_per_op() / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"samples = {len(ops)} ops over {wall:.3f} s (closed loop, 1 client, jobs={jobs})",
        f"setup samples = {[round(s, 4) for s in setups]}",
        f"fail_ratio = {len(failed) / len(ops)!r} ratio",
        *(f"FAILED {op.value}: {op.failure}" for op in failed),
    ]
    write_record(f"ops-{w.name}-seed{seed}.json",
                 {"workload": w.name, "seed": seed, "setups": setups, "metrics": metrics,
                  "ops": [[op.value, op.seconds, op.failure] for op in ops]})
    return {"ops": len(ops), "failed": len(failed), "metrics": metrics, "units": END_TO_END, "notes": notes}


def run_traced(w: Workload, seed: int, seconds: float, program: Program, jobs: int) -> dict[str, Any]:
    values = w.first_inputs(seed, 2 * max(1, round(seconds * w.trace_ops_per_second / 2)))
    gate = Gate(seed, w.hi) if w.kind == "row" else None
    spans: list[Span] = []
    counts: Counter[str] = Counter()
    startups = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        op = program.cli(0, ["vp", "12", "2"])
        if op.code != 0 or op.stdout.strip() != "2":
            raise WorkerError(f"binomlcm vp 12 2 failed: {op.error or op.stdout!r}")
        spans.append({"name": "cli.startup", "start": start, "end": start + op.seconds, "parent": None, "op": None})
        startups.append(op.seconds)
    untraced_s = traced_s = parallel_s = 0.0
    digits = 0
    checked: list[tuple[int, Op]] = []
    worker = None if w.fresh else Worker(program, worker_args(w, jobs, trace=True))
    try:
        for op_id, value in enumerate(values):
            append_spans(spans, program.probe(value if w.kind == "row" else value + w.width - 1), op_id)
            argv = w.argv(value, 1)
            if w.fresh:
                plain = program.cli(value, argv)
                with Worker(program, ["--trace"]) as fresh:
                    traced, reply = fresh.op(value, argv, True, op_id)
                traced_wall = time.perf_counter() - fresh.started
            else:
                if w.kind == "sweep":
                    parallel = worker.op(value, w.argv(value, jobs))[0]
                    parallel_s += parallel.seconds
                    checked.append((op_id, parallel))
                plain = worker.op(value, argv)[0]
                traced, reply = worker.op(value, argv, True, op_id)
                traced_wall = traced.seconds
            untraced_s += plain.seconds
            traced_s += traced_wall
            checked += [(op_id, plain), (op_id, traced)]
            append_spans(spans, reply["spans"])
            counts.update(reply["counts"])
            digits += sum(map(str.isdigit, traced.stdout))
            if w.check == "theorem1":
                rows = worker.request(rows=[value, value + w.width - 1], trace=True, op=op_id)
                append_spans(spans, rows["spans"])
    finally:
        if worker is not None:
            worker.close()
    failed_ids = {op_id for op_id, op in checked if not gate_op(w, op, gate)}
    busy = total(spans, "verify.check")
    cold = total(spans, "identities.row_identity_cold")
    warm = total(spans, "identities.row_identity_warm")
    entries = sum(k + 1 for v in values for k in range(v, v + w.inputs_per_op()))
    metrics = {
        "exact.primes_upto_s": total(spans, "exact.primes_upto"),
        "identities.row_identity_s": total(spans, "identities.row_identity"),
        "identities.row_identity_cold_s": cold,
        "identities.row_identity_warm_s": warm,
        "identities.cold_penalty_s": cold - warm,
        "exact.factored_value_s": total(spans, "exact.factored_value"),
        "cli.main_s": total(spans, "cli.main"),
        "cli.self_s": self_total(spans, "cli.main"),
        "cli.startup_s": statistics.median(startups),
        "identities.row_direct_s": total(spans, "identities.row_direct"),
        "exact.binomial_row_s": total(spans, "exact.binomial_row"),
        "identities.row_max_bruteforce_s": total(spans, "identities.row_max_bruteforce"),
        "identities.row_max_formula_s": total(spans, "identities.row_max_formula"),
        "verify.check_busy_s": busy,
        "verify.parallel_efficiency": busy / (jobs * parallel_s) if parallel_s else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "work.primes": counts["work.primes"],
        "work.digits": digits,
        "work.row_entries": entries,
        "work.kummer_calls": counts["work.kummer_calls"],
    }
    notes = [
        f"traced ops = {len(values)}: {values}",
        f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s (jobs=1)",
        *(f"share {part} / {whole} = {metrics[part] / metrics[whole]:.4f}"
          for part, whole in (("identities.cold_penalty_s", "identities.row_identity_cold_s"),
                              ("identities.row_identity_s", "cli.main_s"),
                              ("exact.factored_value_s", "cli.main_s"),
                              ("identities.row_direct_s", "verify.check_busy_s"),
                              ("identities.row_max_bruteforce_s", "verify.check_busy_s"))
          if metrics[whole]),
        f"fail_ratio = {len(failed_ids) / len(values)!r} ratio",
        *(f"FAILED op {op_id} ({op.value}): {op.failure}" for op_id, op in checked if op.failure),
    ]
    write_record(f"trace-{w.name}-seed{seed}.json",
                 {"workload": w.name, "seed": seed, "values": values, "metrics": metrics, "spans": spans})
    return {"ops": len(values), "failed": len(failed_ids), "metrics": metrics, "units": PER_LAYER, "notes": notes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "binomlcm" / "__init__.py").is_file():
        print(f"error: no binomlcm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    jobs = min(2, os.cpu_count() or 1)
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    run = run_traced if args.trace else run_untraced
    try:
        result = run(w, args.seed, args.seconds, Program(ROOT), jobs)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result["notes"]:
        print(line)
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
