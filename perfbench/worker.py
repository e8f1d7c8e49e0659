"""Child-process side of the benchmark: runs binomlcm operations for run.py.

    python worker.py serve [--warmup ARGV_JSON] [--trace]
        Import binomlcm, make the discarded warm-up call if given, print
        {"ready": true}, then answer one JSON request per stdin line with one
        JSON reply per stdout line:
          {"argv": [...], "trace": bool, "op": id}  binomlcm.cli.main(argv), stdout captured
          {"rows": [lo, hi], "trace": bool, "op": id}  binomial_row(k) consumed, each k
          {"exit": true}
    python worker.py probe K
        Call lcm_binom_row_identity(K) twice in this fresh process and print
        the two spans: the first call pays the empty primality cache.

With --trace, spans are recorded around the calls each layer's public
functions make into one another, by rebinding the names the calling
modules look up. Nothing in binomlcm itself is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from collections import deque
from typing import Any, TextIO

from binomlcm import cli, exact, identities, verify

from spans import Tracer


def _primes_count(args: tuple, result: list) -> tuple[str, int]:
    return "work.primes", len(result)


def _row_scan_count(args: tuple, result: Any) -> tuple[str, int]:
    return "work.kummer_calls", args[0] + 1


def _kummer_count(args: tuple, result: Any) -> tuple[str, int]:
    return "work.kummer_calls", 1


# (module, attribute, span name, counter): the layer boundaries the traced
# run records. Each attribute is the name the calling module resolves.
TRACE_POINTS = [
    (cli, "lcm_binom_row_identity", "identities.row_identity", None),
    (cli, "factored_value", "exact.factored_value", None),
    (cli, "verify_range_detailed", "verify.range", None),
    (verify, "lcm_binom_row_identity", "identities.row_identity", None),
    (verify, "factored_value", "exact.factored_value", None),
    (verify, "lcm_binom_row_direct", "identities.row_direct", None),
    (verify, "row_max_vp", "identities.row_max_formula", None),
    (verify, "row_max_vp_bruteforce", "identities.row_max_bruteforce", _row_scan_count),
    (verify, "vp_binomial_kummer", None, _kummer_count),
    (verify, "primes_upto", "exact.primes_upto", _primes_count),
    (identities, "primes_upto", "exact.primes_upto", _primes_count),
]


def install_trace_points(tracer: Tracer) -> None:
    for module, attribute, name, count in TRACE_POINTS:
        setattr(module, attribute, tracer.wrap(name, getattr(module, attribute), count))
    for check, fn in list(verify.CHECKS.items()):
        verify.CHECKS[check] = tracer.wrap("verify.check", fn)


def run_cli(tracer: Tracer, argv: list[str]) -> dict[str, Any]:
    """One binomlcm.cli.main call with its stdout captured, timed here."""
    buffer = io.StringIO()
    code: Any = None
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the op fails; the worker keeps serving
        error = traceback.format_exc()
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "code": code, "stdout": buffer.getvalue(), "error": error}


def _consume(k: int) -> None:
    deque(exact.binomial_row(k), maxlen=0)


def time_rows(tracer: Tracer, lo: int, hi: int) -> dict[str, Any]:
    started = time.perf_counter()
    for k in range(lo, hi + 1):
        tracer.call("exact.binomial_row", _consume, k)
    return {"seconds": time.perf_counter() - started}


def _send(out: TextIO, message: dict[str, Any]) -> None:
    out.write(json.dumps(message) + "\n")
    out.flush()


def serve(warmup: list[str] | None, trace: bool) -> None:
    out = sys.stdout
    tracer = Tracer()
    if trace:
        install_trace_points(tracer)
    if warmup is not None:
        run_cli(tracer, warmup)
    _send(out, {"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            break
        tracer.active, tracer.op = bool(request.get("trace")), request.get("op")
        if "argv" in request:
            reply = run_cli(tracer, request["argv"])
        else:
            reply = time_rows(tracer, *request["rows"])
        tracer.active = False
        reply["spans"], reply["counts"] = tracer.drain()
        _send(out, reply)


def probe(k: int) -> None:
    tracer = Tracer()
    tracer.active = True
    tracer.call("identities.row_identity_cold", identities.lcm_binom_row_identity, k)
    tracer.call("identities.row_identity_warm", identities.lcm_binom_row_identity, k)
    _send(sys.stdout, {"spans": tracer.spans})


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--warmup", type=json.loads, default=None)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("probe")
    p.add_argument("k", type=int)
    args = parser.parse_args()
    if args.mode == "serve":
        serve(args.warmup, args.trace)
    else:
        probe(args.k)


if __name__ == "__main__":
    main()
