"""Command-line front end.

Single-value queries, range verification sweeps and bound reports. Human
output by default; --json switches to machine mode with exactly one JSON
record per result line, big integers serialized as decimal strings and
factored values as ascending [prime, exponent] pairs.

Exit codes: 0 success with all checks passed, 1 if any check failed,
2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

# factored_value has no caller here; perfbench/worker.py TRACE_POINTS rebinds it.
from .exact import binomial, factored_decimal, factored_value
from .identities import (
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    row_max_vp,
    row_max_vp_bruteforce,
)
from .padic import expand, vp, vp_binomial_kummer, vp_binomial_legendre
from .verify import CHECKS, psi_ratio, verify_range_detailed

__all__ = ["main", "build_parser"]


def _emit(args: argparse.Namespace, op: str, inputs: dict[str, Any], output: Any,
          ok: bool, human: list[str]) -> None:
    """Print one result: a single JSON record in machine mode, plain lines otherwise."""
    if args.json:
        record = {
            "op": op,
            "input": {key: str(value) for key, value in inputs.items()},
            "output": output,
            "ok": ok,
        }
        print(json.dumps(record))
    else:
        for line in human:
            print(line)


# Factor maps come from the ascending sieve and only ever lose keys, so
# their items are already in ascending prime order.
def _factor_pairs(factors: dict[int, int]) -> list[list[int]]:
    return [[p, e] for p, e in factors.items()]


def _format_factored(factors: dict[int, int]) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors.items())


def _factored_result(args: argparse.Namespace, label: str,
                     factors: dict[int, int]) -> tuple[dict[str, Any], list[str]]:
    """Output record and human line of a factored result, sharing one render
    of the --value digits; --json mode builds no human line."""
    output: dict[str, Any] = {"factors": _factor_pairs(factors)}
    if args.value:
        output["value"] = factored_decimal(factors)
    if args.json:
        return output, []
    text = f"{label} = {_format_factored(factors)}"
    if args.value:
        text += f" = {output['value']}"
    return output, [text]


def _cmd_vp(args: argparse.Namespace) -> int:
    value = vp(args.n, args.p)
    _emit(args, "vp", {"n": args.n, "p": args.p}, str(value), True, [str(value)])
    return 0


def _cmd_vp_binom(args: argparse.Namespace) -> int:
    if args.method == "kummer":
        value = vp_binomial_kummer(args.n, args.k, args.p)
    elif args.method == "legendre":
        value = vp_binomial_legendre(args.n, args.k, args.p)
    else:
        value = vp(binomial(args.n, args.k), args.p)
    inputs = {"n": args.n, "k": args.k, "p": args.p, "method": args.method}
    _emit(args, "vp-binom", inputs, str(value), True, [str(value)])
    return 0


def _cmd_digits(args: argparse.Namespace) -> int:
    digits = list(expand(args.k, args.p))
    human = [f"{args.k} in base {args.p}: {digits} (least significant first)"]
    _emit(args, "digits", {"k": args.k, "p": args.p}, digits, True, human)
    return 0


def _cmd_row_max(args: argparse.Namespace) -> int:
    result = row_max_vp(args.k, args.p)
    output: dict[str, Any] = {
        "max_valuation": result.max_valuation,
        "attained_at": None if result.attained_at is None else str(result.attained_at),
    }
    human = [
        f"max v_{args.p} over row {args.k}: {result.max_valuation}"
        + ("" if result.attained_at is None else f" (attained at index {result.attained_at})")
    ]
    ok = True
    if args.oracle:
        scanned = row_max_vp_bruteforce(args.k, args.p)
        output["oracle"] = scanned
        ok = scanned == result.max_valuation
        if ok and result.attained_at is not None:
            ok = vp_binomial_kummer(args.k, result.attained_at, args.p) == scanned
        human.append(f"row scan oracle: {scanned} ({'agrees' if ok else 'DISAGREES'})")
    _emit(args, "row-max", {"k": args.k, "p": args.p}, output, ok, human)
    return 0 if ok else 1


def _cmd_lcm_range(args: argparse.Namespace) -> int:
    output, human = _factored_result(args, f"lcm(1..{args.n})", lcm_range_factored(args.n))
    _emit(args, "lcm-range", {"n": args.n}, output, True, human)
    return 0


def _cmd_lcm_binom_row(args: argparse.Namespace) -> int:
    inputs = {"k": args.k, "method": args.method}
    if args.method == "identity":
        output, human = _factored_result(args, f"lcm of row {args.k}", lcm_binom_row_identity(args.k))
    else:
        output = {"value": str(lcm_binom_row_direct(args.k))}
        human = [f"lcm of row {args.k} = {output['value']}"]
    _emit(args, "lcm-binom-row", inputs, output, True, human)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    workers = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    summary, failing = verify_range_detailed(args.check, args.lo, args.hi, workers)
    output = {
        "check": summary.check_name,
        "from": str(summary.lo),
        "to": str(summary.hi),
        "total": summary.total,
        "failures": summary.failures,
        "first_failure": None if summary.first_failure is None else str(summary.first_failure),
        "first_witness": summary.first_witness,
        "elapsed": round(summary.elapsed, 6),
        "failing": [str(value) for value in failing],
    }
    human = [
        f"check={summary.check_name} from={summary.lo} to={summary.hi} "
        f"total={summary.total} failures={summary.failures} elapsed={summary.elapsed:.3f}s"
    ]
    if failing and not args.quiet:
        shown = ", ".join(str(value) for value in failing[:20])
        more = f" (+{len(failing) - 20} more)" if len(failing) > 20 else ""
        human.append(f"failing inputs: {shown}{more}")
        human.append(f"first witness: {summary.first_witness}")
    ok = summary.failures == 0
    _emit(args, "verify", {"check": args.check, "from": args.lo, "to": args.hi}, output, ok, human)
    return 0 if ok else 1


def _cmd_psi_ratio(args: argparse.Namespace) -> int:
    ratio = psi_ratio(args.n)
    _emit(args, "psi-ratio", {"n": args.n}, ratio, True, [str(ratio)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine mode: one JSON record per result line")

    parser = argparse.ArgumentParser(
        prog="binomlcm",
        description="Exact lcm identities for binomial rows: queries and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vp", parents=[common], help="p-adic valuation of n")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(handler=_cmd_vp)

    p = sub.add_parser("vp-binom", parents=[common], help="p-adic valuation of C(n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--method", choices=["kummer", "legendre", "direct"], default="kummer")
    p.set_defaults(handler=_cmd_vp_binom)

    p = sub.add_parser("digits", parents=[common], help="base-p digits of k, least significant first")
    p.add_argument("k", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(handler=_cmd_digits)

    p = sub.add_parser("row-max", parents=[common], help="maximum valuation over the row C(k, 0..k)")
    p.add_argument("k", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force row scan and compare")
    p.set_defaults(handler=_cmd_row_max)

    p = sub.add_parser("lcm-range", parents=[common], help="lcm(1..n), factored by default")
    p.add_argument("n", type=int)
    p.add_argument("--value", action="store_true", help="also expand to the exact decimal value")
    p.set_defaults(handler=_cmd_lcm_range)

    p = sub.add_parser("lcm-binom-row", parents=[common], help="lcm of the row C(k, 0..k)")
    p.add_argument("k", type=int)
    p.add_argument("--method", choices=["identity", "direct"], default="identity")
    p.add_argument("--value", action="store_true", help="expand the factored result to its exact value")
    p.set_defaults(handler=_cmd_lcm_binom_row)

    p = sub.add_parser("verify", parents=[common], help="sweep a named check over an inclusive range")
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None, help="worker count (default: available parallelism)")
    p.add_argument("--quiet", action="store_true", help="summary only; suppress per-item detail")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("psi-ratio", parents=[common], help="log lcm(1..n) / n from the factored form")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_psi_ratio)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact decimal output is the point; lift the interpreter's int->str cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
