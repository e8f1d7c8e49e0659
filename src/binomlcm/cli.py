"""Command-line front end.

Single-value queries, range verification sweeps and bound reports. Human
output by default; --json switches to machine mode with exactly one JSON
record per result line, big integers serialized as decimal strings and
factored values as ascending [prime, exponent] pairs.

Exit codes, for every subcommand: 0 every check passed, 1 some check
failed, 2 usage or domain error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping

# factored_value has no caller here; perfbench/worker.py TRACE_POINTS rebinds it.
from .exact import binomial, factored_decimal, factored_value
from .identities import (
    lcm_binom_row_direct,
    lcm_binom_row_identity,
    lcm_range_factored,
    row_max_vp,
)
from .padic import expand, vp, vp_binomial_kummer, vp_binomial_legendre
from .verify import CHECKS, prop1_at, psi_ratio, verify_range_detailed

__all__ = ["main", "build_parser"]


def _record(args: argparse.Namespace, inputs: dict[str, Any], output: Any, ok: bool) -> str:
    """One JSON record whose op is the subcommand, without its newline."""
    return json.dumps({
        "op": args.command,
        "input": {key: str(value) for key, value in inputs.items()},
        "output": output,
        "ok": ok,
    })


def _emit(args: argparse.Namespace, inputs: dict[str, Any], output: Any,
          ok: bool, human: list[str]) -> int:
    """Print one result, a JSON record or plain lines, and return its exit code."""
    if args.json:
        print(_record(args, inputs, output, ok))
    else:
        for line in human:
            print(line)
    return 0 if ok else 1


# Pairs per write of a factored result, so that no string of a whole
# million-pair record is ever built.
_CHUNK = 4096


def _write_joined(parts: Iterable[str], sep: str) -> None:
    """Write parts joined by sep to sys.stdout, _CHUNK parts per write."""
    write = sys.stdout.write  # looked up per call: callers may redirect stdout
    parts = iter(parts)
    write(sep.join(islice(parts, _CHUNK)))
    while chunk := sep.join(islice(parts, _CHUNK)):
        write(sep + chunk)


def _format_factored(factors: Mapping[int, int]) -> Iterator[str]:
    """Human pairs of a factored value: p^e, or p where e is 1; 1 for no factors."""
    if not factors:
        yield "1"
    for p, e in factors.items():
        yield f"{p}^{e}" if e > 1 else str(p)


def _print_factored(args: argparse.Namespace, inputs: dict[str, Any], label: str,
                    factors: Mapping[int, int]) -> int:
    """Print a factored result, a JSON record or one human line, in pieces
    byte-identical to json.dumps with its default separators, building no
    list of pairs and no whole-record string. Factor maps come from the
    ascending sieve and only ever lose keys, so their pairs are in ascending
    prime order. The --value digits are rendered before the first write, so
    an error leaves stdout empty. Returns 0: a factored result checks nothing."""
    value = factored_decimal(factors) if args.value else None
    write = sys.stdout.write
    if args.json:
        output = {"factors": []} if value is None else {"factors": [], "value": value}
        # op, the input strings and the factors come first, so the first
        # '"factors": [' is the key's own
        head, tail = _record(args, inputs, output, True).split('"factors": [', 1)
        write(head + '"factors": [')
        _write_joined((f"[{p}, {e}]" for p, e in factors.items()), ", ")
        write(tail + "\n")
    else:
        write(f"{label} = ")
        _write_joined(_format_factored(factors), " * ")
        write("\n" if value is None else f" = {value}\n")
    return 0


def _cmd_vp(args: argparse.Namespace) -> int:
    value = vp(args.n, args.p)
    return _emit(args, {"n": args.n, "p": args.p}, str(value), True, [str(value)])


_VP_BINOM_METHODS = {
    "kummer": vp_binomial_kummer,
    "legendre": vp_binomial_legendre,
    "direct": lambda n, k, p: vp(binomial(n, k), p),
}


def _cmd_vp_binom(args: argparse.Namespace) -> int:
    value = _VP_BINOM_METHODS[args.method](args.n, args.k, args.p)
    inputs = {"n": args.n, "k": args.k, "p": args.p, "method": args.method}
    return _emit(args, inputs, str(value), True, [str(value)])


def _cmd_digits(args: argparse.Namespace) -> int:
    digits = list(expand(args.k, args.p))
    human = [f"{args.k} in base {args.p}: {digits} (least significant first)"]
    return _emit(args, {"k": args.k, "p": args.p}, digits, True, human)


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
        report = prop1_at(args.k, args.p)
        output["oracle"] = report.rhs
        ok = report.passed
        human.append(f"row scan oracle: {report.rhs} ({'agrees' if ok else 'DISAGREES'})")
    return _emit(args, {"k": args.k, "p": args.p}, output, ok, human)


def _cmd_lcm_range(args: argparse.Namespace) -> int:
    return _print_factored(args, {"n": args.n}, f"lcm(1..{args.n})", lcm_range_factored(args.n))


def _cmd_lcm_binom_row(args: argparse.Namespace) -> int:
    inputs = {"k": args.k, "method": args.method}
    if args.method == "identity":
        return _print_factored(args, inputs, f"lcm of row {args.k}", lcm_binom_row_identity(args.k))
    value = str(lcm_binom_row_direct(args.k))
    return _emit(args, inputs, {"value": value}, True, [f"lcm of row {args.k} = {value}"])


def _cmd_verify(args: argparse.Namespace) -> int:
    workers = args.jobs
    if workers is None:  # the CPUs this process may run on, not every CPU
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    summary = verify_range_detailed(args.check, args.lo, args.hi, workers)
    failing = summary.failing
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
    return _emit(args, {"check": args.check, "from": args.lo, "to": args.hi}, output, ok, human)


def _cmd_psi_ratio(args: argparse.Namespace) -> int:
    ratio = psi_ratio(args.n)
    return _emit(args, {"n": args.n}, ratio, True, [str(ratio)])


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
    p.add_argument("--method", choices=list(_VP_BINOM_METHODS), default="kummer")
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
    # Exact decimal output is the point: lift the interpreter's int->str cap
    # for this call, and give an in-process caller back the cap it had.
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: exit as a shell shows SIGPIPE
        with open(os.devnull, "wb") as devnull:  # where the final flush at exit writes
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(found)


if __name__ == "__main__":
    sys.exit(main())
