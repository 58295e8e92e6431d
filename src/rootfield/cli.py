"""Command-line front end.

Six subcommands over the library: field, root, residue, decompose,
oracle, bench.  Output is line-oriented key=value text (CSV for bench)
so runs can be compared byte for byte; identical argv and seed give
identical bytes.  Exit codes: 0 for success or root_found, 2 for a
non_residue verdict, 1 for usage or computation errors.

The only environment input is ROOTFIELD_SEED, an optional default for
--seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .field import (OpCounter, _check_shape, format_elem, format_field,
                    mk_field, parse_elem)
from .oracle import brute_root
from .periodic import CASE_TAGS, decompose, exact_power, mult_order
from .roots import is_rth_residue, rth_root


def _default_seed() -> int:
    text = os.environ.get("ROOTFIELD_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"ROOTFIELD_SEED must be an integer, got {text!r}") from None


def _make_field(args):
    modulus = ([int(c) for c in args.modulus.split(",")] if args.modulus
               else None)
    return mk_field(args.p, args.m, modulus)


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--modulus", help="comma-separated modulus coefficients, "
                     "constant term first (default: canonical)")


def _cmd_field(args) -> int:
    print(format_field(_make_field(args)))
    return 0


def _cmd_root(args) -> int:
    fld = _make_field(args)
    delta = parse_elem(fld, args.delta)
    outcome = rth_root(fld, delta, args.r, seed=args.seed, path=args.path)
    c = outcome.counters
    parts = [f"status={outcome.status}"]
    if outcome.root is not None:
        parts.append(f"root={format_elem(outcome.root)}")
    parts.append(f"path={outcome.path_tag}")
    parts.append(f"mults={c.mults} squarings={c.squarings} "
                 f"frobenius={c.frobenius}")
    print(" ".join(parts))
    return 0 if outcome.status == "root_found" else 2


def _cmd_residue(args) -> int:
    fld = _make_field(args)
    delta = parse_elem(fld, args.delta)
    counter = OpCounter()
    verdict = is_rth_residue(fld, delta, args.r, counter)
    print(f"residue={'true' if verdict else 'false'} mults={counter.mults} "
          f"squarings={counter.squarings} frobenius={counter.frobenius}")
    return 0 if verdict else 2


def _cmd_decompose(args) -> int:
    p, m, r = args.p, args.m, args.r
    _check_shape(p, m)
    # k < m as in roots._plan; mult_order factors only to name a period >= m
    k = r > 1 and next((j for j in range(1, m) if pow(p, j, r) == 1),
                       None) or mult_order(p, r)
    alpha = exact_power(r, p ** m - 1)
    if alpha > 1:
        raise ValueError("no single-exponent decomposition when r^2 divides "
                         "the group order")
    pe = decompose(p, m, r, k, alpha)
    modulus = (p ** m - 1) // r ** alpha
    u = -pow(modulus, -1, r) % r
    print(f"case={CASE_TAGS[alpha]} k={k} u={u} v={pe.v} a={pe.a} b={pe.b} "
          f"period={pe.period} n={pe.n} modulus={modulus}")
    return 0


def _cmd_oracle(args) -> int:
    fld = _make_field(args)
    delta = parse_elem(fld, args.delta)
    report = brute_root(fld, delta, args.r)
    roots = sorted(report.all_roots, key=fld.elem_index)
    joined = ";".join(format_elem(root) for root in roots)
    status = "root_found" if roots else "non_residue"
    print(f"status={status} count={len(roots)} roots={joined} "
          f"residue_count={report.residue_count} "
          f"group_order={report.group_order}")
    return 0 if roots else 2


def _cmd_bench(args) -> int:
    # imported here, so that the harness, hashlib and logging load for bench
    from .bench import load_sweep, parse_sweep, run_sweep, write_csv
    read = load_sweep if os.path.exists(args.sweep) else parse_sweep
    rows = run_sweep(read(args.sweep), seed=args.seed)
    if args.out == "-":
        write_csv(rows, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_csv(rows, fh)
    return 0


COMMANDS = ("field", "root", "residue", "decompose", "oracle", "bench")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone: its help,
    usage and errors are the full parser's, byte for byte."""
    seed = _default_seed()  # a bad ROOTFIELD_SEED fails every command
    parser = argparse.ArgumentParser(
        prog="rootfield",
        description="r-th roots in F_{p^m} with operation counting")
    subs = parser.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(COMMANDS) if command else None))  # full usage
    if command in (None, "field"):
        sub = subs.add_parser("field", help="print a field description")
        _add_field_args(sub)
        sub.set_defaults(func=_cmd_field)
    if command in (None, "root"):
        sub = subs.add_parser("root", help="extract an r-th root")
        _add_field_args(sub)
        sub.add_argument("--r", type=int, required=True, help="root degree")
        sub.add_argument("--delta", required=True,
                         help="element, comma-separated coefficients")
        sub.add_argument("--seed", type=int, default=seed)
        sub.add_argument("--path", default="auto",
                         choices=("auto", "amm", "periodic", "naive"),
                         help="override path selection")
        sub.set_defaults(func=_cmd_root)
    if command in (None, "residue"):
        sub = subs.add_parser("residue", help="r-th residue test")
        _add_field_args(sub)
        sub.add_argument("--r", type=int, required=True)
        sub.add_argument("--delta", required=True)
        sub.set_defaults(func=_cmd_residue)
    if command in (None, "decompose"):
        sub = subs.add_parser("decompose",
                              help="periodic split of the inverted exponent")
        for flag in ("--p", "--m", "--r"):
            sub.add_argument(flag, type=int, required=True)
        sub.set_defaults(func=_cmd_decompose)
    if command in (None, "oracle"):
        sub = subs.add_parser("oracle", help="brute-force roots by enumeration")
        _add_field_args(sub)
        sub.add_argument("--r", type=int, required=True)
        sub.add_argument("--delta", required=True)
        sub.set_defaults(func=_cmd_oracle)
    if command in (None, "bench"):
        sub = subs.add_parser("bench", help="counter sweep to CSV")
        sub.add_argument("--sweep", required=True, help="sweep file or "
                         "inline spec like 'q=3 m=9..61:8 r=5'")
        sub.add_argument("--out", default="-", help="output path, - for stdout")
        sub.add_argument("--seed", type=int, default=seed)
        sub.set_defaults(func=_cmd_bench)
    return parser


def dispatch(argv) -> int:
    """Run one invocation; returns the exit code instead of raising."""
    try:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = _build_parser(command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
