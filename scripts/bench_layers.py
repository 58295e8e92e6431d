#!/usr/bin/env python3
"""Per-layer wall times of rootfield, with the operation counts alongside.

For each field of the grid this times field construction (mk_field),
the element layer (mul, sqr, frobenius(a, 1), frobenius(a, m-1), inv,
pow; mul, sqr, frobenius and pow also on packed elements, the rows
named *_packed), the exponent layer (phi_map) and extraction (rth_root
once per path), and records each as the median over --repeats repeats
of the time per call.  Each repeat runs a batch of calls sized to take
about 10 ms.
Every extraction is checked: a constructed residue must come back as a
verified root.  A second grid, of fields with long modulus searches
(each took seconds to minutes under Rabin's test, the one used before
Ben-Or's) and of degree-5 fields on both sides of the cutoff on p of the
search's linear-factor sieve, gets mk_field rows alone, each with the
number of irreducibility tests one build runs.  A third grid, the benchmark's
r^2 | N fields, gets one row per field with the time and counters of
auto and forced `amm` on a constructed residue and on a non-residue,
and the time of build_amm_context (uncounted, uncached).

Each timed call, or batch of calls, runs under a deadline of TIMEOUT_S
seconds (SIGALRM); a row that overruns it records "timeout" in place of
a time.

The results go under --label in the JSON file --out, so runs of two
source trees can share one file; its "side_by_side" table puts the
element-layer rows of every run in it next to each other:

    PYTHONPATH=<parent>/src python scripts/bench_layers.py --label parent --out BENCH.json
    PYTHONPATH=src python scripts/bench_layers.py --label change --out BENCH.json

Times are raw wall-clock seconds of one Python thread on whatever
machine runs the script; compare labels measured back to back on the
same machine, not against figures taken elsewhere.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import sys
import time

from rootfield import (OpCounter, build_amm_context, field, find_nonresidue,
                       mk_field, rth_root)
from rootfield.frobpow import phi_map
from rootfield.periodic import PeriodTooLong
from rootfield.roots import _plan

GRID = ((3, 61), (2, 127), (3, 97), (5, 61), (13, 31), (29, 23))
BUILD_GRID = ((3, 101), (11, 41), (7, 41), (37, 19), (3, 163), (5, 101),
              (1000003, 17), (2, 521), (127, 5), (257, 5), (1021, 5))
AMM_GRID = ((5, 61, 2), (13, 31, 2), (17, 21, 2), (29, 23, 2), (19, 21, 3))
ROOT_DEGREES = (2, 3, 5, 7, 11, 13)
SIDE_BY_SIDE = ("mul", "mul_packed", "sqr", "sqr_packed", "frobenius_1",
                "frobenius_1_packed", "frobenius_m-1", "frobenius_m-1_packed",
                "inv", "pow_N-1", "pow_N-1_packed")
BATCH_S = 0.01
TIMEOUT_S = 30


class Timeout(Exception):
    """A timed call or batch ran past its deadline."""


def _raise_timeout(_signum, _frame):
    raise Timeout


def within(fn):
    """fn() under a deadline of TIMEOUT_S seconds; raises Timeout past it."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def median_us(fn, repeats: int):
    """Median over repeats of the mean time of one fn() call, in us, or
    "timeout" when a call or a batch ran past TIMEOUT_S seconds."""

    def run(batch):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        return (time.perf_counter() - t0) / batch

    try:
        once = within(lambda: run(1))
        batch = max(1, min(1000, int(BATCH_S / max(once, 1e-9))))
        samples = [within(lambda: run(batch))
                   for _ in range(repeats)]
    except Timeout:
        return "timeout"
    return round(statistics.median(samples) * 1e6, 2)


def to_ms(us):
    return us if us == "timeout" else round(us / 1e3, 3)


def counted(fn) -> dict:
    c = OpCounter()
    fn(c)
    return {"mults": c.mults, "squarings": c.squarings,
            "frobenius": c.frobenius, "inversions": c.inversions}


def bench_build(p: int, m: int, repeats: int) -> dict:
    """mk_field's time, and the irreducibility tests that one build runs
    (counted on an untimed build, through the module global the modulus
    search calls)."""
    tests = []
    test = field.is_irreducible
    field.is_irreducible = lambda f, q: tests.append(f) or test(f, q)
    try:
        within(lambda: mk_field(p, m))
    except Timeout:
        return {"p": p, "m": m, "mk_field_ms": "timeout",
                "irreducible_tests": "timeout"}
    finally:
        field.is_irreducible = test
    return {"p": p, "m": m,
            "mk_field_ms": to_ms(median_us(lambda: mk_field(p, m), repeats)),
            "irreducible_tests": len(tests)}


def bench_field(p: int, m: int, repeats: int) -> dict:
    mk_us = median_us(lambda: mk_field(p, m), repeats)
    if mk_us == "timeout":
        return {"p": p, "m": m, "mk_field_ms": mk_us}
    fld = mk_field(p, m)
    rng = random.Random(p * 1000 + m)
    a, b = fld.random_elem(rng), fld.random_elem(rng)
    x, y = fld._pack(a), fld._pack(b)
    exponent = fld.order_minus_one - 1
    ops = {
        "mul": lambda c=None: fld.mul(a, b, c),
        "mul_packed": lambda c=None: fld.mul(x, y, c),
        "sqr": lambda c=None: fld.sqr(a, c),
        "sqr_packed": lambda c=None: fld.sqr(x, c),
        "frobenius_1": lambda c=None: fld.frobenius(a, 1, c),
        "frobenius_1_packed": lambda c=None: fld.frobenius(x, 1, c),
        "frobenius_m-1": lambda c=None: fld.frobenius(a, m - 1, c),
        "frobenius_m-1_packed": lambda c=None: fld.frobenius(x, m - 1, c),
        "inv": lambda c=None: fld.inv(a, c),
        "pow_N-1": lambda c=None: fld.pow(a, exponent, c),
        "pow_N-1_packed": lambda c=None: fld.pow(x, exponent, c),
        "phi_map_norm": lambda c=None: phi_map(fld, a, 1, m - 1, c),
    }
    out = {"p": p, "m": m, "mk_field_ms": to_ms(mk_us), "ops": {}}
    for name, fn in ops.items():
        out["ops"][name] = {"us": median_us(fn, repeats),
                            **counted(fn)}
    out["roots"] = bench_roots(fld, rng, repeats)
    return out


def bench_roots(fld, rng, repeats: int) -> list:
    """One row per path tag: the first root degree that takes it."""
    rows = {}
    for r in ROOT_DEGREES:
        if fld.p % r == 0:  # prime r = p: the Frobenius peel, no stage
            continue
        paths = ("amm",) if _plan(fld, r).t > 1 else ("periodic", "naive")
        gamma = fld.random_elem(rng)
        while not any(gamma):
            gamma = fld.random_elem(rng)
        delta = fld.pow(gamma, r)
        for path in paths:
            try:
                out = rth_root(fld, delta, r, path=path)
            except PeriodTooLong:
                continue
            if out.path_tag in rows:
                continue
            if out.status != "root_found" or fld.pow(out.root, r) != delta:
                raise RuntimeError(f"unverified root for r={r}, path={path}")
            c = out.counters
            rows[out.path_tag] = {
                "r": r, "path": out.path_tag,
                "us": median_us(lambda: rth_root(fld, delta, r, path=path),
                                repeats),
                "mults": c.mults, "squarings": c.squarings,
                "frobenius": c.frobenius}
    return sorted(rows.values(), key=lambda row: row["path"])


def bench_amm(p: int, m: int, r: int, repeats: int) -> dict:
    """Auto against forced amm on one field, for a constructed residue
    and a seeded non-residue; each root is checked."""
    fld = mk_field(p, m)
    gamma = fld.random_elem(random.Random(f"{p}^{m}/{r}"))
    residue = fld.pow(gamma, r)
    out = {"p": p, "m": m, "r": r,
           "amm_context_us": median_us(lambda: build_amm_context(fld, r),
                                       repeats)}
    for name, delta, status in (
            ("residue", residue, "root_found"),
            ("non_residue", find_nonresidue(fld, r, 1), "non_residue")):
        for path in ("auto", "amm"):
            res = rth_root(fld, delta, r, path=path)
            if res.status != status or (res.root is not None
                                        and fld.pow(res.root, r) != delta):
                raise RuntimeError(f"path={path} failed on the {name}, "
                                   f"r={r}")
            c = res.counters
            out[f"{name}_{path}"] = {
                "path": res.path_tag,
                "us": median_us(lambda: rth_root(fld, delta, r, path=path),
                                repeats),
                "mults": c.mults, "squarings": c.squarings,
                "frobenius": c.frobenius}
    return out


def side_by_side(runs: dict) -> dict:
    """Microseconds per call of the SIDE_BY_SIDE rows, by field and row,
    one entry per run label."""
    table = {}
    for label, run in runs.items():
        for row in run["fields"]:
            for op, timing in row.get("ops", {}).items():
                if op in SIDE_BY_SIDE:
                    table.setdefault(f"{row['p']},{row['m']}", {}).setdefault(
                        op, {})[label] = timing["us"]
    return table


def int_tuple(size: int):
    """An argparse type: size comma-separated integers."""
    def parse(text: str) -> tuple:
        parts = tuple(int(part) for part in text.split(","))
        if len(parts) != size:
            raise ValueError(f"expected {size} integers, got {text!r}")
        return parts
    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--field", action="append", type=int_tuple(2),
                    help="p,m; repeatable (default: the fixed grid)")
    ap.add_argument("--build", action="append", type=int_tuple(2),
                    help="p,m for an mk_field row alone; repeatable "
                         "(default: the grid of slow builds)")
    ap.add_argument("--amm", action="append", type=int_tuple(3),
                    help="p,m,r for an auto-against-forced amm row; "
                         "repeatable (default: the benchmark's r^2 | N "
                         "fields)")
    ap.add_argument("--label", default="run",
                    help="key of this run in the output file")
    ap.add_argument("--out", default="-",
                    help="JSON file to merge into, - for stdout")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    run = {"python": platform.python_version(),
           "repeats": args.repeats,
           "timeout_s": TIMEOUT_S,
           "fields": [bench_field(p, m, args.repeats)
                      for p, m in args.field or GRID],
           "builds": [bench_build(p, m, args.repeats)
                      for p, m in args.build or BUILD_GRID],
           "amm": [bench_amm(p, m, r, args.repeats)
                   for p, m, r in args.amm or AMM_GRID]}
    doc = {}
    if args.out != "-" and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = run
    doc["side_by_side"] = side_by_side(doc["runs"])
    text = json.dumps(doc, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
