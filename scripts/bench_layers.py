#!/usr/bin/env python3
"""Per-layer wall times of rootfield, with the operation counts alongside.

For each field of the grid this times field construction (mk_field),
the element layer (mul, sqr, frobenius(a, 1), frobenius(a, m-1), pow),
the exponent layer (phi_map) and extraction (rth_root once per path),
and records each as the median over --repeats repeats of the time per
call.  Each repeat runs a batch of calls sized to take about 10 ms.
Every extraction is checked: a constructed residue must come back as a
verified root.

The results go under --label in the JSON file --out, so runs of two
source trees can share one file:

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
import statistics
import sys
import time

from rootfield import OpCounter, mk_field, rth_root
from rootfield.frobpow import phi_map
from rootfield.periodic import PeriodTooLong, analyze_case

GRID = ((3, 61), (2, 127), (3, 97), (5, 61), (13, 31), (29, 23))
ROOT_DEGREES = (2, 3, 5, 7, 11, 13)
BATCH_S = 0.01


def median_us(fn, repeats: int) -> float:
    """Median over repeats of the mean time of one fn() call, in us."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    batch = max(1, min(1000, int(BATCH_S / max(once, 1e-9))))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return round(statistics.median(samples) * 1e6, 2)


def counted(fn) -> dict:
    c = OpCounter()
    fn(c)
    return {"mults": c.mults, "squarings": c.squarings,
            "frobenius": c.frobenius, "inversions": c.inversions}


def bench_field(p: int, m: int, repeats: int) -> dict:
    mk_us = median_us(lambda: mk_field(p, m), repeats)
    fld = mk_field(p, m)
    rng = random.Random(p * 1000 + m)
    a, b = fld.random_elem(rng), fld.random_elem(rng)
    exponent = fld.order_minus_one - 1
    ops = {
        "mul": lambda c=None: fld.mul(a, b, c),
        "sqr": lambda c=None: fld.sqr(a, c),
        "frobenius_1": lambda c=None: fld.frobenius(a, 1, c),
        "frobenius_m-1": lambda c=None: fld.frobenius(a, m - 1, c),
        "pow_N-1": lambda c=None: fld.pow(a, exponent, c),
        "phi_map_norm": lambda c=None: phi_map(fld, a, 1, m - 1, c),
    }
    out = {"p": p, "m": m, "mk_field_ms": round(mk_us / 1e3, 3), "ops": {}}
    for name, fn in ops.items():
        out["ops"][name] = {"us": median_us(fn, repeats), **counted(fn)}
    out["roots"] = bench_roots(fld, rng, repeats)
    return out


def bench_roots(fld, rng, repeats: int) -> list:
    """One row per path tag: the first root degree that takes it."""
    rows = {}
    for r in ROOT_DEGREES:
        try:
            case = analyze_case(fld.p, fld.m, r)
        except ValueError:  # r shares a factor with p or with N/r^alpha
            continue
        paths = ("amm",) if case.gcd_tag == "higher_power" else ("periodic",
                                                                   "naive")
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


def parse_field(text: str) -> tuple:
    p, _, m = text.partition(",")
    return int(p), int(m)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--field", action="append", type=parse_field,
                    help="p,m; repeatable (default: the fixed grid)")
    ap.add_argument("--label", default="run",
                    help="key of this run in the output file")
    ap.add_argument("--out", default="-",
                    help="JSON file to merge into, - for stdout")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    run = {"python": platform.python_version(),
           "repeats": args.repeats,
           "fields": [bench_field(p, m, args.repeats)
                      for p, m in args.field or GRID]}
    doc = {}
    if args.out != "-" and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = run
    text = json.dumps(doc, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
