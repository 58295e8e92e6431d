#!/usr/bin/env python3
"""Record every root-layer, `rootfield decompose` and sweep answer of one
source tree, or diff two records.

Run under the PYTHONPATH of the tree to record; one JSON line per call:

    PYTHONPATH=<parent>/src python scripts/same_answers.py --out old.jsonl.gz
    PYTHONPATH=src python scripts/same_answers.py --out new.jsonl.gz
    python scripts/same_answers.py --diff old.jsonl.gz new.jsonl.gz

The calls are rth_root (auto, and "amm", "periodic" and "naive" for
prime r), amm_root with its defaults, and is_rth_residue with a
counter.  Inputs: every field with p^m <= 512,
every r in 2..12 and every delta, zero included; then the fields and r
of the benchmark's workloads (perfbench/workloads.py) and of the counter
goldens (tests/test_counter_goldens.py) and the CLI goldens, each with
zero, 3 seeded constructed residues and 3 seeded random elements.  A
line holds the call, (p, m, r, path, delta) with delta as its base-p
index, and the result: status, path tag, root index and the counters
(mults, squarings, frobenius, inversions), or the exception's class.

Then `rootfield decompose` on every prime p <= 31, m <= 12 and r <= 20,
and on the large-r CLI goldens: a line holds the argv, the exit code,
stdout and stderr.  Last, the rows of one `rootfield bench` sweep
(SWEEP, seed 0), each without its wall_ns cell.

--diff reads two records line by line, prints each call whose answer,
counters or stderr moved with both values, then a summary per (call,
path, zero delta, m > 1) group of answer moves, split by the fields that
moved (the root alone, or status, tag, exception and the rest), and of
counter moves, and per wording class of stderr moves (digits read as #);
it exits 1 if any status, tag, root,
exception, decompose stdout or exit code, or sweep cell differs (a sweep
row's mults, squarings and frobenius cells count as its counters), or if
the two records do not hold the same calls in the same order.  A .gz
name is read and written through gzip.
"""

import argparse
import gzip
import importlib.util
import io
import json
import logging
import random
import re
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL_ORDER = 512
SMALL_R = range(2, 13)
PATHS = ("amm", "periodic", "naive")
# the CLI goldens in tests/test_cli.py
CLI_KINDS = [(13, 1, 2), (13, 1, 3), (3, 9, 5)]
# decompose goldens of tests/test_cli.py beyond the grid
DECOMPOSE_EXTRA = [(3, 61, 2 ** 31 - 1), (3, 61, 2251799813687339)]
SWEEP = "q=2,3,4,5,7,8,9,11,13,16,25,27,31,49 m=1..10 r=2..16"


def _open(path, mode):
    return gzip.open(path, mode + "t") if path.endswith(".gz") else \
        open(path, mode)


def small_fields():
    from rootfield import is_prime
    for p in range(2, SMALL_ORDER + 1):
        if is_prime(p):
            m = 1
            while p ** m <= SMALL_ORDER:
                yield p, m
                m += 1


def seeded_kinds():
    """(p, m, r) of the benchmark's workloads and of the goldens."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import (AMM_KINDS, CLI_FAILING, CLI_REQUESTS,
                                     PERIODIC_KINDS)
    spec = importlib.util.spec_from_file_location(
        "counter_goldens", ROOT / "tests" / "test_counter_goldens.py")
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    kinds = [k[:3] for k in PERIODIC_KINDS + AMM_KINDS + CLI_REQUESTS
             + [CLI_FAILING]]
    kinds += [case[:3] for case, _ in goldens.GOLDENS] + CLI_KINDS
    return sorted(set(kinds))


def seeded_deltas(fld, r):
    rng = random.Random(f"same/{fld.p}^{fld.m}/{r}")
    out = [fld.zero()]
    out += [fld.pow(fld.random_elem(rng), r) for _ in range(3)]
    out += [fld.random_elem(rng) for _ in range(3)]
    return out


def calls(fld, delta, r):
    """(call, path, thunk) for every call made on one input."""
    from rootfield import (OpCounter, amm_root, is_prime, is_rth_residue,
                           rth_root)

    def residue():
        counter = OpCounter()
        verdict = is_rth_residue(fld, delta, r, counter)
        return ("residue" if verdict else "non_residue"), counter

    out = [("rth_root", "auto", lambda: rth_root(fld, delta, r))]
    if is_prime(r):
        out += [("rth_root", path,
                 lambda path=path: rth_root(fld, delta, r, path=path))
                for path in PATHS]
    out += [("amm_root", "plain", lambda: amm_root(fld, delta, r)),
            ("is_rth_residue", "-", residue)]
    return out


def record(fld, delta, r, emit):
    d = fld.elem_index(delta)
    for name, path, thunk in calls(fld, delta, r):
        line = {"call": name, "p": fld.p, "m": fld.m, "r": r, "path": path,
                "delta": d}
        try:
            out = thunk()
        except Exception as exc:  # the class is part of the answer
            line["exc"] = type(exc).__name__
        else:
            if name == "is_rth_residue":  # (status, counter), no outcome
                status, c = out
                tag = root = None
            else:
                status, tag, c = out.status, out.path_tag, out.counters
                root = None if out.root is None else fld.elem_index(out.root)
            line.update(status=status, tag=tag, root=root,
                        counters=[c.mults, c.squarings, c.frobenius,
                                  c.inversions])
        emit(line)


def record_decompose(emit):
    from rootfield import is_prime
    from rootfield.cli import dispatch
    grid = [(p, m, r) for p in range(2, 32) if is_prime(p)
            for m in range(1, 13) for r in range(21)]
    for p, m, r in grid + DECOMPOSE_EXTRA:
        argv = ["decompose", "--p", str(p), "--m", str(m), "--r", str(r)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(argv)
        emit({"call": "decompose", "argv": argv, "code": code,
              "stdout": out.getvalue(), "stderr": err.getvalue()})


def record_sweep(emit):
    from rootfield.bench import parse_sweep, run_sweep
    logging.disable(logging.WARNING)  # the skipped triples' notes
    for i, row in enumerate(run_sweep(parse_sweep(SWEEP), seed=0)):
        emit({"call": "sweep", "i": i, "row": row.cells()[:-1]})


def run(out_path):
    from rootfield import mk_field
    start = time.monotonic()
    n = 0
    with _open(out_path, "w") as fh:
        def emit(line):
            nonlocal n
            n += 1
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")

        for p, m in small_fields():
            fld = mk_field(p, m)
            for r in SMALL_R:
                for delta in fld.elements():
                    record(fld, delta, r, emit)
        fields = {}
        for p, m, r in seeded_kinds():
            fld = fields.setdefault((p, m), mk_field(p, m))
            for delta in seeded_deltas(fld, r):
                record(fld, delta, r, emit)
        record_decompose(emit)
        record_sweep(emit)
    print(f"{n} calls in {time.monotonic() - start:.1f} s", file=sys.stderr)


KEY = ("call", "p", "m", "r", "path", "delta", "argv", "i")
ANSWER = ("exc", "status", "tag", "root", "code", "stdout", "row")


def _group(line):
    """(call, path, zero delta, m > 1) of a root-layer line; the call
    alone for decompose and sweep lines."""
    if "delta" not in line:
        return (line["call"],)
    return (line["call"], line["path"], "zero" if line["delta"] == 0
            else "nonzero", "m>1" if line["m"] > 1 else "m=1")


def diff(path_a, path_b) -> int:
    groups = Counter()
    answers = moved = 0
    with _open(path_a, "r") as fa, _open(path_b, "r") as fb:
        for text_a, text_b in zip_longest(fa, fb):
            if text_a is None or text_b is None:
                print("records hold different numbers of calls")
                return 1
            a, b = json.loads(text_a), json.loads(text_b)
            if a["call"] == "sweep":  # its mults, squarings, frobenius cells
                a, b = ({**x, "row": x["row"][:6] + x["row"][9:],
                         "counters": [int(c) for c in x["row"][6:9]]}
                        for x in (a, b))
            key = tuple(a[f] for f in KEY if f in a)
            if key != tuple(b[f] for f in KEY if f in b):
                print(f"records differ in order at {key}")
                return 1
            fields = [f for f in ANSWER if a.get(f) != b.get(f)]
            if fields:
                answers += 1
                print("ANSWER", key, {f: a[f] for f in ANSWER if f in a},
                      "->", {f: b[f] for f in ANSWER if f in b})
                groups[_group(a) + ("answer: " + (
                    "root only" if fields == ["root"] else
                    " ".join(fields)),)] += 1
            elif a.get("stderr") != b.get("stderr"):
                moved += 1
                print("STDERR", key, repr(a["stderr"]), "->",
                      repr(b["stderr"]))
                groups[(a["call"], "stderr",
                        re.sub(r"\d+", "#", a["stderr"].strip()), "->",
                        re.sub(r"\d+", "#", b["stderr"].strip()))] += 1
            elif a.get("counters") != b.get("counters"):
                moved += 1
                ca, cb = a["counters"], b["counters"]
                rise = (cb[0] + cb[1]) - (ca[0] + ca[1])
                print("COUNTERS", key, ca, "->", cb)
                groups[_group(a) + ("products up" if rise > 0 else
                                    "products down" if rise < 0 else
                                    "products same",)] += 1
    print(f"\n{answers} answers differ; {moved} calls moved counters or "
          "stderr")
    for group, count in sorted(groups.items()):
        print(f"  {count:7d}  {' '.join(group)}")
    return 1 if answers else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", help="record file to write")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="compare two records instead of writing one")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        ap.error("give --out or --diff")
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
