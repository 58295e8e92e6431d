#!/usr/bin/env python3
"""Time rth_root of two source trees in one process, alternating them.

Each tree's src/rootfield is copied into a temporary directory under its
own package name (rf_parent, rf_change); the package imports itself by
relative imports only, so both load side by side.  For each kind, a
(p, m, r) of KINDS, both sides build the field, warm their plan and AMM
caches, and must return the same status, root, path tag and counters on
every element: RESIDUES constructed residues gamma^r and as many random
elements, all seeded.  Then each round times one pass of rth_root over
those elements on each side, the side that goes first alternating round
by round, and records the change/parent ratio of the two passes.  One
line per kind gives the median pass of each side and the median ratio
with its quartiles.  Since the two sides of a ratio run a few
milliseconds apart in one process, drift of the machine between them is
small; passing the same tree twice (an A/A run) measures the floor.

    git archive <rev> | tar -x -C /tmp/parent
    python scripts/ab_inproc.py /tmp/parent .
"""

import argparse
import gc
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the Baseline kinds of ROADMAP.md: every path auto takes, one kind each
KINDS = [(2, 127, 3), (3, 97, 5), (3, 61, 2), (5, 61, 2), (17, 21, 2),
         (19, 21, 3), (29, 21, 7), (3, 61, 30)]
RESIDUES = 15
SIDES = ("parent", "change")


def load(tree: str, name: str, tmp: Path):
    """The rootfield package of tree, imported as name."""
    src = Path(tree) / "src" / "rootfield"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree} holds no src/rootfield package")
    shutil.copytree(src, tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def answer(out) -> tuple:
    c = out.counters
    return (out.status, out.root, out.path_tag, c.mults, c.squarings,
            c.frobenius, c.inversions)


def prepare(pkgs, kind):
    """Each side's field and elements of kind, once both sides agree on
    every answer; SystemExit names the first element where they differ."""
    p, m, r = kind
    rng = random.Random(f"{p}^{m} {r}")
    digits = [[rng.randrange(p) for _ in range(m)]
              for _ in range(2 * RESIDUES)]
    sides = []
    for pkg in pkgs:
        fld = pkg.mk_field(p, m)
        elems = [fld.pow(fld.elem(d), r) for d in digits[:RESIDUES]]
        elems += [fld.elem(d) for d in digits[RESIDUES:]]
        sides.append((pkg.rth_root, fld, elems))
    for i in range(len(digits)):
        a, b = (answer(run(fld, elems[i], r)) for run, fld, elems in sides)
        if a != b:
            raise SystemExit(f"F_{{{p}^{m}}}, r={r}, element {i}: "
                             f"parent {a} != change {b}")
    return sides


def one_pass(side, r) -> float:
    run, fld, elems = side
    t0 = time.perf_counter()
    for delta in elems:
        run(fld, delta, r)
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="source tree holding src/rootfield")
    ap.add_argument("change", help="source tree holding src/rootfield")
    ap.add_argument("--rounds", type=int, default=21)
    args = ap.parse_args()
    tmp = Path(tempfile.mkdtemp(prefix="ab_inproc_"))
    sys.path.insert(0, str(tmp))
    try:
        pkgs = [load(tree, f"rf_{side}", tmp)
                for tree, side in zip((args.parent, args.change), SIDES)]
        print(f"{'kind':<18} {'parent_ms':>9} {'change_ms':>9} "
              f"{'ratio':>6} {'q1':>6} {'q3':>6}")
        for kind in KINDS:
            sides = prepare(pkgs, kind)
            times = ([], [])
            for rnd in range(args.rounds):
                gc.collect()
                for i in ((0, 1) if rnd % 2 == 0 else (1, 0)):
                    times[i].append(one_pass(sides[i], kind[2]))
            ratios = [b / a for a, b in zip(*times)]
            q1, mid, q3 = statistics.quantiles(ratios, n=4)
            p, m, r = kind
            print(f"{f'F_{p}^{m} r={r}':<18} "
                  f"{1e3 * statistics.median(times[0]):>9.3f} "
                  f"{1e3 * statistics.median(times[1]):>9.3f} "
                  f"{mid:>6.3f} {q1:>6.3f} {q3:>6.3f}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
