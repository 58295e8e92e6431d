#!/usr/bin/env python3
"""Per-layer wall times of two rootfield source trees, alternated in one
process, with each side's operation counts alongside.

    git archive <rev> | tar -x -C <parent dir>
    python scripts/bench_layers.py <parent dir> . --out BENCH.json

Each tree's src/rootfield is imported under its own package name
(rf_parent, rf_change), and every row builds its fields and elements from
each side's own package.  A row takes --repeats samples of each side,
the side that goes first swapping each repeat, so the two samples of a
change/parent ratio run milliseconds apart.  A sample is the mean time
per call over a batch sized to take about 10 ms.  Each row holds, per
side, the median time per call ("us"; "ms" for mk_field_ms, "pass_ms"
for the rth_root rows) with the side's counters and other facts, and
"ratio": [q1, median, q3] of the ratios; "differ": true marks facts that
differ between the sides.  The same tree twice (an A/A run) measures the
noise floor.

Rows: per field of --field, mk_field_ms (with the layout: digit_bytes,
the packed digit width; lazy, whether the reduction folds unreduced; and
steps, how far each fold brings its block down); mul, sqr,
frobenius(a, 1), frobenius(a, m-1), inv and pow, on tuples and, in the
*_packed rows, on packed ints, through whichever kernel the field runs by
then; mul_interpreted and mul_compiled, the packed product a*b reduced by
the ring's interpreter and by its compiled kernel; reduce, the
interpreted final reduction of a*b once its folds have run, on the same
input on both sides, and reduce_compiled, that reduction written out;
phi_map; and one checked rth_root per path tag, at the first root degree
that takes it.  frobenius_m-1_cold is the first call on a fresh field,
through every matrix it builds;
frobenius_build one build of j = m-1's matrix; frobenius_m-1 the warm
path.  Per field of --build (long modulus searches, and degree 5 on both
sides of the sieve's cutoff on p), mk_field_ms alone with the
irreducibility tests and Ben-Or gcds one build runs and the layout.
Per (p, m, r) of --amm (the benchmark's r^2 | N fields), uncached
build_amm_context and _plan times, the plan's route (descent, true where
auto descends to F_p through the norm, and shared, true where the long
powers come off one shared power), and auto against forced amm on a
residue and a non-residue, each root checked.  Last, per (p, m, r) of
KINDS, one kind per path auto takes, one pass of rth_root over 15
constructed residues and 15 random elements; before any row is timed,
both sides must give the same status, root and path tag on each of
them, or the run stops and names the kind; each side's summed counters
go in the row.

A timed call or batch past TIMEOUT_S seconds records "timeout".  Times
are wall-clock seconds of one Python thread: compare the two sides of
one run, not figures taken elsewhere.
"""

import argparse
import gc
import importlib
import json
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

GRID = ((3, 61), (2, 127), (3, 97), (5, 61), (13, 31), (29, 23))
BUILD_GRID = ((3, 101), (11, 41), (7, 41), (37, 19), (13, 19), (3, 163),
              (5, 101), (1000003, 17), (2, 521), (127, 5), (257, 5),
              (1021, 5))
# the amm_sqrt kinds, and F_{29^21}, r = 7: t >= 2 with no split of alpha
AMM_GRID = ((5, 61, 2), (13, 31, 2), (17, 21, 2), (29, 23, 2), (19, 21, 3),
            (29, 21, 7))
ROOT_DEGREES = (2, 3, 5, 7, 11, 13)
# the Baseline kinds of ROADMAP.md: every path auto takes, one kind each
KINDS = [(2, 127, 3), (3, 97, 5), (3, 61, 2), (5, 61, 2), (17, 21, 2),
         (19, 21, 3), (29, 21, 7), (3, 61, 30)]
RESIDUES = 15
SIDES = ("parent", "change")
COUNTERS = ("mults", "squarings", "frobenius", "inversions")
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


def load(tree: str, name: str, tmp: Path):
    """The rootfield package of tree, imported as name."""
    src = Path(tree) / "src" / "rootfield"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree} holds no src/rootfield package")
    shutil.copytree(src, tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def batched(fn):
    """A sampler of fn: the mean seconds per fn() call over a batch,
    sized on the first sample to take about BATCH_S."""
    batch = 0

    def run(size):
        t0 = time.perf_counter()
        for _ in range(size):
            fn()
        return (time.perf_counter() - t0) / size

    def sample():
        nonlocal batch
        batch = batch or max(1, min(1000, int(BATCH_S / max(run(1), 1e-9))))
        return run(batch)
    return sample


def first_call(fresh, fn):
    """A sampler of one fn(fresh()) call; fresh() runs untimed, so every
    sample is a first call on a new object."""

    def sample():
        obj = fresh()
        t0 = time.perf_counter()
        fn(obj)
        return time.perf_counter() - t0
    return sample


def row(samplers, facts, repeats: int, key: str = "us") -> dict:
    """Each side's median sample under key (microseconds, or milliseconds
    for a key ending in ms) with its facts, and the change/parent ratios'
    quartiles, or "timeout" for both where a sample overran TIMEOUT_S;
    "differ" where the facts differ."""
    times = ([], [])
    gc.disable()  # as timeit does: no collection inside a sample
    try:
        for i in range(repeats):
            gc.collect()
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(within(samplers[side]))
        ratios = [change / parent for parent, change in zip(*times)]
        scale = 1e3 if key.endswith("ms") else 1e6
        medians = [round(statistics.median(t) * scale, 3) for t in times]
        ratio = [round(q, 3) for q in (statistics.quantiles(ratios, n=4)
                                       if repeats > 1 else ratios * 3)]
    except Timeout:
        medians, ratio = ("timeout", "timeout"), "timeout"
    finally:
        gc.enable()
    out = {side: {key: median, **fact}
           for side, median, fact in zip(SIDES, medians, facts)}
    out["ratio"] = ratio
    if facts[0] != facts[1]:
        out["differ"] = True
    return out


def counts(c) -> dict:
    return {name: getattr(c, name) for name in COUNTERS}


def counted(pkg, fn) -> dict:
    c = pkg.OpCounter()
    fn(c)
    return counts(c)


def facts(out) -> dict:
    """The path tag and counters of a RootOutcome."""
    return {"path": out.path_tag, **counts(out.counters)}


def layout(fld) -> dict:
    """The packed digit width in bytes, whether the reduction is lazy, and
    each fold's step, top block first (_Residues._STEPS)."""
    ring = getattr(fld, "_ring", fld)  # older trees keep the ring apart
    return {"digit_bytes": fld._digit_bytes, "lazy": ring._lazy,
            "steps": [ring._STEPS[fold[1]] for fold in ring._folds]}


def final_reduction(ring, acc: int):
    """The ring's final reduction of a product (_reduce) and its input:
    acc once its folds have run, read by wrapping that reduction for one
    interpreted reduce_packed."""
    final, seen = ring._reduce, []
    ring._reduce = lambda y: seen.append(y) or final(y)
    try:
        type(ring).reduce_packed(ring, acc)
    finally:
        ring._reduce = final
    return final, seen[-1]


def kernels(pkg, ring, final):
    """The ring's product kernels and final reductions: (interpreted,
    compiled) each; the interpreter runs on a bare ring of the same
    modulus, which never compiles."""
    interpret = pkg.field._Residues(ring.p, ring._unpack(
        ring._f, ring.m + 1)).reduce_packed
    kernel = importlib.import_module(f"{pkg.__name__}._kernel")
    lines = kernel.lines(ring.p, 8 * ring._digit_bytes, ring.m,
                         ring._bounds[-1], "y")
    scope = {}
    exec("def written_out(y):\n " + "\n ".join(lines + ["return y"]), scope)
    compiled = kernel.compiled(*ring._shape)(ring._neg_low)
    return (interpret, compiled), (final, scope["written_out"])


def field_side(pkg, p: int, m: int) -> dict:
    """One side's field, its seeded generator, its element-layer calls,
    and the cold frobenius(a, m-1) call with the fresh field it takes."""
    fld = pkg.mk_field(p, m)
    rng = random.Random(p * 1000 + m)
    a, b = fld.random_elem(rng), fld.random_elem(rng)
    x, y = fld._pack(a), fld._pack(b)
    ring = getattr(fld, "_ring", fld)  # as in layout()
    final, folded = final_reduction(ring, x * y)
    products, finals = kernels(pkg, ring, final)
    ops = {"frobenius_build": lambda c=None: fld._frob_build(m - 1),
           "mul_interpreted": lambda c=None: products[0](x * y),
           "mul_compiled": lambda c=None: products[1](x * y),
           "reduce": lambda c=None: finals[0](folded),
           "reduce_compiled": lambda c=None: finals[1](folded),
           "inv": partial(fld.inv, a),
           "phi_map_norm": partial(pkg.frobpow.phi_map, fld, a, 1, m - 1)}
    for tail, u, v in (("", a, b), ("_packed", fld._pack(a), fld._pack(b))):
        ops |= {f"mul{tail}": partial(fld.mul, u, v),
                f"sqr{tail}": partial(fld.sqr, u),
                f"frobenius_1{tail}": partial(fld.frobenius, u, 1),
                f"frobenius_m-1{tail}": partial(fld.frobenius, u, m - 1),
                f"pow_N-1{tail}": partial(fld.pow, u, fld.order_minus_one - 1)}
    return {"fld": fld, "rng": rng, "ops": ops,
            "fresh": partial(pkg.mk_field, p, m, fld.modulus),
            "cold": lambda f, c=None: f.frobenius(a, m - 1, c)}


def bench_field(pkgs, p: int, m: int, repeats: int) -> dict:
    try:
        sides = [within(partial(field_side, pkg, p, m)) for pkg in pkgs]
    except Timeout:
        return {"p": p, "m": m, "mk_field_ms": "timeout"}
    out = {"p": p, "m": m, "mk_field_ms": row(
        [batched(partial(pkg.mk_field, p, m)) for pkg in pkgs],
        [layout(side["fld"]) for side in sides], repeats, "ms")}
    out["ops"] = {"frobenius_m-1_cold": row(
        [first_call(side["fresh"], side["cold"]) for side in sides],
        [counted(pkg, lambda c, s=side: s["cold"](s["fresh"](), c))
         for pkg, side in zip(pkgs, sides)], repeats)}
    for name in sides[0]["ops"]:
        fns = [side["ops"][name] for side in sides]
        out["ops"][name] = row([batched(fn) for fn in fns],
                               [counted(pkg, fn)
                                for pkg, fn in zip(pkgs, fns)], repeats)
    out["roots"] = bench_roots(pkgs, sides, repeats)
    return out


def bench_roots(pkgs, sides, repeats: int) -> list:
    """One row per path tag of the parent: the first root degree that
    takes it, where both sides take the path."""
    rows = {}
    flds = [side["fld"] for side in sides]
    for r in ROOT_DEGREES:
        if flds[0].p % r == 0:  # prime r = p: the Frobenius peel, no stage
            continue
        paths = (("amm",) if pkgs[0].roots._plan(flds[0], r).t > 1
                 else ("periodic", "naive"))
        deltas = []
        for fld, side in zip(flds, sides):
            gamma = fld.random_elem(side["rng"])
            while not any(gamma):
                gamma = fld.random_elem(side["rng"])
            deltas.append(fld.pow(gamma, r))
        for path in paths:
            runs = [partial(pkg.rth_root, fld, delta, r, path=path)
                    for pkg, fld, delta in zip(pkgs, flds, deltas)]
            try:
                tag = runs[0]().path_tag
                runs[1]()
            except (pkgs[0].PeriodTooLong, pkgs[1].PeriodTooLong):
                continue
            if tag not in rows:
                rows[tag] = {"r": r, "path": tag, **root_row(
                    runs, flds, deltas, r, "root_found", repeats)}
    return sorted(rows.values(), key=lambda row: row["path"])


def root_row(runs, flds, deltas, r: int, status: str, repeats: int) -> dict:
    """The row of each side's rth_root call, once each answer has the
    status and, where it is a root, the r-th power delta."""
    outs = [run() for run in runs]
    for out, fld, delta in zip(outs, flds, deltas):
        if out.status != status or (out.root is not None
                                    and fld.pow(out.root, r) != delta):
            raise RuntimeError(f"{out.path_tag} failed on {delta}, r={r}")
    return row([batched(run) for run in runs], [facts(out) for out in outs],
               repeats)


def bench_build(pkgs, p: int, m: int, repeats: int) -> dict:
    """mk_field's time, and the irreducibility tests and Ben-Or gcds that
    one build runs (counted on an untimed build, through the module global
    the modulus search calls and through _Residues.gcd)."""
    builds = []
    for pkg in pkgs:
        tests, gcds = [], []
        test, gcd = pkg.field.is_irreducible, pkg.field._Residues.gcd
        pkg.field.is_irreducible = (lambda f, q, **kw: tests.append(f) or
                                    test(f, q, **kw))
        pkg.field._Residues.gcd = (lambda ring, b: gcds.append(b) or
                                   gcd(ring, b))
        try:
            fld = within(partial(pkg.mk_field, p, m))
        except Timeout:
            return {"p": p, "m": m, "mk_field_ms": "timeout"}
        finally:
            pkg.field.is_irreducible, pkg.field._Residues.gcd = test, gcd
        builds.append({"irreducible_tests": len(tests), "gcds": len(gcds),
                       **layout(fld)})
    return {"p": p, "m": m, "mk_field_ms": row(
        [batched(partial(pkg.mk_field, p, m)) for pkg in pkgs], builds,
        repeats, "ms")}


def uncached_plan(pkg):
    """The side's plan build with nothing kept: _plan on a field emptied
    of its plans."""
    plan = pkg.roots._plan

    def fresh(fld, r):
        fld._plans = {}
        return plan(fld, r)
    return fresh


def route(plan) -> dict:
    """The route a plan takes: descent, true where auto descends to F_p
    through the norm; shared, true where a t >= 2 stage reads its long
    powers off one shared power (False on trees without one)."""
    return {"descent": plan.descent is not None,
            "shared": getattr(plan, "shared", None) is not None}


def bench_amm(pkgs, p: int, m: int, r: int, repeats: int) -> dict:
    """Auto against forced amm on one field, for a constructed residue
    and a seeded non-residue; each root is checked."""
    flds = [pkg.mk_field(p, m) for pkg in pkgs]
    sides = list(zip(pkgs, flds))
    out = {"p": p, "m": m, "r": r, "amm_context_us": row(
        [batched(partial(pkg.build_amm_context, fld, r))
         for pkg, fld in sides], [{}, {}], repeats), "plan_us": row(
        [batched(partial(uncached_plan(pkg), fld, r)) for pkg, fld in sides],
        [route(pkg.roots._plan(fld, r)) for pkg, fld in sides], repeats)}
    residues = [fld.pow(fld.random_elem(random.Random(f"{p}^{m}/{r}")), r)
                for fld in flds]
    nonresidues = [pkg.find_nonresidue(fld, r, 1) for pkg, fld in sides]
    for name, deltas, status in (("residue", residues, "root_found"),
                                 ("non_residue", nonresidues, "non_residue")):
        for path in ("auto", "amm"):
            out[f"{name}_{path}"] = root_row(
                [partial(pkg.rth_root, fld, delta, r, path=path)
                 for (pkg, fld), delta in zip(sides, deltas)],
                flds, deltas, r, status, repeats)
    return out


def prepare(pkgs, kind) -> tuple:
    """Each side's one pass of rth_root over the elements of kind, and
    each side's summed counters, once both sides agree on every status,
    root and path tag; SystemExit names the kind and the first element
    where they differ.  Counters may differ, and the row marks it."""
    p, m, r = kind
    rng = random.Random(f"{p}^{m} {r}")
    digits = [[rng.randrange(p) for _ in range(m)]
              for _ in range(2 * RESIDUES)]
    passes, answers = [], []
    for pkg in pkgs:
        fld = pkg.mk_field(p, m)
        elems = [fld.pow(fld.elem(d), r) for d in digits[:RESIDUES]]
        elems += [fld.elem(d) for d in digits[RESIDUES:]]
        passes.append(lambda run=pkg.rth_root, fld=fld, elems=elems: [
            run(fld, delta, r) for delta in elems])
        answers.append([(out.status, out.root, facts(out))
                        for out in passes[-1]()])
    for i, (a, b) in enumerate(zip(*answers)):
        if (a[0], a[1], a[2]["path"]) != (b[0], b[1], b[2]["path"]):
            raise SystemExit(f"rth_root answers differ on F_{{{p}^{m}}}, "
                             f"r={r}, element {i}: parent {a} != change {b}")
    return passes, [{name: sum(a[2][name] for a in side) for name in COUNTERS}
                    for side in answers]


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
    ap.add_argument("parent", help="source tree holding src/rootfield")
    ap.add_argument("change", help="source tree holding src/rootfield")
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--field", action="append", type=int_tuple(2),
                    help="p,m; repeatable (default: the fixed grid)")
    ap.add_argument("--build", action="append", type=int_tuple(2),
                    help="p,m for an mk_field row alone; repeatable "
                         "(default: the grid of slow builds)")
    ap.add_argument("--amm", action="append", type=int_tuple(3),
                    help="p,m,r for an auto-against-forced amm row; "
                         "repeatable (default: the benchmark's r^2 | N "
                         "fields)")
    ap.add_argument("--out", default="-", help="JSON file, - for stdout")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    tmp = Path(tempfile.mkdtemp(prefix="bench_layers_"))
    sys.path.insert(0, str(tmp))
    names = [f"rf_{side}" for side in SIDES]
    try:
        pkgs = [load(tree, name, tmp)
                for tree, name in zip((args.parent, args.change), names)]
        kinds = [(kind, prepare(pkgs, kind)) for kind in KINDS]
        run = {"python": platform.python_version(),
               "repeats": args.repeats, "timeout_s": TIMEOUT_S,
               "fields": [bench_field(pkgs, p, m, args.repeats)
                          for p, m in args.field or GRID],
               "builds": [bench_build(pkgs, p, m, args.repeats)
                          for p, m in args.build or BUILD_GRID],
               "amm": [bench_amm(pkgs, p, m, r, args.repeats)
                       for p, m, r in args.amm or AMM_GRID],
               "rth_root": [
                   {"p": p, "m": m, "r": r,
                    **row([batched(fn) for fn in passes], totals,
                          args.repeats, "pass_ms")}
                   for (p, m, r), (passes, totals) in kinds]}
    finally:
        sys.path.remove(str(tmp))
        for name in list(sys.modules):
            if name.partition(".")[0] in names:
                del sys.modules[name]
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") if args.out != "-" else nullcontext(
            sys.stdout) as fh:
        fh.write(json.dumps(run, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
