"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload periodic_frobenius --seed 1 \
        --seconds 10 --trace 0

Run from a checkout: the library is imported from its src/ directory.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead, and the spans are written to .bench_out/.  Every
output is checked by perfbench.checker before anything is reported.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5          # set-ups per run: this process plus fresh ones
SUBPROCESS_TIMEOUT_S = 150
PATH_TAGS = ("coprime_fast", "ramified_fast", "naive_fallback", "amm",
             "composite_chain")

sys.path.insert(0, str(ROOT))
from perfbench import checker  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, RequestOverrun  # noqa: E402


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it")
    return ap.parse_args(argv)


def _load_moduli():
    with open(Path(__file__).with_name("moduli.json")) as fh:
        data = json.load(fh)
    return {tuple(int(x) for x in key.split(",")): f
            for key, f in data["moduli"].items()}


def _import_library() -> None:
    import rootfield
    origin = Path(rootfield.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"rootfield imported from {origin}, not from {SRC}")


def _timed_setup(wl, reqs, ref):
    """One set-up, at reference speed from kernel samples around it."""
    ref.sample()
    t0 = time.perf_counter()
    _import_library()
    fields, warm = wl.setup(reqs)
    t1 = time.perf_counter()
    ref.sample()
    return (t1 - t0) * ref.scale(t0, t1), fields, warm


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT_S, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


class Round:
    """Latencies and outcomes of one pass over the request list, indexed
    like the list; a failed request has the exception in place of its
    outcome.  spans holds each request's start and end, for scaling to
    reference speed."""

    def __init__(self, n):
        self.latencies = [0.0] * n
        self.outcomes = [None] * n
        self.spans = [None] * n


def orders(seed: int, n: int):
    """The order of each round: a fresh permutation from the seed."""
    rng = random.Random(f"order/{seed}")
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


def run_round(wl, fields, reqs, order, ref=None, tracer=None,
              label="") -> Round:
    rnd = Round(len(reqs))
    for i in order:
        req = reqs[i]
        if ref is not None:
            ref.maybe_sample()
        wl.before_request()
        if tracer is not None:
            tracer.request = f"{label}:{i}"
            span = tracer.open("bench.request")
        t0 = time.perf_counter()
        try:
            out = wl.call(fields, req)
        except (RequestOverrun, ArithmeticError, ValueError,
                RuntimeError) as exc:
            out = exc
        t1 = time.perf_counter()
        rnd.latencies[i] = t1 - t0
        rnd.spans[i] = (t0, t1)
        if tracer is not None:
            tracer.close(span)
            tracer.request = None
        rnd.outcomes[i] = out
    return rnd


def check_all(wl, fields, reqs, rounds, warm, moduli) -> list[str]:
    """Check every output: each request's first outcome in full, its
    outcomes in later rounds against that one, the warm-up outcomes, and
    each field's modulus."""
    errors = []
    for pm in wl.fields():
        errors += checker.check_modulus(*pm, moduli[pm])
        if fields is not None and pm in fields and \
                list(fields[pm].modulus) != list(moduli[pm]):
            errors.append(f"F_{pm[0]}^{pm[1]}: modulus is not the canonical "
                          f"one in perfbench/moduli.json")
    rings = {pm: checker.Ring(pm[0], moduli[pm]) for pm in wl.fields()}

    def check(req, out):
        return checker.check_outcome(
            rings[(req.p, req.m)], req.delta, req.r, req.constructed_residue,
            out.status, out.root, out.path_tag)

    seen = {}
    for rnd in rounds:
        for i, (req, out) in enumerate(zip(reqs, rnd.outcomes)):
            if isinstance(out, Exception):
                continue
            if i not in seen:
                seen[i] = out
                errors += check(req, out)
            elif out != seen[i]:
                errors.append(f"F_{req.p}^{req.m} r={req.r}: outcome "
                              f"changed between rounds")
    for req, out in warm:
        errors += check(req, out)
    return errors


def _completed(rounds):
    for rnd in rounds:
        for lat, out in zip(rnd.latencies, rnd.outcomes):
            if not isinstance(out, Exception):
                yield lat, out


def end_to_end(args, wl, reqs, moduli):
    ref = Reference(moduli)
    setup_s, fields, warm = _timed_setup(wl, reqs, ref)
    setups = [setup_s] + [_setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUP_RUNS - 1)]
    rounds = []
    round_orders = orders(args.seed, len(reqs))
    t0 = time.perf_counter()
    while (len(rounds) < wl.min_rounds
           or time.perf_counter() - t0 < args.seconds):
        rounds.append(run_round(wl, fields, reqs, next(round_orders), ref))
    ref.sample()
    # an overrun is a wall-clock budget, not work, so it stays unscaled
    for rnd in rounds:
        rnd.latencies = [
            lat if isinstance(out, Exception) else lat * ref.scale(*span)
            for lat, span, out in zip(rnd.latencies, rnd.spans, rnd.outcomes)]
    loop_s = sum(sum(rnd.latencies) for rnd in rounds)
    done = list(_completed(rounds))
    if not done:
        raise SystemExit("no request completed")
    root_lat = [lat for lat, out in done if out.status == "root_found"]
    nonres_lat = [lat for lat, out in done if out.status == "non_residue"]
    if not root_lat or not nonres_lat:
        raise SystemExit("the workload must produce both verdicts")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(done) / loop_s, "1/s"),
        "root_p50_ms": (statistics.median(root_lat) * 1e3, "ms"),
        "nonres_p50_ms": (statistics.median(nonres_lat) * 1e3, "ms"),
        "products_per_op": (
            sum(out.mults + out.squarings for _, out in done) / len(done),
            "count"),
    }
    errors = check_all(wl, fields, reqs, rounds, warm, moduli)
    return rounds, metrics, errors


def per_layer(args, wl, reqs, moduli):
    _import_library()
    tracer = Tracer()
    tracer.install()
    tracer.request = "setup"
    span = tracer.open("bench.setup")
    fields, warm = wl.setup(reqs)
    tracer.close(span)
    tracer.uninstall()
    plain, traced = [], []
    pair_orders = orders(args.seed, len(reqs))
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        order = next(pair_orders)
        plain.append(run_round(wl, fields, reqs, order))
        tracer.install()
        try:
            traced.append(run_round(wl, fields, reqs, order, tracer=tracer,
                                    label=f"r{len(traced)}"))
        finally:
            tracer.uninstall()
    errors = check_all(wl, fields, reqs, plain + traced, warm, moduli)

    # counters of the traced rounds must equal the untraced ones exactly
    plain_ops = [(o.mults, o.squarings, o.frobenius)
                 for _, o in _completed(plain)]
    traced_ops = [(o.mults, o.squarings, o.frobenius)
                  for _, o in _completed(traced)]
    if plain_ops != traced_ops:
        errors.append("traced counters differ from untraced counters")
    plain_lat = sum(lat for lat, _ in _completed(plain))
    traced_lat = sum(lat for lat, _ in _completed(traced))

    n = len(traced)
    setup_agg = tracer.summarize(lambda req: req == "setup")
    round_agg = tracer.summarize(lambda req: req != "setup")
    all_agg = tracer.summarize()

    def per_setup_and_round(names, col):
        return sum((setup_agg.get(k, (0, 0.0, 0.0))[col]
                    + round_agg.get(k, (0, 0.0, 0.0))[col] / n
                    for k in names), 0.0)

    def layer(prefix):
        return [k for k in all_agg if k.startswith(prefix)]

    def mean_us(names):
        calls = sum(all_agg.get(k, (0,))[0] for k in names)
        total = sum(all_agg.get(k, (0, 0.0))[1] for k in names)
        return total / calls * 1e6 if calls else 0.0

    def calls(names):
        return sum(all_agg.get(k, (0,))[0] for k in names)

    mul = ["field.mul", "field.sqr"]
    frob = ["field.frobenius"]
    warm_apps = sum(o.frobenius for _, o in warm)
    round_apps = sum(o.frobenius for _, o in _completed(traced))
    apps = warm_apps + round_apps / n
    frob_total = all_agg.get("field.frobenius", (0, 0.0))[1]
    traced_s = per_setup_and_round(["bench.setup", "bench.request"], 1)
    self_sum = per_setup_and_round(list(all_agg), 2)
    if abs(self_sum - traced_s) > 1e-9 * max(traced_s, 1.0) + 1e-9:
        errors.append(f"self times sum to {self_sum} s, traced time is "
                      f"{traced_s} s")
    tags = {}
    for _, out in _completed(traced):
        tags[out.path_tag] = tags.get(out.path_tag, 0) + 1
    metrics = {
        "field.mk_field_ms": (mean_us(["field.mk_field"]) / 1e3, "ms"),
        "field.irreducible_tests": (
            calls(["field.is_irreducible"])
            / max(calls(["field.mk_field"]), 1), "count"),
        "field.mul_calls": (per_setup_and_round(mul, 0), "count"),
        "field.mul_us": (mean_us(mul), "us"),
        "field.mul_self_s": (per_setup_and_round(mul, 2), "s"),
        "field.frobenius_calls": (per_setup_and_round(frob, 0), "count"),
        "field.frobenius_apps": (apps, "count"),
        "field.frobenius_us_per_app": (
            frob_total / (warm_apps + round_apps) * 1e6
            if warm_apps + round_apps else 0.0, "us"),
        "field.frobenius_self_s": (per_setup_and_round(frob, 2), "s"),
        "field.pow_self_s": (per_setup_and_round(["field.pow"], 2), "s"),
        "periodic.decompose_us": (mean_us(layer("periodic.decompose")), "us"),
        "periodic.mult_order_us": (mean_us(["periodic.mult_order"]), "us"),
        "frobpow.phi_map_self_s": (
            per_setup_and_round(["frobpow.phi_map"], 2), "s"),
        "roots.self_s": (per_setup_and_round(layer("roots."), 2), "s"),
        "roots.amm_context_s": (
            per_setup_and_round(["roots.build_amm_context"], 1), "s"),
    }
    for tag in PATH_TAGS:
        metrics[f"roots.path.{tag}"] = (tags.get(tag, 0) / n, "count")
    metrics.update({
        "cli.self_s": (per_setup_and_round(layer("cli."), 2), "s"),
        "bench.self_s": (per_setup_and_round(layer("bench."), 2), "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_pct": (
            (traced_lat - plain_lat) / plain_lat * 100, "%"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv")
    return plain + traced, metrics, errors


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rootfield" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    moduli = _load_moduli()
    reqs = wl.requests(args.seed, moduli)
    if args.setup_only:
        setup_s = _timed_setup(wl, reqs, Reference(moduli))[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    measure = per_layer if args.trace else end_to_end
    rounds, metrics, errors = measure(args, wl, reqs, moduli)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    attempted = sum(len(rnd.outcomes) for rnd in rounds)
    failed = sum(isinstance(o, Exception) for rnd in rounds
                 for o in rnd.outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"{'attempted':28s} {attempted:14d}\n{'failed':28s} {failed:14d}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
