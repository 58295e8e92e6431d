"""Run workloads repeatedly and print the spread of each end-to-end metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 10]

Each run is `perfbench/run.py --trace 0` with its own seed, one after
another.  Per workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and per
workload the share of failed requests in each run.  The bounds in
BENCHMARK.json are derived from this output: four times the largest
spread seen for the metric on any workload, rounded up to 0.01, at
least 0.10 for times and 0.05 for counts, at most 0.25; setup_s takes
0.25.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def suggested_bound(spread: float, unit: str) -> float:
    floor = 0.05 if unit == "count" else 0.10
    return min(0.25, max(floor, math.ceil(spread * 4 * 100) / 100))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    worst: dict[str, float] = {}
    units: dict[str, str] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"# {workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        bad = [r for r in runs if not r["correct"]]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        ratios = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, {len(bad)} incorrect, "
              f"failed shares {' '.join(shares)}"
              f"{'' if len(ratios) == 1 else '  (NOT EQUAL)'}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst[name] = max(worst.get(name, 0.0), spread)
            unit = units[name] = runs[0]["metrics"][name]["unit"]
            print(f"  {name:18s} median {med:12.6g} {unit:6s} "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    print("suggested bounds:")
    for name, spread in worst.items():
        bound = (0.25 if name == "setup_s"
                 else suggested_bound(spread, units[name]))
        print(f"  {name:18s} largest spread {spread:.4f}  bound {bound:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
