"""Parameter sweeps with operation counting.

Each sweep entry is a triple (q, m, r) with q = p^d a prime power; the
extraction itself runs in the flattened field F_{p^{d*m}}.  Per triple
the harness runs the periodic fast path and the naive powering path on
one seeded pseudorandom residue delta = gamma^r and emits a CSV row per
run.  Where r^2 divides the group order there is no single-exponent
path, so the digit-correction algorithm contributes one row instead of
a fast/naive pair.

Counters are the metric of record; wall_ns is informational only and is
the one nondeterministic column.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import random
import time
from dataclasses import dataclass

from .field import is_prime, mk_field
from .periodic import (CASE_TAGS, ConditionsUnmet, NotCoprime,
                       NotCoprimeCase, PeriodTooLong, decompose_base_q,
                       mult_order, prime_power_split)
from .roots import _plan, rth_root

log = logging.getLogger(__name__)

CSV_COLUMNS = ("p", "d", "m", "r", "case", "path", "mults", "squarings",
               "frobenius", "n", "n_prime", "k", "period", "verified",
               "wall_ns")


@dataclass
class BenchRow:
    p: int
    d: int
    m: int
    r: int
    case_tag: str
    path_tag: str
    mults: int
    squarings: int
    frobenius: int
    n: int | None
    n_prime: int | None
    k: int | None
    period: int | None
    verified: bool
    wall_ns: int

    def cells(self) -> list[str]:
        def opt(x):
            return "" if x is None else str(x)

        return [str(self.p), str(self.d), str(self.m), str(self.r),
                self.case_tag, self.path_tag, str(self.mults),
                str(self.squarings), str(self.frobenius), opt(self.n),
                opt(self.n_prime), opt(self.k), opt(self.period),
                "true" if self.verified else "false", str(self.wall_ns)]


def parse_sweep(text: str) -> list[tuple[int, int, int]]:
    """Inline sweep grammar: semicolon-separated groups of
    `q=<list> m=<list> r=<list>`, each list comma-separated with
    `a..b` and `a..b:step` ranges allowed.  `p=` is accepted as an
    alias for `q=`.  Each group expands to its cartesian product."""

    def expand(vals: str) -> list[int]:
        out = []
        for item in vals.split(","):
            if ".." in item:
                lo, _, rest = item.partition("..")
                hi, _, step = rest.partition(":")
                out.extend(range(int(lo), int(hi) + 1, int(step or 1)))
            else:
                out.append(int(item))
        return out

    triples = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        fields: dict = {}
        for tok in group.split():
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"bad sweep token {tok!r}")
            fields["q" if key == "p" else key] = expand(val)
        missing = {"q", "m", "r"} - fields.keys()
        if missing:
            raise ValueError(f"sweep group {group!r} missing {sorted(missing)}")
        for q in fields["q"]:
            for m in fields["m"]:
                for r in fields["r"]:
                    triples.append((q, m, r))
    return triples


def load_sweep(path: str) -> list[tuple[int, int, int]]:
    """A sweep file is the inline grammar, one group per line; blank
    lines and #-comments are skipped."""
    triples = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                triples.extend(parse_sweep(line))
    return triples


def _row_delta(fld, r: int, seed: int, p: int, d: int, m: int):
    tag = f"{p}|{d}|{m}|{r}".encode()
    h = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")
    rng = random.Random(seed ^ h)
    gamma = fld.random_elem(rng)
    while not any(gamma):
        gamma = fld.random_elem(rng)
    return fld.pow(gamma, r)


def run_sweep(triples, seed: int = 0) -> list[BenchRow]:
    """One or two BenchRows per runnable triple; unrunnable triples are
    logged and skipped.  The case, n_prime and the period come from the
    root layer's plan.  Every emitted row is verified; a failed
    verification aborts the sweep."""
    rows = []
    for q, m, r in triples:
        try:
            p, d = prime_power_split(q)
            fld = mk_field(p, d * m)
            k = mult_order(p, r)
            plan = _plan(fld, r)
            if plan.t < 2 and plan.alpha is None:
                raise NotCoprimeCase(f"r={r} shares a factor with s={plan.s}")
        except ValueError as exc:
            log.warning("skipping (q=%d, m=%d, r=%d): %s", q, m, r, exc)
            continue
        delta = _row_delta(fld, r, seed, p, d, m)

        n = n_prime = period = None
        if plan.t < 2 and plan.pe:
            n_prime = plan.pe.n
            period = plan.pe.period
        if d > 1:
            try:
                bq = decompose_base_q(q, m, r)
                n = bq.n
                n_prime = bq.n_prime
            except (ConditionsUnmet, PeriodTooLong, NotCoprime):
                pass
        elif n_prime is not None:
            n = n_prime

        if not is_prime(r):
            runs = ["auto"]  # no forced paths for composite r
        elif plan.t > 1:
            runs = ["amm"]
        else:
            runs = ["periodic", "naive"]
        for path in runs:
            try:
                t0 = time.perf_counter_ns()
                outcome = rth_root(fld, delta, r, seed=seed, path=path)
                wall = time.perf_counter_ns() - t0
            except (PeriodTooLong, ValueError) as exc:
                log.warning("skipping path %s for (q=%d, m=%d, r=%d): %s",
                            path, q, m, r, exc)
                continue
            if outcome.status != "root_found" or not outcome.verification:
                raise RuntimeError(
                    f"unverified row for (q={q}, m={m}, r={r}, path={path}); "
                    "delta was constructed as an r-th power")
            c = outcome.counters
            rows.append(BenchRow(p, d, m, r, CASE_TAGS[min(plan.t, 2)],
                                 outcome.path_tag, c.mults, c.squarings,
                                 c.frobenius, n, n_prime, k, period,
                                 True, wall))
    rows.sort(key=lambda row: (row.p, row.m, row.r, row.d,
                               row.path_tag == "naive_fallback"))
    return rows


def write_csv(rows, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.cells())
