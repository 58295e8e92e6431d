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

import hashlib
import logging
import random
import time
from dataclasses import astuple, dataclass
from itertools import product

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
        """The row under CSV_COLUMNS, which follow the field order: None
        is empty, bools are true and false, and tags are lowercase."""
        return [("" if x is None else str(x)).lower() for x in astuple(self)]


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
        triples.extend(product(fields["q"], fields["m"], fields["r"]))
    return triples


def load_sweep(path: str) -> list[tuple[int, int, int]]:
    """A sweep file is the inline grammar, one group per line; blank
    lines and #-comments are skipped."""
    with open(path) as fh:
        return parse_sweep(";".join(line.split("#", 1)[0] for line in fh))


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
        if plan.t < 2 and plan.head:
            n_prime, period = plan.head.n, plan.head.period
        if d > 1:
            try:
                bq = decompose_base_q(q, m, r)
                n, n_prime = bq.n, bq.n_prime
            except (ConditionsUnmet, PeriodTooLong, NotCoprime):
                pass
        elif n_prime is not None:
            n = n_prime

        # no forced paths for composite r
        runs = (["auto"] if not is_prime(r) else ["amm"] if plan.t > 1
                else ["periodic", "naive"])
        for path in runs:
            try:
                t0 = time.perf_counter_ns()
                outcome = rth_root(fld, delta, r, seed=seed, path=path)
                wall = time.perf_counter_ns() - t0
            except ValueError as exc:
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
    """No cell holds a comma, a quote or a newline, so none is quoted."""
    for cells in [CSV_COLUMNS, *(row.cells() for row in rows)]:
        stream.write(",".join(cells) + "\n")
