"""The benchmark's workloads: which requests each one sends, and how.

Every workload is a single caller in a closed loop: one request at a
time, the next sent when the previous one returns.  A round is the
workload's whole request list; a run repeats it, each time in a new
order drawn from the seed, so every run attempts whole rounds of the
same operations and no request keeps one neighbour.

Inputs are made by the checker's own arithmetic from the seed, so the
program only ever sees finished inputs.  Per (field, r) kind, half the
deltas are constructed residues gamma^r and half are random elements.
The random half is drawn with its verdict split fixed at the expected
share, 1/gcd(r, N) residues, so every seed sends the same mix of
verdicts and only the elements differ.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
from dataclasses import dataclass, replace
from math import gcd

from .checker import Ring, is_residue

# (p, m, r, requests per half) kinds; see perfbench/README.md for why
# each is here.  Latencies cluster by kind, and a median on the edge
# between two clusters flips from one to the other with noise, so the
# counts put the root_found median inside the F_{2^127}, r = 7 and 11
# cluster and the non_residue median inside the F_{3^61}, r = 2 and 30
# one, each with enough deltas that no single element sets the median.
PERIODIC_KINDS = ([(2, 127, r, 4) for r in (3, 5, 7, 11, 13, 6)]
                  + [(3, 61, 2, 6), (3, 61, 5, 2), (3, 61, 7, 2),
                     (3, 61, 30, 6)]
                  + [(3, 97, r, 2) for r in (2, 5, 7, 30)])

AMM_KINDS = [(5, 61, 2, 6), (13, 31, 2, 6), (17, 21, 2, 6), (29, 23, 2, 6),
             (19, 21, 3, 6)]

# One request per field, (p, m, r, constructed residue?): 20 residues and
# 20 random non-residues, so each verdict's median is taken over many
# fields rather than resting on one.  Build times run from a few ms to
# seconds; (3, 101) and (11, 41) are the slowest.
CLI_REQUESTS = [
    # coprime_fast
    (2, 61, 3, True), (2, 89, 5, True), (2, 127, 7, True), (2, 53, 3, True),
    (2, 97, 3, True), (3, 41, 5, True), (7, 29, 5, True), (5, 43, 3, True),
    # ramified_fast
    (3, 101, 2, True), (11, 41, 5, True), (7, 41, 3, True), (11, 31, 2, True),
    (3, 37, 2, True), (23, 19, 2, True),
    (7, 53, 3, False), (3, 97, 2, False), (3, 43, 2, False),
    (3, 67, 2, False), (7, 31, 3, False), (7, 43, 2, False),
    (11, 23, 5, False), (13, 19, 3, False), (19, 23, 2, False),
    (23, 17, 2, False), (31, 21, 2, False),
    # amm
    (5, 61, 2, True), (19, 21, 3, True), (13, 29, 2, True), (37, 19, 2, True),
    (13, 31, 2, False), (17, 21, 2, False), (29, 23, 2, False),
    (5, 37, 2, False), (5, 41, 2, False), (17, 23, 2, False),
    (29, 21, 7, False), (41, 17, 2, False),
    # composite_chain
    (3, 59, 6, True), (2, 67, 6, True),
    # naive_fallback: 179951 divides 2^59 - 1 and p has order 59 mod it
    (2, 59, 179951, False),
]
# periodic.mult_order iterates up to the order of 3 mod 2^31 - 1; the
# call has not been seen to finish, so it fails by overrunning its budget,
# which is well above the slowest healthy request (about 3 s).  The other
# requests get a budget only against hangs.
CLI_FAILING = (3, 61, 2147483647, False)
CLI_FAILING_BUDGET_S = 8.0
CLI_BUDGET_S = 60.0


@dataclass(frozen=True)
class Request:
    p: int
    m: int
    r: int
    delta: tuple
    constructed_residue: bool
    budget_s: float = CLI_BUDGET_S


@dataclass(frozen=True)
class Outcome:
    """What one request returned, reduced to what the checker needs."""

    status: str
    root: tuple | None
    path_tag: str
    mults: int
    squarings: int
    frobenius: int


class RequestOverrun(Exception):
    """A request ran past its time budget."""


def _nonzero_elem(ring: Ring, rng: random.Random) -> list:
    while True:
        a = [rng.randrange(ring.p) for _ in range(ring.m)]
        if any(a):
            return a


def _residue_request(ring, r, rng) -> Request:
    delta = ring.pow(_nonzero_elem(ring, rng), r)
    return Request(ring.p, ring.m, r, tuple(delta), True)


def _random_requests(ring, r, count, rng) -> list[Request]:
    """count random elements, residues in the expected share 1/gcd(r, N)."""
    g = gcd(r, ring.p ** ring.m - 1)
    want = {True: round(count / g), False: count - round(count / g)}
    out = []
    while len(out) < count:
        delta = _nonzero_elem(ring, rng)
        res = is_residue(ring, delta, r) if g > 1 else True
        if want[res]:
            want[res] -= 1
            out.append(Request(ring.p, ring.m, r, tuple(delta), False))
    return out


def _kind_requests(kinds, moduli, rng) -> list[Request]:
    out = []
    for p, m, r, per_half in kinds:
        ring = Ring(p, moduli[(p, m)])
        out.extend(_residue_request(ring, r, rng) for _ in range(per_half))
        out.extend(_random_requests(ring, r, per_half, rng))
    return out


class LibraryWorkload:
    """Roots through rootfield.rth_root on fields built once in set-up."""

    min_rounds = 1

    def __init__(self, name, kinds):
        self.name = name
        self.kinds = kinds

    def fields(self):
        return sorted({(p, m) for p, m, _, _ in self.kinds})

    def requests(self, seed: int, moduli) -> list[Request]:
        rng = random.Random(f"{self.name}/{seed}")
        return _kind_requests(self.kinds, moduli, rng)

    def setup(self, requests):
        """Build every field, then send one residue per kind so that lazy
        state (the AMM unity table and its cache) is in place.  Returns
        the fields and the warm-up (request, outcome) pairs."""
        from rootfield import mk_field
        fields = {pm: mk_field(*pm) for pm in self.fields()}
        warm = {}
        for req in requests:
            if req.constructed_residue:
                warm.setdefault((req.p, req.m, req.r), req)
        return fields, [(req, self.call(fields, req)) for req in warm.values()]

    def before_request(self):
        pass

    def call(self, fields, req: Request) -> Outcome:
        from rootfield import roots
        out = roots.rth_root(fields[(req.p, req.m)], req.delta, req.r)
        c = out.counters
        if not out.verification:
            raise RuntimeError("outcome not verified by the library")
        return Outcome(out.status, out.root, out.path_tag, c.mults,
                       c.squarings, c.frobenius)


class CliWorkload:
    """One `rootfield root` invocation per request, in process through
    cli.dispatch with stdout captured; each request names another field,
    so the invocation pays field construction and any AMM table."""

    name = "cli_oneshot"
    # two samples of each field, so that a median does not rest on one
    min_rounds = 2

    def fields(self):
        return sorted({(p, m) for p, m, _, _ in CLI_REQUESTS + [CLI_FAILING]})

    def requests(self, seed: int, moduli) -> list[Request]:
        rng = random.Random(f"{self.name}/{seed}")
        reqs = []
        for p, m, r, residue in CLI_REQUESTS:
            ring = Ring(p, moduli[(p, m)])
            if residue:
                reqs.append(_residue_request(ring, r, rng))
            else:
                reqs.extend(_random_requests(ring, r, 1, rng))
        p, m, r, _ = CLI_FAILING
        (failing,) = _random_requests(Ring(p, moduli[(p, m)]), r, 1, rng)
        reqs.append(replace(failing, budget_s=CLI_FAILING_BUDGET_S))
        return reqs

    def setup(self, requests):
        import rootfield.cli  # noqa: F401  (the import is the set-up)
        return None, []

    def before_request(self):
        """Empty the library's in-process caches, as a new process would
        start; a later round then pays what the first one paid."""
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("rootfield") and mod is not None:
                for obj in vars(mod).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    def call(self, _fields, req: Request) -> Outcome:
        from rootfield import cli
        argv = ["root", "--p", str(req.p), "--m", str(req.m),
                "--r", str(req.r), "--delta", ",".join(map(str, req.delta)),
                "--seed", "0"]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, req.budget_s)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return _parse_root_line(out.getvalue(), code, err.getvalue())


def _overrun(_signum, _frame):
    raise RequestOverrun("request ran past its time budget")


def _parse_root_line(text: str, code: int, err: str) -> Outcome:
    if code not in (0, 2):
        raise RuntimeError(f"rootfield root exited {code}: {err.strip()}")
    fields = dict(tok.partition("=")[::2] for tok in text.split())
    root = fields.get("root")
    status = fields["status"]
    if (code == 0) != (status == "root_found"):
        raise RuntimeError(f"exit code {code} disagrees with status {status}")
    return Outcome(status,
                   tuple(int(c) for c in root.split(",")) if root else None,
                   fields["path"], int(fields["mults"]),
                   int(fields["squarings"]), int(fields["frobenius"]))


WORKLOADS = {
    "periodic_frobenius": LibraryWorkload("periodic_frobenius",
                                          PERIODIC_KINDS),
    "amm_sqrt": LibraryWorkload("amm_sqrt", AMM_KINDS),
    "cli_oneshot": CliWorkload(),
}
