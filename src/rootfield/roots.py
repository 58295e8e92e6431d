"""r-th root extraction in F_{p^m}.

One algorithm for every prime r.  With N = p^m - 1 = r^t * s,
gcd(s, r) = 1 and alpha = r^{-1} mod s, Barreto-Voloch's single
exponent alpha is also the head of Adleman-Manders-Miller (AMM): for
t = 0 delta^alpha is the root (coprime_fast, naive_fallback); for t = 1
it is the root of a residue, so its verification doubles as the residue
test (ramified_fast, naive_fallback); for t >= 2 the residue test
delta^{N/r} comes first and a digit loop over the r-th roots of unity
corrects the head (amm).

_plan derives t, s, alpha and the splits once per (field, r), the one
classification of (p, m, r): pe splits alpha, and k and l_t, the orders
of p mod r and mod r^t, split delta^{N/r} and delta^s, so that the long
powers collapse into Frobenius maps.  One body, _root, runs every prime
stage on the splits its context holds; forced paths "naive" and "amm",
and amm_root, clear them for plain powering, the splits' baseline.

rth_root dispatches prime by prime for composite r and peels factors of
p off r first, since the p-th power map is the Frobenius bijection.  It
packs delta once; the stages, rho^s and the unity table are packed (see
field), and only the returned root is unpacked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd

from .field import Field, OpCounter, is_prime
from .frobpow import apply_periodic, phi_map
from .periodic import (PeriodicExponent, PeriodTooLong, decompose,
                       exact_power, factorize, lifted_order, mult_order)


class RNotDividingOrder(ValueError):
    """r must divide the group order for residue tests and AMM."""


class ZeroElement(ValueError):
    """The operation is undefined for the zero element."""


class RTooSmall(ValueError):
    """Root degrees start at 2."""


class NoNonResidueFound(RuntimeError):
    """128 seeded draws held no non-residue, which happens with
    probability at most 2^-128 when r divides the group order."""


class NoSingleExponent(ValueError):
    """r is neither coprime to the group order nor an exact divisor of
    it with a cofactor coprime to r, so no single exponent applies."""


@dataclass
class RootOutcome:
    """Result of one extraction: status is "root_found" or "non_residue",
    counters hold the operation tallies for the whole computation."""

    status: str
    root: tuple | None
    verification: bool
    counters: OpCounter
    path_tag: str


@dataclass
class AmmContext:
    """Per-(field, r) data for the one root algorithm.

    N = r^t * s with gcd(s, r) = 1; alpha is the least nonnegative
    integer with s | r*alpha - 1, or None when r shares a factor with s.
    The splits, each None where it does not exist: k, the order of p
    mod r, and l_t, that of p mod r^t, for k < m (composite r: t <= 1
    only); pe splits alpha when s > 1 and m exceeds its period, the
    least k*r^i with r^{t+1} | p^{k*r^i} - 1.  build_amm_context adds
    rho, a fixed non-residue, packed rho_s = rho^s and k_index, which
    maps each packed r-th root of unity g^i, g = rho^{N/r}, to i and is
    empty for t = 1, where the digit loop does not run."""

    t: int
    s: int
    alpha: int | None
    rho: tuple | None = None
    rho_s: int | None = None
    k_index: dict | None = None
    k: int | None = None
    l_t: int | None = None
    pe: PeriodicExponent | None = None


def _require_divisor(fld: Field, r: int) -> None:
    if r < 2 or fld.order_minus_one % r != 0:
        raise RNotDividingOrder(f"r={r} does not divide the group order")


@lru_cache(maxsize=512)
def _plan(fld: Field, r: int) -> AmmContext:
    """The AmmContext for (fld, r), r >= 2, without rho or its table.
    The periods k*r^i divide m for prime r; a composite r gets splits
    only for t <= 1, where the single exponent takes them."""
    p, m, order = fld.p, fld.m, fld.order_minus_one
    t = exact_power(r, order)
    s = order // r ** t
    alpha = pow(r, -1, s) if gcd(s, r) == 1 else None
    k = l_t = pe = None
    if m > 1 and gcd(p, r) == 1 and (t < 2 or is_prime(r)):
        k = mult_order(p, r, m - 1)
    if k is not None:
        l_t = lifted_order(p, r, k, t) if t else None
        if alpha and lifted_order(p, r, k, t + 1) < m:
            pe = decompose(p, m, r, k, t)
    return AmmContext(t, s, alpha, k=k, l_t=l_t, pe=pe)


def _plain(ctx: AmmContext) -> AmmContext:
    """ctx with every split cleared: each long power one plain power."""
    return replace(ctx, k=None, l_t=None, pe=None)


def _power_n_over(fld: Field, delta, d: int, period: int | None,
                  counter: OpCounter | None = None):
    """delta^{N/d} for d | N.  Given a period l | m with d | p^l - 1,
    N/d = ((p^l - 1)/d) * (1 + p^l + ... + p^{m-l}): one power below p^l
    and a phi_map.  period None: one plain power."""
    if period is None:
        return fld.pow(delta, fld.order_minus_one // d, counter)
    head = fld.pow(delta, (fld.p ** period - 1) // d, counter)
    return phi_map(fld, head, period, fld.m // period - 1, counter)


def is_rth_residue(fld: Field, delta, r: int,
                   counter: OpCounter | None = None) -> bool:
    """Euler-style criterion: delta^{N/r} = 1, raised through Frobenius
    maps when the plan holds k, the order of p mod r (_power_n_over)."""
    _require_divisor(fld, r)
    delta = fld._pack(fld.elem(delta))
    if not delta:
        raise ZeroElement("residue test is for nonzero elements")
    return _power_n_over(fld, delta, r, _plan(fld, r).k, counter) == 1


def find_nonresidue(fld: Field, r: int, seed: int = 0) -> tuple:
    """Deterministic seeded search for a non-r-th-residue.

    Non-residues make up a 1 - 1/r share of the group, so all 128
    pseudorandom draws miss with probability at most 2^-128; then
    NoNonResidueFound.  The residue tests are uncounted."""
    _require_divisor(fld, r)
    rng = random.Random(seed)
    for _ in range(128):
        cand = fld.random_elem(rng)
        if any(cand) and not is_rth_residue(fld, cand, r):
            return cand
    raise NoNonResidueFound(f"128 draws held no non-residue for r={r}")


def build_amm_context(fld: Field, r: int, seed: int = 0,
                      rho: tuple | None = None) -> AmmContext:
    """The plan for (fld, r) with rho, rho^s and the unity table added;
    rho^s goes through the l_t split where it exists, and
    g = (rho^s)^{r^{t-1}}, uncounted."""
    _require_divisor(fld, r)
    plan = _plan(fld, r)
    if plan.alpha is None:
        raise ValueError(f"r={r} shares a factor with s={plan.s}")
    rho = find_nonresidue(fld, r, seed) if rho is None else fld.elem(rho)
    rho_s = _power_n_over(fld, fld._pack(rho), r ** plan.t, plan.l_t)
    g = fld.pow(rho_s, r ** (plan.t - 1))
    if g == 1:
        raise ValueError(f"rho={rho} is an r-th residue for r={r}; the "
                         "unity table needs a non-residue")
    k_index = {}
    if plan.t > 1:  # the digit loop's table; for t = 1 nothing reads it
        w = 1
        for i in range(r):
            k_index[w] = i
            w = fld._raw_mul(w, g)
        assert len(k_index) == r, "roots of unity are not distinct"
    return replace(plan, rho=rho, rho_s=rho_s, k_index=k_index)


@lru_cache(maxsize=512)
def _cached_amm_context(fld, r, seed, rho):
    return build_amm_context(fld, r, seed, rho)


def _root(fld: Field, delta: int, r: int, ctx: AmmContext, tag: str,
          counter: OpCounter) -> int | None:
    """One prime stage on packed, nonzero delta: the packed root, or
    None for a non-residue.  Every long power takes the split ctx holds.

    Tag "amm" tests delta^{N/r} = 1 first.  The head delta^alpha is the
    root when t <= 1.  For t >= 2, acc = (delta^s)^c with
    c = ((r*alpha - 1)/s) mod r^t, -1 when s = 1, is delta^{r*alpha - 1}
    in the subgroup of order r^{t-1}.  For i = 1 .. t-1, acc^{r^{t-1-i}}
    is an r-th root of unity, and the table says which (rho^s)^{j_i*r^i}
    cancels it; head * (rho^s)^J, J from the digits j_i, is a root.  One
    verification comes last: without the test (t <= 1) it is the
    residue test, which a t = 0 root always passes."""
    if tag == "amm" and _power_n_over(fld, delta, r, ctx.k, counter) != 1:
        return None
    root = (apply_periodic(fld, delta, ctx.pe, counter) if ctx.pe
            else fld.pow(delta, ctx.alpha, counter))
    t = ctx.t
    if t > 1:
        delta_s = _power_n_over(fld, delta, r ** t, ctx.l_t, counter)
        acc = fld.pow(delta_s, (r * ctx.alpha - 1) // ctx.s % r ** t,
                      counter)
        j_total = 0
        for i in range(1, t):
            w = fld.pow(acc, r ** (t - 1 - i), counter)
            idx = ctx.k_index.get(w)
            if idx is None:
                raise RuntimeError("digit lookup fell outside the unity table")
            j = (r - idx) % r
            if j:
                corr = fld.pow(ctx.rho_s, j * r ** i, counter)
                acc = fld.mul(acc, corr, counter)
                j_total += j * r ** (i - 1)
        root = fld.mul(root, fld.pow(ctx.rho_s, j_total, counter), counter)
    if fld.pow(root, r, counter) == delta:
        return root
    if tag == "amm" or t == 0:
        raise RuntimeError(f"{tag} root failed verification on a residue")
    return None


def _stage(fld: Field, delta: int, r: int, seed: int, counter: OpCounter,
           path: str = "auto") -> tuple[int | None, str]:
    """One prime stage on packed delta: the packed root or None, and the
    path tag.  "amm", or "auto" when r^2 | N, runs AMM; "auto" otherwise
    takes the single exponent through alpha's split where it exists,
    which "periodic" demands and "naive" clears.  Zero is its own root,
    with no ops, once the path applies (for "amm", once r | N)."""
    ctx = _plan(fld, r)
    if path == "amm" or path == "auto" and ctx.t > 1:
        _require_divisor(fld, r)
        tag = "amm"
    elif ctx.t > 1 or ctx.alpha is None:
        raise NoSingleExponent(
            f"no single-exponent path for r={r}: r must be coprime to "
            "p^m - 1 or divide it exactly once with a cofactor coprime to r")
    elif path == "periodic" and ctx.pe is None:
        raise PeriodTooLong(f"no periodic split for m={fld.m}, r={r}")
    else:
        tag = (("coprime_fast", "ramified_fast")[ctx.t]
               if ctx.pe and path != "naive" else "naive_fallback")
    if not delta:
        return 0, tag
    if tag == "amm":
        ctx = _cached_amm_context(fld, r, seed, None)
    if path in ("amm", "naive"):
        ctx = _plain(ctx)
    return _root(fld, delta, r, ctx, tag, counter), tag


def _outcome(fld, root, tag, counter) -> RootOutcome:
    if root is None:
        return RootOutcome("non_residue", None, True, counter, tag)
    return RootOutcome("root_found", tuple(fld._unpack(root, fld.m)), True,
                       counter, tag)


def amm_root(fld: Field, delta, r: int, seed: int = 0,
             rho: tuple | None = None, counter: OpCounter | None = None,
             context: AmmContext | None = None) -> RootOutcome:
    """Digit-correction root extraction for prime r with r^t | N, t >= 1
    (_root); the table is built once per (field, r, seed, rho), uncounted.
    Every power is plain, whatever splits the context holds: the
    baseline that auto dispatch's Frobenius splits are measured against."""
    _require_divisor(fld, r)
    delta = fld._pack(fld.elem(delta))
    if not delta:
        raise ZeroElement("amm_root is for nonzero elements")
    if counter is None:
        counter = OpCounter()
    ctx = _plain(context or _cached_amm_context(fld, r, seed, rho))
    return _outcome(fld, _root(fld, delta, r, ctx, "amm", counter), "amm",
                    counter)


def single_exponent_root(fld: Field, delta, r: int,
                         counter: OpCounter | None = None) -> RootOutcome:
    """Root extraction for r coprime to N, or dividing N exactly once
    with a cofactor coprime to r: one exponentiation by
    alpha = r^{-1} mod N/r^t, t the multiplicity of r in N.

    The verification doubles as the residue test (for t = 0 it always
    passes) and its cost stays in the counters.  The periodic fast path
    runs when m > k*r^t, k the order of p mod r; rth_root's path
    "periodic" or "naive" forces one."""
    if r < 2:
        raise RTooSmall("r must be >= 2")
    if counter is None:
        counter = OpCounter()
    delta = fld._pack(fld.elem(delta))
    if _plan(fld, r).t > 1:
        raise NoSingleExponent(f"r={r}: r^2 divides p^m - 1; use amm_root")
    return _outcome(fld, *_stage(fld, delta, r, 0, counter), counter)


def rth_root(fld: Field, delta, r: int, seed: int = 0,
             path: str = "auto") -> RootOutcome:
    """Extract an r-th root of delta, dispatching on the structure of r.

    delta is packed once, the stages pass packed elements, and only the
    returned root is unpacked.  Factors of p in r are peeled off through
    inverse Frobenius (the p-th power map is a bijection), then each
    prime factor of what remains is handled in increasing order, one
    stage per multiplicity; a non_residue at any stage settles the
    question.  A single stage (a forced path, or a prime r other than p)
    returns its own outcome, verified by the stage; a chain (a p-peel,
    or two or more prime stages) is tagged composite_chain and ends with
    one check of the composed root.

    path overrides dispatch for prime r: "amm", "periodic" or "naive".
    """
    if r < 2:
        raise RTooSmall("r must be >= 2")
    if path not in ("auto", "amm", "periodic", "naive"):
        raise ValueError(f"unknown path {path!r}")
    if path != "auto" and not is_prime(r):
        raise ValueError("forced paths require prime r")
    delta = fld._pack(fld.elem(delta))
    counter = OpCounter()
    p_mult = exact_power(fld.p, r)
    stages = factorize(r // fld.p ** p_mult)
    if path != "auto" or (p_mult == 0 and stages == [(r, 1)]):
        return _outcome(fld, *_stage(fld, delta, r, seed, counter, path),
                        counter)

    root = fld.frobenius(delta, -p_mult, counter) if p_mult else delta
    for ell, e in stages:
        for _ in range(e):
            root, _ = _stage(fld, root, ell, seed, counter)
            if root is None:
                return _outcome(fld, None, "composite_chain", counter)
    if fld.pow(root, r, counter) != delta:
        raise RuntimeError("stage-verified chain failed final verification")
    return _outcome(fld, root, "composite_chain", counter)
