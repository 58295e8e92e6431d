"""r-th root extraction in F_{p^m}.

Two ways in, picked by alpha, the multiplicity of r in the group order
N = p^m - 1:

  * alpha <= 1, with N/r^alpha coprime to r: one exponentiation by
    v = r^{-1} mod N/r^alpha, followed by verification.  For alpha = 0
    the r-th power map is a bijection and the candidate is always the
    root; for alpha = 1 the verification doubles as the residue test.
    When m exceeds the period k*r^alpha, k the order of p mod r, v has a
    periodic base-p expansion and most of the powering collapses into
    Frobenius maps (coprime_fast, ramified_fast); otherwise plain
    powering does it (naive_fallback).
  * r^2 divides N: digit-correction search over a precomputed table of
    r-th roots of unity (Adleman-Manders-Miller), path tag "amm".

rth_root dispatches prime by prime for composite r and peels factors of
p off r first, since the p-th power map is the Frobenius bijection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .field import Field, OpCounter, is_prime
from .frobpow import apply_periodic
from .periodic import (NotCoprimeCase, NotRamifiedCase, PeriodTooLong,
                       decompose, exact_power, factorize, mult_order)


class RNotDividingOrder(ValueError):
    """r must divide the group order for residue tests and AMM."""


class ZeroElement(ValueError):
    """The operation is undefined for the zero element."""


class RTooSmall(ValueError):
    """Root degrees start at 2."""


class NoSingleExponent(NotCoprimeCase, NotRamifiedCase):
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
    """Per-(field, r) data for the digit-correction algorithm.

    N = r^t * s with gcd(s, r) = 1; alpha is the least nonnegative
    integer with s | r*alpha - 1; rho is a fixed non-residue; k_powers
    holds the r-th roots of unity g^i, g = rho^{N/r}, with a reverse
    index for the table lookups."""

    t: int
    s: int
    alpha: int
    rho: tuple
    rho_s: tuple
    k_powers: tuple
    k_index: dict


def _require_divisor(fld: Field, r: int) -> None:
    if r < 2 or fld.order_minus_one % r != 0:
        raise RNotDividingOrder(f"r={r} does not divide the group order")


def is_rth_residue(fld: Field, delta, r: int,
                   counter: OpCounter | None = None) -> bool:
    """Euler-style criterion: delta^{N/r} = 1."""
    _require_divisor(fld, r)
    if not any(delta):
        raise ZeroElement("residue test is for nonzero elements")
    return fld.pow(delta, fld.order_minus_one // r, counter) == fld.one()


def find_nonresidue(fld: Field, r: int, seed: int = 0) -> tuple:
    """Deterministic seeded search for a non-r-th-residue.

    128 pseudorandom draws, then canonical enumeration; non-residues
    make up a 1 - 1/r share of the group, so the fallback is for
    determinism, not for hope."""
    _require_divisor(fld, r)
    rng = random.Random(seed)
    for _ in range(128):
        cand = fld.random_elem(rng)
        if any(cand) and not is_rth_residue(fld, cand, r):
            return cand
    for idx in range(1, fld.order_minus_one + 1):
        cand = fld.elem_from_index(idx)
        if not is_rth_residue(fld, cand, r):
            return cand
    raise RuntimeError("no non-residue found; r cannot divide the group order")


def build_amm_context(fld: Field, r: int, seed: int = 0,
                      rho: tuple | None = None) -> AmmContext:
    _require_divisor(fld, r)
    order = fld.order_minus_one
    t = exact_power(r, order)
    s = order // r ** t
    alpha = 0 if s == 1 else pow(r, -1, s)
    if rho is None:
        rho = find_nonresidue(fld, r, seed)
    rho_s = fld.pow(rho, s)
    g = fld.pow(rho, order // r)
    if g == fld.one():
        raise ValueError(f"rho={rho} is an r-th residue for r={r}; the "
                         "unity table needs a non-residue")
    k_powers = [fld.one()]
    for _ in range(1, r):
        k_powers.append(fld._raw_mul(k_powers[-1], g))
    assert len(set(k_powers)) == r, "roots of unity are not distinct"
    return AmmContext(t, s, alpha, rho, rho_s, tuple(k_powers),
                      {w: i for i, w in enumerate(k_powers)})


@lru_cache(maxsize=512)
def _cached_amm_context(fld, r, seed, rho):
    return build_amm_context(fld, r, seed, rho)


def amm_root(fld: Field, delta, r: int, seed: int = 0,
             rho: tuple | None = None, counter: OpCounter | None = None,
             context: AmmContext | None = None) -> RootOutcome:
    """Digit-correction root extraction for prime r with r^t | N, t >= 1.

    Strategy: delta^{r*alpha - 1} lands in the subgroup of order r^{t-1}.
    Walking i = 1 .. t-1, the power acc^{r^{t-1-i}} is an r-th root of
    unity; the table says which correction (rho^s)^{j_i * r^i} cancels
    it.  Collecting the digits j_i gives the correction exponent J, and
    delta^alpha * (rho^s)^J is an exact r-th root.  Table construction
    is amortized across calls and not counted."""
    _require_divisor(fld, r)
    order = fld.order_minus_one
    if not any(delta):
        raise ZeroElement("amm_root is for nonzero elements")
    if counter is None:
        counter = OpCounter()
    amm = context or _cached_amm_context(fld, r, seed, rho)
    if not is_rth_residue(fld, delta, r, counter):
        return RootOutcome("non_residue", None, True, counter, "amm")
    if amm.t == 1:
        root = fld.pow(delta, amm.alpha, counter)
    else:
        # r*alpha - 1 is -1 when s = 1 (alpha = 0); reduce mod the group
        # order so the exponent stays nonnegative
        acc = fld.pow(delta, (r * amm.alpha - 1) % order, counter)
        j_total = 0
        for i in range(1, amm.t):
            w = fld.pow(acc, r ** (amm.t - 1 - i), counter)
            idx = amm.k_index.get(w)
            if idx is None:
                raise RuntimeError("digit lookup fell outside the unity table")
            j = (r - idx) % r
            if j:
                corr = fld.pow(amm.rho_s, j * r ** i, counter)
                acc = fld.mul(acc, corr, counter)
                j_total += j * r ** (i - 1)
        root = fld.mul(fld.pow(delta, amm.alpha, counter),
                       fld.pow(amm.rho_s, j_total, counter), counter)
    if fld.pow(root, r, counter) != delta:
        raise RuntimeError("verification failed on a residue; table corrupt?")
    return RootOutcome("root_found", root, True, counter, "amm")


def single_exponent_root(fld: Field, delta, r: int,
                         counter: OpCounter | None = None,
                         mode: str = "auto") -> RootOutcome:
    """Root extraction for r coprime to N, or dividing N exactly once
    with a cofactor coprime to r: one exponentiation by
    v = r^{-1} mod N/r^alpha, alpha the multiplicity of r in N.

    The verification doubles as the residue test (for alpha = 0 it
    always passes) and its cost stays in the counters.  mode "auto"
    takes the periodic fast path when m > k*r^alpha, k the order of p
    mod r, so the order is only asked for up to that bound; "fast" and
    "naive" force a path."""
    if r < 2:
        raise RTooSmall("r must be >= 2")
    order = fld.order_minus_one
    alpha = exact_power(r, order)
    modulus = order // r ** alpha
    if alpha > 1 or gcd(modulus, r) != 1:
        raise NoSingleExponent(
            f"no single-exponent path for r={r}: r must be coprime to "
            "p^m - 1 or divide it exactly once with a cofactor coprime to r")
    if counter is None:
        counter = OpCounter()
    k = (mult_order(fld.p, r, (fld.m - 1) // r ** alpha)
         if gcd(fld.p, r) == 1 else None)
    if mode == "fast" and k is None:
        raise PeriodTooLong(f"no periodic split for m={fld.m}, r={r}")
    use_fast = k is not None if mode == "auto" else mode == "fast"
    tag = (("coprime_fast", "ramified_fast")[alpha] if use_fast
           else "naive_fallback")
    if not any(delta):
        root = fld.zero()
    elif use_fast:
        pe = decompose(fld.p, fld.m, r, k, alpha)
        root = apply_periodic(fld, delta, pe, counter)
    else:
        root = fld.pow(delta, pow(r, -1, modulus), counter)
    if fld.pow(root, r, counter) == delta:
        return RootOutcome("root_found", root, True, counter, tag)
    if alpha == 0:
        raise RuntimeError("coprime root failed verification; map not bijective?")
    return RootOutcome("non_residue", None, True, counter, tag)


def _stage_root(fld, delta, ell, seed, counter, path="auto"):
    if path == "amm" or (path == "auto"
                         and exact_power(ell, fld.order_minus_one) > 1):
        if not any(delta):
            return RootOutcome("root_found", fld.zero(), True, counter, "amm")
        return amm_root(fld, delta, ell, seed=seed, counter=counter)
    mode = "fast" if path == "periodic" else path
    return single_exponent_root(fld, delta, ell, counter, mode)


def rth_root(fld: Field, delta, r: int, seed: int = 0,
             path: str = "auto") -> RootOutcome:
    """Extract an r-th root of delta, dispatching on the structure of r.

    Factors of p in r are peeled off through inverse Frobenius (the
    p-th power map is a bijection), then each prime factor of what
    remains is handled in increasing order, one extraction per
    multiplicity.  A non_residue verdict at any stage settles the whole
    question, and any root that comes back has been re-verified against
    the original delta.

    path overrides dispatch for prime r: "amm", "periodic" or "naive".
    """
    if r < 2:
        raise RTooSmall("r must be >= 2")
    counter = OpCounter()

    if path != "auto":
        if path not in ("amm", "periodic", "naive"):
            raise ValueError(f"unknown path {path!r}")
        if not is_prime(r):
            raise ValueError("forced paths require prime r")
        return _stage_root(fld, delta, r, seed, counter, path)

    p_mult = exact_power(fld.p, r)
    stages = factorize(r // fld.p ** p_mult)
    single = p_mult == 0 and len(stages) == 1 and stages[0][1] == 1

    current = delta
    if p_mult:
        current = fld.frobenius(current, (-p_mult) % fld.m, counter)
    last = None
    for ell, e in stages:
        for _ in range(e):
            last = _stage_root(fld, current, ell, seed, counter)
            if last.status == "non_residue":
                tag = last.path_tag if single else "composite_chain"
                return RootOutcome("non_residue", None, True, counter, tag)
            current = last.root
    if fld.pow(current, r, counter) != delta:
        raise RuntimeError("stage-verified chain failed final verification")
    tag = last.path_tag if (single and last is not None) else "composite_chain"
    return RootOutcome("root_found", current, True, counter, tag)
