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
  * r^2 divides N, N = r^t * s with gcd(s, r) = 1: digit-correction
    search over a precomputed table of r-th roots of unity
    (Adleman-Manders-Miller, AMM), path tag "amm".  Its three long
    powers, the residue test delta^{N/r}, delta^s and delta^alpha with
    alpha = r^{-1} mod s, have periodic base-p expansions.  When m
    exceeds the period of alpha's split (the least k*r^i with
    r^{t+1} | p^{k*r^i} - 1) and s > 1, auto dispatch raises all three
    through Frobenius maps; forced path "amm" keeps plain powering, the
    baseline the splits are measured against.

rth_root dispatches prime by prime for composite r and peels factors of
p off r first, since the p-th power map is the Frobenius bijection.

Each stage takes and returns tuples but packs delta once on entry and
works on packed elements (see field) until it unpacks the root: every
power, product and Frobenius map in between, the comparisons with 1 and
with delta, and frobpow's chains.  The AMM digit loop packs rho^s once
per call and unpacks each root of unity it looks up in the table, whose
entries stay tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .field import Field, OpCounter, is_prime
from .frobpow import apply_periodic, phi_map
from .periodic import (NotCoprimeCase, NotRamifiedCase, PeriodicExponent,
                       PeriodTooLong, decompose, exact_power, factorize,
                       lifted_order, mult_order)


class RNotDividingOrder(ValueError):
    """r must divide the group order for residue tests and AMM."""


class ZeroElement(ValueError):
    """The operation is undefined for the zero element."""


class RTooSmall(ValueError):
    """Root degrees start at 2."""


class NoNonResidueFound(RuntimeError):
    """128 seeded draws held no non-residue, which happens with
    probability at most 2^-128 when r divides the group order."""


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
    index for the table lookups, and both are empty for t = 1, where
    the digit loop does not run.

    The periodic splits: k is the order of p mod r and l_t the order of
    p mod r^t, both None for m = 1 or k >= m; pe splits alpha, and is
    None unless s > 1 and m exceeds its period."""

    t: int
    s: int
    alpha: int
    rho: tuple
    rho_s: tuple
    k_powers: tuple
    k_index: dict
    k: int | None = None
    l_t: int | None = None
    pe: PeriodicExponent | None = None


def _unpacked(fld: Field, x: int) -> tuple:
    return tuple(fld._unpack(x, fld.m))


def _require_divisor(fld: Field, r: int) -> None:
    if r < 2 or fld.order_minus_one % r != 0:
        raise RNotDividingOrder(f"r={r} does not divide the group order")


def _power_n_over(fld: Field, delta, d: int, period: int | None,
                  counter: OpCounter | None = None):
    """delta^{N/d} for d | N.  Given a period l | m with d | p^l - 1,
    N/d = ((p^l - 1)/d) * (1 + p^l + ... + p^{m-l}): one power below p^l
    and a phi_map.  period None: one plain power."""
    if period is None:
        return fld.pow(delta, fld.order_minus_one // d, counter)
    head = fld.pow(delta, (fld.p ** period - 1) // d, counter)
    return phi_map(fld, head, period, fld.m // period - 1, counter)


def _order_below_m(fld: Field, r: int) -> int | None:
    """The order of p mod r when it is below m; no search for m = 1."""
    return mult_order(fld.p, r, fld.m - 1) if fld.m > 1 else None


def is_rth_residue(fld: Field, delta, r: int,
                   counter: OpCounter | None = None, *,
                   _period: int | None = None) -> bool:
    """Euler-style criterion: delta^{N/r} = 1.  _period, the order of p
    mod r, raises N/r through Frobenius maps (_power_n_over)."""
    _require_divisor(fld, r)
    if not any(delta):
        raise ZeroElement("residue test is for nonzero elements")
    return _power_n_over(fld, fld._pack(delta), r, _period, counter) == 1


def find_nonresidue(fld: Field, r: int, seed: int = 0) -> tuple:
    """Deterministic seeded search for a non-r-th-residue.

    Non-residues make up a 1 - 1/r share of the group, so all 128
    pseudorandom draws miss with probability at most 2^-128; then
    NoNonResidueFound.  The uncounted residue tests take N/r through
    Frobenius maps when the order of p mod r is below m."""
    _require_divisor(fld, r)
    k = _order_below_m(fld, r)
    rng = random.Random(seed)
    for _ in range(128):
        cand = fld.random_elem(rng)
        if any(cand) and not is_rth_residue(fld, cand, r, _period=k):
            return cand
    raise NoNonResidueFound(f"128 draws held no non-residue for r={r}")


def build_amm_context(fld: Field, r: int, seed: int = 0,
                      rho: tuple | None = None) -> AmmContext:
    """The AmmContext for (fld, r); its powers of rho go through the
    periodic splits wherever they exist, uncounted."""
    _require_divisor(fld, r)
    p, m, order = fld.p, fld.m, fld.order_minus_one
    t = exact_power(r, order)
    s = order // r ** t
    alpha = 0 if s == 1 else pow(r, -1, s)
    # the split periods k*r^i divide m for prime r, the r AMM is for;
    # any other r keeps plain powers
    k = _order_below_m(fld, r) if is_prime(r) else None
    l_t = pe = None
    if k is not None:
        l_t = lifted_order(p, r, k, t)
        if s > 1 and lifted_order(p, r, k, t + 1) < m:
            pe = decompose(p, m, r, k, t)
    if rho is None:
        rho = find_nonresidue(fld, r, seed)
    packed_rho = fld._pack(rho)
    rho_s = _power_n_over(fld, packed_rho, r ** t, l_t)
    g = _power_n_over(fld, packed_rho, r, k)
    if g == 1:
        raise ValueError(f"rho={rho} is an r-th residue for r={r}; the "
                         "unity table needs a non-residue")
    k_powers = []
    if t > 1:  # the digit loop's table; for t = 1 nothing reads it
        k_powers = [1]
        for _ in range(1, r):
            k_powers.append(fld._raw_mul(k_powers[-1], g))
        assert len(set(k_powers)) == r, "roots of unity are not distinct"
        k_powers = [_unpacked(fld, w) for w in k_powers]
    return AmmContext(t, s, alpha, rho, _unpacked(fld, rho_s),
                      tuple(k_powers),
                      {w: i for i, w in enumerate(k_powers)}, k, l_t, pe)


@lru_cache(maxsize=512)
def _cached_amm_context(fld, r, seed, rho):
    return build_amm_context(fld, r, seed, rho)


def amm_root(fld: Field, delta, r: int, seed: int = 0,
             rho: tuple | None = None, counter: OpCounter | None = None,
             context: AmmContext | None = None, *,
             _periodic: bool = False) -> RootOutcome:
    """Digit-correction root extraction for prime r with r^t | N, t >= 1.

    Strategy: delta^{r*alpha - 1} lands in the subgroup of order r^{t-1}.
    Walking i = 1 .. t-1, the power acc^{r^{t-1-i}} is an r-th root of
    unity; the table says which correction (rho^s)^{j_i * r^i} cancels
    it.  Collecting the digits j_i gives the correction exponent J, and
    delta^alpha * (rho^s)^J is an exact r-th root.  Table construction
    is amortized across calls and not counted.

    With _periodic (auto dispatch) and a split of alpha in the context,
    the three long powers go through Frobenius maps: delta^{N/r} and
    delta^s = delta^{N/r^t} by _power_n_over, delta^{r*alpha - 1} as
    (delta^s)^c with c = (r*alpha - 1)/s < r, and delta^alpha by
    apply_periodic.  The root is the same; only the counters move."""
    _require_divisor(fld, r)
    order = fld.order_minus_one
    if not any(delta):
        raise ZeroElement("amm_root is for nonzero elements")
    if counter is None:
        counter = OpCounter()
    amm = context or _cached_amm_context(fld, r, seed, rho)
    split = _periodic and amm.pe is not None
    delta = fld._pack(delta)
    if _power_n_over(fld, delta, r, amm.k if split else None, counter) != 1:
        return RootOutcome("non_residue", None, True, counter, "amm")
    if amm.t == 1:
        root = fld.pow(delta, amm.alpha, counter)
    else:
        rho_s = fld._pack(amm.rho_s)
        if split:
            delta_s = _power_n_over(fld, delta, r ** amm.t, amm.l_t, counter)
            acc = fld.pow(delta_s, (r * amm.alpha - 1) // amm.s, counter)
        else:
            # r*alpha - 1 is -1 when s = 1 (alpha = 0); reduce mod the
            # group order so the exponent stays nonnegative
            acc = fld.pow(delta, (r * amm.alpha - 1) % order, counter)
        j_total = 0
        for i in range(1, amm.t):
            w = fld.pow(acc, r ** (amm.t - 1 - i), counter)
            idx = amm.k_index.get(_unpacked(fld, w))
            if idx is None:
                raise RuntimeError("digit lookup fell outside the unity table")
            j = (r - idx) % r
            if j:
                corr = fld.pow(rho_s, j * r ** i, counter)
                acc = fld.mul(acc, corr, counter)
                j_total += j * r ** (i - 1)
        head = (apply_periodic(fld, delta, amm.pe, counter) if split
                else fld.pow(delta, amm.alpha, counter))
        root = fld.mul(head, fld.pow(rho_s, j_total, counter), counter)
    if fld.pow(root, r, counter) != delta:
        raise RuntimeError("verification failed on a residue; table corrupt?")
    return RootOutcome("root_found", _unpacked(fld, root), True, counter,
                       "amm")


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
    delta = fld._pack(delta)
    if not delta:
        root = 0
    elif use_fast:
        pe = decompose(fld.p, fld.m, r, k, alpha)
        root = apply_periodic(fld, delta, pe, counter)
    else:
        root = fld.pow(delta, pow(r, -1, modulus), counter)
    if fld.pow(root, r, counter) == delta:
        return RootOutcome("root_found", _unpacked(fld, root), True, counter,
                           tag)
    if alpha == 0:
        raise RuntimeError("coprime root failed verification; map not bijective?")
    return RootOutcome("non_residue", None, True, counter, tag)


def _stage_root(fld, delta, ell, seed, counter, path="auto"):
    if path == "amm" or (path == "auto"
                         and exact_power(ell, fld.order_minus_one) > 1):
        if not any(delta):
            return RootOutcome("root_found", fld.zero(), True, counter, "amm")
        return amm_root(fld, delta, ell, seed=seed, counter=counter,
                        _periodic=path == "auto")
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
