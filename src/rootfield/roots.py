"""r-th root extraction in F_{p^m}.

One algorithm for every prime r.  With N = p^m - 1 = r^t * s,
gcd(s, r) = 1 and alpha = r^{-1} mod s, Barreto-Voloch's single
exponent alpha is also the head of Adleman-Manders-Miller (AMM): for
t = 0 delta^alpha is the root (coprime_fast, naive_fallback); for t = 1
it is the root of a residue, so its verification doubles as the residue
test (ramified_fast, naive_fallback); for t >= 2 the residue test
delta^{N/r} comes first and a digit loop over the r-th roots of unity
corrects the head (amm).  Where m > 1, r^2 | p - 1 and gcd(m, r) = 1,
auto runs AMM in F_p instead (Barreto-Voloch; Doliskani-Schost 2014):
with S = (p^m - 1)/(p - 1) and x = -m^{-1} mod r, h = delta^v for
v = r^{-1} mod S has h^r = N(delta)^x * delta, N(delta) = delta^S in
F_p, and h over an r-th root of N(delta)^x in F_p is a root of delta.

_plan derives t, s, alpha and the split records of (field, r), the one
classification of (p, m, r): test for delta^{N/r}, cof for delta^s and
rho^s, head for delta^alpha and norm for the descent, each
a + b*(1 + p^l + ...) raised by apply_periodic through Frobenius maps,
kept on the field with its AMM contexts.  Where it prices lower, a t >= 2
stage reads delta^alpha and delta^s off one shared power z =
delta^{floor(s/r)} instead (Tonelli 1891; Shanks 1973), raised through
cof's split where it has one (AmmContext).  One body, _root, runs every
prime stage on its context; forced paths "naive" and "amm", and
amm_root, clear the records for plain powering.

rth_root dispatches prime by prime for composite r and peels factors of
p off r first, since the p-th power map is the Frobenius bijection.  It
packs delta once; the stages, rho^s and the unity table (built for t >= 2,
where the digit loop reads them) stay packed, and only the root unpacks.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import gcd

from .field import Field, OpCounter, is_prime, mk_field
from .frobpow import (_chain, apply_periodic, chain_cost, horner, phi_map,
                      powers)
from .periodic import (PeriodicExponent, PeriodTooLong, decompose,
                       exact_power, factorize, geometric_sum, lifted_order)


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


class RootOutcome(namedtuple("RootOutcome",
                             "status root verification counters path_tag")):
    """Result of one extraction: status is "root_found" or "non_residue",
    counters hold the operation tallies for the whole computation."""

    __slots__ = ()


class AmmContext(namedtuple("AmmContext", "t s alpha rho rho_s k_index test "
                            "cof head descent shared", defaults=(None,) * 8)):
    """Per-(field, r) data for the one root algorithm.

    t, s and alpha are the module docstring's; alpha is None where r
    shares a factor with s.  The split records, each None where it does
    not exist: test (N/r) and cof (s) for t >= 1 and k < m, k the order
    of p mod r (composite r: t <= 1 only); head (alpha) when s > 1 and m
    exceeds its period, the least k*r^i with r^{t+1} | p^{k*r^i} - 1.
    build_amm_context adds rho, a fixed nonzero non-residue, packed
    rho_s = rho^s and k_index, which maps each packed r-th root of unity
    g^i, g = rho^{N/r}, to i, for t >= 2.  Auto's descent to F_p (_plan)
    is (F_p, a, e, norm); it reads no rho.  shared, where _cost prices it
    lower (t >= 2, m > 1, s > 1, no descent), is (c, u, rho0, lam, b):
    with s = r*q0 + rho0, c = (r*alpha - 1)/s < r, u = (1 + c*rho0)/r,
    z = delta^q0 gives delta^alpha = z^c*delta^u, delta^s = z^r*delta^rho0.
    Where cof splits s = b*(1 + P + ... + P^{n-1}) with n >= 2, z = delta^lam
    * w^H, lam = (b*n - rho0)/r and H horner's sum on P, w = delta^{b(P-1)/r}
    the phi_map over l/k terms of delta to b*test.b; else lam = q0, b = 0."""

    __slots__ = ()


def _require_divisor(fld: Field, r: int) -> None:
    if r < 2 or fld.order_minus_one % r != 0:
        raise RNotDividingOrder(f"r={r} does not divide the group order")


def _plan(fld: Field, r: int) -> AmmContext:
    """The AmmContext for (fld, r), r >= 2, without rho or its table.
    Every record needs k < m (AmmContext), so only j < m are tried.  The
    periods k*r^i divide m for prime r; a composite r, which no stage
    takes, gets records only for t <= 1, for is_rth_residue,
    build_amm_context and the bench sweep's columns.  The descent splits
    v = a + p^e*z*G, m - 1 = r*n + e - 1, G = 1 + p^r + ... + p^{r(n-1)};
    norm, the record of z*G, is None for n = 0.  fld keeps the plan under
    r, as _frob_maps is kept: a lost race rebuilds an equal one."""
    if plan := fld._plans.get(r):  # one read: the dict may be replaced
        return plan
    p, m, order = fld.p, fld.m, fld.order_minus_one
    t = exact_power(r, order)
    s = order // r ** t
    alpha = pow(r, -1, s) if gcd(s, r) == 1 else None
    k = test = cof = head = norm = descent = None
    if t < 2 or is_prime(r):
        k = next((j for j in range(1, m) if pow(p, j, r) == 1), None)
    if k and t:  # N/d = ((p^l - 1)/d) * (1 + p^l + ... + p^{m-l})
        l_t = lifted_order(p, r, k, t)
        test = PeriodicExponent(0, (p ** k - 1) // r, k, m // k, order // r)
        cof = PeriodicExponent(0, (p ** l_t - 1) // r ** t, l_t, m // l_t, s)
    if k and alpha and lifted_order(p, r, k, t + 1) < m:
        head = decompose(p, m, r, k, t)
    if k == 1 and t > 1 and m % r:  # r^2 | p - 1 and gcd(m, r) = 1
        n, x = (m - 1) // r, -pow(m, -1, r) % r
        e = m - r * n
        if n:
            z = x * (p ** r - 1) // (r * (p - 1))
            norm = PeriodicExponent(0, z, r, n, z * geometric_sum(p, r, n))
        a = (1 + x * (p ** e - 1) // (p - 1)) // r
        descent = (mk_field(p, 1), a, e, norm)
    plan = AmmContext(t, s, alpha, test=test, cof=cof, head=head,
                      descent=descent)
    if t > 1 and alpha and m > 1 and not descent:  # a tie keeps plan
        (q0, rho0), c = divmod(s, r), (r * alpha - 1) // s
        split = cof and cof.n > 1
        shared = (c, (1 + c * rho0) // r, rho0,
                  (cof.b * cof.n - rho0) // r if split else q0,
                  cof.b * test.b if split else 0)
        plan = min(plan, plan._replace(shared=shared),
                   key=lambda x: _cost(x, r))
    fld._plans = {**fld._plans, r: plan}
    return plan


def _cost(plan: AmmContext, r: int, call: int = 3) -> int:
    """The products _long_powers charges a t >= 2 plan, plus call per
    Frobenius call: one on a held matrix took 1.9-3.1 products' time."""
    def cost(a, b, terms=1):  # powers' chain, then phi_map's steps
        return sum(chain_cost(a, b)) + (call + 1) * len(_chain(terms))
    if not plan.shared:
        return sum(cost(rec.a, rec.b, rec.n) + (rec.a > 0) if rec
                   else cost(v, 0)
                   for rec, v in ((plan.head, plan.alpha), (plan.cof, plan.s)))
    (c, u, rho0, lam, b), cof = plan.shared, plan.cof
    return (cost(lam, b) + cost(u, rho0) + cost(c, 0) + cost(r, 0) + 2
            + (b and cost(0, 0, cof.period // plan.test.period)
               + (call + 2) * (cof.n - 2) + 1))


def _long_powers(fld: Field, delta: int, ctx: AmmContext, r: int,
                 counter: OpCounter):
    """delta^alpha and, for t >= 2, delta^s (else False), through ctx's
    records or its shared route (AmmContext)."""
    if not ctx.shared:
        return (_power(fld, delta, ctx.head, ctx.alpha, counter),
                ctx.t > 1 and _power(fld, delta, ctx.cof, ctx.s, counter))
    (c, u, rho0, lam, b), cof = ctx.shared, ctx.cof
    z, w = powers(fld, delta, lam, b, counter)
    head, tail = powers(fld, delta, u, rho0, counter)
    if b:
        k = ctx.test.period
        w = phi_map(fld, w, k, cof.period // k - 1, counter)
        z = fld.mul(z, horner(fld, w, cof.period, cof.n, counter), counter)
    return (fld.mul(fld.pow(z, c, counter), head, counter),
            fld.mul(fld.pow(z, r, counter), tail, counter))


def _power(fld: Field, delta, rec: PeriodicExponent | None, v: int,
           counter: OpCounter | None = None):
    """delta^v through rec, its split record, or one plain power."""
    return (apply_periodic(fld, delta, rec, counter) if rec
            else fld.pow(delta, v, counter))


def is_rth_residue(fld: Field, delta, r: int,
                   counter: OpCounter | None = None) -> bool:
    """Euler-style criterion: delta^{N/r} = 1, raised through Frobenius
    maps when the plan holds the test record."""
    _require_divisor(fld, r)
    delta = fld._read(delta)
    if not delta:
        raise ZeroElement("residue test is for nonzero elements")
    return _power(fld, delta, _plan(fld, r).test, fld.order_minus_one // r,
                  counter) == 1


def find_nonresidue(fld: Field, r: int, seed: int = 0) -> tuple:
    """Deterministic seeded search for an element that is an l-th residue
    for no prime l | r, so g = rho^{N/r} has the order r the unity table
    needs.  Such elements make up a share prod(1 - 1/l) of the group, so
    for prime r all 128 draws miss with probability at most 2^-128; then
    NoNonResidueFound.  The residue tests are uncounted."""
    _require_divisor(fld, r)
    primes = [ell for ell, _ in factorize(r)]
    rng = random.Random(seed)
    for _ in range(128):
        cand = fld.random_elem(rng)
        if any(cand) and not any(is_rth_residue(fld, cand, ell)
                                 for ell in primes):
            return cand
    raise NoNonResidueFound(f"128 draws held no non-residue for r={r}")


def build_amm_context(fld: Field, r: int, seed: int = 0,
                      rho: tuple | None = None) -> AmmContext:
    """The plan for (fld, r) with rho, rho^s and the unity table added;
    rho^s goes through the cof record where it exists, and
    g = (rho^s)^{r^{t-1}}, uncounted."""
    _require_divisor(fld, r)
    plan = _plan(fld, r)
    if plan.alpha is None:
        raise ValueError(f"r={r} shares a factor with s={plan.s}")
    rho = find_nonresidue(fld, r, seed) if rho is None else fld.elem(rho)
    if not any(rho):
        raise ZeroElement("rho must be a nonzero non-residue")
    rho_s = _power(fld, fld._pack(rho), plan.cof, plan.s)
    g = fld.pow(rho_s, r ** (plan.t - 1))
    for ell, _ in factorize(r):  # g^{r/l} = rho^{N/l}: g has order r
        if fld.pow(g, r // ell) == 1:
            raise ValueError(f"rho={rho} is an l-th residue for l={ell} | "
                             f"r={r}; the unity table needs g of order r")
    k_index = {}
    if plan.t > 1:  # the digit loop's table; for t = 1 nothing reads it
        w = 1
        for i in range(r):
            k_index[w] = i
            w = fld._raw_mul(w, g)
    return plan._replace(rho=rho, rho_s=rho_s, k_index=k_index)


def _root(fld: Field, delta: int, r: int, ctx: AmmContext, tag: str,
          counter: OpCounter, seed: int) -> int | None:
    """One prime stage on packed, nonzero delta, in the module docstring's
    order: the packed root, or None for a non-residue.  Every long power
    takes the route ctx holds.  The descent reads N(delta)^x = h^r/delta
    from one digit, and the stage over F_p finds or refuses its r-th root.
    For t >= 2, acc = (delta^s)^c with c = ((r*alpha - 1)/s) mod r^t, -1
    when s = 1, is delta^{r*alpha - 1} in the subgroup of order r^{t-1}.
    For i = 1 .. t-1, acc^{r^{t-1-i}} is an r-th root of unity, and the
    table says which (rho^s)^{j_i*r^i} cancels it; head * (rho^s)^J, J
    from the digits j_i, is a root."""
    t = ctx.t
    if ctx.descent:
        base, a, e, norm = ctx.descent
        root = fld.pow(delta, a, counter)
        if norm:
            geo = apply_periodic(fld, delta, norm, counter)
            root = fld.mul(root, fld.frobenius(geo, e, counter), counter)
        hr, bits, p = fld.pow(root, r, counter), 8 * fld._digit_bytes, fld.p
        low = ((delta & -delta).bit_length() - 1) // bits * bits  # nonzero
        scale = ((hr >> low) % (1 << bits)
                 * pow((delta >> low) % (1 << bits), -1, p) % p)
        reduce = fld._reducer((p - 1) ** 2, fld.m)  # a scalar times digits
        if reduce(delta * scale) != hr:
            raise RuntimeError("h^r is not a scalar multiple of delta")
        c = _stage(base, scale, r, seed, counter)[0]
        if c is None:
            return None
        root = reduce(root * pow(c, -1, p))
    elif tag == "amm" and _power(fld, delta, ctx.test,
                                 fld.order_minus_one // r, counter) != 1:
        return None
    else:
        root, delta_s = _long_powers(fld, delta, ctx, r, counter)
    if t > 1 and not ctx.descent:
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
           path: str = "auto", rho: tuple | None = None
           ) -> tuple[int | None, str]:
    """One prime stage on packed delta, and every AMM run: the packed root
    or None, and the path tag.  "amm", or "auto" when r^2 | N, runs AMM,
    building rho and its table where t >= 2 or rho is given, and where
    alpha is missing, which the build refuses, unless "auto" descends,
    which builds F_p's context instead; "auto" otherwise takes the
    single exponent through alpha's split where it exists, which
    "periodic" demands and "naive" clears.  Zero is its own root, with no
    ops, once the path applies (for "amm", once r | N)."""
    ctx = _plan(fld, r)
    if path == "amm" or path == "auto" and ctx.t > 1:
        _require_divisor(fld, r)
        tag = "amm"
    elif ctx.t > 1 or ctx.alpha is None:
        raise NoSingleExponent(
            f"no single-exponent path for r={r}: r must be coprime to "
            "p^m - 1 or divide it exactly once with a cofactor coprime to r")
    elif path == "periodic" and ctx.head is None:
        raise PeriodTooLong(f"no periodic split for m={fld.m}, r={r}")
    else:
        tag = (("coprime_fast", "ramified_fast")[ctx.t]
               if ctx.head and path != "naive" else "naive_fallback")
    if not delta:
        return 0, tag
    if tag == "amm" and (path == "amm" or not ctx.descent) and (
            ctx.t > 1 or rho is not None or ctx.alpha is None):
        ctx = fld._plans.get((r, seed, rho))
        if ctx is None:  # kept on fld as _plan keeps a plan
            ctx = build_amm_context(fld, r, seed, rho)
            fld._plans = {**fld._plans, (r, seed, rho): ctx}
    if path in ("amm", "naive"):  # plain powering
        ctx = ctx._replace(test=None, cof=None, head=None, descent=None,
                           shared=None)
    return _root(fld, delta, r, ctx, tag, counter, seed), tag


def _outcome(fld, root, tag, counter) -> RootOutcome:
    if root is None:
        return RootOutcome("non_residue", None, True, counter, tag)
    return RootOutcome("root_found", tuple(fld._unpack(root, fld.m)), True,
                       counter, tag)


def amm_root(fld: Field, delta, r: int, seed: int = 0,
             rho: tuple | None = None,
             counter: OpCounter | None = None) -> RootOutcome:
    """Digit-correction root extraction for prime r with r^t | N, t >= 1:
    _stage's "amm" path, its table built once per (field, r, seed, rho),
    uncounted.  Every power is plain, whatever records the plan holds: the
    baseline that auto dispatch's Frobenius splits are measured against."""
    _require_divisor(fld, r)
    delta = fld._read(delta)
    if not delta:
        raise ZeroElement("amm_root is for nonzero elements")
    counter = counter or OpCounter()
    rho = None if rho is None else fld.elem(rho)  # hashable, a context's key
    return _outcome(fld, *_stage(fld, delta, r, seed, counter, "amm", rho),
                    counter)


def rth_root(fld: Field, delta, r: int, seed: int = 0,
             path: str = "auto") -> RootOutcome:
    """Extract an r-th root of delta, dispatching on the structure of r
    as the module docstring says: after the p-peel, each prime factor of
    what remains in increasing order, one stage per multiplicity; a
    non_residue at any stage settles the question.  A single stage (a
    forced path, or a prime r other than p) returns its own outcome,
    verified by the stage; a chain (a p-peel, or two or more stages) is
    tagged composite_chain and ends with one check of the whole root.

    path overrides dispatch for prime r: "amm", "periodic" or "naive".
    """
    if r < 2:
        raise RTooSmall("r must be >= 2")
    if path not in ("auto", "amm", "periodic", "naive"):
        raise ValueError(f"unknown path {path!r}")
    if path != "auto" and not is_prime(r):
        raise ValueError("forced paths require prime r")
    delta = fld._read(delta)
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
