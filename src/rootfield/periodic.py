"""Periodic base-p decompositions of inverted root exponents.

For extracting an r-th root in F_{p^m} one wants an exponent v with
r*v = 1 modulo (p^m - 1)/r^alpha, alpha the multiplicity of r in the
group order: 0 in the coprime case, 1 in the ramified case, at least 2
in the higher-power case, where v is the alpha of Adleman-Manders-Miller
(AMM).  When the extension degree m is large compared to the period,
the least k*r^i with r^{alpha+1} | p^{k*r^i} - 1 (k*r^alpha for
alpha <= 1, k the multiplicative order of p mod r), v splits as

    v = a + b * (1 + p^l + p^{2l} + ... + p^{(n-1)l})

with a short period l and small a, b < p^{2l}.  The geometric part can
then be raised with Frobenius maps instead of generic powering, which is
where the savings come from; the same record holds N/d, for d | p^l - 1
and l | m, as a = 0 and b = (p^l - 1)/d.  The record holds the split
alone; the modulus and the case follow from alpha.  This module is pure
integer arithmetic; the root layer's plan (roots._plan) is built from
exact_power, lifted_order and decompose, with k searched below m, so it
factors nothing; mult_order serves the decompose_* entry points, the CLI
and the bench sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd


class NotCoprime(ValueError):
    """Arguments that must be coprime share a factor."""


class PeriodTooLong(ValueError):
    """The extension degree does not exceed the decomposition period."""


class NotCoprimeCase(ValueError):
    """r shares a factor with the modulus its inverse is taken in; in the
    coprime case that modulus is the group order."""


class NotRamifiedCase(ValueError):
    """r does not divide the group order exactly once."""


class ConditionsUnmet(ValueError):
    """The base-q decomposition hypotheses fail for these arguments."""


class FactorizationTooHard(ValueError):
    """Pollard's rho spent its step budget without splitting a number."""


CASE_TAGS = ("coprime", "ramified", "higher_power")


@dataclass(frozen=True)
class PeriodicExponent:
    """One split v = a + b * sum_{j<n} p^{j*period}, period in base-p
    digits: r*v = 1 (mod (p^m - 1)/r^alpha) for a record of decompose,
    v = N/d for one with a = 0."""

    a: int
    b: int
    period: int
    n: int
    v: int


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below 2^64 via a fixed witness set; above that, 40
    rounds with bases derived from n keep the error probability under
    2^-80 while staying reproducible between runs.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < 1 << 64:
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mult_order(base: int, r: int) -> int:
    """Least k >= 1 with base^k = 1 mod r.

    The lcm, over the prime powers q^e of r, of the order mod q^e: the
    order mod q starts at q - 1 and loses each prime factor f while
    base^(k/f) = 1 still holds, and lifted_order lifts it to q^e.  The
    cost is factoring r and each q - 1 (factorize), where walking the
    powers takes up to r steps."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if gcd(base, r) != 1:
        raise NotCoprime(f"{base} and {r} are not coprime")
    order = 1
    for q, e in factorize(r):
        k = q - 1
        for f, _ in factorize(k):
            while k % f == 0 and pow(base, k // f, q) == 1:
                k //= f
        k = lifted_order(base, q, k, e)
        order = order * k // gcd(order, k)
    return order


def geometric_sum(p: int, period: int, n: int) -> int:
    """1 + p^period + ... + p^{(n-1)*period}."""
    if n <= 0:
        return 0
    return (p ** (period * n) - 1) // (p ** period - 1)


_TRIAL_LIMIT = 1 << 10
_RHO_STEPS = 1 << 20


def factorize(n: int) -> list[tuple[int, int]]:
    """Factorization as (prime, exponent) pairs, ascending.

    Trial division by d < _TRIAL_LIMIT, stopping once the cofactor left
    is prime, tested at the start and after each prime stripped; a
    composite cofactor left after that has only prime factors of at least
    _TRIAL_LIMIT and is split by Pollard's rho (_rho_split), about n^(1/4)
    steps per split; a split past _RHO_STEPS raises FactorizationTooHard."""
    out = []
    d = 2
    done = is_prime(n)
    while not done and d < _TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            done = is_prime(n)
        d += 1
    if done or d * d > n:
        return out + [(n, 1)] if n > 1 else out
    found = {}
    stack = [n]
    while stack:
        k = stack.pop()
        if is_prime(k):
            found[k] = found.get(k, 0) + 1
        else:
            f = _rho_split(k)
            stack += [f, k // f]
    return out + sorted(found.items())


def _rho_split(n: int) -> int:
    """A factor 1 < f < n of the odd composite n.

    Brent's variant of Pollard's rho (Brent 1980): the walk y -> y^2 + c
    mod n from y = 2, with c = 1, 2, ... until a walk splits n, and the
    differences multiplied together in runs of 128 between gcds.  Every
    constant is fixed, so the factor found is the same on every run.  All
    walks share _RHO_STEPS steps, each run counted before it starts."""
    c = steps = 0
    while True:
        c += 1
        y, run, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * run
            if steps > _RHO_STEPS:
                raise FactorizationTooHard(f"rho found no factor of {n}")
            x = y
            for _ in range(run):
                y = (y * y + c) % n
            k = 0
            while k < run and g == 1:
                saved = y
                for _ in range(min(128, run - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            run *= 2
        if g == n:  # the run overshot: walk it again one gcd at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def lifted_order(q: int, r: int, k: int, e: int) -> int:
    """Least k*r^i with r^e | q^{k*r^i} - 1, given k >= 1 with
    q^k = 1 mod r; for prime r and k the order of q mod r, the order of
    q mod r^e.

    Each factor r raises the multiplicity of r in q^{k*r^i} - 1 by at
    least one, so i < e and the search takes at most e modular powers."""
    mod = r ** e
    order = k
    for _ in range(e):
        if pow(q, order, mod) == 1:
            return order
        order *= r
    raise ValueError(f"q^k = {pow(q, k, r)} mod r, not 1")


def exact_power(r: int, n: int) -> int:
    """Multiplicity of r in n: largest alpha with r^alpha | n.  Raises
    ValueError where every power of r divides n: n = 0 or r = +-1."""
    if not n or r in (1, -1):
        raise ValueError(f"every power of {r} divides {n}")
    alpha = 0
    while n % r == 0:
        n //= r
        alpha += 1
    return alpha


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p^d with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError("q must be >= 2")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


def decompose(q: int, m: int, r: int, k: int, alpha: int) -> PeriodicExponent:
    """Split v = r^{-1} mod M, M = (q^m - 1)/r^alpha, along base-q digits.

    alpha is the multiplicity of r in q^m - 1: 0 in the coprime case, 1
    in the ramified case, at least 2 in the higher-power case.  k is the
    order of q mod r, and the period is the least k*r^i with
    r^{alpha+1} | q^period - 1 (lifted_order): only such a period keeps
    the block z = u*(q^period - 1)/r^{alpha+1} integral, where u in
    [1, r) satisfies u*M = -1 (mod r).  For alpha <= 1 the period is
    k*r^alpha.  The top digit block b is z shifted to the leading end,
    and a is whatever remains after the geometric part is taken out.
    Bounds a, b < q^{2*period} are part of the contract, so they are
    asserted rather than trusted.  Requires m > period and
    gcd(M, r) = 1, checked in that order.
    """
    period = lifted_order(q, r, k, alpha + 1)
    if m <= period:
        raise PeriodTooLong(f"need m > period, got m={m}, period={period}")
    modulus = (q ** m - 1) // r ** alpha
    if gcd(modulus, r) != 1:
        raise NotCoprimeCase(
            f"gcd(r, (q^m - 1)/r^alpha) = {gcd(modulus, r)}")
    rdiv = r ** (alpha + 1)
    z_num = (-pow(modulus, -1, r) % r) * (q ** period - 1)
    assert z_num % rdiv == 0, "periodic block is not integral"
    n = m // period
    b = q ** (m - n * period) * (z_num // rdiv)
    v = pow(r, -1, modulus)
    a = v - b * geometric_sum(q, period, n)
    bound = q ** (2 * period)
    assert 0 <= a < bound, "constant part out of range"
    assert 0 <= b < bound, "periodic part out of range"
    return PeriodicExponent(a, b, period, n, v)


def decompose_coprime(p: int, m: int, r: int) -> PeriodicExponent:
    """Decomposition for gcd(r, p^m - 1) = 1, modulo the group order.

    Requires m > k, k the order of p mod r; the period is k.  The period
    gate fires before the gcd gate.
    """
    return decompose(p, m, r, mult_order(p, r), 0)


def decompose_ramified(p: int, m: int, r: int) -> PeriodicExponent:
    """Decomposition for r dividing p^m - 1 exactly once, modulo
    (p^m - 1)/r.

    The cofactor must be coprime to r, and m > k*r is required; the
    period is k*r.  The case gate fires before the period gate.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    order = p ** m - 1
    if order % r != 0 or gcd(order // r, r) != 1:
        raise NotRamifiedCase(
            f"r={r} does not divide p^m - 1 exactly once with coprime cofactor")
    return decompose(p, m, r, mult_order(p, r), 1)


@dataclass(frozen=True)
class BaseQDecomposition:
    """Decomposition over an intermediate field F_q, q = p^d, plus the
    base-p comparison data: n counts periodic terms base q, n_prime the
    terms the same exponent gets when worked base p.  n_prime >= n
    always; the base-p view never loses terms.  The variant is ramified
    exactly when r | q - 1."""

    p: int
    d: int
    pe: PeriodicExponent
    k_base: int
    k_prime: int
    n: int
    n_prime: int


def decompose_base_q(q: int, m: int, r: int) -> BaseQDecomposition:
    """Decompose the inverted exponent for F_{q^m} working base q.

    Coprime variant: gcd(q*(q-1), r) = 1 and gcd(m, k) = 1, k the order
    of q mod r (k > 1 follows, since r does not divide q - 1).  Ramified
    variant: r divides q - 1 exactly once and gcd(m, r) = 1.  Anything
    else raises ConditionsUnmet.  The returned record carries the
    periodic exponent with its period converted to base-p digits of the
    flattened field F_{p^{md}}.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    p, d = prime_power_split(q)
    if gcd(q * (q - 1), r) == 1:
        k = mult_order(q, r)
        if gcd(m, k) != 1:
            raise ConditionsUnmet(f"gcd(m, k) = {gcd(m, k)} with k={k}")
        alpha = 0
    elif (q - 1) % r == 0 and gcd((q - 1) // r, r) == 1 and gcd(m, r) == 1:
        k = 1
        alpha = 1
    else:
        raise ConditionsUnmet(f"no base-q variant applies to q={q}, m={m}, r={r}")
    pe_q = decompose(q, m, r, k, alpha)
    k_prime = mult_order(p, r)
    n_prime = m * d // (k_prime * r ** alpha)
    # express the period in base-p digits so the record is comparable
    # with a base-p decomposition of the same flattened field
    pe = replace(pe_q, period=pe_q.period * d)
    return BaseQDecomposition(p, d, pe, k, k_prime, pe.n, n_prime)
