"""Periodic base-p decompositions of inverted root exponents.

For extracting an r-th root in F_{p^m} one wants an exponent v with
r*v = 1 modulo (p^m - 1)/r^alpha, alpha the multiplicity of r in the
group order: 0 in the coprime case, 1 in the ramified case.  When the
extension degree m is large compared to the period k*r^alpha, k the
multiplicative order of p mod r, v splits as

    v = a + b * (1 + p^l + p^{2l} + ... + p^{(n-1)l})

with a short period l and small a, b < p^{2l}.  The geometric part can
then be raised with Frobenius maps instead of generic powering, which is
where the savings come from.  This module is pure integer arithmetic;
no field elements appear.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PeriodicExponent:
    """One decomposition v = a + b * sum_{j<n} p^{j*period}.

    congruence_modulus is the modulus M with r*v = 1 (mod M); case_tag is
    "coprime" or "ramified".  The period is measured in base-p digits.
    """

    a: int
    b: int
    period: int
    n: int
    v: int
    congruence_modulus: int
    case_tag: str


@dataclass(frozen=True)
class CaseAnalysis:
    """Classification of (p, m, r) by how r meets the group order.

    gcd_tag is "coprime", "ramified_exact" or "higher_power"; alpha is
    the exact multiplicity of r in p^m - 1; u is the auxiliary
    multiplier in [1, r), absent for higher_power.
    """

    r: int
    gcd_tag: str
    k: int
    u: int | None
    alpha: int


def mult_order(base: int, r: int, limit: int | None = None) -> int | None:
    """Least k >= 1 with base^k = 1 mod r.  Plain iteration, so the
    search can take about r steps; with a limit it stops after at most
    limit steps and returns None when the order exceeds the limit."""
    if r < 2:
        raise ValueError("modulus must be >= 2")
    if gcd(base, r) != 1:
        raise NotCoprime(f"{base} and {r} are not coprime")
    acc = 1
    for k in range(1, (r if limit is None else limit) + 1):
        acc = acc * base % r
        if acc == 1:
            return k
    return None


def geometric_sum(p: int, period: int, n: int) -> int:
    """1 + p^period + ... + p^{(n-1)*period}."""
    if n <= 0:
        return 0
    return (p ** (period * n) - 1) // (p ** period - 1)


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def exact_power(r: int, n: int) -> int:
    """Multiplicity of r in n: largest alpha with r^alpha | n."""
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


def _multiplier(modulus: int, r: int) -> int:
    """u in [1, r) with u * modulus = -1 (mod r)."""
    return (-pow(modulus % r, -1, r)) % r


def analyze_case(p: int, m: int, r: int) -> CaseAnalysis:
    """Classify r against the group order p^m - 1 and compute k and u."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if gcd(r, p) != 1:
        raise NotCoprime(f"r={r} shares a factor with the characteristic {p}")
    order = p ** m - 1
    k = mult_order(p, r)
    alpha = exact_power(r, order)
    if alpha > 1:
        return CaseAnalysis(r, "higher_power", k, None, alpha)
    cofactor = order // r ** alpha
    if gcd(cofactor, r) != 1:
        raise ValueError(
            f"r={r} shares a factor with (p^m - 1)/r^{alpha}, so no single "
            "exponent inverts it")
    return CaseAnalysis(r, ("coprime", "ramified_exact")[alpha], k,
                        _multiplier(cofactor, r), alpha)


def decompose(q: int, m: int, r: int, k: int, alpha: int) -> PeriodicExponent:
    """Split v = r^{-1} mod M, M = (q^m - 1)/r^alpha, along base-q digits.

    alpha is the multiplicity of r in q^m - 1: 0 in the coprime case, 1
    in the ramified case.  k is the order of q mod r, and the period is
    k*r^alpha, because only q^{k*r^alpha} - 1 carries the factor
    r^{alpha+1} that keeps the block z = u*(q^period - 1)/r^{alpha+1}
    integral; u in [1, r) satisfies u*M = -1 (mod r).  The top digit
    block b is z shifted to the leading end, and a is whatever remains
    after the geometric part is taken out.  Bounds a, b < q^{2*period}
    are part of the contract, so they are asserted rather than trusted.
    Requires m > period and gcd(M, r) = 1, checked in that order.
    """
    period = k * r ** alpha
    if m <= period:
        raise PeriodTooLong(f"need m > period, got m={m}, period={period}")
    modulus = (q ** m - 1) // r ** alpha
    if gcd(modulus, r) != 1:
        raise NotCoprimeCase(
            f"gcd(r, (q^m - 1)/r^alpha) = {gcd(modulus, r)}")
    rdiv = r ** (alpha + 1)
    z_num = _multiplier(modulus, r) * (q ** period - 1)
    assert z_num % rdiv == 0, "periodic block is not integral"
    n = m // period
    b = q ** (m - n * period) * (z_num // rdiv)
    v = pow(r, -1, modulus)
    a = v - b * geometric_sum(q, period, n)
    bound = q ** (2 * period)
    assert 0 <= a < bound, "constant part out of range"
    assert 0 <= b < bound, "periodic part out of range"
    return PeriodicExponent(a, b, period, n, v, modulus,
                            ("coprime", "ramified")[alpha])


def decompose_coprime(p: int, m: int, r: int) -> PeriodicExponent:
    """Decomposition for gcd(r, p^m - 1) = 1, modulo the group order.

    Requires m > k, k the order of p mod r; the period is k.  The period
    gate fires before the gcd gate.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
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
    always; the base-p view never loses terms."""

    q: int
    p: int
    d: int
    m: int
    r: int
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
    return BaseQDecomposition(q, p, d, m, r, pe, k, k_prime, pe.n, n_prime)
