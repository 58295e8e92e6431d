"""Raising field elements to geometric-series exponents via Frobenius.

The target exponent is B = 1 + s + s^2 + ... + s^n with s = p^e.  Since
y -> y^s is e Frobenius applications, y^B can be built with a doubling
chain on the term count instead of generic powering:

    y^{B_{2t}}   = y^{B_t} * (y^{B_t})^{s^t}
    y^{B_{2t+1}} = y^{B_{2t}} * y^{s^{2t}}

Reading the term count's binary expansion left to right gives at most
2*ceil(log2(n+1)) multiplications, plus Frobenius work that the counter
tracks separately.
"""

from __future__ import annotations

from .field import Field, OpCounter


def phi_map(fld: Field, y, e: int, n: int,
            counter: OpCounter | None = None) -> tuple:
    """y^{1 + s + ... + s^n} with s = p^e, in at most 2*ceil(log2(n+1))
    multiplications."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    t = 1
    acc = y
    for bit in bin(n + 1)[3:]:
        acc = fld.mul(acc, fld.frobenius(acc, t * e, counter), counter)
        t *= 2
        if bit == "1":
            acc = fld.mul(acc, fld.frobenius(y, t * e, counter), counter)
            t += 1
    return acc


def apply_periodic(fld: Field, delta, pe,
                   counter: OpCounter | None = None) -> tuple:
    """delta^{pe.v} through the split v = a + b*(geometric series).

    Two short exponentiations (a and b are below p^{2*period}) and one
    phi_map; total multiplications stay within
    2*ceil(log2(pe.n)) + 4*pe.period*ceil(log2(p)) + 1.
    """
    part_a = fld.pow(delta, pe.a, counter)
    part_b = fld.pow(delta, pe.b, counter)
    geo = phi_map(fld, part_b, pe.period, pe.n - 1, counter)
    return fld.mul(part_a, geo, counter)
