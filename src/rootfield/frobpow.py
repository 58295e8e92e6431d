"""Raising field elements to geometric-series exponents via Frobenius.

With s = p^e and B_N = 1 + s + ... + s^{N-1}, B_{i+j} = B_i + s^i * B_j,
so y^{B_{i+j}} = y^{B_i} * (y^{B_j})^{s^i}: each step of an addition
chain on the term count N is one multiplication and one Frobenius call
of i*e applications (von zur Gathen & Shoup 1992).  _chain is the factor
method (Brauer 1939; Knuth, TAOCP vol. 2, 4.6.3), never longer than
binary doubling (Itoh & Tsujii 1988), and shorter for N = 15, 30, 31, 63
and 127: 5, 6, 7, 8 and 10 steps against 6, 7, 8, 10 and 12.  A split
record's delta^a and delta^b share one chain of squarings (powers);
horner walks the root layer's shared AMM power."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .field import Field, OpCounter


@lru_cache(maxsize=512)
def _chain(n: int) -> tuple:
    """Steps (i, j) from 1 to n, each adding a reached i to the last j >= i:
    n = d*q, d its least prime factor, walks q's chain, then d's scaled by
    q (B_{dq}(s) = B_q(s) * B_d(s^q)); a prime n, or an odd one where it
    is shorter, extends n - 1's chain by a step.  Past 2^12, where the
    factor method's subproblems multiply, n extends n >> 1's chain."""
    if n > 4096:  # binary doubling's rule down to the top 12 bits
        k, steps = n.bit_length() - 12, []
        for i in range(k, 0, -1):  # from n >> i to n >> (i - 1)
            t = n >> i
            steps += [(t, t)] + ([(1, 2 * t)] if n >> i - 1 & 1 else [])
        return _chain(n >> k) + tuple(steps)
    if n == 1:
        return ()
    d = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    q = n // d
    ways = ([_chain(q) + tuple((i * q, j * q) for i, j in _chain(d))]
            if q > 1 else [])
    if n % 2 or q == 1:
        ways.append(_chain(n - 1) + ((1, n - 1),))
    return min(ways, key=len)


def phi_map(fld: Field, y, e: int, n: int,
            counter: OpCounter | None = None):
    """y^{1 + s + ... + s^n} with s = p^e, along _chain(n + 1)."""
    if e < 1 or n < 0:
        raise ValueError("e must be >= 1 and n >= 0")
    acc, powers = y, {1: y}
    for i, j in _chain(n + 1):  # acc is y^{B_j}
        acc = fld.mul(powers[i], fld.frobenius(acc, i * e, counter), counter)
        powers[i + j] = acc
    return acc


def horner(fld: Field, w, e: int, n: int,
           counter: OpCounter | None = None):
    """w^{(n-1) + (n-2)s + ... + s^{n-2}}, s = p^e and n >= 2: n - 2 steps
    acc <- acc^s * w^{j+1}, one Frobenius call and two products each."""
    acc = power = w
    for _ in range(n - 2):
        power = fld.mul(power, w, counter)
        acc = fld.mul(fld.frobenius(acc, e, counter), power, counter)
    return acc


def chain_cost(a: int, b: int) -> tuple:
    """(squarings, mults) that powers charges for delta^a and delta^b: two
    Field.pow calls less the bitlen(min(a, b)) - 1 squarings they share;
    an exponent 0 costs nothing."""
    return (max(max(a, b).bit_length() - 1, 0),
            max(a.bit_count() - 1, 0) + max(b.bit_count() - 1, 0))


def powers(fld: Field, delta: int, a: int, b: int,
           counter: OpCounter | None = None):
    """delta^a and delta^b, packed, off one right-to-left chain of
    squarings; an exponent 0 gives 1."""
    if counter is not None:
        squarings, mults = chain_cost(a, b)
        counter.squarings += squarings
        counter.mults += mults
    head = base = 1
    reduce = fld.reduce_packed
    for i in range(max(a, b).bit_length()):
        delta = reduce(delta * delta) if i else delta
        if a >> i & 1:
            head = delta if head == 1 else reduce(head * delta)
        if b >> i & 1:
            base = delta if base == 1 else reduce(base * delta)
    return head, base


def apply_periodic(fld: Field, delta, pe,
                   counter: OpCounter | None = None):
    """delta^{pe.v} through the split v = a + b*(geometric series): where
    a > 1 and b > 0, delta^a and delta^b come off powers' one chain; else
    each is one Field.pow, whose loop costs less Python where there is
    nothing to share.  Then one phi_map; a = 0 skips delta^a and the
    product by it.  A tuple is packed once and the result unpacked once."""
    if delta.__class__ is not int:
        return tuple(fld._unpack(apply_periodic(fld, fld._read(delta), pe,
                                                counter), fld.m))
    a, b = pe.a, pe.b
    if a > 1 and b:
        head, base = powers(fld, delta, a, b, counter)
    else:
        head = fld.pow(delta, a, counter) if a else None
        base = fld.pow(delta, b, counter)
    geo = phi_map(fld, base, pe.period, pe.n - 1, counter)
    return fld.mul(head, geo, counter) if a else geo
