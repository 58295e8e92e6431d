"""Arithmetic in F_{p^m} on a polynomial basis, with explicit operation counts.

An element comes in one of two kinds.  The public kind is a length-m
tuple of integers in [0, p), constant term first: what callers pass in
and get back, and what every other method takes.  The packed kind is
the ring's integer, one digit per coefficient with the constant term
lowest and every digit in [0, p), the form reduce_packed returns; it is
canonical, so == compares elements, and the packed one is 1.  mul, sqr,
pow and frobenius take either kind and return the kind they were given
(mul raises TypeError on a mix); a tuple is read as elem reads it
(digits mod p, DegreeMismatch past m) and packed on the way in, and
unpacked on the way out.  The root layer packs delta once per
call and stays packed until it unpacks the root.

A Field instance carries the prime p, the extension degree m and a monic
irreducible modulus polynomial (length m+1 coefficient tuple), the
Frobenius matrices it has built (below), and the root layer's plans
for it (roots._plan), which die with it.

Construction: without an explicit modulus, mk_field searches candidates
in a fixed order (_canonical_modulus): for p <= _SIEVE_MAX_P an
evaluation sieve at points of F_{p^2} (_Points), for odd p a parity test
(Stickelberger, Swan 1962), then Ben-Or's test without the gcds of the
steps the sieve settled, each candidate in its own ring (_Residues).  An
explicit modulus takes Ben-Or's test alone.  None of it is counted.

Cost model: full multiplications, squarings, Frobenius applications and
inversions are tallied in a caller-supplied OpCounter.  Additions,
subtractions, negations and scalar work in Z_p are free.

Packed, a field multiplication is one bigint multiply, the bigint folds
of a fold plan (_Residues) and one reduction of every digit mod p at
once, only as far as the digit bound its caller proves needs (Harvey
2009; _Packing).  Digits are 1, 2, 4 or 8 bytes wide (_digit_format), so
packing runs through bytes, array and memoryview.cast at C speed; past
8 bytes (p >= 2^32) digits are sliced.

A field holds one map from j to the packed columns x^{i*p^j} of the
p^j-power map, empty until frobenius first runs; a call on a held j is
one matrix application, and a j not held walks the matrices of its set
bits 2^i in turn, a doubling ladder (von zur Gathen & Shoup 1992).  One
builder publishes the powers of y = x^{p^j}: y is x^p for j = 1, else
the matrix of j's low part h (its lowest set bit, or j/2 for a power of
two) walked over j - h from its column 1, a walk plus m - 2 ring
products.  A power of two is built on first need; a j with two or more
set bits is bought by ski rental: each walk on j tallies its
applications beyond one, popcount(j) - 1, and j is built once the tally
reaches m/2, about a build's price, while the field holds fewer than
3*(m-1).bit_length() such matrices.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import lru_cache
from itertools import compress, count, product
from operator import mul, not_

from .frobpow import phi_map
from .periodic import factorize, is_prime


class NotPrime(ValueError):
    """The characteristic failed the primality test."""


class ReducibleModulus(ValueError):
    """The supplied modulus polynomial is not irreducible over Z_p."""


class DegreeMismatch(ValueError):
    """Modulus length, monicity or element length does not fit the field."""


class ZeroInverse(ZeroDivisionError):
    """Inverse of the zero element requested."""


# array type codes by item size, for packing digits of 1, 2, 4 or 8 bytes
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"}
# for a packed F_3 digit's byte d, _PLANES[v - 1] translates d to 1 where
# d == v, else 0
_PLANES = [bytes(d == v for d in range(256)) for v in (1, 2)]


# ---------------------------------------------------------------------------
# packed polynomial arithmetic

def _digit_format(p, m):
    """(bytes, code): every digit a packed kernel over Z_p of degree m
    leaves unreduced fits a digit of that many bytes, packed by that array
    type code (None: slice the bytes).  For odd p a product digit sums at
    most m terms below p^2, and a gcd's divisions or the folds of reduced
    blocks add at most m more: 2mp^2 + 1.  Over F_2 (bits) 2m + 1 bounds
    every kernel: m products plus m bits of folds, m + 1 from a gcd, m
    selected columns, one scaled bit."""
    bound = 2 * m * (1 if p == 2 else p * p) + 1
    digit_bytes = (bound.bit_length() + 7) // 8
    digit_bytes = next((w for w in (1, 2, 4, 8) if w >= digit_bytes),
                       digit_bytes)
    code = _WORD_CODES.get(digit_bytes) if sys.byteorder == "little" else None
    return digit_bytes, code


@lru_cache(maxsize=1024)
def _reduction(p, bits, count, bound):
    """Reduce at most count digits, bits wide and <= bound (_Packing); for
    p > 2 the function carries its steps' constants as .steps, for the
    source (_kernel)."""
    ones = ((1 << bits * count) - 1) // ((1 << bits) - 1)
    if p == 2:
        return ones.__and__
    shrinks = []
    while bound * ((1 << bound.bit_length()) // p) >> bits:
        bound, h = min(((1 << h) - 1 + (bound >> h) * ((1 << h) % p), h)
                       for h in range(p.bit_length(), bits))
        shrinks.append((h, ((1 << bits - h) - 1) * ones,
                        (1 << h) - (1 << h) % p))
    s, top, bias = bound.bit_length(), bits - 1, ((1 << bits - 1) - p) * ones
    mu, low = (1 << s) // p, ((1 << bits - s) - 1) * ones
    if len(shrinks) > 1:  # zero or one shrink is written out below
        def reduce(y):
            for h, mask, c in shrinks:
                y -= (y >> h & mask) * c
            y -= (y * mu >> s & low) * p
            return y - (y + bias >> top & ones) * p
    elif shrinks:
        (h, mask, c), = shrinks

        def reduce(y):
            y -= (y >> h & mask) * c
            y -= (y * mu >> s & low) * p
            return y - (y + bias >> top & ones) * p
    else:
        def reduce(y):
            y -= (y * mu >> s & low) * p
            return y - (y + bias >> top & ones) * p
    reduce.steps = shrinks, mu, s, low, bias, top, ones
    return reduce


class _Packing:
    """Coefficient vectors packed into one integer, one digit per
    coefficient, constant term in the lowest digit; subclasses set p,
    _digit_bytes and _digit_code from _digit_format.

    A caller reduces its digits into [0, p) by the _reducer of their count
    and of the largest digit it can meet: a product's last tracked bound,
    a Barrett fold's block bound (_Residues._bounds), m(p - 1)^2 for a
    Frobenius sum or a sieve's t parts, p - 1 + k(p - 1)^2 for a Euclid
    remainder after k divisions, (p - 1)^2 for a scalar times reduced
    digits, 2^bits - 1 for a tuple.  For p = 2 it masks each digit's low
    bit.  Else it shrinks each digit y = hi*2^h + lo to lo + hi*r as
    y - hi*(2^h - r), r = 2^h mod p: exact mod p, no borrow as hi*2^h <= y,
    each at the h that leaves the least bound B, until B*mu < 2^bits for
    s = B.bit_length() and mu = 2^s // p (Barrett 1986).  Then y*mu
    carries into no other digit, and q = y*mu >> s, masked to each digit's
    low bits - s bits, is floor(y/p) or one less, as y < 2^s; y - q*p < 2p
    takes one subtract of p where the top bit of y + 2^(bits-1) - p is
    set, which 2p < 2^bits keeps inside the digit."""

    def _reducer(self, bound, count):
        return _reduction(self.p, 8 * self._digit_bytes, count, bound)

    def _pack(self, vec) -> int:
        code = self._digit_code
        if code == "B" and vec.__class__ is not int:  # bytes(n): n zeros
            return int.from_bytes(bytes(vec), "little")
        if code:
            return int.from_bytes(array(code, vec).tobytes(), "little")
        db = self._digit_bytes
        return int.from_bytes(
            b"".join(c.to_bytes(db, "little") for c in vec), "little")

    def _unpack(self, x: int, count: int):
        db = self._digit_bytes
        raw = x.to_bytes(db * count, "little")
        code = self._digit_code
        if code:
            return memoryview(raw).cast(code).tolist()
        return [int.from_bytes(raw[i * db:(i + 1) * db], "little")
                for i in range(count)]


class _Residues(_Packing):
    """Z_p[x]/(f) for a monic f of degree m, irreducible or not, on packed
    integers whose digits lie in [0, p): the irreducibility test, and the
    reduction behind every Field multiplication; x is x mod f for m >= 2.

    A product is reduced top-down with the packed -f: x^m = -f_low, so a
    block of m - deg(f_low) high digits folds below itself in one bigint
    product; a sparse modulus takes one or two folds, a dense one one per
    digit.  A product digit is at most m(p-1)^2, and a fold by the w
    nonzero digits of -f_low adds at most min(w, count)(p-1)B to a digit,
    for a block of count digits at most B.  The plan (_fold_plan, one per
    shape) gives each block the first of _STEPS that keeps every digit
    below 2^bits if later blocks are brought into [0, p): none, % p (one
    digit), one or two shrinks at h = bits/2 (_Packing; p < 2^h), or the
    block's reduction; _bounds holds each B, then the final reduction's;
    _lazy: no block reduces.  reduce_packed is the one loop that runs a
    plan; a Field compiles its own (Field._rent)."""

    _STEPS = ("none", "mod", "shrink", "shrink2", "barrett")  # cheapest first

    def __init__(self, p, f):
        self.m = m = len(f) - 1
        self.p, (self._digit_bytes, self._digit_code) = p, _digit_format(p, m)
        bits = 8 * self._digit_bytes
        neg_low = [(-c) % p for c in f[:m]]
        self._neg_low = self._pack(neg_low)
        self._f = self._pack([c % p for c in f])
        block = m - max((self._neg_low.bit_length() - 1) // bits, 0)
        self.x = 1 << bits
        self._shape = p, m, bits, block, m - neg_low.count(0)
        self._bounds, self._folds, self._lazy, self._reduce = _fold_plan(
            *self._shape)

    def reduce_packed(self, acc: int) -> int:
        """acc mod f for acc of at most 2m - 1 digits, each <= m(p - 1)^2."""
        p, neg_low = self.p, self._neg_low
        for lo_bits, step, mask, shift, bring in self._folds:
            high = acc >> lo_bits
            if step == 1:  # a dense modulus takes it once per digit
                high %= p
            elif step:
                high = bring(high)
            acc = (acc & mask) + (high * neg_low << shift)
        return self._reduce(acc)

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 1, left-to-right square and multiply."""
        acc = a
        for bit in bin(e)[3:]:
            acc = self.reduce_packed(acc * acc)
            if bit == "1":
                acc = self.reduce_packed(acc * a)
        return acc

    def gcd(self, b: int) -> int:
        """The monic gcd of f and b, packed, for a packed b of at most m
        digits in [0, p); b = 0 gives f."""
        if not b:
            return self._f
        *_, (b, db) = self._euclid(self._f, b)
        return 1 if db == 0 else self._reducer((self.p - 1) ** 2, self.m)(
            b * pow(b >> db * 8 * self._digit_bytes, -1, self.p))

    def _euclid(self, a: int, b: int):
        """Euclid on packed a and b, digits in [0, p), b of at most m and
        a of at most m + 1 digits: yields each nonzero divisor, b first,
        with its degree; the last one is a gcd of a and b.

        One division step cancels the top digit of the dividend with one
        multiply-add, a += (p - q) * b shifted under it, or two with one
        where a is one digit longer; k steps add at most k products below
        p^2 (bits over F_2) to a digit below, which fits its width, and one
        reduction sized by k brings the remainder into [0, p), so
        bit_length reads its degree."""
        p, bits, digit = self.p, 8 * self._digit_bytes, self.x - 1
        two, any_k = (self._reducer(p - 1 + k * (p - 1) ** 2, self.m)
                      for k in (2, self.m + 1))
        while b:
            db = (b.bit_length() - 1) // bits
            yield b, db
            if db == 0:
                return
            neg_inv = p - pow(b >> db * bits, -1, p)
            da = (a.bit_length() - 1) // bits
            if da == db + 1:  # both quotient digits from scalar top digits
                q = (a >> da * bits) * neg_inv % p
                a += ((q << bits) + ((a >> db * bits & digit) + q * (
                    b >> (db - 1) * bits & digit)) * neg_inv % p) * b
            else:
                for top in range(da, db - 1, -1):
                    c = a >> top * bits & digit
                    if c % p:
                        a += c * neg_inv % p * b << (top - db) * bits
            a, b = b, (two if da - db < 2 else any_k)(a & (1 << db * bits) - 1)


@lru_cache(maxsize=64)
def _fold_plan(p, m, bits, block, w):
    """A _Residues' bounds, folds, laziness and final reduction."""
    h, r = bits // 2, (1 << bits // 2) % p
    halves = ((1 << h) - 1) * (((1 << bits * m) - 1) // ((1 << bits) - 1))

    def shrink(y, c=(1 << h) - r):
        return y - (y >> h & halves) * c
    brings = (None, None, shrink, lambda y: shrink(shrink(y)))
    # per fold, top first: bit offset, step, mask, shift, shrink or reduction
    tops = range(2 * m - 1, m, -block)  # no product digit reaches 2m - 1
    gains = [min(w, block, top - m) * (p - 1) for top in tops]
    rest = sum(gains) * (p - 1)  # what the folds add, blocks in [0, p)
    bounds, folds = [m * (p - 1) ** 2], []
    for top, gain in zip(tops, gains):
        lo, bound = max(top - block, m), bounds[-1]
        rest -= gain * (p - 1)
        once = min(bound, (1 << h) - 1 + (bound >> h) * r)
        options = [(0, bound), (1, p - 1)] if top - lo == 1 else [
            (0, bound), (2, once), (3, (1 << h) - 1 + (once >> h) * r),
            (4, p - 1)] if p > 2 else [(0, bound), (4, 1)]
        step, high = next((s, b) for s, b in options
                          if bound + gain * b + rest < 1 << bits)
        bounds.append(bound + gain * high)
        folds.append((lo * bits, step, (1 << lo * bits) - 1, (lo - m) * bits,
                      _reduction(p, bits, top - lo, bound) if step == 4
                      else brings[step]))
    return (tuple(bounds), tuple(folds), not any(s for _, s, *_ in folds),
            _reduction(p, bits, m, bounds[-1]))


def is_irreducible(f, p, *, sieved=0) -> bool:
    """Ben-Or's test (Ben-Or 1981; Gao & Panario 1997): a monic f of
    degree m is irreducible iff gcd(x^{p^i} - x, f) = 1 for every
    i <= m/2, since a reducible f has an irreducible factor of some degree
    i <= m/2, which divides x^{p^i} - x.

    Steps 1 and 2 take one gcd each; most reducible f fail there.  A
    caller that knows f has no irreducible factor of degree <= sieved
    (sieved <= 2) other than f itself, as the modulus search's sieve
    does, skips those steps' gcds, which would read 1, and starts from
    x^{p^sieved}; for m < 2(sieved + 1) no step is left.  Later steps
    multiply their x^{p^i} - x mod f over batches of 2, 4, 8, ... steps
    and take one gcd per batch, since the product is prime to f iff every
    factor is.  A product that is 0 mod f has gcd f, so the verdict is
    the same, but a reducible f is rejected at the end of its batch.  The
    gcds run on the packed product (_Residues.gcd), never on lists.
    """
    f = [c % p for c in f]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m // 2 <= sieved:
        return True
    if f[0] == 0:
        return False
    ring = _Residues(p, f)
    x, bits = ring.x, 8 * ring._digit_bytes
    h, done, batch = ring.pow(x, p ** sieved), sieved, 1 + (sieved > 1)
    while done < m // 2:
        prod = None
        for _ in range(min(batch, m // 2 - done)):
            h = ring.pow(h, p)
            # h - x, digit 1 kept in [0, p)
            g = h - x if h >> bits & x - 1 else h + (p - 1) * x
            prod = g if prod is None else ring.reduce_packed(prod * g)
            done += 1
        if ring.gcd(prod) != 1:
            return False
        if done >= 2:
            batch *= 2
    return True


# the largest p whose modulus search sieves; a block costs p evaluations
# (about p^2/2 with the points of F_{p^2}), which larger p do not earn back
_SIEVE_MAX_P = 128


def _swan_parity(ring, f: int, df: int) -> bool:
    """Whether f, monic of degree ring.m over odd p and packed with f' as
    df, passes Stickelberger's test as Swan states it (1962): squarefree
    with r irreducible factors, f has a square discriminant iff m - r is
    even, so an irreducible f has disc(f) = (-1)^{m(m-1)/2} Res(f, f')
    nonzero and of character (-1)^{m-1}.  Euclid's divisors, of degree n_i
    and lead l_i, end at degree 0 unless Res = 0, and give Res = prod
    (-1)^{n_{i-1} n_i} l_i^{n_{i-1} - n_{i+1}}; d is Res times a square."""
    p, m, bits = ring.p, ring.m, 8 * ring._digit_bytes
    d, prev, last, db = (-1) ** (m * (m - 1) // 2), m, 1, -1
    for b, db in ring._euclid(f, df):
        lead = b >> db * bits
        d = d * lead ** (prev & 1) * last ** (db & 1) * (-1) ** (prev * db) % p
        prev, last = db, lead
    return db == 0 and pow(d, p >> 1, p) == (1 if m & 1 else p - 1)


class _Points(_Packing):
    """A search block's candidates f = x^m + U(x) + c_0, evaluated in packed
    lanes at points a of F_{p^2} = F_p[t]/(t^2 - nu), nu a non-square
    (t^2 = t + 1 over F_2): f(a) = 0 iff a^m + U(a) lies in F_p and
    c_0 = -(a^m + U(a)).  Row 0 holds u in F_p, in lane u; rows l = 1 ..
    p//2 hold l(w + t), w in F_p, in lane l*p + w, one point of each
    conjugate pair l(w + t), -l(-w + t) (both over F_2).  a^j is powered
    directly: u^j by pow in row 0, (w + t)^j by square and multiply in
    row 1, and row l is l^j times row 1.  A lane holds a real and a t
    part, each summing at most m values below p^2 (_digit_format)."""

    def __init__(self, p, m, rows):
        self.m, self.rows, self.count = m, rows, rows * p
        self.p, (self._digit_bytes, self._digit_code) = p, _digit_format(p, m)
        self._nu = next((c for c in range(2, p) if pow(c, p >> 1, p) > 1), 1)
        self._held = {}

    def _power(self, j):
        """The lanes of a^j at every point, j >= 1, real and t part."""
        held = self._held.get(j)
        if held:
            return held
        p, nu, s = self.p, self._nu, self.p == 2  # t^2 = nu + s*t
        held = (self._pack([pow(u, j, p) for u in range(p)]), 0)
        if self.rows > 1:
            def lane(w):  # (w + t)^j, real and t part
                a, b = w, 1
                for bit in bin(j)[3:]:
                    a, b = (a * a + b * b * nu) % p, (2 * a + s * b) * b % p
                    if bit == "1":
                        a, b = (a * w + b * nu) % p, (a + b * (w + s)) % p
                return a, b
            size, parts = p * self._digit_bytes, []
            reduce = self._reducer((p - 1) ** 2, self.count)
            for row0, one in zip(held, zip(*map(lane, range(p)))):
                one = self._pack(one)
                parts.append(reduce(int.from_bytes(b"".join(
                    [row0.to_bytes(size, "little")]
                    + [(pow(l, j, p) * one).to_bytes(size, "little")
                       for l in range(1, self.rows)]), "little")))
            held = tuple(parts)
        self._held[j] = held
        return held

    def roots(self, upper):
        """The c_0 for which x^m + ... + c_2 x^2 + c_1 x + c_0, upper = (c_1,
        c_2, ...), has a root among the points."""
        re, tp = self._power(self.m)
        for i, c in enumerate(upper, 1):
            if c:
                a, b = self._power(i)
                re, tp = re + c * a, tp + c * b
        values = self._unpack(re, self.count)
        if tp:  # the lanes whose t part, at most m(p - 1)^2, is 0 mod p
            tp = self._reducer(self.m * (self.p - 1) ** 2, self.count)(tp)
            values = compress(values, map(not_, self._unpack(tp, self.count)))
        return {-x % self.p for x in values}


def _canonical_modulus(p, m):
    """The smallest monic irreducible of degree m, candidates ordered by
    the base-p integer value of their non-leading coefficients.

    The candidates come in blocks of p that share c_1 ... c_{m-1} and
    differ in c_0.  For m >= 2 and p <= _SIEVE_MAX_P, one evaluation sieve
    (_Points) skips each candidate of a block with a root in F_p, about
    1 - 1/e of them, and for m >= 4 each with a root in F_{p^2}, that is
    an irreducible quadratic factor: what passes has no factor of degree
    <= 2, as for m <= 3 what has no root in F_p.  The F_{p^2} rows are
    bought by ski rental: each Ben-Or test tallies m, as its work grows
    with m, and the rows are built once the tally passes p^2/4, as theirs
    grows with the p^2/2 points.  Then, for every odd p, _swan_parity
    skips about half of the others and never an irreducible; a block's
    candidates share f' and the upper digits of f.  Over F_2 the theorem
    needs a lift's discriminant mod 8, and F_2 searches are cheap.  The
    rest go through is_irreducible without the gcds of the steps the sieve
    settled; for m <= 5 that leaves no step.

    The first block holds the binomials x^m - a, and x^m - a is
    irreducible only if every prime dividing m divides the order of a, a
    divisor of p - 1, and p = 1 (mod 4) where 4 | m (Lidl & Niederreiter,
    Thm 3.75): when either fails, the search starts after it."""
    first = 1 if any((p - 1) % ell for ell, _ in factorize(m)) or (
        m % 4 == 0 and p % 4 == 3) else 0
    points = _Points(p, m, 1) if 1 < m and p <= _SIEVE_MAX_P else None
    sieved = 0 if points is None else 1 if m > 3 else 2
    ring = _Residues(p, (0,) * m + (1,)) if p > 2 else None
    tests = 0
    for block in count(first):
        upper = []  # c_1, c_2, ... up to the highest nonzero one
        while block:
            upper.append(block % p)
            block //= p
        if len(upper) >= m:
            raise ReducibleModulus(f"no irreducible of degree {m} found over Z_{p}")
        rooted = points.roots(upper) if points else ()
        tail = upper + [0] * (m - 1 - len(upper)) + [1]
        if ring:
            high = ring._pack([0] + tail)
            df = ring._pack([i * c % p for i, c in enumerate(tail, 1)])
        for c0 in range(p):
            if c0 not in rooted and (not ring or _swan_parity(ring, high + c0, df)):
                f = [c0] + tail
                if is_irreducible(f, p, sieved=sieved):
                    return tuple(f)
                tests += 1
        if sieved == 1 and 4 * m * tests > p * p:
            points, sieved = _Points(p, m, p // 2 + 1), 2


class OpCounter:
    """Tallies of counted field operations for one computation."""

    __slots__ = ("mults", "squarings", "frobenius", "inversions")

    def __init__(self, mults=0, squarings=0, frobenius=0, inversions=0):
        self.mults, self.squarings = mults, squarings
        self.frobenius, self.inversions = frobenius, inversions

    def _tallies(self):
        return self.mults, self.squarings, self.frobenius, self.inversions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tallies() == other._tallies()

    def __repr__(self):
        return ("OpCounter(mults={}, squarings={}, frobenius={}, "
                "inversions={})".format(*self._tallies()))


class Field(_Residues):
    """Context for F_{p^m}, equal and hashed by (p, m, modulus); all
    element operations live here.  Its fold plan runs interpreted until
    _rent products, about what a process's first compile costs, are
    spent; then compiled into one loop-free function (_kernel)."""

    _rent = 1500  # a race on the count only delays the compile

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        _Residues.__init__(self, p, modulus)
        self.modulus, self.order_minus_one = modulus, p ** m - 1
        self._reduce_read = self._reducer((1 << 8 * self._digit_bytes) - 1, m)
        self._reduce_sum = self._reducer(m * (p - 1) ** 2, m)  # for _apply
        # Frobenius matrices by j (replaced, never mutated), the rental's
        # tally by j (a lost update only delays a build), and the cap: 18 of
        # 21 used on F_{2^127}, at most 16 MB on F_{2^521}
        self._frob_maps, self._frob_spent = {}, {}
        self._frob_cap = 3 * (m - 1).bit_length()
        self._plans = {}  # the root layer's, kept as _frob_maps is (roots)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return (f"Field(p={self.p!r}, m={self.m!r}, modulus={self.modulus!r}, "
                f"order_minus_one={self.order_minus_one!r})")

    def reduce_packed(self, acc: int) -> int:
        self._rent -= 1
        if self._rent <= 0:  # the plan compiled shadows its interpreter
            from ._kernel import compiled
            self.reduce_packed = compiled(*self._shape)(self._neg_low)
        return _Residues.reduce_packed(self, acc)

    # -- element construction ------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * self.m

    def one(self) -> tuple:
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, value: int) -> tuple:
        return (value % self.p,) + (0,) * (self.m - 1)

    def elem(self, coeffs) -> tuple:
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.m:
            raise DegreeMismatch(
                f"element has {len(coeffs)} coefficients, field degree is {self.m}")
        return tuple(coeffs) + (0,) * (self.m - len(coeffs))

    def elem_from_index(self, i: int) -> tuple:
        return tuple(i // self.p ** k % self.p for k in range(self.m))

    def elem_index(self, a) -> int:
        return sum(c * self.p ** k for k, c in enumerate(a))

    def elements(self):
        """All field elements in base-p counting order."""
        return (c[::-1] for c in product(range(self.p), repeat=self.m))

    def random_elem(self, rng: random.Random) -> tuple:
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b) -> tuple:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        p = self.p
        return tuple((-x) % p for x in a)

    def _read(self, a) -> int:
        """The tuple a read as elem reads it, packed: digits below the
        packed width are packed as they are and reduced at once."""
        if len(a) <= self.m:
            try:
                return self._reduce_read(self._pack(a))
            except (AttributeError, OverflowError, TypeError, ValueError):
                pass  # a digit outside [0, 2^bits), or not an int
        return self._pack(self.elem(a))

    def _raw_mul(self, a, b):
        if a.__class__ is int is b.__class__:
            return a * b % self.p if self.m == 1 else self.reduce_packed(a * b)
        # two tuples; with one int among them, _read raises TypeError
        x = self._raw_mul(self._read(a), self._read(b))
        return tuple(self._unpack(x, self.m))

    def mul(self, a, b, counter: OpCounter | None = None):
        if counter is not None:
            counter.mults += 1
        return self._raw_mul(a, b)

    def sqr(self, a, counter: OpCounter | None = None):
        if counter is not None:
            counter.squarings += 1
        return self._raw_mul(a, a)

    def pow(self, a, e: int, counter: OpCounter | None = None):
        """Left-to-right square and multiply on the packed element; a
        tuple is read once and unpacked once at the end.  0^0 is defined
        as 1.

        The counter is charged what the chain of sqr and mul calls would
        cost: one squaring per bit of e after the first, and one
        multiplication per set bit after the first."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if a.__class__ is not int:
            return tuple(self._unpack(self.pow(self._read(a), e, counter),
                                      self.m))
        if e == 0:
            return 1
        if counter is not None:
            counter.squarings += e.bit_length() - 1
            counter.mults += e.bit_count() - 1
        return pow(a, e, self.p) if self.m == 1 else _Residues.pow(self, a, e)

    def inv(self, a, counter: OpCounter | None = None) -> tuple:
        """a^{-1} by Itoh & Tsujii (1988).  With t = (p^m - 1)/(p - 1),
        a^{t-1} = (a^p)^{1 + p + ... + p^{m-2}} is one phi_map, the norm
        a^t = a^{t-1} * a lies in F_p, and a^{-1} = a^{t-1} * (a^t)^{-1}
        needs only a scalar inverse.  The counter is charged one
        inversion and nothing else."""
        x = self._read(a)
        if not x:
            raise ZeroInverse("zero has no multiplicative inverse")
        if counter is not None:
            counter.inversions += 1
        p = self.p
        if self.m == 1:
            return (pow(x, -1, p),)
        head = phi_map(self, self.frobenius(x, 1), 1, self.m - 2)
        scale = pow(self._raw_mul(head, x), -1, p)
        return tuple(self._unpack(
            self._reducer((p - 1) ** 2, self.m)(head * scale), self.m))

    def frobenius(self, a, j: int, counter: OpCounter | None = None):
        """Apply the p-power map j times; j is reduced mod m first.

        The counter is charged j applications, whatever the work: one
        application of j's matrix if held, else one per set bit of j
        (_walk); the module docstring says which matrices are built."""
        j %= self.m
        if counter is not None:
            counter.frobenius += j
        if a.__class__ is not int:
            return tuple(self._unpack(self.frobenius(self._read(a), j), self.m))
        if not j:
            return a
        cols = self._frob_maps.get(j)
        if cols is None and j & j - 1:  # two or more set bits
            spent = self._frob_spent.get(j, 0) + j.bit_count() - 1
            self._frob_spent[j] = spent
            if 2 * spent >= self.m:
                cols = self._frob_build(j)
        return self._walk(a, j) if cols is None else self._apply(cols, a)

    def _walk(self, x: int, j: int) -> int:
        """Packed x raised to p^j, 0 < j < m: the matrix of each set bit
        2^i of j applied in turn, each built on first need."""
        for i in range(j.bit_length()):
            if j >> i & 1:
                cols = self._frob_maps.get(1 << i) or self._frob_build(1 << i)
                x = self._apply(cols, x)
        return x

    def _frob_build(self, j: int) -> tuple | None:
        """Publish and return the powers of y = x^{p^j}, 0 < j < m, built
        as the module docstring says; None for a j with two or more set
        bits while the map holds _frob_cap such keys.  The cap is checked
        on the snapshot published, and that snapshot plus the matrix
        replaces the map, so racing builds keep the cap and readers see
        whole matrices; a build lost to a race is redone."""
        composed, cap = j & j - 1, self._frob_cap

        def full(store):
            return composed and sum(k & k - 1 > 0 for k in store) >= cap

        if full(self._frob_maps):
            return None
        if j == 1:
            y = _Residues.pow(self, self.x, self.p)
        else:
            h = j & -j if composed else j >> 1
            low = self._frob_maps.get(h) or self._frob_build(h)
            y = self._walk(low[1], j - h)
        cols = [1, y]  # y^i for i < m
        for _ in range(2, self.m):
            cols.append(self.reduce_packed(cols[-1] * y))
        cols = tuple(cols)
        store = self._frob_maps
        if full(store):
            return None
        self._frob_maps = {**store, j: cols}
        return cols

    def _apply(self, cols, x: int) -> int:
        """The linear map with packed columns cols, applied to packed x:
        one sum of each digit times its column, at C speed.  Where p <= 3
        digits select columns instead: v times the columns the 0/1 plane
        of digit value v selects, per v > 0.  The low bytes of x's digits
        are the plane over F_2, and _PLANES translates them over F_3."""
        p, m, db = self.p, self.m, self._digit_bytes
        if p <= 3:
            a = x.to_bytes(db * m, "little")[::db]
            if p == 2:
                acc = sum(compress(cols, a))
            else:
                acc = (sum(compress(cols, a.translate(_PLANES[0])))
                       + 2 * sum(compress(cols, a.translate(_PLANES[1]))))
            return self._reduce_sum(acc)
        return self._reduce_sum(sum(map(mul, self._unpack(x, m), cols)))


def _check_shape(p: int, m: int) -> None:
    """Raise NotPrime or DegreeMismatch unless p is prime and m >= 1."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise DegreeMismatch("extension degree must be >= 1")


def mk_field(p: int, m: int, modulus=None) -> Field:
    """Construct F_{p^m}.

    Without an explicit modulus the canonical one is chosen: the monic
    irreducible whose coefficient vector, read as a base-p integer with
    the leading coefficient dropped, is smallest.
    """
    _check_shape(p, m)
    if modulus is None:
        f = _canonical_modulus(p, m)
    else:
        f = tuple(int(c) % p for c in modulus)
        if len(f) != m + 1:
            raise DegreeMismatch(
                f"modulus has {len(f)} coefficients, expected {m + 1}")
        if f[-1] != 1:
            raise DegreeMismatch("modulus must be monic")
        if not is_irreducible(list(f), p):
            raise ReducibleModulus(f"modulus {list(f)} is reducible over Z_{p}")
    return Field(p, m, f)


# ---------------------------------------------------------------------------
# text formats

def format_elem(a) -> str:
    return ",".join(str(c) for c in a)


def parse_elem(fld: Field, text: str) -> tuple:
    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad element {text!r}: {exc}") from None
    return fld.elem(coeffs)


def format_field(fld: Field) -> str:
    return f"p={fld.p} m={fld.m} modulus={format_elem(fld.modulus)}"


def parse_field(text: str) -> Field:
    parts = {}
    for tok in text.split():
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"bad field token {tok!r}")
        parts[key] = val
    try:
        p = int(parts["p"])
        m = int(parts["m"])
    except KeyError as exc:
        raise ValueError(f"field description missing {exc}") from None
    modulus = None
    if "modulus" in parts:
        modulus = [int(c) for c in parts["modulus"].split(",")]
    return mk_field(p, m, modulus)
