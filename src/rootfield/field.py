"""Arithmetic in F_{p^m} on a polynomial basis, with explicit operation counts.

Elements are length-m tuples of integers in [0, p), constant term first.
A Field instance carries the prime p, the extension degree m and a monic
irreducible modulus polynomial (length m+1 coefficient tuple), and
precomputes the packed matrix of the p-power Frobenius map.

Cost model: full multiplications, squarings, Frobenius applications and
inversions are tallied in a caller-supplied OpCounter.  Additions,
subtractions, negations and scalar work in Z_p are free.

Coefficient vectors are packed into single Python integers for the inner
multiplication, so one field multiplication costs one bigint multiply
plus O(m) bookkeeping instead of an O(m^2) interpreted loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .periodic import factorize


class NotPrime(ValueError):
    """The characteristic failed the primality test."""


class ReducibleModulus(ValueError):
    """The supplied modulus polynomial is not irreducible over Z_p."""


class DegreeMismatch(ValueError):
    """Modulus length, monicity or element length does not fit the field."""


class ZeroInverse(ZeroDivisionError):
    """Inverse of the zero element requested."""


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


# ---------------------------------------------------------------------------
# plain list-based polynomial helpers, used at construction time only

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def _poly_rem(a, f, p):
    """Remainder of a modulo the monic polynomial f, trimmed."""
    a = [c % p for c in a]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    del a[df:]
    return _trim(a)


def _fixed(a, m):
    return list(a) + [0] * (m - len(a))


def _poly_powmod(base, e, f, p):
    df = len(f) - 1
    result = [1]
    base = _poly_rem(list(base), f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        e >>= 1
        if e:
            base = _poly_rem(_poly_mul(base, base, p), f, p)
    return _fixed(result, df)


def _poly_divmod(a, b, p):
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    while len(r) >= len(b):
        c = r[-1] * inv_lead % p
        if c:
            dq = len(r) - len(b)
            q[dq] = c
            for i, bc in enumerate(b):
                r[i + dq] = (r[i + dq] - c * bc) % p
        r.pop()
        _trim(r)
    return q, r


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = _fixed(a, n)
    b = _fixed(b, n)
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _poly_gcd(a, b, p):
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    return a


def _frob_columns(f, p):
    """Matrix of c -> c^p on Z_p[x]/(f): column j holds x^{j*p} mod f.

    The map is additive in characteristic p whether or not f is
    irreducible, which is what makes the irreducibility test below work.
    """
    m = len(f) - 1
    xp = _fixed(_poly_powmod([0, 1], p, f, p), m)
    cols = [[1] + [0] * (m - 1)]
    cur = cols[0]
    for _ in range(1, m):
        cur = _fixed(_poly_rem(_poly_mul(cur, xp, p), f, p), m)
        cols.append(cur)
    return cols


def _mat_apply(cols, vec, p):
    m = len(vec)
    out = [0] * m
    for j, vj in enumerate(vec):
        if vj:
            col = cols[j]
            for i in range(m):
                out[i] += vj * col[i]
    return [c % p for c in out]


def is_irreducible(f, p) -> bool:
    """Rabin's criterion: x^{p^m} = x mod f and, for every prime l | m,
    gcd(x^{p^{m/l}} - x, f) = 1.
    """
    f = [c % p for c in f]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m == 1:
        return True
    if f[0] == 0:
        return False
    if p <= 64:
        # cheap pre-filter: no roots means no linear factors
        for a in range(p):
            acc = 0
            for c in reversed(f):
                acc = (acc * a + c) % p
            if acc == 0:
                return False
    cols = _frob_columns(f, p)
    x_vec = _fixed([0, 1], m)
    powers = [x_vec]
    w = x_vec
    for _ in range(m):
        w = _mat_apply(cols, w, p)
        powers.append(w)
    if powers[m] != x_vec:
        return False
    for ell, _ in factorize(m):
        diff = [(a - b) % p for a, b in zip(powers[m // ell], x_vec)]
        g = _poly_gcd(diff, f, p)
        if len(g) != 1:
            return False
    return True


def _canonical_modulus(p, m):
    # smallest monic irreducible of degree m, candidates ordered by the
    # base-p integer value of their non-leading coefficients
    c = 0
    while True:
        digits = []
        t = c
        for _ in range(m):
            digits.append(t % p)
            t //= p
        if t:
            raise ReducibleModulus(f"no irreducible of degree {m} found over Z_{p}")
        f = digits + [1]
        if is_irreducible(f, p):
            return tuple(f)
        c += 1


@dataclass
class OpCounter:
    """Tallies of counted field operations for one computation."""

    mults: int = 0
    squarings: int = 0
    frobenius: int = 0
    inversions: int = 0


@dataclass(frozen=True)
class Field:
    """Immutable context for F_{p^m}; all element operations live here."""

    p: int
    m: int
    modulus: tuple[int, ...]
    order_minus_one: int

    def __post_init__(self):
        p, m = self.p, self.m
        # one packed digit must hold any convolution or reduction
        # accumulation: at most m terms of size (p-1)^2 plus one carry-in
        bound = 2 * m * p * p + 1
        digit_bytes = (bound.bit_length() + 7) // 8
        object.__setattr__(self, "_digit_bytes", digit_bytes)
        rows = []
        row = [(-c) % p for c in self.modulus[:m]]  # x^m mod modulus
        rows.append(row)
        for _ in range(1, m - 1):
            shifted = [0] + row[:-1]
            top = row[-1]
            if top:
                shifted = [(s + top * r) % p for s, r in zip(shifted, rows[0])]
            row = shifted
            rows.append(row)
        object.__setattr__(self, "_packed_reduce",
                           tuple(self._pack(r) for r in rows))
        object.__setattr__(self, "_packed_frob", tuple(
            self._pack(col) for col in _frob_columns(list(self.modulus), p)))
        object.__setattr__(self, "_hash", hash((p, m, self.modulus)))

    def __hash__(self):
        return self._hash

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
        return tuple(_fixed(coeffs, self.m))

    def elem_from_index(self, i: int) -> tuple:
        digits = []
        for _ in range(self.m):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def elem_index(self, a) -> int:
        i = 0
        for c in reversed(a):
            i = i * self.p + c
        return i

    def elements(self):
        """All field elements in base-p counting order."""
        for i in range(self.order_minus_one + 1):
            yield self.elem_from_index(i)

    def random_elem(self, rng: random.Random) -> tuple:
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    # -- packing helpers -----------------------------------------------------

    def _pack(self, vec) -> int:
        db = self._digit_bytes
        return int.from_bytes(
            b"".join(c.to_bytes(db, "little") for c in vec), "little")

    def _unpack(self, x: int, count: int):
        db = self._digit_bytes
        raw = x.to_bytes(db * count, "little")
        return [int.from_bytes(raw[i * db:(i + 1) * db], "little")
                for i in range(count)]

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

    def _raw_mul(self, a, b) -> tuple:
        p, m = self.p, self.m
        if m == 1:
            return (a[0] * b[0] % p,)
        prod = self._pack(a) * self._pack(b)
        digits = self._unpack(prod, 2 * m - 1)
        acc = self._pack([c % p for c in digits[:m]])
        rows = self._packed_reduce
        for i in range(m, 2 * m - 1):
            c = digits[i] % p
            if c:
                acc += c * rows[i - m]
        return tuple(c % p for c in self._unpack(acc, m))

    def mul(self, a, b, counter: OpCounter | None = None) -> tuple:
        if counter is not None:
            counter.mults += 1
        return self._raw_mul(a, b)

    def sqr(self, a, counter: OpCounter | None = None) -> tuple:
        if counter is not None:
            counter.squarings += 1
        return self._raw_mul(a, a)

    def pow(self, a, e: int, counter: OpCounter | None = None) -> tuple:
        """Left-to-right square and multiply; 0^0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return self.one()
        if counter is None and self.m == 1:
            return (pow(a[0], e, self.p),)
        acc = a
        for bit in bin(e)[3:]:
            acc = self.sqr(acc, counter)
            if bit == "1":
                acc = self.mul(acc, a, counter)
        return acc

    def inv(self, a, counter: OpCounter | None = None) -> tuple:
        if not any(a):
            raise ZeroInverse("zero has no multiplicative inverse")
        if counter is not None:
            counter.inversions += 1
        p = self.p
        if self.m == 1:
            return (pow(a[0], -1, p),)
        r0, s0 = list(self.modulus), []
        r1, s1 = _trim([c % p for c in a]), [1]
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            s = _poly_sub(s0, _poly_mul(q, s1, p), p)
            r0, s0, r1, s1 = r1, s1, r, s
        c = pow(r0[0], -1, p)
        return tuple(_fixed([x * c % p for x in s0], self.m))

    def frobenius(self, a, j: int, counter: OpCounter | None = None) -> tuple:
        """Apply the p-power map j times; j is reduced mod m first."""
        j %= self.m
        if counter is not None:
            counter.frobenius += j
        p, m = self.p, self.m
        cols = self._packed_frob
        for _ in range(j):
            acc = 0
            for coeff, col in zip(a, cols):
                if coeff:
                    acc += coeff * col
            a = tuple(c % p for c in self._unpack(acc, m))
        return a


def mk_field(p: int, m: int, modulus=None) -> Field:
    """Construct F_{p^m}.

    Without an explicit modulus the canonical one is chosen: the monic
    irreducible whose coefficient vector, read as a base-p integer with
    the leading coefficient dropped, is smallest.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise DegreeMismatch("extension degree must be >= 1")
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
    return Field(p, m, f, p ** m - 1)


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
