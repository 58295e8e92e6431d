"""Output checker for the benchmark, written apart from rootfield.field.

Arithmetic in Z_p[x]/(f) packs coefficient vectors into machine-width
slots of one Python integer (Kronecker substitution) for products and
reduces with Barrett's method against a precomputed inverse of the
reversed modulus.  The library reduces by adding packed rows of
x^{m+i} mod f instead, so the two share no code and no reduction
algorithm.  Irreducibility is Rabin's test on repeated p-th powers of x,
computed by plain powering rather than through a Frobenius matrix.

The checks themselves:
  * a reported root satisfies root^r = delta;
  * a non_residue verdict satisfies delta^{N/gcd(r, N)} != 1, which is
    exactly non-residuosity because the multiplicative group is cyclic;
  * the path tag is the one predicted from gcd(r, N), v_r(N) and m
    against k or k*r;
  * a modulus is monic of degree m and irreducible.
"""

from __future__ import annotations

import sys
from array import array
from math import gcd

_BYTEORDER = sys.byteorder
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


class Ring:
    """Z_p[x]/(f) for a monic f; elements are lists of m coefficients in
    [0, p), constant term first."""

    def __init__(self, p: int, modulus):
        f = [int(c) % p for c in modulus]
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.m = m = len(f) - 1
        self.f = f
        # every product below sums at most m terms below p^2
        bound = m * (p - 1) ** 2
        for size in (1, 2, 4, 8):
            if bound < 1 << (8 * size) and size in _TYPECODES:
                break
        else:
            raise ValueError(f"p={p}, m={m} is too wide for the checker")
        self._size = size
        self._code = _TYPECODES[size]
        # g = rev(f)^{-1} mod x^{m-1}, by the power-series recurrence
        rev = f[::-1]
        g = [1] + [0] * (m - 2) if m > 1 else []
        for i in range(1, m - 1):
            acc = 0
            for j in range(1, min(i, m) + 1):
                acc += rev[j] * g[i - j]
            g[i] = (-acc) % p
        self._g = g
        self._f_low = f[:m]

    def _pack(self, coeffs) -> int:
        return int.from_bytes(array(self._code, coeffs).tobytes(), _BYTEORDER)

    def _unpack(self, value: int, count: int) -> list:
        raw = value.to_bytes(count * self._size, _BYTEORDER)
        p = self.p
        return [c % p for c in array(self._code, raw)]

    def _product(self, a, b, count: int) -> list:
        """The first count coefficients of a*b, reduced mod p."""
        full = len(a) + len(b) - 1
        x = self._pack(a) * self._pack(b)
        out = self._unpack(x, full)
        return out[:count] if count <= full else out + [0] * (count - full)

    def mul(self, a, b) -> list:
        m, p = self.m, self.p
        if m == 1:
            return [a[0] * b[0] % p]
        c = self._product(a, b, 2 * m - 1)
        t = self._product(c[:m - 1:-1], self._g, m - 1)
        q = t[::-1]
        qf = self._product(q, self._f_low, m)
        return [(x - y) % p for x, y in zip(c, qf)]

    def pow(self, a, e: int) -> list:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one()
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def one(self) -> list:
        return [1] + [0] * (self.m - 1)

    def x(self) -> list:
        if self.m == 1:
            return [0]
        return [0, 1] + [0] * (self.m - 2)


# ---------------------------------------------------------------------------
# integer helpers

def is_prime(n: int) -> bool:
    """Trial division; the root degrees checked here stay below 2^32."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def valuation(r: int, n: int) -> int:
    v = 0
    while n % r == 0:
        n //= r
        v += 1
    return v


def order_mod_prime(p: int, r: int) -> int:
    """Multiplicative order of p modulo the prime r (p not divisible by r),
    found by stripping prime factors from r - 1."""
    k = r - 1
    for q in prime_factors(r - 1):
        while k % q == 0 and pow(p, k // q, r) == 1:
            k //= q
    return k


def predicted_path(p: int, m: int, r: int) -> str:
    """The path tag rth_root must report for (p, m, r) in auto mode.

    Prime r other than p is one stage: coprime when r does not divide
    N = p^m - 1 (fast when m > k, k the order of p mod r), ramified when
    it divides N once (fast when m > k*r), digit correction when r^2
    divides N.  Every other r is a chain of stages.
    """
    if r == p or not is_prime(r):
        return "composite_chain"
    t = valuation(r, p ** m - 1)
    if t >= 2:
        return "amm"
    k = order_mod_prime(p % r, r)
    if t == 0:
        return "coprime_fast" if m > k else "naive_fallback"
    return "ramified_fast" if m > k * r else "naive_fallback"


def is_residue(ring: Ring, delta, r: int) -> bool:
    """delta is an r-th power iff delta^{N/gcd(r, N)} = 1 (cyclic group)."""
    order = ring.p ** ring.m - 1
    return ring.pow(list(delta), order // gcd(r, order)) == ring.one()


# ---------------------------------------------------------------------------
# moduli

def _poly_gcd_is_one(a, b, p) -> bool:
    """Whether gcd(a, b) over Z_p is a nonzero constant."""
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            _trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def is_irreducible(p: int, f) -> bool:
    """Rabin's test: x^{p^m} = x mod f, and gcd(x^{p^{m/l}} - x, f) = 1
    for every prime l dividing m."""
    f = [int(c) % p for c in f]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    ring = Ring(p, f)
    x = ring.x()
    powers = [x]
    for _ in range(m):
        powers.append(ring.pow(powers[-1], p))
    if powers[m] != x:
        return False
    for ell in prime_factors(m):
        h = powers[m // ell]
        diff = [(a - b) % p for a, b in zip(h, x)]
        if not _poly_gcd_is_one(diff, f, p):
            return False
    return True


def _has_root(p: int, f) -> bool:
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def canonical_modulus(p: int, m: int) -> list:
    """Smallest monic irreducible of degree m, candidates ordered by the
    base-p value of their coefficients below the leading one."""
    c = 0
    while True:
        digits, t = [], c
        for _ in range(m):
            digits.append(t % p)
            t //= p
        if t:
            raise ValueError(f"no irreducible of degree {m} over Z_{p}")
        f = digits + [1]
        c += 1
        if m > 1 and (f[0] == 0 or (p <= 64 and _has_root(p, f))):
            continue
        if is_irreducible(p, f):
            return f


def check_modulus(p: int, m: int, f) -> list[str]:
    f = list(f)
    if len(f) != m + 1:
        return [f"F_{p}^{m}: modulus has degree {len(f) - 1}"]
    if f[-1] != 1:
        return [f"F_{p}^{m}: modulus is not monic"]
    if not is_irreducible(p, f):
        return [f"F_{p}^{m}: modulus is reducible"]
    return []


# ---------------------------------------------------------------------------
# outcomes

def check_outcome(ring: Ring, delta, r: int, constructed_residue: bool,
                  status: str, root, path_tag: str) -> list[str]:
    """Every way the reported outcome can disagree with the field; an empty
    list means the outcome is right."""
    p, m = ring.p, ring.m
    label = f"F_{p}^{m} r={r}"
    errors = []
    expected = predicted_path(p, m, r)
    if path_tag != expected:
        errors.append(f"{label}: path {path_tag}, predicted {expected}")
    if status == "root_found":
        root = list(root) if root is not None else []
        if len(root) != m or any(not 0 <= c < p for c in root):
            errors.append(f"{label}: root is not a field element")
        elif ring.pow(root, r) != list(delta):
            errors.append(f"{label}: root^r != delta")
    elif status == "non_residue":
        if constructed_residue:
            errors.append(f"{label}: constructed residue reported non_residue")
        elif is_residue(ring, delta, r):
            errors.append(f"{label}: delta is an r-th power, "
                          "reported non_residue")
    else:
        errors.append(f"{label}: unknown status {status!r}")
    return errors
