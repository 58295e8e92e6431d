import functools
import itertools
import random
import runpy
import sys
import threading
from array import array
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import deadline
from rootfield import (DegreeMismatch, NotPrime, OpCounter, ReducibleModulus,
                       ZeroInverse, format_elem, format_field, is_prime,
                       mk_field, parse_elem, parse_field, rth_root)
from rootfield import _kernel, field
from rootfield.field import is_irreducible
from rootfield.periodic import factorize

# the benchmark's checker: Rabin's test on repeated p-th powers, with
# Z_p[x] arithmetic written apart from rootfield.field
CHECKER = runpy.run_path(
    str(Path(__file__).parents[1] / "perfbench" / "checker.py"))


def elems(fld):
    return st.tuples(*(st.integers(0, fld.p - 1) for _ in range(fld.m)))


# -- schoolbook references on coefficient lists, constant term first ---------

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
    while a and a[-1] == 0:
        a.pop()
    return a


# -- construction -----------------------------------------------------------

def test_canonical_modulus_f8(f8):
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1


def test_canonical_modulus_prime_field(f13):
    assert f13.modulus == (0, 1)  # plain x; F_13 is Z_13


def test_canonical_modulus_f9(f9):
    assert f9.modulus == (1, 0, 1)  # x^2 + 1


def test_reducible_modulus_rejected():
    # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1) over F_2
    with pytest.raises(ReducibleModulus):
        mk_field(2, 3, [1, 1, 1, 1])


def test_nonprime_p_rejected():
    with pytest.raises(NotPrime):
        mk_field(15, 1)


def test_modulus_shape_checked():
    with pytest.raises(DegreeMismatch):
        mk_field(2, 3, [1, 1, 0, 1, 0])  # wrong length
    with pytest.raises(DegreeMismatch):
        mk_field(5, 2, [1, 0, 2])  # not monic
    with pytest.raises(DegreeMismatch):
        mk_field(5, 0)


def test_canonical_choice_deterministic():
    assert mk_field(3, 4) == mk_field(3, 4)


def test_explicit_modulus_accepted(f8):
    # x^3 + x^2 + 1 is the other irreducible cubic over F_2
    fld = mk_field(2, 3, [1, 0, 1, 1])
    assert fld.modulus == (1, 0, 1, 1)
    assert fld.modulus != f8.modulus


def test_frobenius_matrix_columns(f9):
    # column j is the image x^{jp} mod modulus of the basis element x^j;
    # for F_9, x^3 = -x = 2x
    assert f9.frobenius((1, 0), 1) == (1, 0)
    assert f9.frobenius((0, 1), 1) == (0, 2)


def _monic(p, m, rng):
    return [rng.randrange(p) for _ in range(m)] + [1]


def _mobius(n):
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return (-1) ** len(factors)


@pytest.mark.parametrize("m", range(1, 13))
def test_irreducible_count_matches_gauss(m):
    # for every p with p^m <= 5000, the monic irreducibles of degree m
    # number (1/m) * sum over d | m of mu(d) * p^(m/d)
    for p in filter(is_prime, range(2, int(5000 ** (1 / m)) + 2)):
        if p ** m > 5000:
            continue
        expect = sum(_mobius(d) * p ** (m // d)
                     for d in range(1, m + 1) if m % d == 0) // m
        found = sum(is_irreducible(list(low) + [1], p)
                    for low in itertools.product(range(p), repeat=m))
        assert found == expect, (p, m)


def test_irreducible_agrees_with_checker_on_products():
    # g * h with g irreducible of degree m // 2 is caught only at Ben-Or's
    # last step, i = m // 2; a second, random factorisation for each m
    rng = random.Random(2024)
    for m in range(2, 61):
        p = (2, 3, 5, 7, 13)[m % 5]
        d = m // 2
        g = _monic(p, d, rng)
        while not is_irreducible(g, p):
            g = _monic(p, d, rng)
        h = _monic(p, m - d, rng)
        while not is_irreducible(h, p):
            h = _monic(p, m - d, rng)
        e = rng.randrange(1, m)
        for f in (_poly_mul(g, h, p),
                  _poly_mul(_monic(p, e, rng), _monic(p, m - e, rng), p)):
            assert len(f) == m + 1
            assert is_irreducible(f, p) is False, (p, f)
            assert CHECKER["is_irreducible"](p, f) is False, (p, f)


def test_dense_explicit_modulus():
    # a modulus with every coefficient nonzero reduces one digit at a time
    rng = random.Random(8)
    p, m = 5, 9
    f = [rng.randrange(1, p) for _ in range(m)] + [1]
    while not is_irreducible(f, p):
        f = [rng.randrange(1, p) for _ in range(m)] + [1]
    assert CHECKER["is_irreducible"](p, f)
    fld = mk_field(p, m, f)
    # too many folds to run unreduced, where the canonical modulus can
    assert mk_field(p, m)._lazy and not fld._lazy
    for _ in range(5):
        a = fld.random_elem(rng)
        assert fld.frobenius(a, 1) == fld.pow(a, p)
        assert fld.frobenius(a, 3) == fld.pow(a, p ** 3)


def test_binomial_block_skipped(monkeypatch):
    # 17 does not divide p - 1, so no x^17 - a is irreducible over F_p
    # (Lidl & Niederreiter, Thm 3.75) and the search starts at x^17 + x;
    # testing the 10^6 binomials one by one took minutes.  Of x^17 + x + c,
    # c <= 14, the parity test passes exactly those whose Sylvester
    # discriminant has the character of an irreducible
    p, m = 1000003, 17
    tested = []
    monkeypatch.setattr(field, "is_irreducible",
                        lambda f, q, **kw: tested.append(list(f)) or
                        is_irreducible(f, q, **kw))
    with deadline(5):
        fld = mk_field(p, m)
    assert fld.modulus == (14, 1) + (0,) * 15 + (1,)  # x^17 + x + 14
    candidates = [[c, 1] + [0] * 15 + [1] for c in range(15)]
    assert tested == [f for f in candidates if _disc_passes(f, p)]
    assert 1 < len(tested) < len(candidates)
    for f in candidates[:-1]:
        assert not CHECKER["is_irreducible"](p, f), f
    assert CHECKER["is_irreducible"](p, tested[-1])


def test_skipped_binomials_are_reducible():
    # wherever the search skips the binomial block, none of it is
    # irreducible
    skipped = 0
    for p in filter(is_prime, range(2, 32)):
        for m in range(2, 13):
            if all((p - 1) % ell == 0 for ell, _ in factorize(m)) and (
                    m % 4 or p % 4 == 1):
                continue
            skipped += 1
            for c in range(p):
                assert not is_irreducible([c] + [0] * (m - 1) + [1], p)
    assert skipped > 50


@pytest.mark.parametrize("p,m", [(1000003, 4), (2 ** 31 - 1, 4),
                                 (1000003, 8), (2 ** 127 - 1, 4)])
def test_binomial_block_skipped_where_4_divides_m(p, m):
    # every prime factor of m divides p - 1, but p = 3 (mod 4) and 4 | m,
    # so no x^m - a is irreducible (Lidl & Niederreiter, Thm 3.75); a
    # search that tried them would test all p binomials, about 28 s for
    # (1000003, 4)
    with deadline(1):
        fld = mk_field(p, m)
    assert any(fld.modulus[1:m]) and is_irreducible(fld.modulus, p)


def test_elem_validation(f8):
    assert f8.elem([1, 1]) == (1, 1, 0)
    assert f8.elem([5, -1, 2]) == (1, 1, 0)
    with pytest.raises(DegreeMismatch):
        f8.elem([1, 0, 0, 1])


def test_elem_index_roundtrip(f9):
    seen = set()
    for i in range(9):
        e = f9.elem_from_index(i)
        assert f9.elem_index(e) == i
        seen.add(e)
    assert len(seen) == 9


# -- multiplication and friends ----------------------------------------------

def test_mul_f8_modulus_relation(f8):
    x = f8.elem([0, 1])
    x2 = f8.elem([0, 0, 1])
    assert f8.mul(x, x2) == f8.elem([1, 1])  # x^3 = x + 1


def test_mul_prime_field(f13):
    assert f13.mul(f13.elem([8]), f13.elem([9])) == (7,)  # 72 mod 13


def test_mul_identity(f9):
    for i in range(9):
        a = f9.elem_from_index(i)
        assert f9.mul(a, f9.one()) == a


def test_counter_attribution(f8):
    c = OpCounter()
    a = f8.elem([1, 1])
    f8.mul(a, a, c)
    f8.sqr(a, c)
    f8.frobenius(a, 2, c)
    f8.inv(a, c)
    assert (c.mults, c.squarings, c.frobenius, c.inversions) == (1, 1, 2, 1)


def test_pow_fermat(f13):
    assert f13.pow(f13.elem([2]), 12) == f13.one()


def test_pow_value(f13):
    # 8^7 = 2097152 = 13 * 161319 + 5
    assert f13.pow(f13.elem([8]), 7) == (5,)


def test_pow_edge_exponents(f8):
    a = f8.elem([0, 1, 1])
    c = OpCounter()
    assert f8.pow(a, 1, c) == a
    assert (c.mults, c.squarings) == (0, 0)
    assert f8.pow(f8.zero(), 0) == f8.one()
    with pytest.raises(ValueError):
        f8.pow(a, -1)


def test_pow_counter_bounds(f75):
    a = f75.elem([3, 1, 4, 1, 5])
    e = 123456789
    c = OpCounter()
    f75.pow(a, e, c)
    assert c.squarings == e.bit_length() - 1
    assert c.mults == bin(e).count("1") - 1


def test_inv_f8(f8):
    x = f8.elem([0, 1])
    assert f8.inv(x) == f8.elem([1, 0, 1])  # x * (x^2 + 1) = 1


def test_inv_prime_field(f13):
    assert f13.inv(f13.elem([2])) == (7,)
    assert f13.inv(f13.one()) == f13.one()


def test_inv_zero(f8):
    with pytest.raises(ZeroInverse):
        f8.inv(f8.zero())


def test_frobenius_f8(f8):
    x = f8.elem([0, 1])
    assert f8.frobenius(x, 1) == f8.elem([0, 0, 1])
    assert f8.frobenius(x, 3) == x  # order divides m


def test_frobenius_f9(f9):
    x = f9.elem([0, 1])
    assert f9.frobenius(x, 1) == f9.elem([0, 2])  # x^3 = 2x


def test_frobenius_fixes_prime_subfield(f75):
    a = f75.from_int(4)
    for j in range(6):
        assert f75.frobenius(a, j) == a


def test_frobenius_counter_reduced(f75):
    c = OpCounter()
    a = f75.elem([1, 2, 3, 4, 5])
    f75.frobenius(a, 12, c)  # 12 mod 5 = 2
    assert c.frobenius == 2


# -- algebra properties -------------------------------------------------------

@pytest.fixture(scope="module")
def f125():
    return mk_field(5, 3)


@given(data=st.data())
def test_ring_axioms(f125, data):
    a = data.draw(elems(f125))
    b = data.draw(elems(f125))
    c = data.draw(elems(f125))
    assert f125.mul(a, b) == f125.mul(b, a)
    assert f125.mul(f125.mul(a, b), c) == f125.mul(a, f125.mul(b, c))
    assert f125.mul(a, f125.add(b, c)) == f125.add(f125.mul(a, b),
                                                   f125.mul(a, c))
    assert f125.sub(f125.add(a, b), b) == a


@given(data=st.data())
def test_inverse_and_lagrange(f125, data):
    a = data.draw(elems(f125))
    if not any(a):
        return
    assert f125.mul(a, f125.inv(a)) == f125.one()
    assert f125.pow(a, f125.order_minus_one) == f125.one()


@given(data=st.data())
def test_frobenius_is_p_power(f125, data):
    a = data.draw(elems(f125))
    b = data.draw(elems(f125))
    assert f125.frobenius(a, 1) == f125.pow(a, f125.p)
    assert f125.frobenius(f125.add(a, b), 1) == f125.add(
        f125.frobenius(a, 1), f125.frobenius(b, 1))


@given(data=st.data())
def test_packed_mul_matches_schoolbook(f125, data):
    """The packed-integer product against a plain polynomial oracle."""
    a = data.draw(elems(f125))
    b = data.draw(elems(f125))
    p = f125.p
    raw = _poly_rem(_poly_mul(list(a), list(b), p), list(f125.modulus), p)
    expect = tuple(raw + [0] * (f125.m - len(raw)))
    assert f125.mul(a, b) == expect


def test_wide_digit_field():
    # p^2 * 6 needs 67 bits, so one packed digit is wider than a machine
    # word and packing cannot go through a fixed-width array
    p = 4294967311
    fld = mk_field(p, 3)
    assert fld.modulus == (2, 0, 0, 1)  # x^3 + 2
    a = fld.random_elem(random.Random(5))
    assert fld.frobenius(a, 1) == fld.pow(a, p)
    delta = fld.pow(a, 3)
    out = rth_root(fld, delta, 3)
    assert out.status == "root_found"
    assert fld.pow(out.root, 3) == delta


# -- Frobenius maps and digit packing -------------------------------------------

# one field per packed digit width: 1, 2, 4, 8 and 9 bytes
WIDTH_FIELDS = {1: (2, 7), 2: (3, 61), 4: (257, 3), 8: (2 ** 31 - 1, 2),
                9: (4294967311, 3)}


@pytest.fixture(params=sorted(WIDTH_FIELDS), ids=lambda w: f"{w}byte")
def width_field(request):
    """A fresh field, so it holds no Frobenius matrix yet."""
    fld = mk_field(*WIDTH_FIELDS[request.param])
    assert fld._digit_bytes == request.param
    assert fld._frob_maps == {}
    return fld


def _ladder(fld):
    """The held matrices of powers of two, the doubling ladder."""
    return {j: cols for j, cols in fld._frob_maps.items() if not j & j - 1}


def _composed(fld):
    """The held matrices of exponents with two or more set bits."""
    return {j: cols for j, cols in fld._frob_maps.items() if j & j - 1}


def _x_to_the(fld, e):
    """The columns of the ring map sending x to x^e, computed directly."""
    y = fld.pow(fld.x, e)
    cols = [1, y]
    for _ in range(2, fld.m):
        cols.append(fld.mul(cols[-1], y))
    return tuple(cols)


def test_frobenius_ladder_matches_pow(width_field):
    fld = width_field
    m = fld.m
    a = fld.random_elem(random.Random(m))
    expect = a
    for j in range(2 * m):
        c = OpCounter()
        assert fld.frobenius(a, j, c) == expect, j
        assert c.frobenius == j % m
        assert len(_ladder(fld)) <= (m - 1).bit_length()
        expect = fld.pow(expect, fld.p)


def test_frobenius_ladder_matches_matrix_squaring(width_field):
    # the matrix of 2^(i+1) is the one of 2^i applied to each of its own
    # columns
    fld = width_field
    m = fld.m
    fld.frobenius(fld.one(), m - 1)
    ladder = _ladder(fld)
    assert sorted(ladder) == [1 << i for i in range((m - 1).bit_length())]
    for j, low in ladder.items():
        if 2 * j in ladder:
            assert ladder[2 * j] == tuple(fld._apply(low, col) for col in low)


def test_frobenius_ladder_order_independent(width_field):
    # a fresh field walked down must agree with one walked up, so no
    # matrix depends on which exponents were asked for first
    fld = width_field
    down = mk_field(fld.p, fld.m)
    a = fld.random_elem(random.Random(7))
    js = range(2 * fld.m)
    up_results = [fld.frobenius(a, j) for j in js]
    down_results = [down.frobenius(a, j) for j in reversed(js)][::-1]
    assert up_results == down_results
    assert _ladder(fld) == _ladder(down)
    assert len(_ladder(fld)) == (fld.m - 1).bit_length()


def _drive(fld, j, a):
    """Call frobenius on a and its packed int with exponent j until j's
    matrix has served one call, or m + 1 calls when it is never built;
    both kinds must match a^{p^j} and charge j mod m each call."""
    m = fld.m
    want = fld.pow(a, fld.p ** (j % m))
    packed = fld._pack(a)
    for calls in itertools.count():
        stored = j % m in fld._frob_maps
        for arg, expect in ((a, want), (packed, fld._pack(want))):
            c = OpCounter()
            assert fld.frobenius(arg, j, c) == expect, (j, stored)
            assert c.frobenius == j % m
        if stored or calls > m:
            return


def test_frobenius_composed_matches_pow(width_field):
    # every j past its build threshold: a power of two is built on first
    # need, any other j while the map has room, and the walk serves the rest
    fld = width_field
    m = fld.m
    assert fld._frob_cap == 3 * (m - 1).bit_length()
    a = fld.random_elem(random.Random(m))
    for j in range(2 * m):
        k = j % m
        had = _composed(fld)
        _drive(fld, j, a)
        built = k in fld._frob_maps
        assert built == (k > 0 and (k.bit_count() == 1 or k in had
                                    or len(had) < fld._frob_cap)), j
        assert len(_composed(fld)) <= fld._frob_cap
        assert len(_ladder(fld)) <= (m - 1).bit_length()


def test_frobenius_composed_order_independent(width_field):
    # fields that built their matrices walking j up and walking it down
    # hold the same matrix for every j, the powers of x^{p^j}
    fld = width_field
    down = mk_field(fld.p, fld.m)
    a = fld.random_elem(random.Random(7))
    js = range(2 * fld.m)
    for j in js:
        _drive(fld, j, a)
    for j in reversed(js):
        _drive(down, j, a)
    for store in (fld._frob_maps, down._frob_maps):
        assert sum(j & j - 1 > 0 for j in store) <= fld._frob_cap
        for j, cols in store.items():
            assert cols == _x_to_the(fld, fld.p ** j)
    for j in fld._frob_maps.keys() & down._frob_maps.keys():
        assert fld._frob_maps[j] == down._frob_maps[j]
    assert _ladder(fld) == _ladder(down)
    if len(_composed(fld)) < fld._frob_cap:
        assert fld._frob_maps == down._frob_maps


@pytest.mark.parametrize("m", [7, 127])
def test_binary_frobenius_matches_generic_loop(m):
    # over F_2, _apply sums the columns the digits select: cold (the
    # first call on a fresh field), walked and composed calls must match
    # a^(2^j) and charge j mod m, and every matrix must give what the
    # multiply-add loop with the reduction of a sum of m bits gives
    fld = mk_field(2, m)
    rng = random.Random(m)
    a = fld.random_elem(rng)
    for j in (m - 1, 1, 3, m + 2):
        _drive(fld, j, a)
    assert _composed(fld) and len(_ladder(fld)) > 1
    for cols in fld._frob_maps.values():
        for x in (a, fld.one(), fld.zero(), (1,) * m, fld.random_elem(rng)):
            loop = sum(c * col for c, col in zip(x, cols))
            assert fld._apply(cols, fld._pack(x)) == fld._reducer(m, m)(loop)


# every digit width the bit-plane path of _apply meets (p <= 3), and the
# multiply-add loop above it: (p, m) -> digit bytes
PLANE_FIELDS = {(3, 5): 1, (3, 13): 1, (3, 61): 2, (2, 127): 1, (2, 131): 2,
                (5, 5): 1, (5, 13): 2}


@pytest.mark.parametrize("p,m", sorted(PLANE_FIELDS))
def test_frobenius_is_power_by_p_to_the_j(p, m):
    # on a fresh field, every j < 2m, tuple and packed: a^(p^j) by pow
    fld = mk_field(p, m)
    assert fld._digit_bytes == PLANE_FIELDS[p, m]
    rng = random.Random(p * m)
    sample = [(p - 1,) * m, fld.random_elem(rng), fld.random_elem(rng)]
    for j in range(2 * m):
        for a in sample:
            want = fld.pow(a, p ** j)
            assert fld.frobenius(a, j) == want, (j, a)
            assert fld.frobenius(fld._pack(a), j) == fld._pack(want), (j, a)


def test_frobenius_tuple_digits_outside_the_field():
    # a digit of a tuple is read mod p, as mul and elem read it; a wrong
    # element never comes back
    f2 = mk_field(2, 7)
    a = (2, 1, 0, 0, 0, 0, 0)  # 2 + x = x
    assert f2.frobenius(a, 1) == f2.pow(a, 2) == (0, 0, 1, 0, 0, 0, 0)
    assert f2.frobenius((3, 255, 0, 0, 0, 0, 4), 2) == f2.frobenius(
        (1, 1, 0, 0, 0, 0, 0), 2)
    f3 = mk_field(3, 5)
    assert f3.frobenius((4, 1, 0, 0, 0), 1) == (1, 0, 0, 1, 0)  # 1 + x^3
    assert f3.frobenius((5, 1, 0, 0, 0), 1) == (2, 0, 0, 1, 0)
    for bad in ((-1, 1, 0, 0, 0), (256, 1, 0, 0, 0)):
        assert f3.mul(bad, f3.one()) == f3.elem(bad)
        assert f3.frobenius(bad, 1) == f3.frobenius(f3.elem(bad), 1)
    assert f3.frobenius(f3.elem((-1, 1)), 1) == (2, 0, 0, 1, 0)
    f5 = mk_field(5, 13)  # the multiply-add loop reduces tuple digits
    for a in ((-1, 1) + (0,) * 11, (7, 600) + (0,) * 11):
        assert f5.frobenius(a, 1) == f5.pow(f5.elem(a), 5), a


def test_tuple_operands_are_read_as_elem_reads_them():
    # mul, sqr, pow, frobenius and inv read a tuple's digits mod p, pad a
    # short one and refuse one longer than m, as elem does; 255 = 0 mod 3
    f3, f13 = mk_field(3, 5), mk_field(13, 1)
    big = (255, 255, 0, 0, 0)
    assert f3.mul(big, big) == f3.sqr(big) == f3.pow(big, 3) == f3.zero()
    assert f3.frobenius(big, 1) == f3.frobenius(big, 0) == f3.zero()
    a = (4, -1, 7, 300)
    for fld, x in ((f3, a), (f3, big), (f13, (14,)), (f13, (-3,))):
        y = fld.elem(x)
        assert fld.mul(x, x) == fld.sqr(x) == fld.mul(y, y)
        assert fld.pow(x, 7) == fld.pow(y, 7)
        assert fld.pow(x, 0) == fld.one()
        for j in range(2 * fld.m):
            assert fld.frobenius(x, j) == fld.frobenius(y, j)
        if any(y):
            assert fld.inv(x) == fld.inv(y)
    with pytest.raises(ZeroInverse):
        f3.inv(big)
    for fld in (f3, f13):
        long = (1,) * (fld.m + 1)
        for call in (lambda: fld.mul(long, fld.one()), lambda: fld.sqr(long),
                     lambda: fld.pow(long, 2), lambda: fld.pow(long, 0),
                     lambda: fld.frobenius(long, 1), lambda: fld.inv(long)):
            with pytest.raises(DegreeMismatch):
                call()


def test_frobenius_stores_shared_between_threads():
    # threads on one fresh field, switching often, race on every build,
    # the first (j = 1) included: every result is right, every published
    # matrix is whole and the map keeps to its cap
    fld = mk_field(3, 61)
    p, m = fld.p, fld.m
    assert fld._frob_maps == {}
    a = fld.random_elem(random.Random(3))
    want = {j: fld.pow(a, p ** j) for j in range(m)}
    wrong = []

    def work(k):
        for _ in range(6):
            for j in range(m):
                j = (j * 7 + k) % m
                if fld.frobenius(a, j) != want[j]:
                    wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    assert 1 in fld._frob_maps
    assert 0 < len(_composed(fld)) <= fld._frob_cap
    for j, cols in fld._frob_maps.items():
        assert cols == _x_to_the(fld, p ** j)


def test_one_shot_root_builds_no_composed_matrix():
    # one request builds the powers of two it walks and nothing else
    fld = mk_field(2, 127)
    rng = random.Random(127)
    delta = fld.pow(fld.random_elem(rng), 3)
    out = rth_root(fld, delta, 3)
    assert out.status == "root_found" and out.counters.frobenius > 0
    assert _ladder(fld) and not _composed(fld)
    for _ in range(20):
        rth_root(fld, fld.pow(fld.random_elem(rng), 3), 3)
    assert _composed(fld)


def test_one_shot_cli_root_builds_no_composed_matrix(monkeypatch, capsys):
    from rootfield import cli
    made = []

    def recording_mk_field(*args):
        made.append(mk_field(*args))
        return made[-1]

    monkeypatch.setattr(cli, "mk_field", recording_mk_field)
    delta = ",".join(["3", "1"] + ["0"] * 58 + ["2"])
    assert cli.dispatch(["root", "--p", "5", "--m", "61", "--r", "2",
                         "--delta", delta]) in (0, 2)
    assert "frobenius=0" not in capsys.readouterr().out
    (fld,) = made
    assert _ladder(fld) and not _composed(fld)


def test_no_frobenius_no_matrix():
    # construction builds no matrix, and neither does work that never
    # applies the Frobenius map: roots in a prime field, or the
    # naive_fallback root of F_{2^59} for r = 179951
    for p, m in ((3, 61), (2, 127), (5, 61)):
        assert mk_field(p, m)._frob_maps == {}
    f13 = mk_field(13, 1)
    for r in (2, 3, 4, 6, 12):
        for d in range(13):
            rth_root(f13, (d,), r)
    assert f13._frob_maps == {}
    fld = mk_field(2, 59)
    delta = fld.pow(fld.random_elem(random.Random(59)), 179951)
    out = rth_root(fld, delta, 179951)
    assert (out.status, out.path_tag) == ("root_found", "naive_fallback")
    assert out.counters.frobenius == 0
    assert fld._frob_maps == {}


def test_first_frobenius_builds_x_to_the_p(width_field):
    # the first call builds the matrix of j = 1, the powers of x^p, and
    # holds nothing else
    fld = width_field
    a = fld.random_elem(random.Random(1))
    assert fld.frobenius(a, 1) == fld.pow(a, fld.p)
    assert fld._frob_maps == {1: _x_to_the(fld, fld.p)}


def test_fields_equal_whatever_their_frobenius_maps():
    # fields key the plan and AMM caches, so what a field has built must
    # not change its equality or hash
    warm, cold = mk_field(3, 61), mk_field(3, 61)
    a = warm.random_elem(random.Random(5))
    for _ in range(40):
        warm.frobenius(a, 29)
    assert _composed(warm) and cold._frob_maps == {}
    assert warm == cold and hash(warm) == hash(cold)
    assert {warm: "plan"}[cold] == "plan"


def test_pack_roundtrip(width_field):
    fld = width_field
    top = (1 << 8 * fld._digit_bytes) - 1
    rng = random.Random(fld.p)
    for vec in ([0] * fld.m, [top] * fld.m,
                [rng.randrange(top + 1) for _ in range(fld.m)]):
        assert fld._unpack(fld._pack(vec), fld.m) == vec


# -- packed elements ------------------------------------------------------------

# 1-, 2-, 4- and 8-byte digits, the byte-slice path (p >= 2^32), and m = 1
PACKED_FIELDS = sorted(WIDTH_FIELDS.values()) + [(13, 1), (4294967311, 1)]


def _sample(fld, rng):
    p, m = fld.p, fld.m
    return [fld.zero(), fld.one(), (p - 1,) * m] + [
        fld.random_elem(rng) for _ in range(4)]


def _agree(fld, op, tuple_args, packed_args):
    """op on tuples and on their packed ints: the same element, each of
    the kind it was given, and the same counts."""
    c_tuple, c_packed = OpCounter(), OpCounter()
    want = op(*tuple_args, c_tuple)
    got = op(*packed_args, c_packed)
    assert type(want) is tuple and len(want) == fld.m
    assert type(got) is int
    assert got == fld._pack(want)
    assert c_packed == c_tuple


@pytest.mark.parametrize("p,m", PACKED_FIELDS)
def test_packed_calls_match_tuple_calls(p, m):
    fld = mk_field(p, m)
    rng = random.Random(p + m)
    elems = _sample(fld, rng)
    packed = [fld._pack(a) for a in elems]
    exps = (0, 1, 2, p, fld.order_minus_one - 1, rng.randrange(1, 1 << 70))
    for a, x in zip(elems, packed):
        for b, y in zip(elems, packed):
            _agree(fld, fld.mul, (a, b), (x, y))
        _agree(fld, fld.sqr, (a,), (x,))
        for e in exps:
            _agree(fld, lambda u, c: fld.pow(u, e, c), (a,), (x,))
        for j in (0, 1, m - 1, m, m + 1, 2 * m + 3):
            _agree(fld, lambda u, c: fld.frobenius(u, j, c), (a,), (x,))
    assert fld.pow(fld._pack(fld.zero()), 0) == 1  # 0^0 = 1, packed


@pytest.mark.parametrize("p,m", PACKED_FIELDS + [(2, 127)])
def test_mixed_kinds_raise(p, m):
    fld = mk_field(p, m)
    a = fld.random_elem(random.Random(p))
    for x in (0, 1, fld._pack(a)):
        for args in ((a, x), (x, a)):
            with pytest.raises(TypeError):
                fld.mul(*args)


INV_FIELDS = [(13, 1), (2 ** 31 - 1, 1), (7, 2), (2 ** 31 - 1, 2), (2, 7),
              (5, 3), (257, 3), (4294967311, 3), (3, 61), (5, 61), (2, 521)]


@pytest.mark.parametrize("p,m", INV_FIELDS)
def test_inv_against_schoolbook_product(p, m):
    fld = mk_field(p, m)
    rng = random.Random(p * m)
    cases = [fld.one(), (p - 1,) * m] + [
        fld.random_elem(rng) for _ in range(3 if m > 100 else 12)]
    for a in cases:
        if not any(a):
            continue
        c = OpCounter()
        b = fld.inv(a, c)
        assert c == OpCounter(inversions=1)
        assert len(b) == m and all(0 <= d < p for d in b)
        prod = _poly_rem(_poly_mul(list(a), list(b), p), list(fld.modulus), p)
        assert prod == [1], a


# -- lane-parallel reduction mod p ----------------------------------------------

# m = 2 fields beside the width fields: 1, 2, 4, 8 and 9 bytes per digit,
# F_{2^127}, the largest F_2 field on 1-byte digits, and F_{2^17} and
# F_{5^41}, whose canonical folds fill their digits' top bit unreduced
REDUCE_FIELDS = sorted(WIDTH_FIELDS.values()) + [(2, 2), (3, 2), (251, 2),
                                                 (2, 127), (2, 17), (5, 41)]


def _dense_monic(p, m, rng):
    # every coefficient nonzero: one digit per fold; need not be irreducible
    return [rng.randrange(1, p) for _ in range(m)] + [1]


@pytest.mark.parametrize("p,m", REDUCE_FIELDS)
def test_reduce_matches_per_digit_reference(p, m):
    rng = random.Random(p * m)
    canonical = list(mk_field(p, m).modulus)
    for f in (canonical, _dense_monic(p, m, rng), [1] + [0] * (m - 1) + [1]):
        ring = field._Residues(p, f)
        top = [p - 1] * m
        pairs = [(top, top), (top, [1] + [0] * (m - 1)), ([0] * m, top)]
        pairs += [([rng.randrange(p) for _ in range(m)],
                   [rng.randrange(p) for _ in range(m)]) for _ in range(40)]
        for a, b in pairs:
            acc = ring._pack(a) * ring._pack(b)
            raw = _poly_rem(_poly_mul(a, b, p), f, p)
            expect = raw + [0] * (m - len(raw))
            assert ring._unpack(ring.reduce_packed(acc), m) == expect, \
                (f, a, b)
            assert ring.reduce_packed(acc) == ring._pack(expect)


@pytest.mark.parametrize("p,m", REDUCE_FIELDS)
def test_lane_reduction_worst_digits(p, m):
    # every digit value the reduction may meet, up to the bound of
    # _digit_format (2mp^2 for odd p, 2m over F_2) and past it to the
    # top digit value 2^bits - 1, the bound of a read tuple, which takes
    # the most shrinks; a lazy ring's unreduced folds stay below it.  Over F_2
    # the edges stop at the top digit value, since one-byte digits cannot
    # hold 2mp^2 - 1; every odd-p edge is kept
    rng = random.Random(p + m)
    rings = [field._Residues(p, f) for f in (
        list(mk_field(p, m).modulus), _dense_monic(p, m, rng),
        [1] + [0] * (m - 1) + [1])]
    # a lazy canonical ring, a non-lazy dense one; F_{2^127}'s one-byte
    # digits have no room for its canonical fold
    if m > 2 and p < 2 ** 31 and (p, m) != (2, 127):
        assert [ring._lazy for ring in rings[:2]] == [True, False]
    for ring in rings:
        bound = 1 << 8 * ring._digit_bytes
        assert bound > (2 * m if p == 2 else 2 * m * p * p)
        top = bound - 1
        reduce = ring._reducer(top, m)  # as _read's: any digit that fits
        edges = [min(edge, top) if p == 2 else edge for edge in (
            0, 1, p - 1, p, 2 * p - 1, 2 * p, (p - 1) ** 2,
            m * (p - 1) ** 2, 2 * m * p * p - 1, bound - 1)]
        for _ in range(60):
            digits = [rng.choice(edges) if rng.random() < 0.5
                      else rng.randrange(bound) for _ in range(m)]
            assert ring._unpack(reduce(ring._pack(digits)), m) == [
                d % p for d in digits], digits
        for d in edges:
            assert ring._unpack(reduce(ring._pack([d] * m)), m) == [
                d % p] * m, d


# one prime per scale from 3 to 1000003, and one above 2^32, whose digits
# are sliced one by one
REDUCER_PRIMES = (3, 5, 7, 11, 13, 37, 127, 251, 257, 65521, 1000003,
                  2 ** 32 + 15)


def _reducer_shapes(p):
    """(bits, m) per digit width p meets: the widest m of each array
    width it fits (one more than that takes the next width), and, for
    p >= 2^32, m = 1 and m = 17 on the sliced width past 8 bytes."""
    shapes, m = [], 1
    while True:
        width, code = field._digit_format(p, m)
        if code is None:
            return shapes or [(8 * field._digit_format(p, k)[0], k)
                              for k in (1, 17)]
        last = (2 ** (8 * width) - 2) // (2 * p * p)
        shapes.append((8 * width, last))
        m = last + 1


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_reductions_at_every_declared_bound(p):
    # every digit width p meets, and every bound a caller declares: a
    # product's and a fold's tracked bounds (of a sparse and a dense ring
    # where m is small enough to build one), a Frobenius sum's m(p - 1)^2,
    # a Euclid remainder's p - 1 + k(p - 1)^2 after k cancelled top digits,
    # a scalar scaling's (p - 1)^2 and a read tuple's 2^bits - 1; digits 0,
    # p - 1, p, the bound and random ones below it in every lane, against
    # d % p; each reduction's compiled lines, and each ring's compiled
    # kernels, give what the interpreter gives
    rng = random.Random(p)
    assert field._digit_format(2 ** 32 + 15, 1)[1] is None  # sliced
    for bits, m in _reducer_shapes(p):
        assert 2 * m * p * p < 1 << bits
        bounds = {(p - 1) ** 2, m * (p - 1) ** 2, (1 << bits) - 1}
        bounds |= {p - 1 + k * (p - 1) ** 2 for k in {1, 2, 3, m, m + 1}
                   if k <= m + 1}
        rings = [field._Residues(p, f) for f in (
            [1, 1] + [0] * (m - 2) + [1] if m > 1 else [1, 1],
            _dense_monic(p, m, rng))] if m <= 64 else []
        for ring in rings:
            bounds |= set(ring._bounds)
        for bound in sorted(bounds):
            for count in (1, 3, 17):
                reduce = field._reduction(p, bits, count, bound)
                edges = (0, p - 1, p, bound)
                rows = [[d] * count for d in edges] + [
                    [rng.choice(edges) if rng.random() < 0.5
                     else rng.randrange(bound + 1) for _ in range(count)]
                    for _ in range(20)]
                inline = _straight(_kernel.lines(p, bits, count, bound, "y"))
                for digits in rows:
                    y = sum(d << bits * i for i, d in enumerate(digits))
                    got = reduce(y)
                    assert [got >> bits * i & (1 << bits) - 1
                            for i in range(count)] == [d % p for d in digits]
                    assert got >> bits * count == 0, (bits, bound, digits)
                    assert inline(y) == got, (bits, bound, digits)
        for ring in rings:
            _kernels_agree(ring, rng)


def _looped(p, steps):
    """A reduction's .steps run as one loop over its shrinks."""
    shrinks, mu, s, low, bias, top, ones = steps

    def reduce(y):
        for h, mask, c in shrinks:
            y -= (y >> h & mask) * c
        y -= (y * mu >> s & low) * p
        return y - (y + bias >> top & ones) * p
    return reduce


def test_written_out_reductions_match_the_loop():
    # _reduction writes zero or one shrink out and loops over two or more;
    # at every caller's bound (a Frobenius sum's, a Euclid remainder's
    # after 2 and m + 1 steps, a scalar scaling's, a read tuple's and a
    # dense ring's folds), on 17 random digits up to it, each form gives
    # what one loop over its .steps gives, and all three forms occur
    rng = random.Random(35)
    shrink_counts = set()
    for p in REDUCER_PRIMES:
        for bits, m in _reducer_shapes(p):
            bounds = {m * (p - 1) ** 2, p - 1 + 2 * (p - 1) ** 2,
                      p - 1 + (m + 1) * (p - 1) ** 2, (p - 1) ** 2,
                      (1 << bits) - 1}
            if m <= 64:
                bounds |= set(field._Residues(
                    p, _dense_monic(p, m, rng))._bounds)
            for bound in sorted(bounds):
                reduce = field._reduction(p, bits, 17, bound)
                looped = _looped(p, reduce.steps)
                shrink_counts.add(len(reduce.steps[0]))
                for _ in range(20):
                    y = sum(rng.randrange(bound + 1) << bits * i
                            for i in range(17))
                    assert reduce(y) == looped(y), (p, bits, m, bound)
    assert shrink_counts == {0, 1, 2}


def _straight(lines):
    """Source lines on y (_kernel.lines) as a function of y."""
    scope = {}
    exec("def f(y):\n " + "\n ".join(lines + ["return y"]), scope)
    return scope["f"]


def _kernels_agree(ring, rng):
    """The ring's compiled kernel (_kernel) gives what its interpreter
    gives on random products and on every input digit at its declared
    bound m(p - 1)^2, or at 0 or p; and a Frobenius sum's reduction
    brings every digit at m(p - 1)^2 into [0, p)."""
    p, m = ring.p, ring.m
    kernel = _kernel.compiled(*ring._shape)(ring._neg_low)
    top = m * (p - 1) ** 2
    inputs = [ring._pack([d] * (2 * m - 1)) for d in (0, p, top)]
    inputs += [ring._pack([rng.choice((0, p - 1, p, top)) for _ in range(
        2 * m - 1)]) for _ in range(5)]
    inputs += [ring._pack([rng.randrange(p) for _ in range(m)])
               * ring._pack([rng.randrange(p) for _ in range(m)])
               for _ in range(10)]
    for acc in inputs:
        assert kernel(acc) == field._Residues.reduce_packed(ring, acc), (
            ring._shape, acc)
    acc = ring._pack([top] * m)
    assert ring._reducer(top, m)(acc) == ring._pack([top % p] * m)


def test_lazy_folds_on_the_benchmark_fields():
    # lazy where every fold fits unreduced below the top digit bit;
    # F_{2^127} packs one byte per digit, which holds its products but not
    # its fold unreduced; F_{5^61}'s two folds by -(x^2 + 2x + 3) add at
    # most min(3, count) * 4 times the block's bound: 976, 12688, 63440
    lazy = {(3, 61), (3, 97), (5, 61)}
    for p, m in lazy | {(2, 127), (5, 61), (13, 31), (17, 21), (19, 21),
                        (29, 23)}:
        assert mk_field(p, m)._lazy == ((p, m) in lazy), (p, m)
    assert mk_field(2, 127)._digit_bytes == 1


def test_fold_plans_on_the_benchmark_fields():
    # each fold's step, top block first: F_{13^31} and F_{17^21} shrink
    # their wide block and take % p on the one-digit one; of the odd p
    # fields, F_{37^19} alone keeps a Barrett reduction before a fold
    plans = {(2, 17): "none none", (3, 9): "shrink shrink",
             (2, 127): "barrett", (5, 61): "none none",
             (13, 31): "shrink mod", (17, 21): "shrink mod",
             (19, 21): "shrink", (11, 41): "shrink shrink",
             (7, 43): "none mod", (29, 23): "shrink2",
             (37, 19): "barrett mod"}
    for (p, m), plan in plans.items():
        folds = mk_field(p, m)._folds
        steps = field._Residues._STEPS
        assert " ".join(steps[s] for _, s, *_ in folds) == plan, (p, m)


def _count_compiles(monkeypatch):
    """The shapes _kernel.compiled is called on from now on, in order."""
    calls, compile_ = [], _kernel.compiled

    def counting(*shape):
        calls.append(shape)
        return compile_(*shape)
    monkeypatch.setattr(_kernel, "compiled", counting)
    return calls


@pytest.mark.parametrize("p,m", [(2, 127), (13, 31), (29, 23), (3, 9)])
def test_field_compiles_once_its_rent_is_spent(p, m, monkeypatch):
    # a fresh field interprets its first _rent - 1 products and
    # compiles at the _rent-th, once; the modulus search's rings, and a
    # bare ring, never compile, however many products they reduce
    calls = _count_compiles(monkeypatch)
    fld = mk_field(p, m)
    assert calls == []
    rng = random.Random(p + m)
    a, b = (fld._pack(fld.random_elem(rng)) for _ in range(2))
    expect = field._Residues.reduce_packed(fld, a * b)  # spends no rent
    assert "_rent" not in vars(fld)  # as built: nothing spent it yet
    for _ in range(field.Field._rent - 1):
        assert fld.mul(a, b) == expect
    assert "reduce_packed" not in vars(fld) and calls == []
    assert fld.mul(a, b) == expect
    assert "reduce_packed" in vars(fld) and calls == [fld._shape]
    for _ in range(2 * field.Field._rent):
        assert fld.mul(a, b) == expect
        assert fld.frobenius(a, 1) == fld.pow(a, p)
    assert calls == [fld._shape]
    bare = field._Residues(p, fld.modulus)
    for _ in range(2 * field.Field._rent):
        assert bare.reduce_packed(a * b) == expect
    assert calls == [fld._shape] and "reduce_packed" not in vars(bare)
    assert not hasattr(bare, "_rent")  # only a Field keeps a rent


def test_rent_races_only_delay_the_compile():
    # threads on one field, switching often, race on its rent while it runs
    # out: every product is right, and a lost update of the tally at most
    # delays the compile, which _rent more products on one thread reach
    fld = mk_field(13, 31)
    rng = random.Random(5)
    pairs = [tuple(fld._pack(fld.random_elem(rng)) for _ in range(2))
             for _ in range(8)]
    want = [field._Residues.reduce_packed(fld, a * b) for a, b in pairs]
    wrong = []

    def work(k):  # twice the rent in all
        for _ in range(field.Field._rent // 4):
            if fld.mul(*pairs[k]) != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and wrong == []
    for _ in range(field.Field._rent):
        assert fld.mul(*pairs[0]) == want[0]
    assert "reduce_packed" in vars(fld)
    # two racing decrements can take the tally from 1 to -1 before either
    # thread reads it: a tally past zero compiles at the next product
    fresh = field.Field(13, 31, fld.modulus)
    fresh._rent = -1
    assert fresh.mul(*pairs[1]) == want[1]
    assert "reduce_packed" in vars(fresh)


def test_compiled_kernels_live_in_the_bounded_cache():
    # a field that compiled a shape again after cache_clear() compiles it
    # anew: no other store keeps a kernel, so a process that clears the
    # library's caches pays what a fresh one pays
    def spent():
        fld = field.Field(5, 7, modulus)
        x = fld._pack(fld.random_elem(random.Random(7)))
        for _ in range(field.Field._rent):
            x = fld.sqr(x)
        assert "reduce_packed" in vars(fld)

    modulus = mk_field(5, 7).modulus
    spent()
    assert 0 < _kernel.compiled.cache_info().currsize
    assert _kernel.compiled.cache_info().maxsize is not None
    _kernel.compiled.cache_clear()
    assert _kernel.compiled.cache_info().currsize == 0
    spent()
    assert _kernel.compiled.cache_info()[1:] == (1, 256, 1)  # one miss
    spent()
    assert _kernel.compiled.cache_info()[:2] == (1, 1)  # then one hit


def _record_reductions(monkeypatch, peaks):
    """Build every reduction afresh, each appending (the bound it was
    built for, the largest digit it is given) to peaks on every call and
    refusing an input of more digits than it was built for; fold plans
    are rebuilt too, so a ring built after this call records, and a
    Field interprets every product: a compiled kernel inlines its
    reductions, which records none of them."""
    build = field._reduction.__wrapped__

    def recording(p, bits, count, bound):
        reduce, digit = build(p, bits, count, bound), (1 << bits) - 1

        def record(y):
            assert y.bit_length() <= bits * count, (count, y)
            peaks.append((bound, max((y >> i & digit for i in range(
                0, y.bit_length(), bits)), default=0)))
            return reduce(y)
        return record
    monkeypatch.setattr(field, "_reduction", recording)
    monkeypatch.setattr(field, "_fold_plan", field._fold_plan.__wrapped__)
    monkeypatch.setattr(_kernel, "compiled", _kernel.compiled.__wrapped__)
    monkeypatch.setattr(field.Field, "_rent", float("inf"))


def _width_edges(p):
    """m at both edges of the one- and two-byte digit widths of an odd p,
    and the first m of four bytes; m >= 2, so every ring folds."""
    edges = {2}
    for width, wider in ((1, 2), (2, 4)):
        last = (2 ** (8 * width) - 2) // (2 * p * p)  # 2mp^2 + 1 fits
        if last >= 2:
            assert field._digit_format(p, last)[0] == width
        assert field._digit_format(p, last + 1)[0] == wider
        edges |= {m for m in (last, last + 1) if m >= 2}
    return sorted(edges)


PLAN_GRID = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19, 29, 37, 41)
             for m in _width_edges(p)]


def _wide_mulmod(a, b, f, p):
    """a*b mod f, for a monic f, by long division one quotient digit at a
    time on integers of 32-bit digits, which no digit of the grid fills
    (each stays below 2m(p - 1)^2): the schoolbook at C speed, where
    _poly_mul and _poly_rem take seconds."""
    m = len(f) - 1

    def pack(vec):
        return int.from_bytes(array("I", vec).tobytes(), "little")

    acc, neg_low = pack(a) * pack(b), pack([(-c) % p for c in f[:m]])
    for i in range(2 * m - 2, m - 1, -1):
        top = acc >> 32 * i
        acc += (top % p * neg_low << 32 * (i - m)) - (top << 32 * i)
    return [c % p for c in array("I", acc.to_bytes(4 * m, "little"))]


@pytest.mark.parametrize("p,m", PLAN_GRID)
def test_fold_plan_keeps_every_digit_in_its_width(p, m, monkeypatch):
    # over a sparse, a dense and a binomial modulus at both edges of each
    # digit width: every block entering a fold, and every input to a
    # reduction, has its digits within the bound it was built for, below
    # 2^bits; and each product agrees with the schoolbook, the all-(p - 1)
    # operands, whose product digits are largest, included.  The sparse
    # modulus is the canonical one up to m = 120; past it the search takes
    # seconds, and the trinomial x^m + x + 1 has as few folds
    rng = random.Random(p * 10007 + m)
    sparse = (list(mk_field(p, m).modulus) if m <= 120
              else [1, 1] + [0] * (m - 2) + [1])
    top, one = [p - 1] * m, [1] + [0] * (m - 1)
    pairs = [(top, top), (top, one), ([rng.randrange(p) for _ in range(m)],
                                      [rng.randrange(p) for _ in range(m)])]
    peaks = []  # (tracked bound, largest digit seen)
    _record_reductions(monkeypatch, peaks)
    for f in (sparse, _dense_monic(p, m, rng), [1] + [0] * (m - 1) + [1]):
        peaks.clear()
        ring = field._Residues(p, f)
        bits, bounds = 8 * ring._digit_bytes, ring._bounds
        assert len(bounds) == len(ring._folds) + 1
        assert bounds[-1] < 1 << bits
        assert ring._lazy == (not any(s for _, s, *_ in ring._folds))

        def peak(y):
            digits = ring._unpack(y, -(-y.bit_length() // bits))
            return max(digits, default=0)

        class Entering(int):
            # a fold's mask, and-ed with the accumulator entering the fold
            def __rand__(self, acc):
                peaks.append((self.bound, peak(acc >> self.lo_bits)))
                return acc & int(self)

        folds = []
        for (lo_bits, step, mask, *rest), bound in zip(ring._folds, bounds):
            mask = Entering(mask)
            mask.bound, mask.lo_bits = bound, lo_bits
            folds.append((lo_bits, step, mask, *rest))
        ring._folds = tuple(folds)
        for a, b in pairs:
            acc = ring._pack(a) * ring._pack(b)
            got = ring._unpack(ring.reduce_packed(acc), m)
            if m <= 120:
                raw = _poly_rem(_poly_mul(a, b, p), f, p)
                assert got == raw + [0] * (m - len(raw)), (f, a, b)
            assert got == _wide_mulmod(a, b, f, p), (f, a, b)
        assert len(peaks) >= len(pairs) * (len(ring._folds) + 1)
        # one final reduction per product, built for the last tracked bound
        assert [b for b, _ in peaks].count(bounds[-1]) >= len(pairs)
        _kernels_agree(ring, rng)  # its inputs at the bound record too
        assert all(seen <= bound for bound, seen in peaks), (f, max(peaks))


@pytest.mark.parametrize("p,m", [(13, 1), (2, 3), (5, 5), (3, 61)])
def test_pow_counts_match_sqr_mul_chain(p, m):
    fld = mk_field(p, m)
    rng = random.Random(m)
    a = fld.random_elem(rng)
    while not any(a):
        a = fld.random_elem(rng)
    for e in range(301):
        chain = OpCounter()
        expect = fld.one()
        if e:
            expect = a
            for bit in bin(e)[3:]:
                expect = fld.sqr(expect, chain)
                if bit == "1":
                    expect = fld.mul(expect, a, chain)
        c = OpCounter()
        assert fld.pow(a, e, c) == expect, e
        assert c == chain, e
        assert fld.pow(a, e) == expect, e


# -- packed gcd -------------------------------------------------------------------

def _list_gcd(a, b, p):
    """Monic gcd over Z_p of two coefficient lists, by schoolbook Euclid."""
    def trim(v):
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
            a = trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_cases(p, m, rng):
    """(f, h) pairs with deg h < m: common factors of degree 1, 2, 3 and
    m - 1 planted, random pairs, h = 0, a constant h, all-(p - 1) digits."""
    def poly(deg, monic=True):
        return [rng.randrange(p) for _ in range(deg)] + [
            1 if monic else rng.randrange(1, p)]

    cases = []
    for d in sorted({1, 2, 3, m - 1} & set(range(1, m))):
        g = poly(d)
        for _ in range(3):
            f = _poly_mul(g, poly(m - d), p)
            cofactor = poly(rng.randrange(m - d), monic=False)
            cases.append((f, _poly_mul(g, cofactor, p)))
    cases += [(poly(m), poly(rng.randrange(m), monic=False))
              for _ in range(10)]
    f = poly(m)
    cases += [(f, []), (f, [rng.randrange(1, p)]),
              ([p - 1] * m + [1], [p - 1] * m)]
    return cases


@pytest.mark.parametrize("p,m", REDUCE_FIELDS + [(5, 9), (7, 12)])
def test_packed_gcd_matches_list_gcd(p, m):
    rng = random.Random(p + 7 * m)
    for f, h in _gcd_cases(p, m, rng):
        assert len(f) == m + 1 and len(h) <= m
        ring = field._Residues(p, f)
        expect = _list_gcd(f, h, p)
        got = ring._unpack(ring.gcd(ring._pack(h + [0] * (m - len(h)))),
                           m + 1)
        assert got == expect + [0] * (m + 1 - len(expect)), (f, h)
        assert CHECKER["_poly_gcd_is_one"](f, h, p) == (expect == [1])


def test_split_product_is_reducible():
    # (x - 1)(x - 2)(x - 3) over F_5 divides x^5 - x, so Ben-Or's first
    # factor x^5 - x is 0 mod f, and a gcd with 0 must give f, not 1
    p = 5
    f = _poly_mul(_poly_mul([-1, 1], [-2, 1], p), [-3, 1], p)
    ring = field._Residues(p, f)
    assert ring.pow(ring.x, p) == ring.x
    assert ring.gcd(0) == ring._pack(f)
    assert is_irreducible(f, p) is False


# -- one-byte digits over F_2 ---------------------------------------------------

# digit bytes of every odd-p field in perfbench/workloads.py and in the
# grids of scripts/bench_layers.py; the F_2 bound leaves them as they were
ODD_P_WIDTHS = {
    **dict.fromkeys([
        (3, 37), (3, 41), (3, 43), (3, 59), (3, 61), (3, 67), (3, 97),
        (3, 101), (3, 163), (5, 37), (5, 41), (5, 43), (5, 61), (5, 101),
        (7, 29), (7, 31), (7, 41), (7, 43), (7, 53), (11, 23), (11, 31),
        (11, 41), (13, 19), (13, 29), (13, 31), (17, 21), (17, 23), (19, 21),
        (19, 23), (23, 17), (23, 19), (29, 21), (29, 23), (31, 21), (37, 19),
        (41, 17)], 2),
    (127, 5): 4, (257, 5): 4, (1021, 5): 4, (1000003, 17): 8}


def test_digit_widths():
    # 2m + 1 over F_2: one byte up to F_{2^127}, two from F_{2^128}
    widths = {m: field._digit_format(2, m)[0]
              for m in (2, 7, 127, 128, 521, 32767, 32768)}
    assert widths == {2: 1, 7: 1, 127: 1, 128: 2, 521: 2, 32767: 2,
                      32768: 4}
    assert [mk_field(2, m)._digit_bytes for m in (127, 128)] == [1, 2]
    for (p, m), width in ODD_P_WIDTHS.items():
        assert field._digit_format(p, m)[0] == width, (p, m)


@pytest.mark.parametrize("m", [127, 128])
@pytest.mark.parametrize("kind", ["canonical", "ones", "binomial"])
def test_binary_kernels_match_schoolbook(m, kind, monkeypatch):
    # F_{2^127}, the largest F_2 field on one-byte digits, and F_{2^128},
    # the first on two: every kernel against the list reference, on
    # all-ones and random operands, over the canonical modulus, the dense
    # all-ones one and the binomial x^m + 1 (the last two reducible, so
    # inv runs on the canonical one alone); and every digit that reaches
    # a reduction unreduced is at most the bound it was built for, and at
    # most 2m, the bound of the kernels other than a product, or the
    # ring's tracked fold bound: the all-ones modulus on two-byte digits
    # leaves its first one-digit blocks unreduced
    f = {"canonical": list(mk_field(2, m).modulus), "ones": [1] * (m + 1),
         "binomial": [1] + [0] * (m - 1) + [1]}[kind]
    peaks = []  # (bound built for, largest digit seen)
    limit = max(2 * m, *field._Residues(2, f)._bounds)  # every ring's f
    _record_reductions(monkeypatch, peaks)

    def elem(raw):
        return tuple(raw + [0] * (m - len(raw)))

    def ref_mul(a, b):
        return elem(_poly_rem(_poly_mul(list(a), list(b), 2), f, 2))

    def ref_pow(a, e):
        acc = a
        for bit in bin(e)[3:]:
            acc = ref_mul(acc, acc)
            if bit == "1":
                acc = ref_mul(acc, a)
        return acc

    def ring_field():  # on Z_2[x]/(f), f irreducible or not: no modulus test
        fld = field.Field(2, m, tuple(f))
        fld._rent = compiled or float("inf")  # 1: compiles at once
        return fld

    rng = random.Random(m)
    operands = [(1,) * m] + [field.Field(2, m, tuple(f)).random_elem(rng)
                             for _ in range(2)]
    # the interpreter, whose every reduction records, and the compiled
    # kernels, which inline a product's and record the others
    for compiled, a in itertools.product((0, 1), operands):
        fld = ring_field()
        x = fld._pack(a)
        for b in operands:
            want = ref_mul(a, b)
            assert fld.mul(a, b) == want
            assert fld.mul(x, fld._pack(b)) == fld._pack(want)
        assert fld.sqr(a) == ref_mul(a, a)
        assert fld.sqr(x) == fld._pack(ref_mul(a, a))
        for e in (2, 5, rng.randrange(6, 256)):
            assert fld.pow(a, e) == ref_pow(a, e), e
            assert fld.pow(x, e) == fld._pack(ref_pow(a, e)), e
        squares = [a]  # a^(2^k) for k < m, one spread and reduction each
        for _ in range(m - 1):
            spread = [0] * (2 * m - 1)
            spread[::2] = squares[-1]
            squares.append(elem(_poly_rem(spread, f, 2)))
        fresh = ring_field()  # holds no matrix yet
        for j, first in ((3, False), (m - 1, False), (1, True)):
            for held in (first, True):  # walked, then held
                assert (j in fresh._frob_maps) == held, j
                assert fresh.frobenius(a, j) == squares[j], (j, held)
                assert fresh.frobenius(x, j) == fresh._pack(squares[j])
                fresh._frob_build(j)
        if kind == "canonical":
            b = fld.inv(a)
            assert _poly_rem(_poly_mul(list(a), list(b), 2), f, 2) == [1]
    ring = field._Residues(2, f)
    for h in operands:
        got = ring._unpack(ring.gcd(ring._pack(list(h))), m + 1)
        expect = _list_gcd(f, list(h), 2)
        assert got == expect + [0] * (m + 1 - len(expect)), h
    assert is_irreducible(f, 2) == (kind == "canonical")
    assert CHECKER["is_irreducible"](2, f) == (kind == "canonical")
    assert peaks and all(seen <= bound for bound, seen in peaks), max(peaks)
    assert max(seen for _, seen in peaks) <= limit


# -- the evaluation sieve of the modulus search -------------------------------

SIEVE_PRIMES = (2, 3, 5, 7, 13, 31, 127, 131, 257)
SIEVED = [q for q in SIEVE_PRIMES if q <= field._SIEVE_MAX_P]
BOUGHT = {2: (10,), 7: (20,), 13: (10,)}


def _plain_scan(p, m):
    """The first candidate, in base-p counting order, that passes
    is_irreducible."""
    for c in itertools.count():
        f = [c // p ** i % p for i in range(m)] + [1]
        if is_irreducible(f, p):
            return tuple(f)


@functools.lru_cache
def _fp2_points(p):
    """Every element of F_{p^2} = F_p[s]/(s^2 - g1 s - g0), for the first
    irreducible s^2 - g1 s - g0 found by trial with g1 counted down, as
    (u, v) for u + v s, with its multiplication."""
    g1, g0 = next((g1, g0) for g1 in reversed(range(p)) for g0 in range(p)
                  if all((a * a - g1 * a - g0) % p for a in range(p)))

    def mul(x, y):
        (a, b), (c, d) = x, y
        return (a * c + b * d * g0) % p, (a * d + b * c + b * d * g1) % p
    return list(itertools.product(range(p), repeat=2)), mul


def _block_roots(p, m, upper):
    """The c_0 for which x^m + ... + c_1 x + c_0, upper = (c_1, c_2, ...),
    has a root in F_p, and those for which it has one outside F_p, by
    Horner's rule at every point of F_{p^2}."""
    points, mul = _fp2_points(p)
    coeffs = list(upper) + [0] * (m - 1 - len(upper)) + [1]
    in_fp, outside = set(), set()
    for a in points:
        acc = (0, 0)
        for c in reversed(coeffs):
            acc = mul((acc[0] + c, acc[1]), a)
        if acc[1] == 0:
            (outside if a[1] else in_fp).add(-acc[0] % p)
    return in_fp, outside


def test_sieve_cutoff_inside_the_grid():
    assert SIEVE_PRIMES[0] <= field._SIEVE_MAX_P < SIEVE_PRIMES[-1]


@pytest.mark.parametrize("p", SIEVE_PRIMES)
def test_sieved_search_matches_plain_scan(p):
    for m in range(1, 11 if p <= 7 else 8 if p < 100 else 5):
        assert field._canonical_modulus(p, m) == _plain_scan(p, m), (p, m)


@pytest.mark.parametrize("p", SIEVED)
def test_points_mark_exactly_the_roots_in_fp2(p):
    # on every block up to the canonical modulus, binomials included, and
    # for p <= 5 on the first p^3 blocks, c_2 and c_3 included: the F_p
    # row marks the c_0 whose candidate has a root in F_p, and all
    # p//2 + 1 rows those with a root in F_{p^2}.  m = 3 and 6 over F_2,
    # m = 4 over F_3 and m = 6 over F_5 have (p + 1) | m, where a^m lies
    # in F_p at every point
    for m in range(2, 8):
        found = field._canonical_modulus(p, m)
        last = sum(c * p ** i for i, c in enumerate(found[1:-1]))
        linear = field._Points(p, m, 1)
        points = field._Points(p, m, p // 2 + 1)
        for block in range(max(last + 1, p ** 3 if p <= 5 else 0)):
            upper = [block // p ** i % p for i in range(m - 1)]
            while upper and not upper[-1]:  # as the search passes them
                upper.pop()
            in_fp, outside = _block_roots(p, m, upper)
            assert linear.roots(upper) == in_fp, (p, m, upper)
            assert points.roots(upper) == in_fp | outside, (p, m, upper)


@pytest.mark.parametrize("p, m", [(2, 127), (3, 101), (11, 41), (13, 19),
                                  (37, 19)])
def test_point_powers_match_repeated_multiplication(p, m):
    # every lane's a^j, real and t part, against j - 1 multiplications by
    # a in F_p[t]/(t^2 - nu) (t^2 = t + 1 over F_2), at the large j the
    # search meets: square and multiply is otherwise checked only through
    # the modulus goldens
    for rows in (1, p // 2 + 1):
        points = field._Points(p, m, rows)
        nu, s = (1, 1) if p == 2 else (points._nu, 0)
        assert p == 2 or pow(nu, p >> 1, p) == p - 1  # t^2 - nu irreducible
        lanes = [(u, 0) for u in range(p)] + [
            (l * w % p, l) for l in range(1, rows) for w in range(p)]
        for j in sorted({1, 2, p - 1, p, p + 1, m}):
            expect = []
            for a, b in lanes:
                x, y = a, b
                for _ in range(j - 1):
                    x, y = (x * a + y * b * nu) % p, (x * b + y * a
                                                      + y * b * s) % p
                expect.append((x, y))
            re, tp = points._power(j)
            got = zip(points._unpack(re, len(lanes)),
                      points._unpack(tp, len(lanes)))
            assert list(got) == expect, (p, m, rows, j)


@pytest.mark.parametrize("p", SIEVED)
def test_sieve_skips_exactly_the_rooted_candidates(p, monkeypatch):
    # every candidate up to the canonical modulus, binomials included
    # unless their block is skipped, is tested iff it has no root in F_p,
    # no root in F_{p^2} outside F_p once the search has bought those
    # points (m >= 4, after the first block that ends with more than
    # p^2/(4m) tests), and, for odd p, passes the parity test on its
    # Sylvester discriminant.  The degrees of BOUGHT run long enough to buy
    # the F_{p^2} points and then drop a candidate with a root there
    dropped = 0
    for m in [*range(2, 9 if p < 100 else 5), *BOUGHT.get(p, ())]:
        tested = []
        monkeypatch.setattr(field, "is_irreducible",
                            lambda f, q, **kw: tested.append(tuple(f)) or
                            is_irreducible(f, q, **kw))
        found = field._canonical_modulus(p, m)
        monkeypatch.undo()
        skip_binomials = any((p - 1) % ell for ell, _ in factorize(m)) or (
            m % 4 == 0 and p % 4 == 3)
        expect, candidates, bought = [], 0, False
        for block in itertools.count(1 if skip_binomials else 0):
            upper = [block // p ** i % p for i in range(m - 1)]
            in_fp, outside = _block_roots(p, m, upper)
            for c0 in range(p):
                f = (c0, *upper, 1)
                candidates += 1
                if c0 in in_fp or not (p == 2 or _disc_passes(f, p)):
                    continue
                if bought and c0 in outside:
                    dropped += 1
                    continue
                expect.append(f)
                if f == found:
                    break
            if f == found:
                break
            bought = bought or m >= 4 and 4 * m * len(expect) > p * p
        assert tested == expect, (p, m)
        assert len(tested) < candidates or candidates == 1
    assert dropped or p not in BOUGHT


def test_sieved_hint_skips_only_its_steps(monkeypatch):
    # on f with no irreducible factor of degree 1 .. sieved other than
    # itself, steps 1 .. sieved read gcd 1: the hint skips exactly those
    # gcds, min(sieved, m // 2) of them, and keeps the verdict
    gcds = []
    gcd = field._Residues.gcd
    monkeypatch.setattr(field._Residues, "gcd",
                        lambda ring, b: gcds.append(b) or gcd(ring, b))
    for p, top in ((2, 9), (3, 6), (5, 5)):
        for m in range(2, top + 1):
            for low in itertools.product(range(p), repeat=m):
                f = list(low) + [1]
                in_fp, outside = _block_roots(p, m, low[1:])
                if low[0] in in_fp:
                    continue
                gcds.clear()
                plain = is_irreducible(f, p)
                calls = len(gcds)
                assert plain == CHECKER["is_irreducible"](p, f), (p, f)
                quadratic = m > 2 and low[0] in outside
                for sieved in (1, 2) if not quadratic else (1,):
                    gcds.clear()
                    assert is_irreducible(f, p, sieved=sieved) is plain, (p, f)
                    assert len(gcds) == calls - min(sieved, m // 2), (p, f)


# -- the parity test of the modulus search (Stickelberger, Swan) ---------------

def _det_mod(rows, p):
    """The determinant mod p of a square matrix, by Gaussian elimination."""
    rows = [[c % p for c in row] for row in rows]
    det = 1
    for i in range(len(rows)):
        pivot = next((k for k in range(i, len(rows)) if rows[k][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        row = rows[i]
        det = det * row[i] % p
        inv = pow(row[i], -1, p)
        for k in range(i + 1, len(rows)):
            q = rows[k][i] * inv % p
            if q:
                rows[k] = [(x - q * y) % p for x, y in zip(rows[k], row)]
    return det % p


def _sylvester_disc(f, p):
    """disc(f) mod p for a monic f, constant term first: (-1)^{m(m-1)/2}
    times the determinant of the Sylvester matrix of f and f', f' taken at
    its actual degree (0 when f' = 0)."""
    m = len(f) - 1
    df = [i * c % p for i, c in enumerate(f)][1:]
    while df and not df[-1]:
        df.pop()
    if not df:
        return 0
    n = len(df) - 1
    size = m + n
    rows = [[0] * i + list(f[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + df[::-1] + [0] * (m - 1 - i) for i in range(m)]
    assert all(len(row) == size for row in rows)
    return (-1) ** (m * (m - 1) // 2) * _det_mod(rows, p) % p


def _disc_passes(f, p):
    """Whether disc(f), from the Sylvester matrix, is nonzero and of
    quadratic character (-1)^{m-1}, as an irreducible f's is."""
    m = len(f) - 1
    d = _sylvester_disc(f, p)
    return d != 0 and pow(d, (p - 1) // 2, p) == (1 if m % 2 else p - 1)


@functools.lru_cache
def _ring_of_degree(p, m):
    return field._Residues(p, [0] * m + [1])


def _swan_parity(f, p):
    """field._swan_parity on a coefficient list, constant term first."""
    ring = _ring_of_degree(p, len(f) - 1)
    return field._swan_parity(
        ring, ring._pack(f), ring._pack([i * c % p for i, c in enumerate(f)][1:]))


def _shift(f, a, p):
    """f(x + a), constant term first, by Horner's rule in x + a."""
    out = [0] * len(f)
    for c in reversed(f):
        out = [(a * lo + hi) % p for lo, hi in zip(out, [c] + out)]
    return out


@pytest.mark.parametrize("p,m", [(p, m) for p in (3, 5, 7) for m in range(2, 7)])
def test_swan_parity_exhaustive(p, m):
    # every monic f of degree m: the parity test passes f exactly when
    # its Sylvester discriminant is nonzero with the character of an
    # irreducible, and it never rejects an irreducible.  disc(f(x + a)) =
    # disc(f), so each f reads the determinant of its translate without
    # an x^{m-1} term (of f itself when p | m), computed once
    discs = {}
    shift = 0 if m % p == 0 else pow(m, -1, p)
    rejected = 0
    for low in itertools.product(range(p), repeat=m):
        f = list(low) + [1]
        g = tuple(_shift(f, -f[m - 1] * shift % p, p))
        assert shift == 0 or g[m - 1] == 0
        if g not in discs:
            discs[g] = _disc_passes(g, p)
        passes = _swan_parity(f, p)
        assert passes is discs[g], (p, f)
        if not passes:
            rejected += 1
            assert not is_irreducible(f, p), (p, f)
    # about half of all f fail
    assert p ** m / 4 < rejected < 3 * p ** m / 4, rejected


@pytest.mark.parametrize("p,m", [(3, 6), (3, 9), (5, 5), (5, 10), (151, 3),
                                 (151, 8), (1000003, 2), (1000003, 7)])
def test_swan_parity_seeded(p, m):
    # p | m, where f' loses its x^{m-1} term (and f = g(x^p) has f' = 0),
    # and p above the linear-factor sieve's cutoff
    rng = random.Random(f"swan/{p}/{m}")
    cases = [_monic(p, m, rng) for _ in range(60)]
    if m % p == 0:
        cases += [[rng.randrange(p) if i % p == 0 else 0 for i in range(m)] + [1]
                  for _ in range(5)]
    irreducible = []
    while len(irreducible) < 10:
        f = _monic(p, m, rng)
        if is_irreducible(f, p):
            irreducible.append(f)
    for f in cases + irreducible:
        assert _swan_parity(f, p) is _disc_passes(f, p), (p, f)
    assert all(_swan_parity(f, p) for f in irreducible)
    assert not all(_swan_parity(f, p) for f in cases)


def test_random_elem_is_seeded(f75):
    assert f75.random_elem(random.Random(42)) == f75.random_elem(
        random.Random(42))


# -- primality ----------------------------------------------------------------

def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 67) - 1)  # 193707721 * 761838257287


# -- text formats --------------------------------------------------------------

def test_elem_text_roundtrip(f8):
    a = f8.elem([1, 0, 1])
    assert format_elem(a) == "1,0,1"
    assert parse_elem(f8, "1,0,1") == a
    with pytest.raises(ValueError):
        parse_elem(f8, "1,zz")


def test_field_text_roundtrip(f8):
    text = format_field(f8)
    assert text == "p=2 m=3 modulus=1,1,0,1"
    assert parse_field(text) == f8
    assert parse_field("p=2 m=3") == f8
    with pytest.raises(ValueError):
        parse_field("m=3")
    with pytest.raises(ValueError):
        parse_field("p=2 m=3 bogus")
