import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootfield import (DegreeMismatch, NotPrime, OpCounter, ReducibleModulus,
                       ZeroInverse, format_elem, format_field, is_prime,
                       mk_field, parse_elem, parse_field)
from rootfield.field import _poly_mul, _poly_rem


def elems(fld):
    return st.tuples(*(st.integers(0, fld.p - 1) for _ in range(fld.m)))


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
