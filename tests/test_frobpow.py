import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootfield import OpCounter, apply_periodic, decompose_coprime, \
    decompose_ramified, mk_field, phi_map
from rootfield.periodic import PeriodicExponent, exact_power, geometric_sum
from rootfield.roots import _plan


def ceil_log2(n):
    return (n - 1).bit_length()


# -- the doubling chain phi_map walks ------------------------------------------
#
# phi_map reads the bits of the term count n + 1 after the leading one: a 0
# doubles the count (one product), a 1 doubles it and adds one (two products).

def chain_products(term_count):
    bits = bin(term_count)[3:]
    return len(bits) + bits.count("1")


def test_plan_trivial(f8):
    # term count 1: an empty chain, no products, y itself
    counter = OpCounter()
    assert phi_map(f8, (1, 1, 0), 3, 0, counter) == (1, 1, 0)
    assert counter.mults == 0
    assert chain_products(1) == 0


def test_plan_small_counts(f8):
    # 2 = double, 3 = double_plus_one, 6 = double_plus_one then double
    for term_count, mults in [(2, 1), (3, 2), (6, 3)]:
        counter = OpCounter()
        phi_map(f8, (0, 1, 0), 1, term_count - 1, counter)
        assert counter.mults == mults == chain_products(term_count)


def test_plan_rejects_bad_arguments(f8):
    # a term count below 1 (n < 0) and a step below 1 (e < 1)
    with pytest.raises(ValueError):
        phi_map(f8, (0, 1, 0), 1, -1)
    with pytest.raises(ValueError):
        phi_map(f8, (0, 1, 0), 0, 3)


@given(st.integers(1, 4096))
def test_plan_replay_and_cost(term_count):
    # replaying the chain reaches the term count: the result is y^B for the
    # full geometric sum B, at exactly the chain's product count
    fld = mk_field(2, 3)
    y = (0, 1, 0)
    counter = OpCounter()
    got = phi_map(fld, y, 2, term_count - 1, counter)
    exponent = geometric_sum(2, 2, term_count) % fld.order_minus_one
    assert got == fld.pow(y, exponent)
    assert counter.mults == chain_products(term_count)
    assert counter.mults <= 2 * ceil_log2(term_count + 1)


# -- phi_map --------------------------------------------------------------------

def test_phi_map_single_term(f8):
    x = (0, 1, 0)
    counter = OpCounter()
    assert phi_map(f8, x, 1, 0, counter) == x
    assert (counter.mults, counter.frobenius) == (0, 0)


def test_phi_map_pinned_f8(f8):
    # x^(1+2) = x^3 = x + 1 under x^3 + x + 1
    assert phi_map(f8, (0, 1, 0), 1, 1) == (1, 1, 0)


def test_phi_map_fixes_one(f39):
    one = f39.one()
    assert phi_map(f39, one, 2, 17) == one


def test_phi_map_rejects_bad_arguments(f8):
    with pytest.raises(ValueError):
        phi_map(f8, (0, 1, 0), 0, 3)
    with pytest.raises(ValueError):
        phi_map(f8, (0, 1, 0), 1, -1)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 9), (7, 5)])
def test_phi_map_matches_plain_powering(p, m):
    fld = mk_field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(12):
        y = fld.random_elem(rng)
        e = rng.choice([1, 2, 3])
        n = rng.randrange(0, 41)
        expected = fld.pow(y, geometric_sum(p, e, n + 1))
        counter = OpCounter()
        assert phi_map(fld, y, e, n, counter) == expected
        assert counter.mults <= 2 * ceil_log2(n + 2)
        assert counter.inversions == 0


def test_phi_map_mult_count_exact(f8):
    # term count 6 = 0b110: bits 1, 0 after the leading one, 2 + 1 products
    counter = OpCounter()
    phi_map(f8, (0, 1, 0), 1, 5, counter)
    assert counter.mults == 3


# -- apply_periodic ---------------------------------------------------------------

def test_apply_periodic_degenerate_split(f13):
    # with b = 0 the series contributes nothing and v = a
    pe = PeriodicExponent(a=7, b=0, period=1, n=1, v=7)
    counter = OpCounter()
    got = apply_periodic(f13, (6,), pe, counter)
    assert got == f13.pow((6,), 7)


def test_apply_periodic_coprime_3_9_5(f39):
    pe = decompose_coprime(3, 9, 5)
    rng = random.Random(7)
    for _ in range(8):
        delta = f39.random_elem(rng)
        assert apply_periodic(f39, delta, pe) == f39.pow(delta, 7873)


def test_apply_periodic_ramified_7_5_2(f75):
    pe = decompose_ramified(7, 5, 2)
    rng = random.Random(8)
    for _ in range(8):
        delta = f75.random_elem(rng)
        assert apply_periodic(f75, delta, pe) == f75.pow(delta, 4202)


# the root layer's split records: test for N/r, cof for s, head for alpha

def plan_test(p, m, r):
    return _plan(mk_field(p, m), r).test


def plan_cof(p, m, r):
    return _plan(mk_field(p, m), r).cof


def plan_head(p, m, r):
    return _plan(mk_field(p, m), r).head


# F_{29^21}, r = 7 holds no head; F_{3^61}, r = 2 has t = 1
PLAN_RECORDS = [(p, m, r, make) for p, m, r, makes in [
    (5, 61, 2, (plan_test, plan_cof, plan_head)),
    (19, 21, 3, (plan_test, plan_cof, plan_head)),
    (29, 21, 7, (plan_test, plan_cof)),
    (3, 61, 2, (plan_test, plan_cof, plan_head)),
] for make in makes]


@pytest.mark.parametrize("p,m,r,make", [
    (3, 9, 5, decompose_coprime),
    (2, 10, 7, decompose_coprime),
    (7, 5, 2, decompose_ramified),
    *PLAN_RECORDS,
])
def test_apply_periodic_mult_bound(p, m, r, make):
    fld = mk_field(p, m)
    pe = make(p, m, r)
    delta = fld.random_elem(random.Random(3))
    counter = OpCounter()
    got = apply_periodic(fld, delta, pe, counter)
    bound = 2 * ceil_log2(pe.n) + 4 * pe.period * ceil_log2(p) + 1
    assert counter.mults <= bound
    assert counter.inversions == 0
    # the split sums to v, v is the exponent the record stands for, and
    # raising the split is raising v
    order = fld.order_minus_one
    s = order // r ** exact_power(r, order)
    assert pe.a + pe.b * geometric_sum(p, pe.period, pe.n) == pe.v
    assert pe.v == {plan_test: order // r, plan_cof: s}.get(
        make, pow(r, -1, s))
    assert got == fld.pow(delta, pe.v)
    if pe.a == 0:  # an N/d record: pow(delta, b) and the phi_map, no more
        expected = OpCounter()
        phi_map(fld, fld.pow(delta, pe.b, expected), pe.period, pe.n - 1,
                expected)
        assert counter == expected
