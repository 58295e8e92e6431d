import random
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootfield import OpCounter, apply_periodic, decompose_coprime, \
    decompose_ramified, mk_field, phi_map
from rootfield.frobpow import _chain, powers
from rootfield.periodic import PeriodicExponent, exact_power, geometric_sum
from rootfield.roots import _plan


def ceil_log2(n):
    return (n - 1).bit_length()


# -- the addition chain phi_map walks -----------------------------------------
#
# phi_map walks _chain(n + 1), one product per step; the binary doubling
# chain it replaced reads the bits of the term count after the leading
# one: a 0 doubles the count (one product), a 1 doubles it and adds one
# (two products).

def chain_products(term_count):
    bits = bin(term_count)[3:]
    return len(bits) + bits.count("1")


def factor_length(n):
    # the factor method's length, apart from frobpow: a prime n takes
    # n - 1 and one step, n = d*q (d its least prime factor) takes q's
    # length plus d's, and an odd composite n the shorter of the two
    if n == 1:
        return 0
    d = next(d for d in range(2, n + 1) if n % d == 0)
    ways = [factor_length(n - 1) + 1] if n % 2 or d == n else []
    return min(ways + ([factor_length(n // d) + factor_length(d)]
                       if d < n else []))


def chain_shifts(term_count, e, m):
    # the Frobenius applications phi_map is charged: step (i, j) shifts by
    # i*e, reduced mod m
    return sum(i * e % m for i, _ in _chain(term_count))


def test_plan_trivial(f8):
    # term count 1: an empty chain, no products, y itself
    counter = OpCounter()
    assert phi_map(f8, (1, 1, 0), 3, 0, counter) == (1, 1, 0)
    assert counter.mults == 0
    assert chain_products(1) == len(_chain(1)) == 0


def test_plan_small_counts(f8):
    # 2 = double, 3 = double then add one, 6 = 3 then double: the factor
    # method walks binary's chain here
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


def test_chain_is_an_addition_chain_never_longer_than_binary():
    # every step adds a value already reached to the last one, and the
    # chain ends at n; its length is the factor method's, at most binary's
    for n in range(1, 4097):
        reached = [1]
        for i, j in _chain(n):
            assert i <= j == reached[-1] and i in reached
            reached.append(i + j)
        assert reached[-1] == n
        assert len(_chain(n)) == factor_length(n)
        assert len(_chain(n)) <= n.bit_length() - 1 + n.bit_count() - 1
    # the term counts where it is shorter, binary's lengths alongside
    assert [(len(_chain(n)), chain_products(n))
            for n in (15, 30, 31, 63, 127)] == [
        (5, 6), (6, 7), (7, 8), (8, 10), (10, 12)]
    assert _chain.cache_info().maxsize is not None


@given(st.integers(4097, 1 << 80))
def test_chain_for_large_counts(n):
    # past 2^12 the chain doubles down from the top 12 bits: a valid
    # chain within binary's length, built in O(log n) steps where the
    # factor method would factor n and branch at every odd composite
    reached = [1]
    for i, j in _chain(n):
        assert i <= j == reached[-1] and i in reached
        reached.append(i + j)
    assert reached[-1] == n
    assert len(_chain(n)) <= n.bit_length() - 1 + n.bit_count() - 1


@pytest.mark.parametrize("term_count", [
    (1 << 61) - 1, 10 ** 18 + 9, 67 * 71 * (10 ** 9 + 7), 3 ** 40,
    (1 << 3000) + 1])
def test_phi_map_on_large_term_counts(f8, term_count):
    # large primes (2^61 - 1, 10^18 + 9), a composite without small
    # factors, a smooth count and one of 3001 bits: each is y^B, B reduced
    # mod 7, at one product per step
    y = (0, 1, 0)
    counter = OpCounter()
    got = phi_map(f8, y, 1, term_count - 1, counter)
    b = (pow(2, term_count, 7) - 1) % 7  # B = 2^N - 1 for s = 2
    assert got == f8.pow(y, b)
    assert counter.mults == len(_chain(term_count)) <= 2 * ceil_log2(
        term_count + 1)


@given(st.integers(1, 4096))
def test_plan_replay_and_cost(term_count):
    # replaying the chain reaches the term count: the result is y^B for the
    # full geometric sum B, at one product and one Frobenius call per step
    fld = mk_field(2, 3)
    y = (0, 1, 0)
    counter = OpCounter()
    got = phi_map(fld, y, 2, term_count - 1, counter)
    exponent = geometric_sum(2, 2, term_count) % fld.order_minus_one
    assert got == fld.pow(y, exponent)
    assert counter.mults == factor_length(term_count)
    assert counter.frobenius == chain_shifts(term_count, 2, 3)
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
    # term count 6: (1, 1) to 2, (1, 2) to 3, (3, 3) to 6
    counter = OpCounter()
    phi_map(f8, (0, 1, 0), 1, 5, counter)
    assert counter.mults == 3


# -- powers ----------------------------------------------------------------------

def test_powers_charges_the_products_it_runs():
    # x^a and x^b off one chain of squarings, on F_{2^127}: N = 2^127 - 1
    # is prime, so no partial power of x = t + t^2 below x^N is 1 and the
    # head == 1 start skips no product.  A product is a squaring where the
    # reduction's input is a perfect square, which no product of two
    # distinct powers of x is here
    fld = mk_field(2, 127)
    while "reduce_packed" not in vars(fld):  # spend the rent: compile
        fld.reduce_packed(0)
    kernel, ran = fld.reduce_packed, []
    fld.reduce_packed = lambda acc: ran.append(acc) or kernel(acc)
    x = fld._pack((0, 1, 1))
    exponents = [0, 1, 2, 3, 1 << 64, 0xDEADBEEF, (1 << 100) + 0x5DEECE66D,
                 (1 << 126) + 3 ** 79]
    f13 = mk_field(13, 1)
    try:
        for a in exponents:
            for b in exponents:
                del ran[:]
                counter, over_f13 = OpCounter(), OpCounter()
                got = powers(fld, x, a, b, counter)
                squarings = sum(isqrt(acc) ** 2 == acc for acc in ran)
                assert (counter.squarings, counter.mults) == (
                    squarings, len(ran) - squarings), (a, b)
                assert got == (fld.pow(x, a), fld.pow(x, b))
                # over F_p, two builtin pows charged the same
                assert powers(f13, 5, a, b, over_f13) == (
                    pow(5, a, 13), pow(5, b, 13))
                assert over_f13 == counter
    finally:
        fld.reduce_packed = kernel


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


# -- counts in closed form ---------------------------------------------------
#
# apply_periodic's tallies follow from (a, b) and the chain alone: it is
# charged bitlen(max(a, b)) - 1 squarings whether one chain serves delta^a
# and delta^b (a > 1, b > 0) or Field.pow raises each (delta^a, a <= 1,
# costs none).

def closed_form(pe, m):
    """(mults, squarings, frobenius) apply_periodic is charged for pe."""
    a, b = pe.a, pe.b
    mults = (sum(e.bit_count() - 1 for e in (a, b) if e)
             + factor_length(pe.n) + (a > 0))
    return (mults, max(a, b).bit_length() - 1,
            chain_shifts(pe.n, pe.period, m))


def split_records(p, m, r):
    plan = _plan(mk_field(p, m), r)
    norm = plan.descent[3] if plan.descent else None
    return [rec for rec in (plan.test, plan.cof, plan.head, norm) if rec]


# the prime stages of every benchmark kind (perfbench/workloads.py), and
# the golden fields with records (test_counter_goldens)
RECORD_KINDS = sorted({
    *((2, 127, r) for r in (3, 5, 7, 11, 13)),
    *((p, m, r) for p, m in ((3, 61), (3, 97)) for r in (2, 5, 7)),
    (5, 61, 2), (13, 31, 2), (17, 21, 2), (29, 23, 2), (19, 21, 3),
    (29, 21, 7), (3, 9, 5), (7, 5, 2),
})


@pytest.mark.parametrize("p,m,r", RECORD_KINDS)
def test_apply_periodic_counts_in_closed_form(p, m, r):
    fld = mk_field(p, m)
    delta = fld._pack(fld.random_elem(random.Random(p * m * r)))
    records = split_records(p, m, r)
    assert records
    for pe in records:
        counter = OpCounter()
        assert apply_periodic(fld, delta, pe, counter) == fld.pow(delta, pe.v)
        assert (counter.mults, counter.squarings,
                counter.frobenius) == closed_form(pe, m), pe
        assert counter.inversions == 0


@pytest.mark.parametrize("p,m,r,path", [
    (2, 127, 3, "auto"), (3, 61, 2, "auto"), (3, 61, 5, "auto"),
    (3, 9, 5, "periodic"), (7, 5, 2, "periodic")])
def test_single_stage_goldens_in_closed_form(p, m, r, path):
    # a coprime or ramified stage raises the head record and verifies
    # root^r once, so its pinned golden counts are the head's closed form
    # plus one plain r-th power
    from test_counter_goldens import GOLDENS
    head = _plan(mk_field(p, m), r).head
    mults, squarings, frobenius = closed_form(head, m)
    expected = (mults + r.bit_count() - 1, squarings + r.bit_length() - 1,
                frobenius, 0)
    pinned = [want[2:] for case, want in GOLDENS if case[:4] == (p, m, r, path)]
    assert pinned and all(entry == expected for entry in pinned)
