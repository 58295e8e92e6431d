import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfield import (NotCoprimeCase, NotRamifiedCase, OpCounter,
                       PeriodTooLong, RNotDividingOrder, RTooSmall,
                       ZeroElement, amm_root, build_amm_context,
                       find_nonresidue, is_rth_residue, mk_field, rth_root,
                       single_exponent_root)
from rootfield.cli import dispatch

QR_13 = {(1,), (3,), (4,), (9,), (10,), (12,)}


def power_set(fld, r):
    return {fld.pow(fld.elem_from_index(i), r)
            for i in range(fld.order_minus_one + 1)}


# -- residue testing --------------------------------------------------------------

def test_is_rth_residue_f13(f13):
    got = {i for i in range(1, 13) if is_rth_residue(f13, (i,), 2)}
    assert {(g,) for g in got} == QR_13


def test_is_rth_residue_counts_the_power(f13):
    counter = OpCounter()
    is_rth_residue(f13, (2,), 2, counter)  # 2^6
    assert (counter.mults, counter.squarings) == (1, 2)


def test_is_rth_residue_errors(f13):
    with pytest.raises(RNotDividingOrder):
        is_rth_residue(f13, (4,), 5)
    with pytest.raises(RNotDividingOrder):
        is_rth_residue(f13, (4,), 1)
    with pytest.raises(ZeroElement):
        is_rth_residue(f13, (0,), 2)


def test_find_nonresidue_is_a_witness(f13, f9):
    for fld, r in ((f13, 2), (f13, 3), (f9, 2)):
        for seed in range(4):
            w = find_nonresidue(fld, r, seed)
            assert not is_rth_residue(fld, w, r)


def test_find_nonresidue_deterministic(f39):
    assert find_nonresidue(f39, 13, 5) == find_nonresidue(f39, 13, 5)


def test_find_nonresidue_requires_divisor(f39):
    # 3^9 - 1 = 2 * 13 * 757
    with pytest.raises(RNotDividingOrder):
        find_nonresidue(f39, 5)


# -- digit-correction path ---------------------------------------------------------

def test_amm_context_f13(f13):
    ctx = build_amm_context(f13, 2, rho=(2,))
    assert (ctx.t, ctx.s, ctx.alpha) == (2, 3, 2)
    assert ctx.rho_s == (8,)
    assert ctx.k_powers == ((1,), (12,))
    assert ctx.k_index[(12,)] == 1


def test_amm_pinned_square_root(f13):
    out = amm_root(f13, (4,), 2, rho=(2,))
    assert (out.status, out.root, out.path_tag) == ("root_found", (11,), "amm")
    assert out.verification


def test_amm_cube_root_t1(f13):
    # 12 = 2^2 * 3, so r = 3 needs no digit loop: alpha = 3^{-1} mod 4
    out = amm_root(f13, (5,), 3)
    assert out.root == (8,)
    assert f13.pow(out.root, 3) == (5,)


def test_amm_t1_small_field(f7):
    out = amm_root(f7, (6,), 3)
    assert out.root == (6,)


def test_amm_non_residue(f13):
    out = amm_root(f13, (2,), 2)
    assert (out.status, out.root) == ("non_residue", None)
    assert out.verification


def test_amm_rejects_residue_rho():
    # 4 = 2^2 is a square, so it cannot seed the table of square roots
    # of unity; the caller hears about rho, not about a failed lookup
    with pytest.raises(ValueError, match="rho"):
        amm_root(mk_field(13, 1), (4,), 2, rho=(4,))


def test_amm_rejects_zero(f13):
    with pytest.raises(ZeroElement):
        amm_root(f13, (0,), 2)


def test_amm_requires_divisor(f13):
    with pytest.raises(RNotDividingOrder):
        amm_root(f13, (4,), 5)
    with pytest.raises(RNotDividingOrder):
        build_amm_context(f13, 5)


@pytest.mark.parametrize("p,m", [(3, 2), (17, 1)])
def test_amm_full_sylow_group(p, m):
    # group order is a power of 2, so s = 1 and alpha = 0; every stage
    # exponent must stay nonnegative and every square must crack
    fld = mk_field(p, m)
    squares = power_set(fld, 2) - {fld.zero()}
    for i in range(1, fld.order_minus_one + 1):
        delta = fld.elem_from_index(i)
        out = amm_root(fld, delta, 2)
        if delta in squares:
            assert out.status == "root_found"
            assert fld.pow(out.root, 2) == delta
        else:
            assert out.status == "non_residue"


def test_amm_exhaustive_f13_cube(f13):
    cubes = power_set(f13, 3) - {(0,)}
    found = {amm_root(f13, (i,), 3).root for i in range(1, 13)
             if is_rth_residue(f13, (i,), 3)}
    assert len(cubes) == 4
    assert all(f13.pow(w, 3) in cubes for w in found)


# -- coprime case -----------------------------------------------------------------

def test_coprime_is_a_bijection(f13):
    # gcd(5, 12) = 1: every element, zero included, has exactly one root
    roots = set()
    for i in range(13):
        delta = f13.elem_from_index(i)
        out = single_exponent_root(f13, delta, 5)
        assert out.status == "root_found"
        assert f13.pow(out.root, 5) == delta
        roots.add(out.root)
    assert len(roots) == 13


def test_coprime_fast_path_tag(f39):
    delta = f39.random_elem(random.Random(1))
    auto = single_exponent_root(f39, delta, 5)
    fast = single_exponent_root(f39, delta, 5, mode="fast")
    naive = single_exponent_root(f39, delta, 5, mode="naive")
    assert auto.path_tag == "coprime_fast"  # m = 9 > k = 4
    assert fast.path_tag == "coprime_fast"
    assert naive.path_tag == "naive_fallback"
    assert auto.root == fast.root == naive.root


def test_coprime_forced_fast_needs_long_extension(f13):
    with pytest.raises(PeriodTooLong):
        single_exponent_root(f13, (3,), 5, mode="fast")


def test_coprime_rejects_shared_factor(f13):
    with pytest.raises(NotCoprimeCase):
        single_exponent_root(f13, (3,), 2)


def test_coprime_r_too_small(f13):
    with pytest.raises(RTooSmall):
        single_exponent_root(f13, (3,), 1)


def test_coprime_zero(f39):
    out = single_exponent_root(f39, f39.zero(), 5)
    assert out.root == f39.zero()
    assert out.status == "root_found"


# -- ramified case -----------------------------------------------------------------

def test_ramified_square_root_f75(f75):
    rng = random.Random(2)
    for _ in range(6):
        gamma = f75.random_elem(rng)
        if not any(gamma):
            continue
        delta = f75.pow(gamma, 2)
        out = single_exponent_root(f75, delta, 2)
        assert out.status == "root_found"
        assert out.path_tag == "ramified_fast"  # m = 5 > k*r = 2
        assert out.root in (gamma, f75.neg(gamma))


def test_ramified_non_residue_f75(f75):
    rho = find_nonresidue(f75, 2)
    out = single_exponent_root(f75, rho, 2)
    assert (out.status, out.root) == ("non_residue", None)


def test_ramified_naive_small_extension(f7):
    # k*r = 2 >= m = 1 forces plain powering; 6 = 2 * 3 so r = 2 ramifies
    out = single_exponent_root(f7, (2,), 2)
    assert out.path_tag == "naive_fallback"
    assert f7.pow(out.root, 2) == (2,)
    with pytest.raises(PeriodTooLong):
        single_exponent_root(f7, (2,), 2, mode="fast")


def test_ramified_rejects_higher_power(f13):
    with pytest.raises(NotRamifiedCase):
        single_exponent_root(f13, (4,), 2)


def test_ramified_zero(f75):
    out = single_exponent_root(f75, f75.zero(), 2)
    assert out.root == f75.zero()


def test_ramified_counter_pinned_f75(f75):
    # exponents are fixed by (p, m, r), so the tallies are too:
    # a = 2, b = 84, one chain product, one combine, one verify square
    delta = f75.pow(f75.random_elem(random.Random(4)), 2)
    fast = single_exponent_root(f75, delta, 2, mode="fast")
    assert (fast.counters.mults, fast.counters.squarings,
            fast.counters.frobenius) == (4, 8, 2)
    naive = single_exponent_root(f75, delta, 2, mode="naive")
    assert (naive.counters.mults, naive.counters.squarings,
            naive.counters.frobenius) == (4, 13, 0)


# -- the dispatcher ----------------------------------------------------------------

def test_rth_root_prime_passthrough_tags(f39, f75, f13):
    assert rth_root(f39, (1, 2, 0, 1, 0, 0, 2, 1, 0), 5).path_tag == "coprime_fast"
    delta = f75.pow(f75.random_elem(random.Random(5)), 2)
    assert rth_root(f75, delta, 2).path_tag == "ramified_fast"
    assert rth_root(f13, (4,), 2).path_tag == "amm"


def test_rth_root_fourth_roots_f13(f13):
    out = rth_root(f13, (3,), 4)
    assert out.status == "root_found"
    assert out.path_tag == "composite_chain"
    assert out.root in {(2,), (3,), (10,), (11,)}
    assert f13.pow(out.root, 4) == (3,)


def test_rth_root_fourth_root_rejects_nonsquare(f13):
    out = rth_root(f13, (2,), 4)
    assert (out.status, out.root, out.path_tag) == (
        "non_residue", None, "composite_chain")


def test_rth_root_sixth_root_of_one(f13):
    out = rth_root(f13, (1,), 6)
    assert out.status == "root_found"
    assert f13.pow(out.root, 6) == (1,)


def test_rth_root_composite_exhaustive_f13(f13):
    for r in range(2, 13):
        targets = power_set(f13, r)
        for i in range(13):
            delta = f13.elem_from_index(i)
            out = rth_root(f13, delta, r)
            if delta in targets:
                assert out.status == "root_found", (r, delta)
                assert f13.pow(out.root, r) == delta
            else:
                assert out.status == "non_residue", (r, delta)


def test_rth_root_peels_characteristic(f75):
    rng = random.Random(6)
    delta = f75.random_elem(rng)
    for r in (7, 49):
        out = rth_root(f75, delta, r)
        assert out.status == "root_found"  # p-th power map is a bijection
        assert out.path_tag == "composite_chain"
        assert f75.pow(out.root, r) == delta


def test_rth_root_mixed_characteristic_factor(f75):
    delta = f75.pow(f75.random_elem(random.Random(7)), 14)
    out = rth_root(f75, delta, 14)
    assert out.status == "root_found"
    assert f75.pow(out.root, 14) == delta
    rho = find_nonresidue(f75, 2)
    assert rth_root(f75, rho, 14).status == "non_residue"


def test_rth_root_zero(f13, f75):
    for fld, r in ((f13, 2), (f13, 6), (f75, 14)):
        out = rth_root(fld, fld.zero(), r)
        assert (out.status, out.root) == ("root_found", fld.zero())


def test_rth_root_forced_paths(f39, f75, f13):
    out = rth_root(f39, (1, 2, 0, 1, 0, 0, 2, 1, 0), 5, path="periodic")
    assert out.path_tag == "coprime_fast"
    assert out.root == (2, 2, 1, 2, 1, 1, 2, 0, 2)
    delta = f75.pow(f75.random_elem(random.Random(8)), 2)
    assert rth_root(f75, delta, 2, path="naive").path_tag == "naive_fallback"
    forced = rth_root(f13, (4,), 2, path="amm")
    assert forced.path_tag == "amm"
    assert f13.pow(forced.root, 2) == (4,)
    assert rth_root(f13, f13.zero(), 2, path="amm").root == (0,)


def test_rth_root_forced_path_errors(f13):
    with pytest.raises(ValueError, match="unknown path"):
        rth_root(f13, (4,), 2, path="fast")
    with pytest.raises(ValueError, match="prime"):
        rth_root(f13, (4,), 4, path="amm")
    with pytest.raises(ValueError, match="single-exponent"):
        rth_root(f13, (4,), 2, path="periodic")
    with pytest.raises(ValueError, match="single-exponent"):
        rth_root(f13, (4,), 2, path="naive")


def test_large_prime_r_finishes_fast():
    # the order of 3 mod 2^31 - 1 is close to r; only whether it stays
    # below m matters, so neither the library nor the CLI may walk it
    r = 2 ** 31 - 1
    start = time.monotonic()
    fld = mk_field(3, 61)
    delta = fld.random_elem(random.Random(10))
    out = rth_root(fld, delta, r)
    assert out.path_tag == "naive_fallback"
    assert out.status == "root_found"
    assert fld.pow(out.root, r) == delta
    argv = ["root", "--p", "3", "--m", "61", "--r", str(r),
            "--delta", ",".join(map(str, delta))]
    assert dispatch(argv) == 0
    assert time.monotonic() - start < 5


def test_rth_root_r_too_small(f13):
    for r in (1, 0, -3):
        with pytest.raises(RTooSmall):
            rth_root(f13, (4,), r)


def test_rth_root_seed_determinism(f13):
    a = rth_root(f13, (4,), 2, seed=1)
    b = rth_root(f13, (4,), 2, seed=1)
    assert a.root == b.root
    c = rth_root(f13, (4,), 2, seed=2)
    assert f13.pow(c.root, 2) == (4,)


def test_rth_root_counters_accumulate(f75):
    delta = f75.pow(f75.random_elem(random.Random(9)), 14)
    out = rth_root(f75, delta, 14)
    assert out.counters.mults > 0
    assert out.counters.frobenius >= 4  # inverse Frobenius peel


# -- property: any reported root is a root, any refusal is honest -------------------

POOL = [mk_field(13, 1), mk_field(7, 1), mk_field(2, 4), mk_field(5, 2),
        mk_field(3, 2)]
_POWER_SETS = {}


def cached_power_set(fi, r):
    if (fi, r) not in _POWER_SETS:
        _POWER_SETS[(fi, r)] = power_set(POOL[fi], r)
    return _POWER_SETS[(fi, r)]


@settings(max_examples=150)
@given(st.integers(0, len(POOL) - 1), st.integers(2, 20), st.data())
def test_rth_root_sound_and_complete(fi, r, data):
    fld = POOL[fi]
    delta = fld.elem_from_index(
        data.draw(st.integers(0, fld.order_minus_one)))
    out = rth_root(fld, delta, r)
    if out.status == "root_found":
        assert fld.pow(out.root, r) == delta
    else:
        assert delta not in cached_power_set(fi, r)
