import gc
import random
import sys
import threading
import tracemalloc
import weakref
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from rootfield import (DegreeMismatch, Field, NoNonResidueFound,
                       NoSingleExponent, OpCounter, PeriodTooLong,
                       RNotDividingOrder, RTooSmall, ZeroElement, amm_root,
                       build_amm_context, find_nonresidue, is_prime,
                       is_rth_residue, mk_field, root_table, rth_root)
from rootfield import roots
from rootfield.cli import dispatch
from rootfield.periodic import (FactorizationTooHard, PeriodicExponent,
                                decompose, exact_power, factorize,
                                geometric_sum, lifted_order, mult_order)

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


def test_is_rth_residue_through_frobenius_maps():
    # the order of 3 mod 2 is 1 < m, so delta^{N/2} is delta^{(3-1)/2}
    # raised by one phi_map; plain powering took 54 + 95 products
    fld = mk_field(3, 61)
    counter = OpCounter()
    assert not is_rth_residue(fld, find_nonresidue(fld, 2), 2, counter)
    assert counter == OpCounter(mults=8, squarings=0, frobenius=60)


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
    assert ctx.rho_s == 8  # packed: one digit
    assert ctx.k_index == {1: 0, 12: 1}


def test_amm_pinned_square_root(f13):
    for rho in ((2,), [2]):  # a list rho is read as the element, as a tuple
        out = amm_root(f13, (4,), 2, rho=rho)
        assert (out.status, out.root, out.path_tag) == \
            ("root_found", (11,), "amm")
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


@pytest.mark.parametrize("r,rho,error,match", [
    (2, (0,), ZeroElement, "nonzero"),  # g = 0 passes the g != 1 check
    (2, [0], ZeroElement, "nonzero"),
    (6, None, ValueError, "shares a factor with s=2"),  # 12 = 6 * 2
])
def test_build_amm_context_rejects(f13, r, rho, error, match):
    with pytest.raises(error, match=match):
        build_amm_context(f13, r, rho=rho)


def test_amm_rejects_zero_rho(f13):
    # 4, 10 and 12 have the square roots 11, 7 and 8; a zero rho must be
    # refused, not fail a lookup in a table it cannot seed
    for d in range(1, 13):
        with pytest.raises(ZeroElement, match="rho"):
            amm_root(f13, (d,), 2, rho=(0,))


def test_amm_root_draws_rho_only_for_the_digit_loop(monkeypatch):
    # 12 = 2^2 * 3: r = 3 has t = 1, so no digit loop reads rho and none
    # is drawn; an explicit rho, or an r sharing a factor with s, still
    # fails as before.  A fresh field holds no context that hides a draw
    calls = []
    search = roots.find_nonresidue
    monkeypatch.setattr(roots, "find_nonresidue",
                        lambda *args: calls.append(args) or search(*args))
    fld = mk_field(13, 1)
    out = amm_root(fld, (5,), 3)
    assert (out.status, out.root, out.path_tag) == ("root_found", (8,), "amm")
    assert out.counters == OpCounter(mults=2, squarings=4)
    assert calls == [] and list(fld._plans) == [3]  # no context
    with pytest.raises(ValueError, match="rho"):
        amm_root(fld, (5,), 3, rho=(1,))
    with pytest.raises(ZeroElement):
        amm_root(fld, (5,), 3, rho=(0,))
    with pytest.raises(ValueError, match="shares a factor with s=2"):
        amm_root(fld, (4,), 6)


def test_amm_rejects_zero(f13):
    with pytest.raises(ZeroElement):
        amm_root(f13, (0,), 2)


def test_amm_requires_divisor(f13):
    with pytest.raises(RNotDividingOrder):
        amm_root(f13, (4,), 5)
    with pytest.raises(RNotDividingOrder):
        build_amm_context(f13, 5)
    # forced amm refuses zero too, as every nonzero delta; auto takes it
    for i in range(13):
        with pytest.raises(RNotDividingOrder):
            rth_root(f13, (i,), 5, path="amm")
    assert rth_root(f13, (0,), 5).root == (0,)


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


def test_find_nonresidue_gives_up_after_128_draws(monkeypatch):
    # with every draw judged a residue the search must stop at the draws,
    # not walk the 5^61 elements of the field
    calls = []
    monkeypatch.setattr(roots, "is_rth_residue",
                        lambda *args, **kwargs: calls.append(args) or True)
    with pytest.raises(NoNonResidueFound):
        find_nonresidue(mk_field(5, 61), 2)
    assert len(calls) == 128


def test_amm_context_t1_has_no_table(f13, f75):
    # 3 divides 12 and 2 divides 7^5 - 1 = 2 * 8403 exactly once: the
    # digit loop never runs, so no unity table is built
    for fld, r in ((f13, 3), (f75, 2)):
        ctx = build_amm_context(fld, r)
        assert ctx.t == 1
        assert ctx.k_index == {}
        delta = fld.pow(fld.random_elem(random.Random(3)), r)
        out = rth_root(fld, delta, r, path="amm")
        assert (out.status, fld.pow(out.root, r)) == ("root_found", delta)


# -- auto amm: the long powers through Frobenius maps ---------------------------

AMM_SQRT_FIELDS = ((5, 61, 2), (13, 31, 2), (17, 21, 2), (29, 23, 2),
                   (19, 21, 3))


def split_applies(p, m, r):
    """s > 1 and m exceeds the period of alpha's split."""
    order = p ** m - 1
    t = exact_power(r, order)
    return (t >= 2 and order != r ** t
            and lifted_order(p, r, mult_order(p, r), t + 1) < m)


def descent_applies(p, m, r):
    """Prime r, m > 1, r^2 | p - 1 and gcd(m, r) = 1: auto takes the norm
    descent to F_p."""
    return is_prime(r) and m > 1 and (p - 1) % (r * r) == 0 and m % r != 0


def assert_auto_matches_forced(fld, r, delta):
    """Auto and forced amm agree on the verdict and the tag; the root is
    forced amm's unless auto takes the norm descent, whose root is
    another r-th root of delta."""
    auto = rth_root(fld, delta, r)
    forced = rth_root(fld, delta, r, path="amm")
    assert (auto.status, auto.path_tag) == (forced.status, "amm")
    if descent_applies(fld.p, fld.m, r):
        assert auto.root is None or fld.pow(auto.root, r) == fld.elem(delta)
    else:
        assert auto.root == forced.root
    assert forced.counters.frobenius == 0
    assert auto.counters.frobenius > 0
    return auto


def test_amm_context_unchanged_by_splits():
    # the context's powers of rho go through Frobenius maps; rho, rho^s
    # and the unity table must be those of plain powering
    for p, m, r in AMM_SQRT_FIELDS:
        fld = mk_field(p, m)
        order = fld.order_minus_one
        ctx = build_amm_context(fld, r)
        assert ctx.head is not None
        rng = random.Random(0)
        rho = fld.random_elem(rng)
        while not any(rho) or fld.pow(rho, order // r) == fld.one():
            rho = fld.random_elem(rng)
        g = fld.pow(fld._pack(rho), order // r)
        assert (ctx.rho, ctx.rho_s) == (rho, fld.pow(fld._pack(rho), ctx.s))
        assert ctx.k_index == {fld.pow(g, i): i for i in range(r)}


def test_amm_auto_matches_forced_on_bench_fields():
    for p, m, r in AMM_SQRT_FIELDS:
        assert split_applies(p, m, r)
        fld = mk_field(p, m)
        rng = random.Random(f"{p}^{m}/{r}")
        for seed in range(4):
            residue = fld.pow(fld.random_elem(rng), r)
            out = assert_auto_matches_forced(fld, r, residue)
            assert out.status == "root_found"
            out = assert_auto_matches_forced(fld, r,
                                             find_nonresidue(fld, r, seed))
            assert out.status == "non_residue"


def test_amm_auto_matches_forced_on_a_wide_sample():
    grid = [(p, m, r) for p in range(2, 60) if is_prime(p)
            for m in range(2, 41) for r in (2, 3, 5, 7, 11, 13)
            if p != r and split_applies(p, m, r)]
    assert len(grid) > 400
    rng = random.Random(6)
    for p, m, r in rng.sample(grid, 24):
        fld = mk_field(p, m)
        for i in range(4):
            gamma = fld.random_elem(rng)
            delta = fld.pow(gamma, r) if i % 2 else gamma
            if any(delta):
                assert_auto_matches_forced(fld, r, delta)


@pytest.mark.parametrize("p,m,r", [(3, 6, 2), (5, 3, 2), (13, 3, 2)])
def test_amm_auto_against_root_table(p, m, r):
    # every field with p^m <= 3000 where the splits apply
    assert split_applies(p, m, r)
    fld = mk_field(p, m)
    table = root_table(fld, r)
    for i in range(1, fld.order_minus_one + 1):
        delta = fld.elem_from_index(i)
        out = assert_auto_matches_forced(fld, r, delta)
        if delta in table:
            assert out.status == "root_found"
            assert out.root in table[delta]
        else:
            assert out.status == "non_residue"


# -- auto amm through the norm: AMM on N(delta)^x in F_p ------------------------

DESCENT_SMALL = [(5, 3, 2), (13, 3, 2), (19, 2, 3), (37, 2, 3)]


def test_descent_small_fields_are_every_case_up_to_3000():
    # r^2 | p - 1 <= 2999 bounds r by 54
    grid = [(p, m, r) for p in range(2, 3001) if is_prime(p)
            for m in range(2, 12) if p ** m <= 3000
            for r in range(2, 55) if descent_applies(p, m, r)]
    assert sorted(grid) == DESCENT_SMALL


@pytest.mark.parametrize("p,m,r", DESCENT_SMALL)
def test_descent_against_root_table(p, m, r):
    # m - 1 = r*n + c: the last two have n = 0, where delta^v is one plain
    # power and no norm record exists
    fld = mk_field(p, m)
    plan = roots._plan(fld, r)
    assert plan.descent is not None
    assert (plan.descent[3] is None) == (m <= r)
    table = root_table(fld, r)
    for i in range(1, fld.order_minus_one + 1):
        delta = fld.elem_from_index(i)
        out = rth_root(fld, delta, r)
        assert out.path_tag == "amm"
        if delta in table:
            assert out.status == "root_found"
            assert out.root in table[delta]
        else:
            assert (out.status, out.root) == ("non_residue", None)


def test_descent_on_a_wide_sample():
    # per r, a seeded sample of every descent case with p < 200 and
    # m <= 40; r >= 3 needs p = 1 mod r^2 (19, 37, ..., 101, 151, 197)
    rng = random.Random(19)
    for r in (2, 3, 5, 7):
        grid = [(p, m) for p in range(3, 200) if is_prime(p)
                for m in range(2, 41) if descent_applies(p, m, r)]
        sample = rng.sample(grid, 4)
        assert r == 2 or any(m > r for _, m in sample)  # some n >= 1
        for p, m in sample:
            fld = mk_field(p, m)
            for i in range(4):
                gamma = fld.random_elem(rng)
                delta = fld.pow(gamma, r) if i % 2 else gamma
                if any(delta):
                    out = assert_auto_matches_forced(fld, r, delta)
                    assert i % 2 == 0 or out.status == "root_found"


def test_dropped_fields_take_their_plans_with_them():
    # plans and AMM contexts live on their field, so a field dropped after
    # its roots frees them and the Frobenius matrices it built, with no
    # cache_clear(): coprime_fast on 20 fields F_{2^m}, 16 MB of matrices,
    # and amm with a unity table on 4 fields F_{5^m}, m even (no descent)
    kinds = [(2, m, 3) for m in range(201, 281, 4)]
    kinds += [(5, m, 2) for m in (10, 12, 14, 16)]
    moduli = [mk_field(p, m).modulus for p, m, _ in kinds]  # untraced
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        refs, tags = [], set()
        for (p, m, r), modulus in zip(kinds, moduli):
            fld, rng = Field(p, m, modulus), random.Random(m)
            for _ in range(2):
                gamma = fld.random_elem(rng)
                out = rth_root(fld, fld.pow(gamma, r), r)
                assert out.status == "root_found"
                tags.add(out.path_tag)
            refs.append(weakref.ref(fld))
        del fld
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert tags == {"coprime_fast", "amm"}
    assert held < 2_000_000, held
    assert not any(ref() for ref in refs)


def test_plan_races_only_rebuild_equal_plans():
    # threads on one fresh field, switching often, race to keep plans and
    # a context on it: a lost update only rebuilds, so every root is right
    # and what the field keeps at the end is what a fresh field builds.
    # On F_{13^31}, r = 2 descends (and amm_root builds a context), 3 is
    # ramified, 5 and 7 coprime
    fld = mk_field(13, 31)
    wrong, done, start = [], [], threading.Barrier(8)

    def work(k):
        rng = random.Random(k)
        start.wait(timeout=60)
        for i in range(12):
            r = (2, 3, 5, 7)[(i + k) % 4]
            delta = fld.pow(fld.random_elem(rng), r)
            outs = [rth_root(fld, delta, r)]
            if r == 2:
                outs.append(amm_root(fld, delta, r))
            wrong.extend((k, i, r) for out in outs
                         if fld.pow(out.root, r) != delta)
        done.append(k)

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
    assert sorted(done) == list(range(8)) and wrong == []
    fresh = mk_field(13, 31)
    assert set(fld._plans) == {2, 3, 5, 7, (2, 0, None)}
    for r in (2, 3, 5, 7):
        assert fld._plans[r] == roots._plan(fresh, r)
    assert fld._plans[2, 0, None] == build_amm_context(fresh, 2)


def test_descent_builds_no_extension_field_context(monkeypatch):
    # the descent runs AMM in F_p: the only context it builds is F_5's
    built = []
    real = roots.build_amm_context
    monkeypatch.setattr(roots, "build_amm_context",
                        lambda fld, *args: built.append(fld.m)
                        or real(fld, *args))
    fld = mk_field(5, 61)
    for seed in range(3):
        rth_root(fld, fld.pow(fld.random_elem(random.Random(seed)), 2), 2,
                 seed=seed)
        rth_root(fld, find_nonresidue(fld, 2, seed), 2, seed=seed)
    assert built == [1, 1, 1]


@pytest.mark.parametrize("p,m,r", [(5, 2, 2), (7, 2, 2), (31, 25, 5)])
def test_amm_auto_takes_k_splits_below_the_period(p, m, r):
    # the order of p mod r is below m, but m does not exceed the period
    # of alpha's split: auto raises delta^{N/r} and delta^s through the
    # test and cof records anyway, and returns plain amm_root's verdict
    # and root for no more products
    assert mult_order(p, r) < m and not split_applies(p, m, r)
    fld = mk_field(p, m)
    ctx = build_amm_context(fld, r)
    assert ctx.head is None and ctx.test is not None
    for delta in (fld.pow(fld.random_elem(random.Random(1)), r),
                  find_nonresidue(fld, r, 1)):
        auto = rth_root(fld, delta, r)
        plain = amm_root(fld, delta, r)
        assert (auto.status, auto.root, auto.path_tag) == \
            (plain.status, plain.root, "amm")
        assert auto.counters.frobenius > 0
        assert (auto.counters.mults + auto.counters.squarings
                <= plain.counters.mults + plain.counters.squarings)


def test_amm_auto_counters_without_alpha_split():
    # F_{29^21}, r = 7, a cli_oneshot field: 7^2 divides N, k = 1 and
    # l_t = 7, but alpha's period 49 exceeds m; plain powering took 152
    # products per non-residue and 456 for this residue.  The residue
    # cost 216 products while alpha was one plain power beside cof's
    # split of s; it reads both off delta^{floor(s/7)}, through cof's
    # split, and costs 105
    fld = mk_field(29, 21)
    assert build_amm_context(fld, 7).head is None
    assert build_amm_context(fld, 7).shared is not None
    residue = fld.pow(fld.random_elem(random.Random("29^21/7")), 7)
    for delta, expected in ((find_nonresidue(fld, 7), (6, 2, 20, 0)),
                            (residue, (56, 49, 33, 0))):
        c = rth_root(fld, delta, 7).counters
        assert (c.mults, c.squarings, c.frobenius, c.inversions) == expected


def test_amm_composite_r_keeps_plain_powers():
    # 3^4 - 1 = 16 * 5: for r = 4 the least 2*4^i with 16 | 3^{2*4^i} - 1
    # is 8, which does not divide m = 4, so no split may be taken
    fld = mk_field(3, 4)
    ctx = build_amm_context(fld, 4)
    assert (ctx.test, ctx.cof, ctx.head) == (None, None, None)
    for i in range(1, 81):
        delta = fld.pow(fld.elem_from_index(i), 4)
        out = amm_root(fld, delta, 4)
        assert (out.status, fld.pow(out.root, 4)) == ("root_found", delta)


@pytest.mark.parametrize("p,m", [(17, 1), (37, 1), (13, 1), (3, 4), (5, 4)])
def test_amm_composite_r_table_on_every_seed(p, m):
    # for composite r with r^2 | N, a non-r-th-residue rho can still be an
    # l-th residue for a prime l | r (2 is a square, not a 4th power, mod
    # 17), giving g = rho^{N/r} of order below r; the draw skips such rho,
    # and one passed in is refused with a ValueError
    fld = mk_field(p, m)
    n = fld.order_minus_one
    elems = [fld.elem_from_index(i) for i in range(1, n + 1)]
    for r in range(2, n):
        if n % r or roots._plan(fld, r).t < 2 or \
                roots._plan(fld, r).alpha is None:
            continue
        residues = {fld.pow(x, r) for x in elems}
        for seed in range(12):
            ctx = build_amm_context(fld, r, seed)
            assert len(ctx.k_index) == r
            for delta in residues:
                out = amm_root(fld, delta, r, seed=seed)
                assert out.status == "root_found"
                assert fld.pow(out.root, r) == delta
    if (p, m) == (17, 1):
        assert fld.pow(amm_root(fld, (13,), 4, seed=1).root, 4) == (13,)
        with pytest.raises(ValueError, match="l=2"):
            build_amm_context(fld, 4, rho=(2,))


def test_split_fields_up_to_3000():
    found = [(p, m, r) for p in range(2, 3000) if is_prime(p)
             for m in range(1, 12) if p ** m <= 3000
             for r in range(2, p ** m) if is_prime(r) and r != p
             and split_applies(p, m, r)]
    assert found == [(3, 6, 2), (5, 3, 2), (13, 3, 2)]


# -- the plan: k, the order of p mod r, searched only below m -------------------

def reference_plan(fld, r):
    """_plan as built from the exact order mult_order(p, r), which factors
    r and each q - 1, q | r, and reads k only where k < m."""
    p, m, order = fld.p, fld.m, fld.order_minus_one
    t = exact_power(r, order)
    s = order // r ** t
    alpha = pow(r, -1, s) if gcd(s, r) == 1 else None
    k = test = cof = head = norm = descent = None
    if m > 1 and gcd(p, r) == 1 and (t < 2 or is_prime(r)):
        k = mult_order(p, r)
    if k and k < m and t:
        l_t = lifted_order(p, r, k, t)
        test = PeriodicExponent(0, (p ** k - 1) // r, k, m // k, order // r)
        cof = PeriodicExponent(0, (p ** l_t - 1) // r ** t, l_t, m // l_t, s)
    if k and alpha and lifted_order(p, r, k, t + 1) < m:
        head = decompose(p, m, r, k, t)
    if k == 1 and t > 1 and m % r:
        n, x = (m - 1) // r, -pow(m, -1, r) % r
        e, z = m - r * n, x * (p ** r - 1) // (r * (p - 1))
        if n:
            norm = PeriodicExponent(0, z, r, n, z * geometric_sum(p, r, n))
        a = (1 + x * (p ** e - 1) // (p - 1)) // r
        descent = (mk_field(p, 1), a, e, norm)
    plan = roots.AmmContext(t, s, alpha, test=test, cof=cof, head=head,
                            descent=descent)
    if t > 1 and alpha and m > 1 and not descent:  # as _plan takes
        shared = plan._replace(shared=shared_record(p, plan, r))
        plan = min(plan, shared, key=lambda x: roots._price(x, r))
    return plan


def shared_record(p, plan, r):
    """The shared route's record built from its definition, with the
    identities it rests on checked: z = delta^{s // r}, and where cof
    splits s into n >= 2 blocks of P = p^l, s // r = lam + B*H with
    B = b(P - 1)/r, H = sum (n - 1 - j)*P^j, and B = b*test.b*(1 + p^k +
    ... + p^{l-k})."""
    s, cof = plan.s, plan.cof
    q0, rho0 = divmod(s, r)
    c = (r * plan.alpha - 1) // s
    assert 1 <= c < r and r * plan.alpha - 1 == c * s
    assert (1 + c * rho0) % r == 0
    if not (cof and cof.n > 1):
        return (c, (1 + c * rho0) // r, rho0, q0, 0)
    big, n, b, k = p ** cof.period, cof.n, cof.b, plan.test.period
    lam, weight = (b * n - rho0) // r, b * (big - 1) // r
    assert lam + weight * sum((n - 1 - j) * big ** j
                              for j in range(n - 1)) == q0
    assert weight == b * plan.test.b * geometric_sum(p, k, cof.period // k)
    return (c, (1 + c * rho0) // r, rho0, lam, b * plan.test.b)


def plan_grid():
    """Seeded (p, m, r): 40 fields with p < 100 and p^m < 10^12, and the
    descent fields below, each with n >= 1; per field r = 2 .. 12, three
    draws below 2000, and the prime powers of N up to 10^6 with their
    pairwise products, so composite r with t = 1 and t >= 2 both occur."""
    rng = random.Random(21)
    fields = [(p, m) for p in range(2, 100) if is_prime(p)
              for m in range(1, 13) if p ** m < 10 ** 12]
    fields = rng.sample(fields, 40) + [(5, 5), (13, 5), (17, 7), (19, 5),
                                       (37, 4), (73, 5), (101, 3)]
    grid = []
    for p, m in fields:
        parts = [q ** e for q, e in factorize(p ** m - 1) if q ** e < 10 ** 6]
        rs = set(range(2, 13)) | {rng.randrange(13, 2000) for _ in range(3)}
        rs |= set(parts) | {a * b for a in parts for b in parts if a < b}
        grid += [(p, m, r) for r in sorted(rs)]
    return grid


def test_plan_matches_the_exact_order_reference(monkeypatch):
    # the search below m gives every record mult_order's k gave: on the
    # seeded grid and on every cli_oneshot request of the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench.workloads import CLI_FAILING, CLI_REQUESTS
    with deadline(5):
        grid = plan_grid()
        cli = [req[:3] for req in CLI_REQUESTS + [CLI_FAILING]]
        assert len(grid) >= 300 and len(cli) == 41
        kinds = set()
        for p, m, r in grid + cli:
            fld = mk_field(p, m)
            plan = roots._plan(fld, r)
            assert plan == reference_plan(fld, r), (p, m, r)
            if plan.descent:
                kinds.add(("descent", plan.descent[3] is not None))
            elif plan.t > 1 and plan.test:
                kinds.add(("t >= 2", plan.head is not None))
            elif plan.head and not is_prime(r):
                kinds.add(("composite", plan.t))
    # the descent with n = 0 and n >= 1, t >= 2 split AMM with and without
    # the head split, and composite r split in both single-exponent cases
    assert kinds == {("descent", False), ("descent", True),
                     ("t >= 2", False), ("t >= 2", True),
                     ("composite", 0), ("composite", 1)}


# -- the shared long power of a t >= 2 stage ---------------------------------------

def dry_run(route, r):
    """The tallies of _long_powers run on _price's stand-in field."""
    counter = OpCounter()
    roots._long_powers(roots._DryRun(2, 1, (0, 1)), 1, route, r, counter)
    return counter


def long_powers(fld, delta, route, r):
    """_long_powers' result and tallies, with its Frobenius calls."""
    counter, calls = OpCounter(), []
    frobenius = fld.frobenius
    fld.frobenius = lambda a, j, c: calls.append(j) or frobenius(a, j, c)
    try:
        got = roots._long_powers(fld, delta, route, r, counter)
    finally:
        del fld.frobenius
    return got, counter, len(calls)


def assert_routes(fld, plan, r, draws=2):
    """Both routes of a t >= 2 stage, today's head and cof records and the
    shared power, give delta^alpha and delta^s exactly, are charged the
    products and run the Frobenius calls of the dry run, and are priced
    at those products plus 3 per call; returns the products, today's
    first."""
    old = plan._replace(shared=None)
    routes = (old, old._replace(shared=shared_record(fld.p, plan, r)))
    rng = random.Random(f"{fld.p}^{fld.m}/{r}")
    products = []
    for route in routes:
        dry = dry_run(route, r)
        for _ in range(draws):
            delta = fld._pack(fld.random_elem(rng)) or 1
            got, counter, calls = long_powers(fld, delta, route, r)
            assert got == (fld.pow(delta, plan.alpha), fld.pow(delta, plan.s))
            assert (counter.mults, counter.squarings, calls) == (
                dry.mults, dry.squarings, dry.frobenius), (
                fld.p, fld.m, r, route.shared)
            assert counter.inversions == 0
        products.append(dry.mults + dry.squarings)
        assert roots._price(route, r) == products[-1] + 3 * dry.frobenius
    return tuple(products)


def test_shared_power_is_exact_on_every_small_stage_shape():
    # every prime r <= 13 whose auto stage runs AMM in the field itself
    # with t >= 2 and s > 1, on the fields p^m < 3*10^5, p < 60
    kinds = set()
    with deadline(20):
        for p in filter(is_prime, range(2, 60)):
            for m in range(1, 13):
                if p ** m >= 3 * 10 ** 5:
                    break
                fld = mk_field(p, m)
                for r in filter(is_prime, range(2, 14)):
                    plan = roots._plan(fld, r)
                    if plan.t < 2 or not plan.alpha or plan.descent:
                        continue
                    assert_routes(fld, plan, r)
                    cof = plan.cof
                    kinds |= {("m = 1", m == 1),
                              ("n = 1", bool(cof) and cof.n == 1),
                              ("n >= 2", bool(cof) and cof.n > 1),
                              ("r | m, no alpha split",
                               m % r == 0 and plan.head is None),
                              ("k > 1", bool(cof) and plan.test.period > 1),
                              ("shared taken", plan.shared is not None)}
    assert {kind for kind, seen in kinds if seen} == {
        "m = 1", "n = 1", "n >= 2", "r | m, no alpha split", "k > 1",
        "shared taken"}


# the AMM stage of every amm_sqrt kind (over F_p where the kind descends)
# and cli_oneshot's F_{29^21}, r = 7: predicted products of today's head
# and cof records and of the shared power; s = 1 leaves one route.  Over
# F_p each long power is one builtin pow, and six of them with two
# products took longer than two on F_29 (2.9 against 0.8 us), so F_p
# stages keep the plain powers even where the shared power counts fewer
@pytest.mark.parametrize("p,m,r,old,new,taken", [
    (5, 61, 2, 0, None, False), (13, 31, 2, 3, 3, False),
    (17, 21, 2, 0, None, False), (29, 23, 2, 6, 5, False),
    (19, 21, 3, 81, 36, True), (29, 21, 7, 190, 79, True)])
def test_shared_power_prices_the_benchmark_stages(p, m, r, old, new, taken):
    fld = mk_field(p, m)
    plan = roots._plan(fld, r)
    if plan.descent:
        fld = plan.descent[0]
        plan = roots._plan(fld, r)
    assert (plan.shared is not None) == taken
    if new is None:
        counter = OpCounter()
        delta = fld._pack(fld.random_elem(random.Random(p)))
        assert plan.s == 1 and roots._long_powers(
            fld, delta, plan, r, counter) == (1, delta)  # alpha = 0
        dry = dry_run(plan, r)
        assert (counter.mults, counter.squarings) == (dry.mults,
                                                      dry.squarings)
        assert dry.mults + dry.squarings == old
    else:
        assert assert_routes(fld, plan, r) == (old, new)


def test_shared_power_keeps_the_split_where_the_walk_is_long():
    # F_{3^50}, r = 2: l_t = 2, so the walk takes n - 2 = 23 steps of a
    # Frobenius call and two products; today's records price 19 products
    # and 10 calls, the shared power 55 and 24, and the plan keeps today's
    fld = mk_field(3, 50)
    plan = roots._plan(fld, 2)
    assert (plan.t, plan.cof.period, plan.cof.n) == (3, 2, 25)
    assert plan.shared is None and plan.head is not None
    assert assert_routes(fld, plan, 2) == (19, 55)
    shared = plan._replace(shared=shared_record(3, plan, 2))
    assert (roots._price(plan, 2), roots._price(shared, 2)) == (49, 127)


# P is the first prime above 2^62, Q the least prime above P with 2PQ + 1
# prime: the order of 3 mod 2PQ + 1 is found by factoring 2PQ, which
# Pollard's rho does not finish
P, Q = 4611686018427388039, 4611686018427392159


def test_plan_factors_nothing_for_a_126_bit_prime_r():
    r = 2 * P * Q + 1
    assert is_prime(r) and r.bit_length() == 126
    with deadline(5):
        fld = mk_field(3, 5)
        out = rth_root(fld, (1, 2), r)
    assert (out.status, out.path_tag) == ("root_found", "naive_fallback")
    assert fld.pow(out.root, r) == fld.elem((1, 2))


def test_r_that_rho_cannot_split_fails_fast():
    # r = P*Q, the first two primes above 2^62: rth_root factors r before
    # any stage, and rho's step budget ends that with a typed error
    r = 4611686018427388039 * 4611686018427388073
    with deadline(5), pytest.raises(FactorizationTooHard):
        rth_root(mk_field(3, 5), (1, 2), r)


def test_descent_plan_with_no_norm_record_is_fast():
    # m = 3 <= r, so n = 0 and v = a: the norm record's
    # z = x(p^r - 1)/(r(p - 1)), 44.7 Mbit here, is never built.  The
    # first root still builds F_p's unity table, r entries
    r = 1000003
    p = 28 * r * r + 1
    fld = mk_field(p, 3)
    with deadline(0.1):
        plan = roots._plan(fld, r)
    assert plan.t == 2 and plan.descent[3] is None
    delta = fld.pow(fld.random_elem(random.Random(3)), r)
    with deadline(5):
        out = rth_root(fld, delta, r)
    assert (out.status, out.path_tag) == ("root_found", "amm")
    assert fld.pow(out.root, r) == delta


# -- coprime case -----------------------------------------------------------------

def test_coprime_is_a_bijection(f13):
    # gcd(5, 12) = 1: every element, zero included, has exactly one root
    roots = set()
    for i in range(13):
        delta = f13.elem_from_index(i)
        out = rth_root(f13, delta, 5)
        assert out.status == "root_found"
        assert f13.pow(out.root, 5) == delta
        roots.add(out.root)
    assert len(roots) == 13


def test_coprime_fast_path_tag(f39):
    delta = f39.random_elem(random.Random(1))
    auto = rth_root(f39, delta, 5)
    fast = rth_root(f39, delta, 5, path="periodic")
    naive = rth_root(f39, delta, 5, path="naive")
    assert auto.path_tag == "coprime_fast"  # m = 9 > k = 4
    assert fast.path_tag == "coprime_fast"
    assert naive.path_tag == "naive_fallback"
    assert auto.root == fast.root == naive.root


def test_coprime_forced_fast_needs_long_extension(f13):
    with pytest.raises(PeriodTooLong):
        rth_root(f13, (3,), 5, path="periodic")


def test_coprime_rejects_shared_factor(f13):
    with pytest.raises(NoSingleExponent):
        rth_root(f13, (3,), 2, path="naive")


def test_coprime_r_too_small(f13):
    with pytest.raises(RTooSmall):
        rth_root(f13, (3,), 1)


def test_coprime_zero(f39):
    out = rth_root(f39, f39.zero(), 5)
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
        out = rth_root(f75, delta, 2)
        assert out.status == "root_found"
        assert out.path_tag == "ramified_fast"  # m = 5 > k*r = 2
        assert out.root in (gamma, f75.neg(gamma))


def test_ramified_non_residue_f75(f75):
    rho = find_nonresidue(f75, 2)
    out = rth_root(f75, rho, 2)
    assert (out.status, out.root) == ("non_residue", None)


def test_ramified_naive_small_extension(f7):
    # k*r = 2 >= m = 1 forces plain powering; 6 = 2 * 3 so r = 2 ramifies
    out = rth_root(f7, (2,), 2)
    assert out.path_tag == "naive_fallback"
    assert f7.pow(out.root, 2) == (2,)
    with pytest.raises(PeriodTooLong):
        rth_root(f7, (2,), 2, path="periodic")


def test_ramified_rejects_higher_power(f13):
    with pytest.raises(NoSingleExponent):
        rth_root(f13, (4,), 2, path="naive")


def test_ramified_zero(f75):
    out = rth_root(f75, f75.zero(), 2)
    assert out.root == f75.zero()


def test_ramified_counter_pinned_f75(f75):
    # exponents are fixed by (p, m, r), so the tallies are too:
    # a = 2, b = 84 off one chain of 6 squarings, one chain product, one
    # combine, one verify square
    delta = f75.pow(f75.random_elem(random.Random(4)), 2)
    fast = rth_root(f75, delta, 2, path="periodic")
    assert (fast.counters.mults, fast.counters.squarings,
            fast.counters.frobenius) == (4, 7, 2)
    naive = rth_root(f75, delta, 2, path="naive")
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


def test_zero_is_its_own_root_with_no_ops(f13, f7, f39, f75):
    # every path that applies returns zero at once, and a chain pays only
    # its final check; amm_root refuses zero (test_amm_rejects_zero)
    cases = [(f13, 2, ("auto", "amm")), (f7, 2, ("auto", "naive")),
             (f39, 5, ("auto", "periodic", "naive")),
             (f75, 2, ("auto", "amm", "periodic", "naive"))]
    for fld, r, paths in cases:
        outs = [rth_root(fld, fld.zero(), r, path=path) for path in paths]
        for out in outs:
            assert (out.status, out.root, out.counters) == \
                ("root_found", fld.zero(), OpCounter())
    assert rth_root(f13, f13.zero(), 6).counters == \
        OpCounter(mults=1, squarings=2)  # 0^6


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


def test_failed_verification_is_a_refusal_only_for_t_1(monkeypatch, f39, f75):
    # with a wrong head, a coprime stage (t = 0), where every element has
    # a root, must raise; a ramified stage (t = 1) reads it as non_residue
    monkeypatch.setattr(roots, "apply_periodic",
                        lambda fld, delta, pe, counter: fld.sqr(delta))
    delta = f39.random_elem(random.Random(12))
    assert f39.pow(delta, 10) != delta
    with pytest.raises(RuntimeError, match="verification"):
        rth_root(f39, delta, 5)
    delta = f75.pow(f75.random_elem(random.Random(12)), 2)
    assert f75.pow(delta, 4) != delta
    assert rth_root(f75, delta, 2).status == "non_residue"


def test_large_prime_r_finishes_fast():
    # the order of 3 mod 2^31 - 1 is close to r; only whether it stays
    # below m matters, so neither the library nor the CLI may walk it
    r = 2 ** 31 - 1
    with deadline(5):
        fld = mk_field(3, 61)
        delta = fld.random_elem(random.Random(10))
        out = rth_root(fld, delta, r)
        assert out.path_tag == "naive_fallback"
        assert out.status == "root_found"
        assert fld.pow(out.root, r) == delta
        argv = ["root", "--p", "3", "--m", "61", "--r", str(r),
                "--delta", ",".join(map(str, delta))]
        assert dispatch(argv) == 0


# (p, m, r, delta): single-stage auto requests that take coprime_fast,
# ramified_fast or naive_fallback; delta as in test_counter_goldens
SINGLE_STAGE_CASES = [(2, 127, 3, "residue"), (3, 61, 5, "residue"),
                      (2, 59, 179951, "residue"), (7, 1, 2, "residue"),
                      (3, 61, 2, "residue"), (3, 61, 2, "non_residue")]


@pytest.mark.parametrize("p,m,r,kind", SINGLE_STAGE_CASES)
def test_single_stage_returns_the_stage_outcome(p, m, r, kind):
    # the stage verifies its root against delta; rth_root must not charge
    # that check a second time
    fld = mk_field(p, m)
    if kind == "residue":
        delta = fld.pow(fld.random_elem(random.Random(f"one/{p}^{m}")), r)
    else:
        delta = find_nonresidue(fld, r)
    auto = rth_root(fld, delta, r)
    counter = OpCounter()
    stage = roots._outcome(fld, *roots._stage(fld, fld._read(delta), r, 0,
                                              counter), counter)
    assert auto.path_tag != "composite_chain"
    assert auto.status == ("non_residue" if kind == "non_residue"
                           else "root_found")
    assert (auto.status, auto.root, auto.path_tag, auto.counters) == \
        (stage.status, stage.root, stage.path_tag, stage.counters)


def test_root_layer_reads_delta_as_a_field_element(f13):
    # coefficients are read mod p and a short tuple is padded, as
    # fld.elem does for the CLI; a tuple longer than m is refused
    f361 = mk_field(3, 61)
    x = (0, 1) + (0,) * 59
    for delta in ((3, 1) + (0,) * 59, (0, -2), (0, 1)):
        assert is_rth_residue(f361, delta, 2)
        for r, out in ((2, rth_root(f361, delta, 2)),
                       (2, rth_root(f361, delta, 2, path="naive")),
                       (6, rth_root(f361, delta, 6))):  # peel, then 2
            assert out.status == "root_found"
            assert f361.pow(out.root, r) == x
    with pytest.raises(DegreeMismatch):
        rth_root(f13, (4, 1), 2)
    for delta in ((-9,), (17,)):
        for path in ("auto", "amm"):
            assert rth_root(f13, delta, 2, path=path).root == (11,)
        assert amm_root(f13, delta, 2, rho=(-11,)).root == (11,)
    out = rth_root(f13, (-10,), 4)  # two stages of 2
    assert (out.status, f13.pow(out.root, 4)) == ("root_found", (3,))
    assert build_amm_context(f13, 2, rho=(15,)) == \
        build_amm_context(f13, 2, rho=(2,))


@pytest.mark.parametrize("p,m,r", [(3, 61, 2), (5, 61, 2), (3, 61, 30)])
def test_rth_root_reads_delta_once(monkeypatch, p, m, r):
    # a single stage and a chain read delta through Field._read once
    fld = mk_field(p, m)
    delta = fld.pow(fld.random_elem(random.Random(f"elem/{p}^{m}")), r)
    rth_root(fld, delta, r)  # builds and caches any AMM context
    calls = []
    read = Field._read
    monkeypatch.setattr(Field, "_read",
                        lambda self, c: calls.append(c) or read(self, c))
    assert rth_root(fld, delta, r).status == "root_found"
    assert len(calls) == 1


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


# -- the root layer works on packed elements ---------------------------------------

# (p, m, r, packs): the packs of one rth_root on a residue once its AMM
# context is cached.  rth_root packs delta once; the peel's frobenius,
# every stage and a chain's final check take the packed element the step
# before returned, and an amm stage reads rho^s and the unity table
# packed from its context.  Every product in between stays packed.
PACK_CASES = ([(p, m, r, 1) for p, m, r in AMM_SQRT_FIELDS]
              + [(2, 127, 7, 1), (3, 61, 30, 1)])


@pytest.mark.parametrize("p,m,r,packs", PACK_CASES)
def test_root_layer_packs_once_per_stage(monkeypatch, p, m, r, packs):
    fld = mk_field(p, m)
    rng = random.Random(f"packs/{p}^{m}/{r}")
    gamma = fld.random_elem(rng)
    while not any(gamma):
        gamma = fld.random_elem(rng)
    delta = fld.pow(gamma, r)
    rth_root(fld, delta, r)  # builds and caches any AMM context
    calls = []
    pack = Field._pack
    monkeypatch.setattr(Field, "_pack",
                        lambda self, vec: calls.append(vec) or pack(self, vec))
    out = rth_root(fld, delta, r)
    assert out.status == "root_found"
    assert len(calls) == packs
    if r != 7:  # 7 is prime to 2^127 - 1: every element is a 7th power
        nonres = find_nonresidue(fld, 2 if r == 30 else r, seed=5)
        calls.clear()
        assert rth_root(fld, nonres, r).status == "non_residue"
        assert len(calls) == 1  # rth_root's pack of delta


def test_roots_come_back_as_length_m_tuples(f13, f75, f39):
    fields = [f13, f75, f39, mk_field(5, 61), mk_field(2, 4)]
    rng = random.Random(11)
    for fld in fields:
        for r in range(2, 14):
            gamma = fld.random_elem(rng)
            for delta in (fld.zero(), fld.one(), fld.pow(gamma, r), gamma):
                for path in ("auto", "amm", "periodic", "naive"):
                    try:
                        out = rth_root(fld, delta, r, path=path)
                    except (ValueError, ArithmeticError):
                        continue  # a forced path that does not apply
                    if out.status == "root_found":
                        assert type(out.root) is tuple, (fld.p, fld.m, r)
                        assert len(out.root) == fld.m
                        assert fld.pow(out.root, r) == delta
                    else:
                        assert out.root is None
