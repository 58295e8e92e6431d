import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootfield import (ConditionsUnmet, NotCoprime, NotCoprimeCase,
                       NotRamifiedCase, PeriodTooLong, analyze_case,
                       decompose_base_q, decompose_coprime, decompose_ramified,
                       mult_order)
from rootfield.periodic import (exact_power, factorize, geometric_sum,
                                prime_power_split)


def check_invariants(pe, p, r):
    """The defining properties every decomposition must satisfy."""
    assert pe.v == pe.a + pe.b * geometric_sum(p, pe.period, pe.n)
    bound = p ** (2 * pe.period)
    assert 0 <= pe.a < bound
    assert 0 <= pe.b < bound
    assert r * pe.v % pe.congruence_modulus == 1
    assert pe.n >= 1


# -- small helpers -------------------------------------------------------------

def test_mult_order_values():
    assert mult_order(3, 5) == 4
    assert mult_order(7, 2) == 1
    assert mult_order(2, 7) == 3


def test_mult_order_limit():
    assert mult_order(3, 5, 4) == 4
    assert mult_order(3, 5, 3) is None
    assert mult_order(7, 2, 0) is None
    # the order of 3 mod 2^31 - 1 is far beyond the limit; the search
    # stops after the limit instead of walking the whole cycle
    assert mult_order(3, 2 ** 31 - 1, 60) is None


def test_mult_order_errors():
    with pytest.raises(NotCoprime):
        mult_order(6, 3)
    with pytest.raises(ValueError):
        mult_order(3, 1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(59048) == [(2, 3), (11, 2), (61, 1)]


def test_exact_power():
    assert exact_power(2, 12) == 2
    assert exact_power(5, 12) == 0
    assert exact_power(3, 81) == 4


def test_prime_power_split():
    assert prime_power_split(4) == (2, 2)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(32) == (2, 5)
    with pytest.raises(ValueError):
        prime_power_split(12)
    with pytest.raises(ValueError):
        prime_power_split(1)


# -- case analysis -------------------------------------------------------------

def test_analyze_coprime():
    case = analyze_case(3, 9, 5)
    assert (case.gcd_tag, case.k, case.u, case.alpha) == ("coprime", 4, 2, 0)


def test_analyze_ramified():
    case = analyze_case(7, 5, 2)
    assert (case.gcd_tag, case.k, case.u, case.alpha) == (
        "ramified_exact", 1, 1, 1)


def test_analyze_higher_power():
    case = analyze_case(13, 1, 2)  # 12 = 2^2 * 3
    assert (case.gcd_tag, case.alpha, case.u) == ("higher_power", 2, None)


def test_analyze_r_sharing_characteristic():
    with pytest.raises(NotCoprime):
        analyze_case(7, 5, 14)


def test_analyze_entangled_cofactor():
    # 4 divides 3^10 - 1 = 59048 exactly once in the 4-adic sense, but the
    # cofactor 14762 is even, so no u satisfies the ramified congruence
    with pytest.raises(ValueError):
        analyze_case(3, 10, 4)


def test_analyze_u_congruences():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 97])
        m = rng.randrange(1, 30)
        r = rng.randrange(2, 101)
        if gcd(r, p) != 1:
            continue
        order = p ** m - 1
        try:
            case = analyze_case(p, m, r)
        except ValueError:
            continue
        if case.gcd_tag == "coprime":
            assert 1 <= case.u < r
            assert case.u * order % r == r - 1
        elif case.gcd_tag == "ramified_exact":
            assert 1 <= case.u < r
            assert case.u * (order // r) % r == r - 1
        checked += 1


# -- coprime decomposition ------------------------------------------------------

def test_coprime_pinned_3_9_5():
    pe = decompose_coprime(3, 9, 5)
    assert (pe.v, pe.period, pe.n, pe.b, pe.a) == (7873, 4, 2, 96, 1)
    assert pe.congruence_modulus == 3 ** 9 - 1
    assert pe.case_tag == "coprime"
    assert geometric_sum(3, 4, 2) == 82
    check_invariants(pe, 3, 5)


def test_coprime_pinned_2_10_7():
    pe = decompose_coprime(2, 10, 7)
    assert (pe.v, pe.period, pe.n, pe.b, pe.a) == (877, 3, 3, 12, 1)
    assert geometric_sum(2, 3, 3) == 73
    check_invariants(pe, 2, 7)


def test_coprime_period_too_long():
    with pytest.raises(PeriodTooLong):
        decompose_coprime(3, 4, 5)  # k = 4, need m > 4


def test_coprime_rejects_shared_factor():
    # 11 divides 3^10 - 1 and ord_11(3) = 5 < 10, so the period gate
    # passes and the gcd gate must catch it
    with pytest.raises(NotCoprimeCase):
        decompose_coprime(3, 10, 11)


# -- ramified decomposition -------------------------------------------------------

def test_ramified_pinned_7_5_2():
    pe = decompose_ramified(7, 5, 2)
    assert (pe.v, pe.period, pe.n, pe.b, pe.a) == (4202, 2, 2, 84, 2)
    assert pe.congruence_modulus == 8403
    assert pe.case_tag == "ramified"
    check_invariants(pe, 7, 2)


def test_ramified_small_valid_instance():
    pe = decompose_ramified(7, 3, 2)  # kr = 2 < 3
    check_invariants(pe, 7, 2)
    assert pe.congruence_modulus == (7 ** 3 - 1) // 2


def test_ramified_case_gate_beats_period_gate():
    # 7^2 - 1 = 48 = 2^4 * 3: not ramified for r=2 even though m <= kr too
    with pytest.raises(NotRamifiedCase):
        decompose_ramified(7, 2, 2)


def test_ramified_period_too_long():
    # 3 divides 48 exactly once; k = ord_3(7) = 1, so need m > 3
    with pytest.raises(PeriodTooLong):
        decompose_ramified(7, 2, 3)


def test_ramified_entangled_composite():
    with pytest.raises(NotRamifiedCase):
        decompose_ramified(3, 10, 4)


# -- seeded sweeps over both -----------------------------------------------------

PRIMES_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
             59, 61, 67, 71, 73, 79, 83, 89, 97]


@given(st.data())
def test_coprime_invariants_random(data):
    p = data.draw(st.sampled_from(PRIMES_97))
    m = data.draw(st.integers(2, 40))
    r = data.draw(st.integers(2, 101))
    if gcd(r, p) != 1 or gcd(r, p ** m - 1) != 1:
        return
    if m <= mult_order(p, r):
        return
    check_invariants(decompose_coprime(p, m, r), p, r)


@given(st.data())
def test_ramified_invariants_random(data):
    p = data.draw(st.sampled_from(PRIMES_97))
    m = data.draw(st.integers(2, 40))
    r = data.draw(st.integers(2, 101))
    if gcd(r, p) != 1:
        return
    order = p ** m - 1
    if order % r != 0 or gcd(order // r, r) != 1:
        return
    if m <= mult_order(p, r) * r:
        return
    pe = decompose_ramified(p, m, r)
    check_invariants(pe, p, r)
    assert pe.congruence_modulus == order // r


# -- base-q comparison ------------------------------------------------------------

def test_base_q_pinned_4_5_7():
    bq = decompose_base_q(4, 5, 7)
    assert (bq.p, bq.d) == (2, 2)
    assert (bq.k_base, bq.n, bq.pe.v) == (3, 1, 877)
    assert (bq.k_prime, bq.n_prime) == (3, 3)
    assert bq.n_prime > bq.n  # the strict instance
    check_invariants(bq.pe, bq.p, 7)  # the stored period is in base-p digits


def test_base_q_pinned_9_5_5():
    bq = decompose_base_q(9, 5, 5)
    assert (bq.k_base, bq.n) == (2, 2)
    assert (bq.k_prime, bq.n_prime) == (4, 2)
    assert bq.pe.period == 4  # two base-9 digits, each two base-3 digits
    check_invariants(bq.pe, bq.p, 5)


def test_base_q_ramified_variant():
    # q = 4, r = 3: r divides q - 1 exactly once, gcd(m, r) = 1
    bq = decompose_base_q(4, 5, 3)
    assert bq.pe.case_tag == "ramified"
    assert bq.pe.congruence_modulus == (4 ** 5 - 1) // 3
    check_invariants(bq.pe, bq.p, 3)
    assert bq.n_prime >= bq.n


def test_base_q_conditions_unmet():
    with pytest.raises(ConditionsUnmet):
        decompose_base_q(4, 6, 7)  # gcd(m, k) = 3
    with pytest.raises(ConditionsUnmet):
        decompose_base_q(7, 6, 3)  # ramified shape but gcd(m, r) = 3
    with pytest.raises(ConditionsUnmet):
        decompose_base_q(9, 2, 2)  # 4 divides q - 1
    with pytest.raises(PeriodTooLong):
        decompose_base_q(4, 2, 7)  # m = 2 < k = 3, conditions otherwise fine
    with pytest.raises(PeriodTooLong):
        decompose_base_q(4, 2, 3)  # ramified shape but m <= r


def test_base_q_period_converted_to_base_p():
    bq = decompose_base_q(4, 5, 7)
    assert bq.pe.period == 6  # k = 3 base-q periods, each d = 2 digits


def test_n_prime_never_smaller():
    count = strict = 0
    for q in (4, 8, 9, 16, 25, 27, 32, 49):
        for m in range(2, 13):
            for r in (2, 3, 5, 7, 11, 13):
                try:
                    bq = decompose_base_q(q, m, r)
                except (ConditionsUnmet, PeriodTooLong, NotCoprime,
                        ValueError):
                    continue
                assert bq.n_prime >= bq.n, (q, m, r)
                count += 1
                strict += bq.n_prime > bq.n
    assert count > 20
    assert strict >= 1
