import random
import time
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootfield import (ConditionsUnmet, NotCoprime, NotCoprimeCase,
                       NotRamifiedCase, PeriodTooLong, decompose_base_q,
                       decompose_coprime, decompose_ramified, mk_field,
                       mult_order)
from rootfield.cli import dispatch
from rootfield import periodic
from rootfield.periodic import (FactorizationTooHard, decompose, exact_power,
                                factorize, geometric_sum, lifted_order,
                                prime_power_split)
from rootfield.roots import _plan


def check_invariants(pe, p, r, modulus):
    """The defining properties every decomposition must satisfy; modulus
    is M = (p^m - 1)/r^alpha of the case the caller expects."""
    assert pe.v == pe.a + pe.b * geometric_sum(p, pe.period, pe.n)
    bound = p ** (2 * pe.period)
    assert 0 <= pe.a < bound
    assert 0 <= pe.b < bound
    assert r * pe.v % modulus == 1
    assert pe.n >= 1


# -- small helpers -------------------------------------------------------------

def test_mult_order_values():
    assert mult_order(3, 5) == 4
    assert mult_order(7, 2) == 1
    assert mult_order(2, 7) == 3


def test_mult_order_limit():
    # the order of 3 mod 2^31 - 1 is far beyond any extension degree
    assert mult_order(3, 2 ** 31 - 1) == 715827882
    # the plan takes the N/r record only for k < m: 2^3 - 1 = 7 has
    # k = m = 3, and 2^6 - 1 = 7 * 9 has k = 3 < 6
    assert _plan(mk_field(2, 3), 7).test is None
    assert _plan(mk_field(2, 6), 7).test.period == 3


# (base, r, order): 2^e with e >= 3, where the unit group is not cyclic;
# odd prime powers, where the order mod q lifts by factors of q, from
# multiplicity 2 for 8 = 9 - 1; the Mersenne prime 2^31 - 1 and the safe
# prime 2 * 1125899906843669 + 1, whose orders are the CLI's decompose
# goldens; and composites, the lcm of the parts: 3 has order 2^8 mod
# 2^10, 4 * 5^3 mod 5^4 and 6 * 7^2 mod 7^3
LARGE_ORDERS = [
    (3, 2 ** 40, 2 ** 38), (5, 2 ** 64, 2 ** 62), (7, 2 ** 3, 2),
    (2, 3 ** 30, 2 * 3 ** 29), (10, 7 ** 12, 6 * 7 ** 11),
    (8, 3 ** 12, 2 * 3 ** 10), (3, 2 ** 31 - 1, 715827882),
    (3, 2251799813687339, 1125899906843669),
    (2, 2251799813687339, 2251799813687338),
    (3, 2 ** 10 * (2 ** 31 - 1), 715827882 * 2 ** 7),
    (3, 5 ** 4 * 7 ** 3 * (2 ** 31 - 1), 715827882 * 2 * 5 ** 3 * 7),
]


@pytest.mark.parametrize("base,r,order", LARGE_ORDERS)
def test_mult_order_large(base, r, order):
    # base^k = 1 and no proper divisor k/f of k does: k is the order
    k = mult_order(base, r)
    assert k == order
    assert pow(base, k, r) == 1
    for f, _ in factorize(k):
        assert pow(base, k // f, r) != 1, (base, r, f)


def test_mult_order_matches_iteration():
    # against the definition: the first power of base that reaches 1
    for r in range(2, 2000):
        for base in range(50):
            if gcd(base, r) != 1:
                continue
            acc, k = base % r, 1
            while acc != 1:
                acc = acc * base % r
                k += 1
            assert mult_order(base, r) == k, (base, r)


def test_mult_order_errors():
    with pytest.raises(NotCoprime):
        mult_order(6, 3)
    with pytest.raises(ValueError):
        mult_order(3, 1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(59048) == [(2, 3), (11, 2), (61, 1)]


def _trial_division(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] * (n > 1)


def test_factorize_stops_at_prime_cofactor():
    q = 2 ** 61 - 1  # prime; trial division to sqrt(q) takes hours
    start = time.monotonic()
    assert factorize(q) == [(q, 1)]
    assert factorize(2 ** 5 * 3 ** 2 * 11 * q) == [(2, 5), (3, 2), (11, 1),
                                                   (q, 1)]
    assert time.monotonic() - start < 2
    assert all(factorize(n) == _trial_division(n) for n in range(20000))


def test_factorize_matches_trial_division():
    # past trial division, composite cofactors are split by Pollard's rho;
    # the factorisation must be the same, ascending and with exponents
    rng = random.Random(1980)
    cases = [rng.randrange(1, 10 ** 10) for _ in range(300)]
    for _ in range(100):  # cofactors with only large prime factors
        a, b = rng.randrange(1000, 10 ** 5), rng.randrange(1000, 10 ** 5)
        cases.append(a * b * b * rng.randrange(1, 60))
    for q in (1031, 65537, 999983):  # prime powers past the trial limit
        cases += [q ** 2, q ** 3, q ** 2 * 1033]
    for n in cases:
        assert factorize(n) == _trial_division(n), n


def test_factorize_two_large_primes():
    q1, q2 = 2 ** 31 - 1, 2 ** 31 + 11
    start = time.monotonic()
    assert factorize(q1 * q2) == [(q1, 1), (q2, 1)]
    assert factorize(2 ** 3 * q2 ** 2 * q1) == [(2, 3), (q1, 1), (q2, 2)]
    assert factorize((2 ** 61 - 1) * q1 ** 2) == [(q1, 2), (2 ** 61 - 1, 1)]
    assert time.monotonic() - start < 2


def test_rho_step_budget_bounds_a_split(monkeypatch):
    # the split of (2^31 - 1)(2^31 + 11) takes 65,534 counted steps: it
    # fits the default budget and fails under a budget of 2^15
    n = (2 ** 31 - 1) * (2 ** 31 + 11)
    assert periodic._RHO_STEPS >= 1 << 17
    assert factorize(n) == [(2 ** 31 - 1, 1), (2 ** 31 + 11, 1)]
    monkeypatch.setattr(periodic, "_RHO_STEPS", 1 << 15)
    with pytest.raises(FactorizationTooHard, match=str(n)):
        factorize(3 * n)


def test_factorize_gives_up_on_two_62_bit_primes():
    # rho needs about 2^31 steps to split P*Q, P and Q the first two
    # primes above 2^62; the budget ends it with a typed error
    p, q = 4611686018427388039, 4611686018427388073
    start = time.monotonic()
    with pytest.raises(FactorizationTooHard):
        factorize(p * q)
    assert time.monotonic() - start < 5


def test_exact_power():
    assert exact_power(2, 12) == 2
    assert exact_power(5, 12) == 0
    assert exact_power(3, 81) == 4
    for r, n in ((3, 0), (1, 5), (-1, 5)):
        with pytest.raises(ValueError):
            exact_power(r, n)


def test_prime_power_split():
    assert prime_power_split(4) == (2, 2)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(32) == (2, 5)
    with pytest.raises(ValueError):
        prime_power_split(12)
    with pytest.raises(ValueError):
        prime_power_split(1)


# -- case analysis: rootfield decompose and the root layer's plan -------------

def run_decompose(capsys, p, m, r):
    """Exit code, key=value fields of stdout, and stderr of one call."""
    code = dispatch(["decompose", "--p", str(p), "--m", str(m),
                     "--r", str(r)])
    out, err = capsys.readouterr()
    return code, dict(tok.split("=") for tok in out.split()), err


def test_analyze_coprime(capsys):
    code, got, _ = run_decompose(capsys, 3, 9, 5)
    assert (code, got["case"], got["k"], got["u"]) == (0, "coprime", "4", "2")
    assert _plan(mk_field(3, 9), 5).t == 0


def test_analyze_ramified(capsys):
    code, got, _ = run_decompose(capsys, 7, 5, 2)
    assert (code, got["case"], got["k"], got["u"]) == (0, "ramified", "1", "1")
    assert _plan(mk_field(7, 5), 2).t == 1


def test_analyze_higher_power(capsys):
    code, got, err = run_decompose(capsys, 13, 1, 2)  # 12 = 2^2 * 3
    assert (code, got) == (1, {})
    assert "no single-exponent decomposition" in err
    assert _plan(mk_field(13, 1), 2).t == 2


def test_analyze_r_sharing_characteristic(capsys):
    assert run_decompose(capsys, 7, 5, 14) == \
        (1, {}, "error: 7 and 14 are not coprime\n")


def test_analyze_entangled_cofactor(capsys):
    # 4 divides 3^10 - 1 = 59048 exactly once in the 4-adic sense, but the
    # cofactor 14762 is even, so no u satisfies the ramified congruence;
    # the period, 8, is below m = 10, so the gcd gate is what refuses it
    code, got, err = run_decompose(capsys, 3, 10, 4)
    assert (code, got) == (1, {})
    assert err == "error: gcd(r, (q^m - 1)/r^alpha) = 2\n"
    plan = _plan(mk_field(3, 10), 4)
    assert (plan.t, plan.alpha) == (1, None)


def test_analyze_u_congruences(capsys):
    rng = random.Random(11)
    checked = decomposed = 0
    while checked < 60:
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 97])
        m = rng.randrange(1, 30)
        r = rng.randrange(2, 101)
        if gcd(r, p) != 1:
            continue
        order = p ** m - 1
        t = exact_power(r, order)
        if t < 2 and gcd(order // r ** t, r) != 1:
            continue  # no u exists (test_analyze_entangled_cofactor)
        code, got, err = run_decompose(capsys, p, m, r)
        if code == 0:
            u, modulus = int(got["u"]), int(got["modulus"])
            assert got["case"] == ("coprime", "ramified")[t]
            assert modulus == order // r ** t
            assert 1 <= u < r
            assert u * modulus % r == r - 1
            decomposed += 1
        else:
            assert t > 1 or err.startswith("error: need m > period")
        checked += 1
    assert decomposed >= 10


# -- coprime decomposition ------------------------------------------------------

def test_coprime_pinned_3_9_5():
    pe = decompose_coprime(3, 9, 5)
    assert (pe.v, pe.period, pe.n, pe.b, pe.a) == (7873, 4, 2, 96, 1)
    assert geometric_sum(3, 4, 2) == 82
    check_invariants(pe, 3, 5, 3 ** 9 - 1)


def test_coprime_pinned_2_10_7():
    pe = decompose_coprime(2, 10, 7)
    assert (pe.v, pe.period, pe.n, pe.b, pe.a) == (877, 3, 3, 12, 1)
    assert geometric_sum(2, 3, 3) == 73
    check_invariants(pe, 2, 7, 2 ** 10 - 1)


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
    check_invariants(pe, 7, 2, 8403)  # (7^5 - 1)/2


def test_ramified_small_valid_instance():
    pe = decompose_ramified(7, 3, 2)  # kr = 2 < 3
    check_invariants(pe, 7, 2, (7 ** 3 - 1) // 2)


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


def test_decompose_rejects_r_below_two():
    with pytest.raises(ValueError, match="r must be >= 2"):
        decompose_ramified(7, 5, 1)
    with pytest.raises(ValueError, match="r must be >= 2"):
        decompose_base_q(4, 5, 1)


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
    check_invariants(decompose_coprime(p, m, r), p, r, p ** m - 1)


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
    check_invariants(pe, p, r, order // r)


# -- the period for every alpha ------------------------------------------------------

def test_lifted_order_is_the_order_mod_r_power():
    for r in (2, 3, 5, 7):
        for e in range(1, 5):
            for q in range(2, 120):
                if q % r:
                    assert (lifted_order(q, r, mult_order(q, r), e)
                            == mult_order(q, r ** e)), (q, r, e)


def test_lifted_order_rejects_a_non_order():
    with pytest.raises(ValueError):
        lifted_order(3, 5, 2, 2)  # 3^2 = 4 mod 5


def _decompose_with_period_k_r_alpha(q, m, r, k, alpha):
    """(period, a, b, n) of the split with the period fixed at k*r^alpha,
    the rule decompose followed for alpha <= 1 before it took the least
    k*r^i with r^{alpha+1} | q^{k*r^i} - 1."""
    period = k * r ** alpha
    modulus = (q ** m - 1) // r ** alpha
    u = (-pow(modulus % r, -1, r)) % r
    n = m // period
    b = q ** (m - n * period) * (u * (q ** period - 1) // r ** (alpha + 1))
    a = pow(r, -1, modulus) - b * geometric_sum(q, period, n)
    return period, a, b, n


def test_period_unchanged_for_alpha_at_most_one():
    checked = 0
    for p in PRIMES_97[:12]:
        for m in range(2, 30):
            order = p ** m - 1
            for r in range(2, 30):
                if gcd(r, p) != 1:
                    continue
                alpha = exact_power(r, order)
                if alpha > 1 or gcd(order // r ** alpha, r) != 1:
                    continue
                k = mult_order(p, r)
                if m <= k * r ** alpha:
                    with pytest.raises(PeriodTooLong):
                        decompose(p, m, r, k, alpha)
                    continue
                pe = decompose(p, m, r, k, alpha)
                assert (pe.period, pe.a, pe.b, pe.n) == \
                    _decompose_with_period_k_r_alpha(p, m, r, k, alpha)
                checked += 1
    assert checked > 1000


def test_higher_power_invariants():
    checked = 0
    for p in PRIMES_97[:17]:
        for m in range(2, 41):
            order = p ** m - 1
            for r in (2, 3, 5, 7, 11, 13):
                t = exact_power(r, order)
                if t < 2 or order == r ** t:
                    continue
                k = mult_order(p, r)
                period = lifted_order(p, r, k, t + 1)
                if m <= period:
                    with pytest.raises(PeriodTooLong):
                        decompose(p, m, r, k, t)
                    continue
                pe = decompose(p, m, r, k, t)
                assert (pe.period, pe.n) == (period, m // period)
                # r*v = 1 mod s and a, b < p^{2*period}
                check_invariants(pe, p, r, order // r ** t)
                checked += 1
    assert checked > 300


def test_higher_power_pinned_periods():
    # 2^2 | 5^61 - 1 and 8 | 5^2 - 1: period 2
    pe = decompose(5, 61, 2, 1, 2)
    assert (pe.period, pe.n) == (2, 30)
    # 3^3 | 19^21 - 1: k*r^t = 27 exceeds m, but 81 | 19^9 - 1
    pe = decompose(19, 21, 3, 1, 3)
    assert (pe.period, pe.n) == (9, 2)
    # 5^3 exactly divides 31^25 - 1, and 5^4 | 31^l - 1 needs l = 125 > m
    assert exact_power(5, 31 ** 25 - 1) == 3
    with pytest.raises(PeriodTooLong, match="period=125"):
        decompose(31, 25, 5, 1, 3)


# -- base-q comparison ------------------------------------------------------------

def test_base_q_pinned_4_5_7():
    bq = decompose_base_q(4, 5, 7)
    assert (bq.p, bq.d) == (2, 2)
    assert (bq.k_base, bq.n, bq.pe.v) == (3, 1, 877)
    assert (bq.k_prime, bq.n_prime) == (3, 3)
    assert bq.n_prime > bq.n  # the strict instance
    # the stored period is in base-p digits
    check_invariants(bq.pe, bq.p, 7, 4 ** 5 - 1)


def test_base_q_pinned_9_5_5():
    bq = decompose_base_q(9, 5, 5)
    assert (bq.k_base, bq.n) == (2, 2)
    assert (bq.k_prime, bq.n_prime) == (4, 2)
    assert bq.pe.period == 4  # two base-9 digits, each two base-3 digits
    check_invariants(bq.pe, bq.p, 5, 9 ** 5 - 1)


def test_base_q_ramified_variant():
    # q = 4, r = 3: r divides q - 1 exactly once, gcd(m, r) = 1
    bq = decompose_base_q(4, 5, 3)
    check_invariants(bq.pe, bq.p, 3, (4 ** 5 - 1) // 3)
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
