"""Tests of the benchmark's own output checker."""

import json
import random
from pathlib import Path

import pytest

from perfbench import checker
from perfbench.checker import Ring


def _schoolbook(a, b, f, p):
    m = len(f) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i] % p
        prod[i] = 0
        for j in range(m):
            prod[i - m + j] -= c * f[j]
    return [c % p for c in prod[:m]]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 7), (3, 5), (7, 2), (101, 6),
                                 (65521, 3)])
def test_ring_mul_matches_schoolbook(p, m):
    rng = random.Random(p * 1000 + m)
    f = [rng.randrange(p) for _ in range(m)] + [1]
    ring = Ring(p, f)
    for _ in range(20):
        a = [rng.randrange(p) for _ in range(m)]
        b = [rng.randrange(p) for _ in range(m)]
        assert ring.mul(a, b) == _schoolbook(a, b, f, p)


def _irreducible_count(p, m):
    # Gauss: (1/m) * sum over d | m of mu(d) p^{m/d}
    def mu(n):
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out
    return sum(mu(d) * p ** (m // d) for d in range(1, m + 1)
               if m % d == 0) // m


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 4), (5, 3)])
def test_irreducibility_count_matches_gauss(p, m):
    count = 0
    for c in range(p ** m):
        f = [(c // p ** i) % p for i in range(m)] + [1]
        count += checker.is_irreducible(p, f)
    assert count == _irreducible_count(p, m)


def test_predicted_paths():
    assert checker.predicted_path(2, 127, 3) == "coprime_fast"
    assert checker.predicted_path(2, 3, 7) == "naive_fallback"
    assert checker.predicted_path(3, 61, 2) == "ramified_fast"
    assert checker.predicted_path(7, 1, 3) == "naive_fallback"
    assert checker.predicted_path(5, 61, 2) == "amm"
    assert checker.predicted_path(2, 127, 6) == "composite_chain"
    assert checker.predicted_path(3, 61, 3) == "composite_chain"


def _f243():
    p, f = 3, checker.canonical_modulus(3, 5)
    return Ring(p, f)


def test_accepts_right_root_and_rejects_wrong_root():
    ring = _f243()
    gamma = [1, 2, 0, 1, 1]
    delta = ring.pow(gamma, 2)
    ok = checker.check_outcome(ring, delta, 2, True, "root_found", gamma,
                               "ramified_fast")
    assert ok == []
    wrong = [(gamma[0] + 1) % 3] + gamma[1:]
    bad = checker.check_outcome(ring, delta, 2, True, "root_found", wrong,
                                "ramified_fast")
    assert any("root^r != delta" in e for e in bad)


def test_rejects_false_non_residue_and_wrong_path():
    ring = _f243()
    delta = ring.pow([2, 0, 1, 0, 1], 2)
    errs = checker.check_outcome(ring, delta, 2, False, "non_residue", None,
                                 "amm")
    assert any("reported non_residue" in e for e in errs)
    assert any("predicted ramified_fast" in e for e in errs)


def test_listed_moduli_are_canonical_for_small_fields():
    from rootfield import mk_field
    for p, m in [(2, 8), (3, 7), (5, 4), (13, 3)]:
        assert checker.canonical_modulus(p, m) == list(mk_field(p, m).modulus)


def test_moduli_list_is_monic_of_right_degree():
    path = Path(__file__).with_name("moduli.json")
    for key, f in json.loads(path.read_text())["moduli"].items():
        p, m = map(int, key.split(","))
        assert len(f) == m + 1 and f[-1] == 1 and all(0 <= c < p for c in f)
