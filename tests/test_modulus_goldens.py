"""Pinned canonical moduli.

mk_field(p, m) without a modulus picks the monic irreducible of degree m
whose coefficients below the leading one, read as a base-p integer, are
smallest.  Every golden here fixes that choice; a faster irreducibility
test or search must leave each one in place.  A modulus is written as
its coefficients below x^m, constant term first, with trailing zeros
dropped: (1, 1) on F_{2^3} is x^3 + x + 1.
"""

import time

import pytest

from rootfield import mk_field

# every field of the acceptance suite's A1 grid: p <= 31, p^m <= 5000
A1_MODULI = {
    (2, 1): (),
    (2, 2): (1, 1),
    (2, 3): (1, 1),
    (2, 4): (1, 1),
    (2, 5): (1, 0, 1),
    (2, 6): (1, 1),
    (2, 7): (1, 1),
    (2, 8): (1, 1, 0, 1, 1),
    (2, 9): (1, 1),
    (2, 10): (1, 0, 0, 1),
    (2, 11): (1, 0, 1),
    (2, 12): (1, 0, 0, 1),
    (3, 1): (),
    (3, 2): (1,),
    (3, 3): (1, 2),
    (3, 4): (2, 1),
    (3, 5): (1, 2),
    (3, 6): (2, 1),
    (3, 7): (2, 0, 1),
    (5, 1): (),
    (5, 2): (2,),
    (5, 3): (1, 1),
    (5, 4): (2,),
    (5, 5): (1, 4),
    (7, 1): (),
    (7, 2): (1,),
    (7, 3): (2,),
    (7, 4): (1, 1),
    (11, 1): (),
    (11, 2): (1,),
    (11, 3): (4, 1),
    (13, 1): (),
    (13, 2): (2,),
    (13, 3): (2,),
    (17, 1): (),
    (17, 2): (3,),
    (17, 3): (3, 1),
    (19, 1): (),
    (19, 2): (1,),
    (23, 1): (),
    (23, 2): (1,),
    (29, 1): (),
    (29, 2): (2,),
    (31, 1): (),
    (31, 2): (1,),
}

# every field the benchmark's cli_oneshot workload builds
CLI_MODULI = {
    (2, 53): (1, 1, 1, 0, 0, 0, 1),
    (2, 59): (1, 1, 0, 1, 1, 1, 1),
    (2, 61): (1, 1, 1, 0, 0, 1),
    (2, 67): (1, 1, 1, 0, 0, 1),
    (2, 89): (1, 0, 0, 1, 0, 1, 1),
    (2, 97): (1, 0, 0, 0, 0, 0, 1),
    (2, 127): (1, 1),
    (3, 37): (2, 2, 1, 1),
    (3, 41): (1, 2),
    (3, 43): (1, 1, 0, 1),
    (3, 59): (2, 2, 1, 1),
    (3, 61): (2, 2, 1, 1),
    (3, 67): (2, 0, 1),
    (3, 97): (2, 2, 1, 2),
    (3, 101): (2, 0, 1, 2, 1),
    (5, 37): (2, 3, 1),
    (5, 41): (1, 0, 0, 1),
    (5, 43): (1, 2),
    (5, 61): (3, 2, 1),
    (7, 29): (1, 3),
    (7, 31): (6, 0, 1),
    (7, 41): (6, 0, 1, 1),
    (7, 43): (6, 2, 1),
    (7, 53): (1, 3),
    (11, 23): (9, 2, 1),
    (11, 31): (7, 4, 1),
    (11, 41): (4, 0, 0, 1),
    (13, 19): (1, 4),
    (13, 29): (12, 7, 1),
    (13, 31): (5, 0, 1),
    (17, 21): (1, 0, 1),
    (17, 23): (13, 7, 1),
    (19, 21): (5, 1),
    (19, 23): (5, 2, 1),
    (23, 17): (3, 5),
    (23, 19): (5, 5),
    (29, 21): (1, 0, 1),
    (29, 23): (6, 2),
    (31, 21): (3, 4),
    (37, 19): (4, 0, 1),
    (41, 17): (2, 4),
}


@pytest.mark.parametrize("pm, low", sorted({**A1_MODULI, **CLI_MODULI}.items()),
                         ids=lambda v: ",".join(map(str, v)))
def test_canonical_modulus_golden(pm, low):
    p, m = pm
    assert mk_field(p, m).modulus == low + (0,) * (m - len(low)) + (1,)


# the slowest builds of ROADMAP's Baseline, each with a time budget:
# (2, 521) took 14-15 s with one gcd per Ben-Or step, and Rabin's test
# had not finished it after 10 minutes
SLOW_BUILDS = {
    (3, 163): ((1, 0, 1, 2, 1, 1), 5),
    (5, 101): ((4, 0, 0, 0, 1), 5),
    (2, 521): ((1, 1, 0, 1, 0, 1, 1, 0, 0, 1), 10),
}


@pytest.mark.parametrize("pm", sorted(SLOW_BUILDS),
                         ids=lambda v: ",".join(map(str, v)))
def test_slow_build_golden_within_budget(pm):
    (p, m), (low, budget) = pm, SLOW_BUILDS[pm]
    start = time.monotonic()
    fld = mk_field(p, m)
    assert time.monotonic() - start < budget
    assert fld.modulus == low + (0,) * (m - len(low)) + (1,)
