"""Pinned operation counts for rth_root on large and small fields.

Each entry fixes (status, path_tag, mults, squarings, frobenius,
inversions) for one input.  The exponents are functions of (p, m, r)
alone and the inputs are seeded, so the tallies repeat exactly; a
refactor of the exponent layer must leave every one of them in place.

Moved on purpose once: the nine auto, single-stage residue entries fell
by one r-th power, (popcount(r) - 1, bitlen(r) - 1), when rth_root
stopped re-verifying the root its one stage had verified already.
"""

import random

import pytest

from rootfield import RNotDividingOrder, find_nonresidue, mk_field, rth_root

# (p, m, r, path, delta): delta is "residue" for a constructed r-th
# power, or a prime ell for a seeded non-ell-th-residue
GOLDENS = [
    ((2, 127, 3, "auto", "residue"),
     ("root_found", "coprime_fast", 12, 3, 342, 0)),
    ((2, 127, 6, "auto", "residue"),
     ("root_found", "composite_chain", 13, 5, 468, 0)),
    ((3, 61, 2, "auto", "residue"),
     ("root_found", "ramified_fast", 9, 3, 96, 0)),
    ((3, 61, 2, "auto", 2),
     ("non_residue", "ramified_fast", 9, 3, 96, 0)),
    ((3, 61, 5, "auto", "residue"),
     ("root_found", "coprime_fast", 9, 8, 132, 0)),
    ((3, 61, 30, "auto", "residue"),
     ("root_found", "composite_chain", 21, 15, 288, 0)),
    ((3, 61, 30, "auto", 2),
     ("non_residue", "composite_chain", 9, 3, 156, 0)),
    ((2, 59, 179951, "auto", "residue"),
     ("root_found", "naive_fallback", 30, 57, 0, 0)),
    ((2, 59, 179951, "auto", 179951),
     ("non_residue", "naive_fallback", 30, 57, 0, 0)),
    ((7, 1, 2, "auto", "residue"),
     ("root_found", "naive_fallback", 0, 1, 0, 0)),
    ((7, 1, 2, "auto", 2),
     ("non_residue", "naive_fallback", 0, 2, 0, 0)),
    ((13, 1, 5, "auto", "residue"),
     ("root_found", "naive_fallback", 2, 4, 0, 0)),
    ((13, 1, 2, "auto", "residue"),
     ("root_found", "amm", 3, 5, 0, 0)),
    ((13, 1, 2, "auto", 2),
     ("non_residue", "amm", 1, 2, 0, 0)),
    ((3, 9, 5, "periodic", "residue"),
     ("root_found", "coprime_fast", 4, 8, 4, 0)),
    ((7, 5, 2, "periodic", "residue"),
     ("root_found", "ramified_fast", 4, 8, 2, 0)),
    ((7, 5, 2, "periodic", 2),
     ("non_residue", "ramified_fast", 4, 8, 2, 0)),
    ((3, 9, 5, "naive", "residue"),
     ("root_found", "naive_fallback", 7, 14, 0, 0)),
    ((7, 5, 2, "naive", "residue"),
     ("root_found", "naive_fallback", 4, 13, 0, 0)),
    ((7, 5, 2, "naive", 2),
     ("non_residue", "naive_fallback", 4, 13, 0, 0)),
    ((7, 5, 2, "amm", "residue"),
     ("root_found", "amm", 9, 26, 0, 0)),
    ((7, 5, 2, "amm", 2),
     ("non_residue", "amm", 5, 13, 0, 0)),
    # auto amm with r^2 | N and m past the period of alpha's split: the
    # long powers run through Frobenius maps
    ((5, 61, 2, "auto", "residue"),
     ("root_found", "amm", 30, 5, 372, 0)),
    ((5, 61, 2, "auto", 2),
     ("non_residue", "amm", 9, 1, 138, 0)),
    ((19, 21, 3, "auto", "residue"),
     ("root_found", "amm", 46, 68, 87, 0)),
    ((19, 21, 3, "auto", 3),
     ("non_residue", "amm", 7, 2, 42, 0)),
]

_FIELDS = {}


def field(p, m):
    if (p, m) not in _FIELDS:
        _FIELDS[(p, m)] = mk_field(p, m)
    return _FIELDS[(p, m)]


def make_delta(fld, r, delta):
    if delta == "residue":
        rng = random.Random(f"{fld.p}^{fld.m}/{r}")
        return fld.pow(fld.random_elem(rng), r)
    return find_nonresidue(fld, delta)


@pytest.mark.parametrize("case,expected", GOLDENS,
                         ids=["-".join(map(str, c)) for c, _ in GOLDENS])
def test_counter_golden(case, expected):
    p, m, r, path, delta = case
    fld = field(p, m)
    out = rth_root(fld, make_delta(fld, r, delta), r, path=path)
    c = out.counters
    assert (out.status, out.path_tag, c.mults, c.squarings, c.frobenius,
            c.inversions) == expected
    if out.status == "root_found":
        assert out.verification


def test_forced_amm_needs_a_divisor():
    # 5 does not divide 3^9 - 1, so there is no unity table to build
    fld = field(3, 9)
    with pytest.raises(RNotDividingOrder):
        rth_root(fld, make_delta(fld, 5, "residue"), 5, path="amm")
