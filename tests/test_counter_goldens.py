"""Pinned operation counts for rth_root on large and small fields.

Each entry fixes (status, path_tag, mults, squarings, frobenius,
inversions) for one input.  The exponents are functions of (p, m, r)
alone and the inputs are seeded, so the tallies repeat exactly; a
refactor of the exponent layer must leave every one of them in place.

Moved on purpose twice.  The nine auto, single-stage residue entries fell
by one r-th power, (popcount(r) - 1, bitlen(r) - 1), when rth_root
stopped re-verifying the root its one stage had verified already.  The
seeded residue of (7, 1, 2, "auto") is zero, which every stage now
returns with no ops: (0, 1) fell to (0, 0) when the verification of 0^2
went away.

Moved on purpose a third time.  The two F_{5^61}, r = 2 auto entries
took the norm descent (4 | 5 - 1 and 61 is odd): one power delta^v
through one Frobenius split, h^2 and AMM on the norm in F_5, whose
products count too.  The residue fell from (30, 5, 372) to (11, 6, 97)
and the non-residue rose from (9, 1, 138) to (9, 3, 97), by h^2 and the
residue test in F_5.  F_{19^21}, r = 3 (3 | 21) keeps AMM in F_{19^21}.

Moved on purpose a fourth time.  phi_map walks the factor method's
addition chain on the term count instead of binary doubling, shifting by
the smaller addend, and apply_periodic reads delta^a and delta^b off one
chain of squarings; the 13 entries below moved, as
(mults, squarings, frobenius) old -> new, and no status, path or root did:
    (2, 127, 3) residue          (12, 3, 342) -> (10, 3, 124)
    (2, 127, 6) residue          (13, 5, 468) -> (11, 5, 250)
    (3, 61, 2) residue           (9, 3, 96) -> (8, 3, 58)
    (3, 61, 2) non-residue       (9, 3, 96) -> (8, 3, 58)
    (3, 61, 5) residue           (9, 8, 132) -> (8, 8, 56)
    (3, 61, 30) residue          (21, 15, 288) -> (19, 15, 174)
    (3, 61, 30) non-residue      (9, 3, 156) -> (8, 3, 118)
    (5, 61, 2) residue           (11, 6, 97) -> (10, 6, 59)
    (5, 61, 2) non-residue       (9, 3, 97) -> (8, 3, 59)
    (7, 5, 2) periodic residue   (4, 8, 2) -> (4, 7, 2)
    (7, 5, 2) periodic non-res.  (4, 8, 2) -> (4, 7, 2)
    (19, 21, 3) residue          (46, 68, 87) -> (46, 62, 47)
    (19, 21, 3) non-residue      (7, 2, 42) -> (7, 2, 20)
The chains for 30, 61 and 63 terms take 6, 8 and 8 steps against
binary's 7, 9 and 10.  delta^a and delta^b share bitlen(min(a, b)) - 1
squarings: 1 on (7, 5, 2), where a = 2 and b = 84, and 6 on F_{19^21}'s
head.  test_frobpow derives the single-stage entries from the head
record's closed form.

Moved on purpose a fifth time.  An auto AMM stage with t >= 2 raises one
power z = delta^{floor(s/r)} and reads delta^alpha = z^c * delta^u and
delta^s = z^r * delta^rho0 off it where that prices lower (AmmContext);
on F_{19^21}, r = 3, z goes through the cofactor's split, and the head
and cofactor fall from 81 products to 36.  One entry moved, as
(mults, squarings, frobenius) old -> new; no status, path, root or
non-residue entry did:
    (19, 21, 3) residue          (46, 62, 47) -> (40, 23, 37)
"""

import random

import pytest

from rootfield import RNotDividingOrder, find_nonresidue, mk_field, rth_root

# (p, m, r, path, delta): delta is "residue" for a constructed r-th
# power, or a prime ell for a seeded non-ell-th-residue
GOLDENS = [
    ((2, 127, 3, "auto", "residue"),
     ("root_found", "coprime_fast", 10, 3, 124, 0)),
    ((2, 127, 6, "auto", "residue"),
     ("root_found", "composite_chain", 11, 5, 250, 0)),
    ((3, 61, 2, "auto", "residue"),
     ("root_found", "ramified_fast", 8, 3, 58, 0)),
    ((3, 61, 2, "auto", 2),
     ("non_residue", "ramified_fast", 8, 3, 58, 0)),
    ((3, 61, 5, "auto", "residue"),
     ("root_found", "coprime_fast", 8, 8, 56, 0)),
    ((3, 61, 30, "auto", "residue"),
     ("root_found", "composite_chain", 19, 15, 174, 0)),
    ((3, 61, 30, "auto", 2),
     ("non_residue", "composite_chain", 8, 3, 118, 0)),
    ((2, 59, 179951, "auto", "residue"),
     ("root_found", "naive_fallback", 30, 57, 0, 0)),
    ((2, 59, 179951, "auto", 179951),
     ("non_residue", "naive_fallback", 30, 57, 0, 0)),
    ((7, 1, 2, "auto", "residue"),
     ("root_found", "naive_fallback", 0, 0, 0, 0)),
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
     ("root_found", "ramified_fast", 4, 7, 2, 0)),
    ((7, 5, 2, "periodic", 2),
     ("non_residue", "ramified_fast", 4, 7, 2, 0)),
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
    # auto amm with r^2 | N: F_{5^61} descends to F_5 through the norm;
    # F_{19^21}, r = 3 | m, runs AMM with its long powers through
    # Frobenius maps
    ((5, 61, 2, "auto", "residue"),
     ("root_found", "amm", 10, 6, 59, 0)),
    ((5, 61, 2, "auto", 2),
     ("non_residue", "amm", 8, 3, 59, 0)),
    ((19, 21, 3, "auto", "residue"),
     ("root_found", "amm", 40, 23, 37, 0)),
    ((19, 21, 3, "auto", 3),
     ("non_residue", "amm", 7, 2, 20, 0)),
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
