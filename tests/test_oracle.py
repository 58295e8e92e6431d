import pytest

from rootfield import (FieldTooLarge, OracleReport, brute_root, mk_field,
                       residue_count_formula, root_table)


def test_brute_cube_roots_f7(f7):
    # cubes of 1..6 are 1, 1, 6, 1, 6, 6
    rep = brute_root(f7, (6,), 3)
    assert rep.all_roots == frozenset({(3,), (5,), (6,)})
    assert rep.residue_count == 2
    assert rep.group_order == 6


def test_brute_non_residue_f7(f7):
    rep = brute_root(f7, (2,), 3)
    assert rep.all_roots == frozenset()


def test_brute_zero_f7(f7):
    rep = brute_root(f7, (0,), 3)
    assert rep.all_roots == frozenset({(0,)})


def test_root_count_is_zero_or_gcd(f13):
    # nonzero deltas have either no r-th roots or exactly gcd(r, N)
    for r in range(2, 9):
        table = root_table(f13, r)
        for delta, roots in table.items():
            if delta == (0,):
                assert roots == [(0,)]
            else:
                assert len(roots) in (0, 12 // residue_count_formula(f13, r))


def test_enumerate_residues_f13(f13):
    squares = root_table(f13, 2).keys() - {(0,)}
    assert squares == {(1,), (3,), (4,), (9,), (10,), (12,)}
    for r in range(2, 14):
        assert (brute_root(f13, (1,), r).residue_count
                == residue_count_formula(f13, r))


def test_residue_count_formula_extension(f9):
    assert residue_count_formula(f9, 2) == 4
    assert residue_count_formula(f9, 3) == 8  # gcd(3, 8) = 1, bijection


def test_root_table_agrees_with_brute(f9):
    table = root_table(f9, 2)
    for delta, roots in table.items():
        assert brute_root(f9, delta, 2).all_roots == frozenset(roots)
    # deltas absent from the table have no roots at all
    misses = [f9.elem_from_index(i) for i in range(9)
              if f9.elem_from_index(i) not in table]
    assert len(misses) == 4
    for delta in misses:
        assert brute_root(f9, delta, 2).all_roots == frozenset()


def test_root_table_lists_sorted(f13):
    for roots in root_table(f13, 4).values():
        assert roots == sorted(roots, key=f13.elem_index)


def test_oracle_report_hashable(f7):
    assert isinstance(hash(brute_root(f7, (1,), 2)), int)
    assert isinstance(brute_root(f7, (1,), 2), OracleReport)


def test_size_cap():
    big = mk_field(2, 21)
    with pytest.raises(FieldTooLarge):
        brute_root(big, big.one(), 3)
    with pytest.raises(FieldTooLarge):
        root_table(big, 3)
