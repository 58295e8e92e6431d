"""Brute-force ground truth for small fields.

Everything here enumerates the whole field, so it is only usable up to
2^20 elements; that is the point.  Tests compare the clever paths
against these answers.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .field import Field


ENUMERATION_BOUND = 1 << 20


class FieldTooLarge(ValueError):
    """Exhaustive enumeration is capped at 2^20 elements."""


class OracleReport(namedtuple("OracleReport",
                              "all_roots residue_count group_order")):
    """Every r-th root of one delta, found the honest way."""

    __slots__ = ()


def brute_root(fld: Field, delta, r: int) -> OracleReport:
    """Every gamma with gamma^r = delta, read off the full root table."""
    table = root_table(fld, r)
    residues = table.keys() - {fld.zero()}
    return OracleReport(frozenset(table.get(delta, ())), len(residues),
                        fld.order_minus_one)


def root_table(fld: Field, r: int) -> dict:
    """All roots of every delta at once: one enumeration pass instead of
    p^m of them.  Returns {delta: [gamma, ...]} with every list sorted in
    base-p counting order."""
    if fld.order_minus_one + 1 > ENUMERATION_BOUND:
        raise FieldTooLarge(
            f"field has {fld.order_minus_one + 1} elements, oracle cap is 2^20")
    table: dict = {}
    for gamma in fld.elements():
        table.setdefault(fld.pow(gamma, r), []).append(gamma)
    return table


def residue_count_formula(fld: Field, r: int) -> int:
    """Number of nonzero r-th powers, counted without enumerating."""
    return fld.order_minus_one // gcd(r, fld.order_minus_one)
