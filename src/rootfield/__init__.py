"""r-th roots in F_{p^m} with periodic-exponent fast paths.

The library splits into field arithmetic with operation counting
(field), the one periodic split of the inverted exponent (periodic),
the Frobenius-assisted geometric powering map (frobpow), root
extraction by one algorithm on one plan per (field, r), kept on the
field (roots), a brute-force oracle for small fields (oracle), a
counter-collecting sweep harness (bench) and a CLI (cli).
"""

from .field import (DegreeMismatch, Field, NotPrime, OpCounter,
                    ReducibleModulus, ZeroInverse, format_elem, format_field,
                    is_prime, mk_field, parse_elem, parse_field)
from .frobpow import apply_periodic, phi_map
from .oracle import (FieldTooLarge, OracleReport, brute_root,
                     residue_count_formula, root_table)
from .periodic import (BaseQDecomposition, ConditionsUnmet,
                       FactorizationTooHard, NotCoprime, NotCoprimeCase,
                       NotRamifiedCase, PeriodicExponent, PeriodTooLong,
                       decompose_base_q, decompose_coprime,
                       decompose_ramified, mult_order)
from .roots import (AmmContext, NoNonResidueFound, NoSingleExponent,
                    RNotDividingOrder, RootOutcome, RTooSmall, ZeroElement,
                    amm_root, build_amm_context, find_nonresidue,
                    is_rth_residue, rth_root)

__all__ = [
    "AmmContext", "BaseQDecomposition", "ConditionsUnmet",
    "DegreeMismatch", "FactorizationTooHard", "Field", "FieldTooLarge",
    "NoNonResidueFound", "NoSingleExponent", "NotCoprime", "NotCoprimeCase",
    "NotPrime", "NotRamifiedCase", "OpCounter", "OracleReport",
    "PeriodTooLong", "PeriodicExponent", "RNotDividingOrder",
    "ReducibleModulus", "RootOutcome", "RTooSmall", "ZeroElement",
    "ZeroInverse", "amm_root", "apply_periodic", "brute_root",
    "build_amm_context", "decompose_base_q", "decompose_coprime",
    "decompose_ramified", "find_nonresidue", "format_elem", "format_field",
    "is_prime", "is_rth_residue", "mk_field", "mult_order", "parse_elem",
    "parse_field", "phi_map", "residue_count_formula", "root_table",
    "rth_root",
]

__version__ = "0.1.0"
