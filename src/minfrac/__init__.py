"""Minimal fractional representations of residues modulo M.

A fraction n/d represents x mod M when x*d is congruent to n (mod M).  This
package computes minimal such representations by mediant descent, exposes a
brute-force oracle for cross-checking, and ships a sweep harness plus a CLI
(`minfrac`) on top of both.
"""

from .descent import DescentTrace, descent_runs, descent_steps, run_descent
from .errors import CeilingExceeded, InvariantError
from .harness import (
    CHECK_NAMES,
    Anomaly,
    Counterexample,
    SweepConfig,
    VerificationReport,
    check_agreement,
    check_determinant,
    check_minimality,
    check_progress,
    check_sqrt_bound,
    run_checks,
)
from .minimality import (
    MinimalityVerdict,
    criterion_key,
    is_minimal_in_class,
    is_minimal_pair,
    minimum_fraction,
    minimum_table,
    sqrt_bound_witness,
)
from .oracle import (
    CEILING_ENV_VAR,
    DEFAULT_ENUMERATION_CEILING,
    DEFAULT_PAIR_CHECK_CEILING,
    brute_minimum,
    brute_pair_minimal,
    brute_prefix_minima,
    enumerate_class,
)
from .residues import (
    Fraction,
    FractionPair,
    Residue,
    ResidueClass,
    check_modulus,
    mediant,
    neg_residue,
    parse_fraction,
    pos_residue,
    represents,
    residue_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "Anomaly",
    "CEILING_ENV_VAR",
    "CHECK_NAMES",
    "CeilingExceeded",
    "Counterexample",
    "DEFAULT_ENUMERATION_CEILING",
    "DEFAULT_PAIR_CHECK_CEILING",
    "DescentTrace",
    "Fraction",
    "FractionPair",
    "InvariantError",
    "MinimalityVerdict",
    "Residue",
    "ResidueClass",
    "SweepConfig",
    "VerificationReport",
    "brute_minimum",
    "brute_pair_minimal",
    "brute_prefix_minima",
    "check_agreement",
    "check_determinant",
    "check_minimality",
    "check_modulus",
    "check_progress",
    "check_sqrt_bound",
    "criterion_key",
    "descent_runs",
    "descent_steps",
    "enumerate_class",
    "is_minimal_in_class",
    "is_minimal_pair",
    "mediant",
    "minimum_fraction",
    "minimum_table",
    "neg_residue",
    "parse_fraction",
    "pos_residue",
    "represents",
    "residue_fraction",
    "run_checks",
    "run_descent",
    "sqrt_bound_witness",
]
