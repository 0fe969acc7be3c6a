"""The package namespace: every public name, resolved on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minfrac

# Each public name and the module that defines it.
HOMES = {
    "minfrac.check_names": ["CHECK_NAMES"],
    "minfrac.descent": ["descent_runs", "descent_steps", "run_descent"],
    "minfrac.errors": [
        "CEILING_ENV_VAR", "DEFAULT_ENUMERATION_CEILING", "DEFAULT_PAIR_CHECK_CEILING",
        "CeilingExceeded", "InvariantError",
    ],
    "minfrac.harness": [
        "Anomaly", "Counterexample", "SweepConfig", "VerificationReport", "run_checks",
    ],
    "minfrac.minimality": [
        "is_minimal_pair", "minimum_fraction", "minimum_table", "sqrt_bound_witness",
    ],
    "minfrac.oracle": [
        "brute_minimum", "brute_pair_minimal", "enumerate_class",
    ],
    "minfrac.residues": [
        "Fraction", "Residue", "ResidueClass", "check_modulus", "represents",
    ],
}


def test_every_public_name_is_its_home_modules_object():
    assert len(minfrac.__all__) == 26
    assert sorted(minfrac.__all__) == sorted(name for names in HOMES.values() for name in names)
    for module_name, names in HOMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            value = getattr(minfrac, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module_name) == module_name, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from minfrac import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(minfrac.__all__)
    assert all(namespace[name] is getattr(minfrac, name) for name in minfrac.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        minfrac.no_such_name
    for name in ("Record", "FractionPair", "DescentTrace"):
        assert not hasattr(minfrac, name)
    # Names that only tests ever called are gone from the package.
    for name in ("is_minimal_in_class", "MinimalityVerdict", "mediant", "parse_fraction",
                 "check_minimality", "check_determinant", "check_sqrt_bound", "check_progress",
                 "check_agreement", "pos_residue", "neg_residue", "residue_fraction",
                 "criterion_key", "brute_prefix_scan"):
        with pytest.raises(AttributeError):
            getattr(minfrac, name)
    assert "minimum_fraction" in dir(minfrac)


def test_importing_the_package_loads_no_module_of_it():
    src = str(Path(minfrac.__file__).resolve().parents[1])
    code = "import sys, minfrac; print(sorted(m for m in sys.modules if m.startswith('minfrac.')))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
