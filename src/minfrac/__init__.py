"""Minimal fractional representations of residues modulo M.

A fraction n/d represents x mod M when x*d is congruent to n (mod M).  This
package computes minimal such representations by mediant descent, exposes a
brute-force oracle for cross-checking, and ships a sweep harness plus a CLI
(`minfrac`) on top of both.

Public names are resolved on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "check_names": ("CHECK_NAMES",),
    "descent": ("descent_runs", "descent_steps", "run_descent"),
    "errors": (
        "CEILING_ENV_VAR", "DEFAULT_ENUMERATION_CEILING", "DEFAULT_PAIR_CHECK_CEILING",
        "CeilingExceeded", "InvariantError",
    ),
    "harness": (
        "Anomaly", "Counterexample", "SweepConfig", "VerificationReport", "run_checks",
    ),
    "minimality": (
        "is_minimal_pair", "minimum_fraction", "minimum_table", "sqrt_bound_witness",
    ),
    "oracle": ("brute_minimum", "brute_pair_minimal", "enumerate_class"),
    "residues": (
        "Fraction", "Residue", "ResidueClass", "check_modulus", "represents",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `python -X importtime`.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
