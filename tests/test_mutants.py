"""How strong the `verify` checks are: a table of mutants each check must kill.

Each row replaces one name where the sweep looks it up (minfrac.harness or
minfrac.minimality, which bind their helpers at import), runs every check
serially over M in [2, 60] with 8 random pairs per modulus, and names the
check that must report failures, with their count, or the exception that
must end the sweep.  Most mutants are the real function recompiled with
textual edits, so a row fails loudly, rather than testing nothing, once the
text it edits is gone.  Equivalent mutants, which no correct check could
kill on this domain, stay out of the table.
"""

import inspect
from math import isqrt

import pytest

import minfrac.harness as harness
import minfrac.minimality as minimality
from minfrac.descent import descent_runs, descent_steps
from minfrac.errors import CEILING_ENV_VAR
from minfrac.harness import SweepConfig, run_checks


def _edited(function, *edits):
    """function recompiled from its source with each (old, new) edit applied,
    in a copy of its module's globals, so the module itself is untouched."""
    source = inspect.getsource(function)
    for old, new in edits:
        assert old in source, f"{function.__name__} no longer contains {old!r}"
        source = source.replace(old, new)
    namespace = dict(function.__globals__)
    exec(compile(source, inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _dropping_walk(late):
    """descent_steps without the second, fourth, ... pair of each run, but
    still ending at the terminal pair; with late, only where both of the
    pair's denominators exceed isqrt(M)."""

    def walk(x, m):
        s = isqrt(m)
        previous = None
        for step in descent_steps(x, m):
            _, nd, pn, pd, side = step
            j = j + 1 if side is not None and side == previous else 1
            previous = side
            if j % 2 == 0 and pn and (not late or min(nd, pd) > s):
                continue
            yield step

    return walk


# (module, name, mutant factory, killer, failures): killer is the check that
# must report exactly `failures` failures, or the exception the sweep raises.
MUTANTS = [
    pytest.param(
        harness, "descent_steps", lambda: _dropping_walk(late=False), "sqrt_bound", 56,
        id="walk-drops-every-second-pair-of-each-run",
    ),
    pytest.param(
        harness, "descent_steps", lambda: _dropping_walk(late=True), "minimality", None,
        id="walk-drops-every-second-pair-once-past-isqrt",
        marks=pytest.mark.xfail(
            strict=True,
            reason="no check yet holds the walk to the per-class prefix-minimum "
                   "records, so pairs dropped past isqrt(M) go unseen",
        ),
    ),
    pytest.param(
        minimality, "descent_runs",
        lambda: _edited(
            descent_runs,
            ("if nm > pn:", "if nm >= pn:"),
            ("k = (nm - 1) // pn", "k = nm // pn"),
            ("k = pn // nm", "k = (pn - 1) // nm"),
        ),
        ZeroDivisionError, None,
        id="runs-give-ties-to-the-negative-side",
    ),
    pytest.param(
        harness, "minimum_fraction",
        lambda: _edited(minimality.minimum_fraction, ("(c, c + 1)", "(c,)")),
        "agreement", 336,
        id="minimum-fraction-tries-only-j-equal-c",
    ),
    pytest.param(
        harness, "is_minimal_pair",
        lambda: _edited(minimality.is_minimal_pair, (" or neg_d == 0 and pos_d == 1", "")),
        "agreement", 3,
        id="pair-test-without-its-empty-ranges-disjunct",
    ),
    pytest.param(
        harness, "minimum_table",
        lambda: _edited(
            minimality.minimum_table,
            ("(c, -c)", "(-c, c)"),
            ("(*range(c + 1), *range(-1, -c - 1, -1))",
             "(*range(-1, -c - 1, -1), *range(c + 1))"),
        ),
        "agreement", 2,
        id="sieve-gives-ties-to-the-negative-class",
    ),
    # A run's first qualifying mediant is always its last step, so j + 1
    # passes the run's end and the witness comes from a later run, if any.
    pytest.param(
        harness, "sqrt_bound_witness",
        lambda: _edited(minimality.sqrt_bound_witness, ("j = max(1, ", "j = 1 + max(1, ")),
        "sqrt_bound", 1484,
        id="witness-one-step-late-in-its-run",
    ),
]


def _sweep():
    return {r.check: r for r in run_checks(SweepConfig(2, 60, random_pairs_per_m=8))}


def test_the_unmutated_sweep_fails_nothing(monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    assert all(report.ok for report in _sweep().values())


@pytest.mark.parametrize("module, name, mutant, killer, failures", MUTANTS)
def test_each_mutant_is_killed(monkeypatch, module, name, mutant, killer, failures):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    monkeypatch.setattr(module, name, mutant())
    if isinstance(killer, type):
        with pytest.raises(killer):
            _sweep()
    else:
        report = _sweep()[killer]
        assert report.failures if failures is None else report.failures == failures
