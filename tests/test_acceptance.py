"""Acceptance gate: ten end-to-end criteria with pinned expected values.

Each test prints one "criterion NN PASS/FAIL" line (visible with `pytest -s`;
under plain `pytest -v` the per-test PASSED/FAILED listing carries the same
information).  Expected values fall in three groups: worked examples pinned
exactly, exhaustive sweep counts frozen from an initial verified run, and
wall-clock tolerances for the scale smoke test.
"""

import json
import time

from minfrac.cli import main
from minfrac.descent import descent_steps, run_descent
from minfrac.harness import SweepConfig, run_checks
from minfrac.minimality import minimum_fraction, sqrt_bound_witness
from minfrac.oracle import enumerate_class
from minfrac.residues import Fraction, Residue
from test_minimality import criterion_key

POS_LIST_7_17 = (
    "7/1, 14/2, 4/3, 11/4, 1/5, 8/6, 15/7, 5/8, 12/9, 2/10, 9/11, "
    "16/12, 6/13, 13/14, 3/15, 10/16, 0/17"
)
NEG_LIST_7_17 = (
    "-17/0, -10/1, -3/2, -13/3, -6/4, -16/5, -9/6, -2/7, -12/8, -5/9, "
    "-15/10, -8/11, -1/12, -11/13, -4/14, -14/15, -7/16"
)
TRACE_7_17 = "(-17/0, 7/1), (-10/1, 7/1), (-3/2, 7/1), (-3/2, 4/3), (-3/2, 1/5), (-2/7, 1/5), (-1/12, 1/5), (-1/12, 0/17)"
TABLE_17 = "1, 2, 3, 4, -2/3, 1/3, -3/2, -1/2, 1/2, 3/2, -1/3, 2/3, -4, -3, -2, -1"
MAGNITUDE_SUMS_7_17 = [24, 17, 10, 7, 4, 3, 2, 1]

# Frozen pass counts for the exhaustive sweeps (units: trace pairs for
# determinant; residues for sqrt_bound; comparisons for agreement; step
# transitions for progress).
DETERMINANT_PAIRS_2_200 = 397391
SQRT_RESIDUES_2_2000 = 2000999
AGREEMENT_COMPARISONS_2_200 = 417490
PROGRESS_TRANSITIONS_2_500 = 3184926

# 256-bit scale smoke test: the secp256k1 field prime, and for x the first
# 77 decimal digits of pi (an arbitrary fixed value whose descent happens to
# be short; adversarial x near a small-denominator rational of P can need
# ~P steps, which no machine can run).
P256 = 2**256 - 2**32 - 977
X256 = 31415926535897932384626433832795028841971693993751058209749445923078164062862
STEPS_256 = 2457
MIN_256 = Fraction(
    -75622257097465905355031210995094932918,
    36095810821130842525104322795443031189,
)


def _check(name, lo, hi, **config):
    """The report of one check over [lo, hi], as `verify --checks name` makes it."""
    return run_checks(SweepConfig(lo, hi, checks=(name,), **config))[0]


def _verdict(n: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {n:02d} FAIL: {label}")
        raise
    print(f"criterion {n:02d} PASS: {label}")


def test_criterion_01_positive_enumeration():
    def body():
        fractions = enumerate_class(Residue(7, 17), "positive")
        assert ", ".join(f"{n}/{d}" for n, d in fractions) == POS_LIST_7_17

    _verdict(1, "positive-class enumeration of 7 mod 17 matches exactly", body)


def test_criterion_02_negative_enumeration():
    def body():
        fractions = enumerate_class(Residue(7, 17), "negative")
        assert ", ".join(f"{n}/{d}" for n, d in fractions) == NEG_LIST_7_17

    _verdict(2, "negative-class enumeration of 7 mod 17 matches exactly", body)


def test_criterion_03_descent_trace():
    def body():
        trace = run_descent(Residue(7, 17))
        pairs = (f"({nn}/{nd}, {pn}/{pd})" for nn, nd, pn, pd, _ in trace)
        assert ", ".join(pairs) == TRACE_7_17

    _verdict(3, "descent for 7 mod 17 yields the eight pinned pairs in order", body)


def test_criterion_04_minimum_criterion():
    def body():
        r = Residue(12, 17)
        assert minimum_fraction(r) == Fraction(2, 3)
        rival = Fraction(-3, 4)
        assert (r.x * rival.d - rival.n) % r.m == 0  # a genuine competitor...
        assert criterion_key(rival)[0] == 4  # ...but max coefficient 4 > 3
        assert criterion_key(Fraction(2, 3)) < criterion_key(rival)

    _verdict(4, "minimum of 12 mod 17 is 2/3, rejecting -3/4 on max coefficient", body)


def test_criterion_05_minimum_table(capsys):
    def body():
        assert main(["table", "-m", "17"]) == 0
        assert capsys.readouterr().out.strip() == TABLE_17

    _verdict(5, "CLI table for M=17 reproduces the 16-entry minimum table", body)


def test_criterion_06_determinant_sweep():
    def body():
        report = _check("determinant", 2, 200)
        assert report.failures == 0, report.counterexamples[:3]
        assert report.passes == DETERMINANT_PAIRS_2_200
        assert report.duration < 30.0

    _verdict(6, "determinant = M on every trace pair, M in [2, 200], under 30 s", body)


def test_criterion_07_sqrt_bound_sweep():
    def body():
        report = _check("sqrt_bound", 2, 2000)
        assert report.failures == 0, report.counterexamples[:3]
        assert report.passes == SQRT_RESIDUES_2_2000
        assert report.duration < 180.0
        # the bound holds for every x, coprime or not; no fallback needed
        w = sqrt_bound_witness(Residue(12, 17))
        assert w.n * w.n <= 17 and w.d * w.d <= 17

    _verdict(7, "sqrt(M) witness exists for every x, M in [2, 2000], under 3 min", body)


def test_criterion_08_oracle_equivalence():
    def body():
        report = _check("agreement", 2, 200)
        assert report.failures == 0, report.counterexamples[:3]
        assert report.passes == AGREEMENT_COMPARISONS_2_200
        for m in (17, 97, 101):
            sampled = _check("agreement", m, m, random_pairs_per_m=1000, seed=0)
            assert sampled.failures == 0, sampled.counterexamples[:3]
            assert sampled.passes >= 1000

    _verdict(8, "fast paths agree with brute force on [2, 200] and 1000 random pairs "
                "per M in {17, 97, 101}", body)


def test_criterion_09_progress():
    def body():
        report = _check("progress", 2, 500)
        assert report.failures == 0, report.counterexamples[:3]
        assert report.passes == PROGRESS_TRANSITIONS_2_500
        sums = [-nn + pn for nn, _, pn, _, _ in run_descent(Residue(7, 17))]
        assert sums == MAGNITUDE_SUMS_7_17

    _verdict(9, "magnitude sums strictly decrease, M in [2, 500]; 7 mod 17 gives "
                "24, 17, 10, 7, 4, 3, 2, 1", body)


def test_criterion_10_256_bit_smoke(capsys):
    def body():
        start = time.perf_counter()
        steps = 0
        for nn, nd, pn, pd, _ in descent_steps(X256, P256):
            assert pn * nd - nn * pd == P256  # self-check only at this scale
            steps += 1
        assert steps == STEPS_256
        r = Residue(X256, P256)
        assert minimum_fraction(r) == MIN_256
        witness = sqrt_bound_witness(r)
        assert witness.n * witness.n <= P256 and witness.d * witness.d <= P256
        assert main(["repr", "-m", hex(P256), "--x", str(X256)]) == 0
        capsys.readouterr()
        assert main(["trace", "-m", str(P256), "--x", str(X256), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace"]) == STEPS_256
        assert all(s["det"] == P256 for s in payload["trace"])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _verdict(10, "repr and trace at a 256-bit prime finish under 1 s with "
                 "determinant self-checks", body)
