"""Tests for per-class/pair minimality and the minimum-fraction criterion."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minfrac.descent import run_descent
from minfrac.harness import _step_minimum, _step_witness
from minfrac.minimality import (
    criterion_key,
    is_minimal_in_class,
    is_minimal_pair,
    minimum_fraction,
    minimum_table,
    sqrt_bound_witness,
)
from minfrac.oracle import brute_minimum
from minfrac.residues import Fraction, FractionPair, Residue, represents

# Minimum fractions for x = 1..16 mod 17, frozen.
MIN_TABLE_17 = [
    Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1),
    Fraction(-2, 3), Fraction(1, 3), Fraction(-3, 2), Fraction(-1, 2),
    Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), Fraction(2, 3),
    Fraction(-4, 1), Fraction(-3, 1), Fraction(-2, 1), Fraction(-1, 1),
]


def test_criterion_prefers_smaller_max_coefficient():
    # 12 mod 17: 2/3 (max 3) beats -3/4 (max 4)
    assert criterion_key(Fraction(2, 3)) < criterion_key(Fraction(-3, 4))
    assert criterion_key(Fraction(2, 3))[0] == 3
    assert criterion_key(Fraction(-3, 4))[0] == 4


def test_criterion_tie_breaks():
    # equal max coefficient: the smaller denominator wins
    assert criterion_key(Fraction(-3, 1)) < criterion_key(Fraction(1, 3))
    # equal max and denominator: the positive class wins
    assert criterion_key(Fraction(2, 4)) < criterion_key(Fraction(-2, 4))


def test_minimum_fraction_examples():
    assert minimum_fraction(Residue(12, 17)) == Fraction(2, 3)
    assert minimum_fraction(Residue(7, 17)) == Fraction(-3, 2)
    assert minimum_fraction(Residue(1, 17)) == Fraction(1, 1)
    assert minimum_fraction(Residue(0, 17)) == Fraction(0, 1)


def test_minimum_table_mod_17():
    assert [minimum_fraction(Residue(x, 17)) for x in range(1, 17)] == MIN_TABLE_17
    assert minimum_table(17) == MIN_TABLE_17


def test_minimum_table_matches_per_residue_minimum():
    # 1024, 2310, 4096, 9984 and 10080 share many factors with small
    # denominators, so the sieve's gcd(d, M) > 1 branch and its g | n skip
    # carry much of the table.
    for m in [*range(2, 301), 1024, 2310, 4096, 9984, 10080]:
        assert minimum_table(m) == [minimum_fraction(Residue(x, m)) for x in range(1, m)], m


def test_minimum_table_rejects_bad_moduli():
    with pytest.raises(ValueError):
        minimum_table(1)


def test_is_minimal_in_class():
    r = Residue(7, 17)
    assert is_minimal_in_class(Fraction(4, 3), r)
    assert is_minimal_in_class(Fraction(-3, 2), r)
    # 11/4 is beaten already at d=1, where the residue is 7
    verdict = is_minimal_in_class(Fraction(11, 4), r)
    assert not verdict
    assert verdict.witness_d == 1


def test_is_minimal_in_class_rejects_bad_inputs():
    r = Residue(7, 17)
    with pytest.raises(ValueError):
        is_minimal_in_class(Fraction(5, 3), r)  # not a representation


def test_is_minimal_pair_holds_on_trace_pairs():
    r = Residue(7, 17)
    for p in run_descent(r).pairs:
        assert is_minimal_pair(p, r)


def test_is_minimal_pair_counterexample():
    # -6/4 pairs with 4/3 for 7 mod 17, but d=2 already gives magnitude
    # 3 < 6+4, so the pair is not minimal
    r = Residue(7, 17)
    p = FractionPair(neg=Fraction(-6, 4), pos=Fraction(4, 3))
    verdict = is_minimal_pair(p, r)
    assert not verdict
    assert verdict.witness_d == 2


def test_is_minimal_pair_rejects_non_representations():
    with pytest.raises(ValueError):
        is_minimal_pair(FractionPair(neg=Fraction(-1, 2), pos=Fraction(4, 3)), Residue(7, 17))


def test_verdict_is_truthy():
    r = Residue(7, 17)
    assert bool(is_minimal_in_class(Fraction(4, 3), r)) is True
    assert is_minimal_in_class(Fraction(4, 3), r).witness_d is None


def test_sqrt_bound_witness_examples():
    w = sqrt_bound_witness(Residue(12, 17))
    assert w in (Fraction(-3, 4), Fraction(2, 3))
    assert sqrt_bound_witness(Residue(2, 4)) == Fraction(2, 1)  # 2*2 <= 4 just barely
    assert sqrt_bound_witness(Residue(0, 17)) == Fraction(0, 1)


def test_sqrt_bound_witness_small_moduli_exhaustive():
    for m in range(2, 121):
        for x in range(m):
            r = Residue(x, m)
            w = sqrt_bound_witness(r)
            assert w.n * w.n <= m
            assert w.d * w.d <= m
            assert represents(r, w)


def test_trace_fractions_are_class_minimal():
    # pair minimality of every trace pair implies per-class minimality of
    # each component
    for m in (2, 3, 17, 60, 97):
        for x in range(m):
            r = Residue(x, m)
            for p in run_descent(r).pairs:
                assert is_minimal_in_class(p.neg, r)
                assert is_minimal_in_class(p.pos, r)


@given(st.data())
@settings(deadline=None)
def test_minimum_agrees_with_exhaustive_enumeration(data):
    m = data.draw(st.integers(2, 400))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    f = minimum_fraction(r)
    assert f == brute_minimum(r)
    assert represents(r, f)
    assert f.d >= 1


@given(st.data())
@settings(deadline=None)
def test_minimum_beats_every_enumerated_candidate(data):
    m = data.draw(st.integers(2, 200))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    key = criterion_key(minimum_fraction(r))
    for d in range(1, m + 1):
        pos = Fraction((x * d) % m, d)
        assert key <= criterion_key(pos)
        if d < m:
            neg = Fraction((x * d) % m - m, d)
            assert key <= criterion_key(neg)


def _euclid_steps(x, m):
    """Step count of the descent for x mod m: the sum of x/m's partial quotients."""
    steps = 0
    while x:
        q, rem = divmod(m, x)
        steps += q
        m, x = x, rem
    return steps


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_run_length_paths_match_step_scans_up_to_256_bits(data):
    bits = data.draw(st.integers(2, 256))
    m = data.draw(st.integers(2, 2**bits))
    x = data.draw(st.integers(0, m - 1))
    assume(_euclid_steps(x, m) <= 10**5)  # keeps the step scans bounded
    r = Residue(x, m)
    assert minimum_fraction(r) == _step_minimum(r)
    assert sqrt_bound_witness(r) == _step_witness(r)
