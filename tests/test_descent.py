"""Tests for the mediant descent walk and its trace record."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import descent_runs, descent_steps, run_descent
from minfrac.residues import Fraction, FractionPair, Residue, ResidueClass, represents

NEG = ResidueClass.NEGATIVE
POS = ResidueClass.POSITIVE


def _pair(nn, nd, pn, pd):
    return FractionPair(neg=Fraction(nn, nd), pos=Fraction(pn, pd))


# The full walk for 7 mod 17, frozen: every pair plus which side the step
# replaced to produce it.
TRACE_7_MOD_17 = [
    (_pair(-17, 0, 7, 1), None),
    (_pair(-10, 1, 7, 1), NEG),
    (_pair(-3, 2, 7, 1), NEG),
    (_pair(-3, 2, 4, 3), POS),
    (_pair(-3, 2, 1, 5), POS),
    (_pair(-2, 7, 1, 5), NEG),
    (_pair(-1, 12, 1, 5), NEG),
    (_pair(-1, 12, 0, 17), POS),
]


def test_run_descent_reproduces_frozen_trace():
    t = run_descent(Residue(7, 17))
    assert list(t.pairs) == [p for p, _ in TRACE_7_MOD_17]
    assert list(t.replaced) == [rep for _, rep in TRACE_7_MOD_17]
    assert len(t) == 8
    assert t.pairs[-1] == _pair(-1, 12, 0, 17)
    assert [p.pos.n * p.neg.d - p.neg.n * p.pos.d for p in t.pairs] == [17] * 8


def test_descent_steps_matches_object_level_trace():
    raw = list(descent_steps(7, 17))
    assert raw == [(p.neg.n, p.neg.d, p.pos.n, p.pos.d, rep) for p, rep in TRACE_7_MOD_17]


def test_descent_steps_rejects_out_of_range_residue():
    with pytest.raises(ValueError):
        list(descent_steps(17, 17))
    with pytest.raises(ValueError):
        list(descent_steps(-1, 17))


def _expand_runs(x, m):
    """Replay descent_runs step by step, in descent_steps' tuple format."""
    steps = [(-m, 0, x, 1, None)]
    for an, ad, bn, bd, side, k in descent_runs(x, m):
        assert k >= 1
        nn, nd, pn, pd = steps[-1][:4]
        # The replaced side first, numerators as magnitudes.
        assert (an, ad, bn, bd) == ((-nn, nd, pn, pd) if side is NEG else (pn, pd, -nn, nd))
        for j in range(1, k + 1):
            if side is NEG:
                steps.append((-(an - j * bn), ad + j * bd, pn, pd, side))
            else:
                steps.append((nn, nd, an - j * bn, ad + j * bd, side))
    return steps


def test_descent_runs_groups_the_frozen_trace():
    # 7 mod 17 replaces neg, neg, pos, pos, neg, neg, pos
    assert list(descent_runs(7, 17)) == [
        (17, 0, 7, 1, NEG, 2),
        (7, 1, 3, 2, POS, 2),
        (3, 2, 1, 5, NEG, 2),
        (1, 5, 1, 12, POS, 1),
    ]
    assert list(descent_runs(0, 17)) == []
    assert list(descent_runs(5, 10))[-1] == (5, 1, 5, 1, POS, 1)  # tie: positive side


def test_descent_runs_expand_to_the_step_walk():
    for m in range(2, 130):
        for x in range(m):
            assert _expand_runs(x, m) == list(descent_steps(x, m)), (x, m)


def test_descent_runs_rejects_out_of_range_residue():
    with pytest.raises(ValueError):
        list(descent_runs(17, 17))
    with pytest.raises(ValueError):
        list(descent_runs(-1, 17))


def test_zero_residue_is_immediately_terminal():
    t = run_descent(Residue(0, 17))
    assert list(t.pairs) == [_pair(-17, 0, 0, 1)]
    assert list(t.replaced) == [None]


def test_smallest_modulus_trace():
    t = run_descent(Residue(1, 2))
    assert list(t.pairs) == [_pair(-2, 0, 1, 1), _pair(-1, 1, 1, 1), _pair(-1, 1, 0, 2)]
    assert list(t.replaced) == [None, NEG, POS]


def test_tie_replaces_the_positive_side():
    # 5 mod 10 reaches (-5/1, 5/1); the tied step must zero the positive slot
    t = run_descent(Residue(5, 10))
    assert list(t.pairs) == [_pair(-10, 0, 5, 1), _pair(-5, 1, 5, 1), _pair(-5, 1, 0, 2)]
    assert t.replaced[-1] is POS


@given(st.data())
@settings(deadline=None)
def test_descent_invariants(data):
    m = data.draw(st.integers(2, 5000))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    t = run_descent(r)
    assert t.pairs[0] == FractionPair(Fraction(-m, 0), Fraction(x, 1))
    assert t.replaced[0] is None
    assert t.pairs[-1].pos.n == 0
    assert [p.pos.n * p.neg.d - p.neg.n * p.pos.d for p in t.pairs] == [m] * len(t)
    for p in t.pairs:
        assert represents(r, p.neg)
        assert represents(r, p.pos)
    # strict progress: the numerator-magnitude sum shrinks every step
    sums = [-p.neg.n + p.pos.n for p in t.pairs]
    assert all(a > b for a, b in zip(sums, sums[1:]))


@given(st.data())
@settings(deadline=None)
def test_each_step_replaces_the_larger_numerator_with_the_mediant(data):
    m = data.draw(st.integers(2, 500))
    x = data.draw(st.integers(0, m - 1))
    t = run_descent(Residue(x, m))
    for prev, new, rep in zip(t.pairs, t.pairs[1:], t.replaced[1:]):
        med = Fraction(prev.neg.n + prev.pos.n, prev.neg.d + prev.pos.d)
        if -prev.neg.n > prev.pos.n:
            assert rep is NEG
            assert new == FractionPair(neg=med, pos=prev.pos)
        else:  # ties go to the positive slot
            assert rep is POS
            assert new == FractionPair(neg=prev.neg, pos=med)
