"""Tests for the mediant descent walk and its trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import descent_runs, descent_steps, run_descent
from minfrac.residues import Residue
from test_acceptance import P256, STEPS_256, X256

NEG = "negative"
POS = "positive"


# The full walk for 7 mod 17, frozen: every pair (neg.n, neg.d, pos.n,
# pos.d) plus which side the step replaced to produce it.
TRACE_7_MOD_17 = [
    (-17, 0, 7, 1, None),
    (-10, 1, 7, 1, NEG),
    (-3, 2, 7, 1, NEG),
    (-3, 2, 4, 3, POS),
    (-3, 2, 1, 5, POS),
    (-2, 7, 1, 5, NEG),
    (-1, 12, 1, 5, NEG),
    (-1, 12, 0, 17, POS),
]


def test_run_descent_reproduces_frozen_trace():
    t = run_descent(Residue(7, 17))
    assert t == TRACE_7_MOD_17
    assert len(t) == 8
    assert t[-1] == (-1, 12, 0, 17, POS)
    assert [pn * nd - nn * pd for nn, nd, pn, pd, _ in t] == [17] * 8
    assert len(run_descent(Residue(X256, P256))) == STEPS_256


def test_descent_steps_matches_object_level_trace():
    # run_descent on a Residue and descent_steps on its ints walk the same pairs.
    raw = list(descent_steps(7, 17))
    assert raw == TRACE_7_MOD_17
    assert raw == run_descent(Residue(7, 17))


def test_descent_steps_rejects_out_of_range_residue():
    with pytest.raises(ValueError, match=r"^residue 17 out of range \[0, 17\)$"):
        list(descent_steps(17, 17))
    with pytest.raises(ValueError, match=r"^residue -1 out of range \[0, 17\)$"):
        list(descent_steps(-1, 17))


def _expand_runs(x, m):
    """Replay descent_runs step by step, in descent_steps' tuple format."""
    steps = [(-m, 0, x, 1, None)]
    for an, ad, bn, bd, side, k in descent_runs(x, m):
        assert k >= 1
        nn, nd, pn, pd = steps[-1][:4]
        # The replaced side first, numerators as magnitudes.
        assert (an, ad, bn, bd) == ((-nn, nd, pn, pd) if side == NEG else (pn, pd, -nn, nd))
        for j in range(1, k + 1):
            if side == NEG:
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
    with pytest.raises(ValueError, match=r"^residue 17 out of range \[0, 17\)$"):
        list(descent_runs(17, 17))
    with pytest.raises(ValueError, match=r"^residue -1 out of range \[0, 17\)$"):
        list(descent_runs(-1, 17))


def test_zero_residue_is_immediately_terminal():
    assert run_descent(Residue(0, 17)) == [(-17, 0, 0, 1, None)]


def test_smallest_modulus_trace():
    t = run_descent(Residue(1, 2))
    assert t == [(-2, 0, 1, 1, None), (-1, 1, 1, 1, NEG), (-1, 1, 0, 2, POS)]


def test_tie_replaces_the_positive_side():
    # 5 mod 10 reaches (-5/1, 5/1); the tied step must zero the positive slot
    t = run_descent(Residue(5, 10))
    assert t == [(-10, 0, 5, 1, None), (-5, 1, 5, 1, NEG), (-5, 1, 0, 2, POS)]
    assert t[-1][4] == POS


@given(st.data())
@settings(deadline=None)
def test_descent_invariants(data):
    m = data.draw(st.integers(2, 5000))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    t = run_descent(r)
    assert t[0] == (-m, 0, x, 1, None)
    assert t[-1][2] == 0
    assert [pn * nd - nn * pd for nn, nd, pn, pd, _ in t] == [m] * len(t)
    for nn, nd, pn, pd, _ in t:
        assert (x * nd - nn) % m == 0
        assert (x * pd - pn) % m == 0
    # strict progress: the numerator-magnitude sum shrinks every step
    sums = [-nn + pn for nn, _, pn, _, _ in t]
    assert all(a > b for a, b in zip(sums, sums[1:]))


@given(st.data())
@settings(deadline=None)
def test_each_step_replaces_the_larger_numerator_with_the_mediant(data):
    m = data.draw(st.integers(2, 500))
    x = data.draw(st.integers(0, m - 1))
    t = run_descent(Residue(x, m))
    for (nn, nd, pn, pd, _), new in zip(t, t[1:]):
        med = (nn + pn, nd + pd)
        if -nn > pn:
            assert new == (*med, pn, pd, NEG)
        else:  # ties go to the positive slot
            assert new == (nn, nd, *med, POS)
