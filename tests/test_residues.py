"""Unit and property tests for the residue arithmetic primitives."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import DescentTrace, descent_runs, run_descent
from minfrac.residues import (
    Fraction,
    FractionPair,
    Residue,
    ResidueClass,
    check_modulus,
    represents,
)

# Both full representation lists for 7 mod 17, frozen.
# fmt: off
POS_7_MOD_17 = [
    (7, 1), (14, 2), (4, 3), (11, 4), (1, 5), (8, 6), (15, 7), (5, 8), (12, 9),
    (2, 10), (9, 11), (16, 12), (6, 13), (13, 14), (3, 15), (10, 16), (0, 17),
]
NEG_7_MOD_17 = [
    (-17, 0), (-10, 1), (-3, 2), (-13, 3), (-6, 4), (-16, 5), (-9, 6), (-2, 7),
    (-12, 8), (-5, 9), (-15, 10), (-8, 11), (-1, 12), (-11, 13), (-4, 14),
    (-14, 15), (-7, 16),
]
# fmt: on

BIG_MODULI = st.integers(min_value=2, max_value=2**256)


def test_check_modulus():
    assert check_modulus(2) == 2
    assert check_modulus(2**256) == 2**256
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            check_modulus(bad)


def test_residue_validation_and_reduce():
    assert Residue(0, 2).x == 0
    with pytest.raises(ValueError):
        Residue(-1, 17)
    with pytest.raises(ValueError):
        Residue(17, 17)
    with pytest.raises(ValueError):
        Residue(0, 1)


def test_enumerated_lists_match_frozen_values():
    # One fraction per denominator of each class, and at its denominator the
    # frozen numerator is the only one in its class's range that represents 7.
    r = Residue(7, 17)
    assert [d for _, d in POS_7_MOD_17] == list(range(1, 18))
    assert [d for _, d in NEG_7_MOD_17] == list(range(0, 17))
    for frozen, numerators in ((POS_7_MOD_17, range(0, 17)), (NEG_7_MOD_17, range(-17, 0))):
        for n, d in frozen:
            assert [k for k in numerators if represents(r, Fraction(k, d))] == [n]


def test_represents_examples():
    assert represents(Residue(7, 17), Fraction(4, 3))
    assert not represents(Residue(7, 17), Fraction(5, 3))
    assert represents(Residue(12, 17), Fraction(-3, 4))
    assert represents(Residue(12, 17), Fraction(2, 3))


def test_mediant_examples():
    # The first mediants of the walk for 7 mod 17 represent 7 as well.
    r = Residue(7, 17)
    for f1, f2, med in [
        (Fraction(-17, 0), Fraction(7, 1), Fraction(-10, 1)),
        (Fraction(-3, 2), Fraction(7, 1), Fraction(4, 3)),
        (Fraction(-3, 2), Fraction(4, 3), Fraction(1, 5)),
    ]:
        assert Fraction(f1.n + f2.n, f1.d + f2.d) == med
        assert represents(r, f1) and represents(r, f2) and represents(r, med)


def test_mediant_zero_numerator_is_positive_class():
    # The mediant of -1/12 and 1/5 is 0/17; a zero numerator counts as
    # positive, so it fills a pair's positive slot and never the negative.
    z = Fraction(-1 + 1, 12 + 5)
    assert z == Fraction(0, 17)
    assert FractionPair(neg=Fraction(-1, 12), pos=z).pos == z
    with pytest.raises(ValueError):
        FractionPair(neg=z, pos=Fraction(1, 5))


def test_fraction_validation():
    with pytest.raises(ValueError):
        Fraction(1, -1)
    # a non-negative numerator needs a real denominator
    with pytest.raises(ValueError):
        Fraction(3, 0)
    with pytest.raises(ValueError):
        Fraction(0, 0)
    # the d=0 anchor of the negative class is legal
    assert Fraction(-17, 0).d == 0


def test_fraction_class_and_rendering():
    # The numerator's sign is the class: 0 counts as positive, so 0/17 can
    # only fill a pair's positive slot.
    assert FractionPair(neg=Fraction(-3, 2), pos=Fraction(0, 17)).pos == Fraction(0, 17)
    with pytest.raises(ValueError):
        FractionPair(neg=Fraction(0, 17), pos=Fraction(4, 3))
    assert str(Fraction(-3, 2)) == "-3/2"
    assert str(Fraction(7, 1)) == "7/1"


def test_fraction_pair():
    p = FractionPair(neg=Fraction(-3, 2), pos=Fraction(4, 3))
    assert p.pos.n * p.neg.d - p.neg.n * p.pos.d == 17
    assert str(p) == "(-3/2, 4/3)"
    with pytest.raises(ValueError):
        FractionPair(neg=Fraction(4, 3), pos=Fraction(4, 3))
    with pytest.raises(ValueError):
        FractionPair(neg=Fraction(-3, 2), pos=Fraction(-1, 2))


def _value_types():
    """One instance of each value type, a copy of it, and each one-field variant."""
    third, half = Fraction(-1, 3), Fraction(1, 2)
    pair = FractionPair(neg=third, pos=half)
    trace = run_descent(Residue(0, 2))
    return [
        (Residue(7, 17), Residue(7, 17), [Residue(8, 17), Residue(7, 19)]),
        (half, Fraction(1, 2), [Fraction(2, 2), Fraction(1, 3)]),
        (pair, FractionPair(Fraction(-1, 3), Fraction(1, 2)),
         [FractionPair(Fraction(-2, 3), half), FractionPair(third, Fraction(1, 3))]),
        (trace, DescentTrace(Residue(0, 2), trace.pairs, trace.replaced),
         [DescentTrace(Residue(1, 2), trace.pairs, trace.replaced),
          DescentTrace(Residue(0, 2), (), trace.replaced),
          DescentTrace(Residue(0, 2), trace.pairs, (ResidueClass.POSITIVE,))]),
    ]


def test_value_types_compare_and_hash_by_their_fields():
    for value, twin, variants in _value_types():
        assert value == twin and not value != twin and value is not twin
        assert hash(value) == hash(twin)
        assert len({value, twin, *variants}) == 1 + len(variants)
        assert {value: 1}[twin] == 1
        assert pickle.loads(pickle.dumps(value)) == value
        for other in variants:
            assert value != other and not value == other
    # A value of another class, even with equal fields, is never equal.
    assert Fraction(1, 2) != Residue(1, 2) and Residue(1, 2) != Fraction(1, 2)
    assert Fraction(1, 2) != (1, 2) and (1, 2) != Fraction(1, 2)


def test_value_type_reprs_and_keywords():
    assert repr(Residue(x=7, m=17)) == "Residue(x=7, m=17)"
    assert repr(Fraction(n=1, d=2)) == "Fraction(n=1, d=2)"
    assert repr(FractionPair(neg=Fraction(-17, 0), pos=Fraction(7, 1))) == (
        "FractionPair(neg=Fraction(n=-17, d=0), pos=Fraction(n=7, d=1))"
    )
    assert repr(run_descent(Residue(0, 2))) == (
        "DescentTrace(residue=Residue(x=0, m=2), "
        "pairs=(FractionPair(neg=Fraction(n=-2, d=0), pos=Fraction(n=0, d=1)),), "
        "replaced=(None,))"
    )


def test_value_type_validation_messages():
    cases = [
        (lambda: Residue(0, 1), "modulus must be >= 2, got 1"),
        (lambda: Residue(-1, 17), "residue -1 out of range [0, 17)"),
        (lambda: Residue(17, 17), "residue 17 out of range [0, 17)"),
        (lambda: Fraction(1, -1), "denominator must be >= 0, got -1"),
        (lambda: Fraction(0, 0), "positive-class fractions need a denominator >= 1"),
        (lambda: FractionPair(neg=Fraction(4, 3), pos=Fraction(4, 3)),
         "neg side must have a negative numerator, got 4/3"),
        (lambda: FractionPair(neg=Fraction(-3, 2), pos=Fraction(-1, 2)),
         "pos side must have a non-negative numerator, got -1/2"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def _draw_residue(data, moduli=BIG_MODULI):
    m = data.draw(moduli)
    x = data.draw(st.integers(0, m - 1))
    return Residue(x, m)


def _draw_fraction(data, r):
    """A positive-class (d in 1..M) or negative-class (d in 0..M-1) representation of r."""
    if data.draw(st.booleans()):
        d = data.draw(st.integers(1, r.m))
        return Fraction(r.x * d % r.m, d)
    d = data.draw(st.integers(0, r.m - 1))
    return Fraction(r.x * d % r.m - r.m, d)


@given(st.data())
def test_residue_fractions_represent(data):
    r = _draw_residue(data)
    assert represents(r, _draw_fraction(data, r))


@given(st.data())
def test_mediant_preserves_representation(data):
    r = _draw_residue(data)
    f1 = _draw_fraction(data, r)
    f2 = _draw_fraction(data, r)
    assert represents(r, Fraction(f1.n + f2.n, f1.d + f2.d))


@given(st.data())
@settings(deadline=None)
def test_residue_value_ranges(data):
    # Every pair the descent reaches (each run's start, then the terminal
    # pair) keeps both numerators in their class's range: 0 <= n < M with
    # 1 <= d <= M, -M <= n <= -1 with 0 <= d < M.
    r = _draw_residue(data)
    m = r.m
    pairs = []
    nn, nd, pn, pd = -m, 0, r.x, 1
    for an, ad, bn, bd, side, k in descent_runs(r.x, m):
        pairs.append((nn, nd, pn, pd))
        # The run turns the replaced side, |a.n|/a.d, into (|a.n| - k*|b.n|)/(a.d + k*b.d).
        if side is ResidueClass.NEGATIVE:
            nn, nd = -(an - k * bn), ad + k * bd
        else:
            pn, pd = an - k * bn, ad + k * bd
    pairs.append((nn, nd, pn, pd))
    assert pairs[-1][2] == 0
    for nn, nd, pn, pd in pairs:
        assert 0 <= pn < m and 1 <= pd <= m
        assert -m <= nn <= -1 and 0 <= nd < m
        assert represents(r, Fraction(pn, pd)) and represents(r, Fraction(nn, nd))


@given(st.data())
def test_render_parse_round_trip(data):
    r = _draw_residue(data, moduli=st.integers(2, 10**9))
    f = _draw_fraction(data, r)
    n, d = str(f).split("/")
    assert Fraction(int(n), int(d)) == f
