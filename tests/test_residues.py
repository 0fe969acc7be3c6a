"""Unit and property tests for the residue arithmetic primitives."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import DescentTrace, run_descent
from minfrac.minimality import MinimalityVerdict
from minfrac.residues import (
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


def test_pos_residue_examples():
    r = Residue(7, 17)
    assert pos_residue(r, 3) == 4
    assert pos_residue(r, 17) == 0
    assert pos_residue(Residue(0, 17), 1) == 0


def test_neg_residue_examples():
    r = Residue(7, 17)
    assert neg_residue(r, 0) == -17
    assert neg_residue(r, 2) == -3
    assert neg_residue(r, 12) == -1


def test_residue_denominator_range_errors():
    r = Residue(7, 17)
    for d in (0, -1, 18):
        with pytest.raises(ValueError):
            pos_residue(r, d)
    for d in (-1, 17):
        with pytest.raises(ValueError):
            neg_residue(r, d)


def test_enumerated_lists_match_frozen_values():
    r = Residue(7, 17)
    assert [(pos_residue(r, d), d) for d in range(1, 18)] == POS_7_MOD_17
    assert [(neg_residue(r, d), d) for d in range(0, 17)] == NEG_7_MOD_17


def test_represents_examples():
    assert represents(Residue(7, 17), Fraction(4, 3))
    assert not represents(Residue(7, 17), Fraction(5, 3))
    assert represents(Residue(12, 17), Fraction(-3, 4))
    assert represents(Residue(12, 17), Fraction(2, 3))


def test_mediant_examples():
    assert mediant(Fraction(-17, 0), Fraction(7, 1)) == Fraction(-10, 1)
    assert mediant(Fraction(-3, 2), Fraction(7, 1)) == Fraction(4, 3)
    assert mediant(Fraction(-3, 2), Fraction(4, 3)) == Fraction(1, 5)


def test_mediant_zero_numerator_is_positive_class():
    z = mediant(Fraction(-1, 12), Fraction(1, 5))
    assert z == Fraction(0, 17)
    assert z.residue_class is ResidueClass.POSITIVE


def test_fraction_validation():
    with pytest.raises(ValueError):
        Fraction(1, -1)
    # a non-negative numerator needs a real denominator
    with pytest.raises(ValueError):
        Fraction(3, 0)
    with pytest.raises(ValueError):
        Fraction(0, 0)
    # the d=0 anchor of the negative class is legal
    assert Fraction(-17, 0).residue_class is ResidueClass.NEGATIVE


def test_fraction_class_and_rendering():
    assert Fraction(4, 3).residue_class is ResidueClass.POSITIVE
    assert Fraction(0, 17).residue_class is ResidueClass.POSITIVE
    assert Fraction(-3, 2).residue_class is ResidueClass.NEGATIVE
    assert str(Fraction(-3, 2)) == "-3/2"
    assert str(Fraction(7, 1)) == "7/1"


def test_parse_fraction():
    assert parse_fraction("4/3") == Fraction(4, 3)
    assert parse_fraction("-17/0") == Fraction(-17, 0)
    assert parse_fraction(" -4 ") == Fraction(-4, 1)
    assert parse_fraction("12") == Fraction(12, 1)
    with pytest.raises(ValueError):
        parse_fraction("x/3")


def test_residue_fraction():
    r = Residue(7, 17)
    assert residue_fraction(r, 3, ResidueClass.POSITIVE) == Fraction(4, 3)
    assert residue_fraction(r, 2, ResidueClass.NEGATIVE) == Fraction(-3, 2)


def test_fraction_pair():
    p = FractionPair(neg=Fraction(-3, 2), pos=Fraction(4, 3))
    assert p.determinant() == 17
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
        (MinimalityVerdict(False, 3), MinimalityVerdict(holds=False, witness_d=3),
         [MinimalityVerdict(True, 3), MinimalityVerdict(False)]),
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
    assert MinimalityVerdict(True, None) != (True, None)


def test_value_type_reprs_and_keywords():
    assert repr(Residue(x=7, m=17)) == "Residue(x=7, m=17)"
    assert repr(Fraction(n=1, d=2)) == "Fraction(n=1, d=2)"
    assert repr(FractionPair(neg=Fraction(-17, 0), pos=Fraction(7, 1))) == (
        "FractionPair(neg=Fraction(n=-17, d=0), pos=Fraction(n=7, d=1))"
    )
    assert repr(MinimalityVerdict(False, witness_d=3)) == "MinimalityVerdict(holds=False, witness_d=3)"
    assert repr(MinimalityVerdict(True)) == "MinimalityVerdict(holds=True, witness_d=None)"
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
    if data.draw(st.booleans()):
        return residue_fraction(r, data.draw(st.integers(1, r.m)), ResidueClass.POSITIVE)
    return residue_fraction(r, data.draw(st.integers(0, r.m - 1)), ResidueClass.NEGATIVE)


@given(st.data())
def test_pos_minus_neg_is_modulus(data):
    r = _draw_residue(data)
    d = data.draw(st.integers(1, r.m - 1))  # where both classes are defined
    assert pos_residue(r, d) - neg_residue(r, d) == r.m


@given(st.data())
def test_residue_fractions_represent(data):
    r = _draw_residue(data)
    assert represents(r, _draw_fraction(data, r))


@given(st.data())
def test_mediant_preserves_representation(data):
    r = _draw_residue(data)
    f1 = _draw_fraction(data, r)
    f2 = _draw_fraction(data, r)
    med = mediant(f1, f2)
    assert med.n == f1.n + f2.n and med.d == f1.d + f2.d
    assert represents(r, med)


@given(st.data())
@settings(deadline=None)
def test_residue_value_ranges(data):
    r = _draw_residue(data)
    dp = data.draw(st.integers(1, r.m))
    dn = data.draw(st.integers(0, r.m - 1))
    assert 0 <= pos_residue(r, dp) < r.m
    assert -r.m <= neg_residue(r, dn) <= -1


@given(st.data())
def test_render_parse_round_trip(data):
    r = _draw_residue(data, moduli=st.integers(2, 10**9))
    f = _draw_fraction(data, r)
    assert parse_fraction(str(f)) == f
