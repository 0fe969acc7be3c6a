"""Unit and property tests for the residue arithmetic primitives."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import descent_runs, descent_steps
from minfrac.harness import Anomaly, Counterexample, VerificationReport
from minfrac.residues import (
    Fraction,
    Residue,
    check_modulus,
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
            assert [k for k in numerators if (r.x * d - k) % r.m == 0] == [n]


def test_mediant_examples():
    # The first mediants of the walk for 7 mod 17 represent 7 as well.
    r = Residue(7, 17)
    for f1, f2, med in [
        (Fraction(-17, 0), Fraction(7, 1), Fraction(-10, 1)),
        (Fraction(-3, 2), Fraction(7, 1), Fraction(4, 3)),
        (Fraction(-3, 2), Fraction(4, 3), Fraction(1, 5)),
    ]:
        assert Fraction(f1.n + f2.n, f1.d + f2.d) == med
        assert all((r.x * f.d - f.n) % r.m == 0 for f in (f1, f2, med))


def test_mediant_zero_numerator_is_positive_class():
    # The mediant of -1/12 and 1/5 is 0/17; a zero numerator counts as
    # positive, so it fills the walk's positive slot and never the negative.
    z = Fraction(-1 + 1, 12 + 5)
    assert z == Fraction(0, 17)
    assert list(descent_steps(7, 17))[-1] == (-1, 12, z.n, z.d, "positive")


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
    assert str(Fraction(-3, 2)) == "-3/2"
    assert str(Fraction(7, 1)) == "7/1"


def _value_types():
    """One instance of each value type, a copy of it, and each one-field variant."""
    replay = "minfrac trace --modulus 17 --x 7"
    ce, an = Counterexample(17, 7, "broken", replay), Anomaly(17, 7, "long")
    return [
        (Residue(7, 17), Residue(7, 17), [Residue(8, 17), Residue(7, 19)]),
        (Fraction(1, 2), Fraction(1, 2), [Fraction(2, 2), Fraction(1, 3)]),
        (Counterexample(17, 7, "broken", replay), Counterexample(17, 7, "broken", replay),
         [Counterexample(19, 7, "broken", replay), Counterexample(17, 8, "broken", replay),
          Counterexample(17, 7, "bent", replay), Counterexample(17, 7, "broken", "minfrac")]),
        (Anomaly(17, 7, "long"), Anomaly(17, 7, "long"),
         [Anomaly(19, 7, "long"), Anomaly(17, 8, "long"), Anomaly(17, 7, "longer")]),
        (VerificationReport("determinant", 3, (ce,), 1, (an,), 0.5),
         VerificationReport("determinant", 3, (ce,), 1, (an,), 0.5),
         [VerificationReport("progress", 3, (ce,), 1, (an,), 0.5),
          VerificationReport("determinant", 4, (ce,), 1, (an,), 0.5),
          VerificationReport("determinant", 3, (), 1, (an,), 0.5),
          VerificationReport("determinant", 3, (ce,), 2, (an,), 0.5),
          VerificationReport("determinant", 3, (ce,), 1, (), 0.5),
          VerificationReport("determinant", 3, (ce,), 1, (an,), 0.0)]),
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
    values = [value for value, _, _ in _value_types()]
    for i, value in enumerate(values):
        for other in values[i + 1:]:
            assert value != other and other != value


def test_value_type_reprs_and_keywords():
    assert repr(Residue(x=7, m=17)) == "Residue(x=7, m=17)"
    assert repr(Fraction(n=1, d=2)) == "Fraction(n=1, d=2)"
    # The findings and reports print as the frozen dataclasses they replaced did.
    replay = "minfrac trace --modulus 17 --x 7"
    assert repr(Counterexample(m=17, x=7, detail="broken", replay=replay)) == (
        f"Counterexample(m=17, x=7, detail='broken', replay='{replay}')"
    )
    assert repr(Anomaly(m=17, x=7, detail="long")) == "Anomaly(m=17, x=7, detail='long')"
    assert repr(VerificationReport(check="progress", passes=2, counterexamples=())) == (
        "VerificationReport(check='progress', passes=2, counterexamples=(), anomaly_count=0, "
        "anomalies=(), duration=0.0)"
    )


def test_value_type_validation_messages():
    cases = [
        (lambda: Residue(0, 1), "modulus must be >= 2, got 1"),
        (lambda: Residue(-1, 17), "residue -1 out of range [0, 17)"),
        (lambda: Residue(17, 17), "residue 17 out of range [0, 17)"),
        (lambda: Fraction(1, -1), "denominator must be >= 0, got -1"),
        (lambda: Fraction(0, 0), "positive-class fractions need a denominator >= 1"),
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
    f = _draw_fraction(data, r)
    assert (r.x * f.d - f.n) % r.m == 0


@given(st.data())
def test_mediant_preserves_representation(data):
    r = _draw_residue(data)
    f1 = _draw_fraction(data, r)
    f2 = _draw_fraction(data, r)
    assert (r.x * (f1.d + f2.d) - (f1.n + f2.n)) % r.m == 0


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
        if side == "negative":
            nn, nd = -(an - k * bn), ad + k * bd
        else:
            pn, pd = an - k * bn, ad + k * bd
    pairs.append((nn, nd, pn, pd))
    assert pairs[-1][2] == 0
    for nn, nd, pn, pd in pairs:
        assert 0 <= pn < m and 1 <= pd <= m
        assert -m <= nn <= -1 and 0 <= nd < m
        assert (r.x * pd - pn) % m == 0 and (r.x * nd - nn) % m == 0


@given(st.data())
def test_render_parse_round_trip(data):
    r = _draw_residue(data, moduli=st.integers(2, 10**9))
    f = _draw_fraction(data, r)
    n, d = str(f).split("/")
    assert Fraction(int(n), int(d)) == f
