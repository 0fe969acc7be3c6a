"""Tests for the brute-force oracle and its ceilings."""

import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfrac.descent import descent_steps
from minfrac.errors import (
    CEILING_ENV_VAR,
    DEFAULT_ENUMERATION_CEILING,
    DEFAULT_PAIR_CHECK_CEILING,
    CeilingExceeded,
    check_pair_ceiling,
)
from minfrac.harness import _scan_minimum
from minfrac.minimality import is_minimal_pair
from minfrac.oracle import (
    brute_minimum,
    brute_pair_minimal,
    enumerate_class,
    prefix_scan,
)
from minfrac.residues import Fraction, Residue, ResidueClass, represents
from test_minimality import criterion_key


def test_enumerate_class_frozen_lists():
    r = Residue(7, 17)
    pos = enumerate_class(r, ResidueClass.POSITIVE)
    neg = enumerate_class(r, ResidueClass.NEGATIVE)
    assert ", ".join(f"{n}/{d}" for n, d in pos) == (
        "7/1, 14/2, 4/3, 11/4, 1/5, 8/6, 15/7, 5/8, 12/9, 2/10, 9/11, "
        "16/12, 6/13, 13/14, 3/15, 10/16, 0/17"
    )
    assert ", ".join(f"{n}/{d}" for n, d in neg) == (
        "-17/0, -10/1, -3/2, -13/3, -6/4, -16/5, -9/6, -2/7, -12/8, -5/9, "
        "-15/10, -8/11, -1/12, -11/13, -4/14, -14/15, -7/16"
    )


def test_enumerate_class_small():
    r = Residue(1, 2)
    assert list(enumerate_class(r, ResidueClass.POSITIVE)) == [(1, 1), (0, 2)]
    assert list(enumerate_class(r, ResidueClass.NEGATIVE)) == [(-2, 0), (-1, 1)]


def test_enumerate_class_agrees_with_residue_functions():
    # same lists, derived through the library's `represents` instead of the
    # oracle's inline arithmetic: at each denominator of a class, the one
    # numerator in the class's range that represents x.
    for m in (2, 5, 17, 40):
        for x in range(m):
            r = Residue(x, m)
            assert list(enumerate_class(r, ResidueClass.POSITIVE)) == [
                (n, d)
                for d in range(1, m + 1)
                for n in range(0, m)
                if represents(r, Fraction(n, d))
            ]
            assert list(enumerate_class(r, ResidueClass.NEGATIVE)) == [
                (n, d)
                for d in range(0, m)
                for n in range(-m, 0)
                if represents(r, Fraction(n, d))
            ]


def test_brute_minimum_examples():
    assert brute_minimum(Residue(12, 17)) == Fraction(2, 3)
    assert brute_minimum(Residue(7, 17)) == Fraction(-3, 2)
    assert brute_minimum(Residue(0, 17)) == Fraction(0, 1)
    assert brute_minimum(Residue(1, 2)) == Fraction(1, 1)


def test_brute_pair_minimal_examples():
    assert brute_pair_minimal(7, 17, -17, 0, 7, 1)
    assert brute_pair_minimal(7, 17, -3, 2, 4, 3)
    assert brute_pair_minimal(7, 17, -1, 12, 0, 17)
    assert not brute_pair_minimal(7, 17, -6, 4, 4, 3)


def test_pair_routes_share_one_domain():
    # -1/2 does not represent 7 mod 17; -17/18 represents 0 mod 17 but lies
    # outside the negative class (denominators 0..16), and 0/18 outside the
    # positive one (1..17).  The oracle and the fast path refuse each with
    # the same message.
    cases = [
        ((7, 17, -1, 2, 4, 3), r"^-1/2 does not represent 7 \(mod 17\)$"),
        ((0, 17, -17, 18, 0, 1), r"^negative-class denominator 18 out of range \[0, 16\]$"),
        ((0, 17, -17, 0, 0, 18), r"^positive-class denominator 18 out of range \[1, 17\]$"),
        # Neither side represents 7 mod 17: the negative side is named.
        ((7, 17, -1, 2, 5, 3), r"^-1/2 does not represent 7 \(mod 17\)$"),
        # A side both off the residue and out of its range: representation
        # is checked first, on either side, before either range.
        ((0, 17, -1, 18, 0, 1), r"^-1/18 does not represent 0 \(mod 17\)$"),
        ((0, 17, -17, 18, 1, 1), r"^1/1 does not represent 0 \(mod 17\)$"),
        # x outside [0, M) is refused before either side, as Residue refuses
        # it, even where both sides would represent x's class; so is every x
        # at M = 0, which would otherwise divide by zero.
        ((20, 17, -17, 0, 20, 1), r"^residue 20 out of range \[0, 17\)$"),
        ((-3, 17, -17, 0, 14, 1), r"^residue -3 out of range \[0, 17\)$"),
        ((0, 0, 0, 0, 1, 1), r"^residue 0 out of range \[0, 0\)$"),
    ]
    for pair, message in cases:
        for route in (is_minimal_pair, brute_pair_minimal):
            with pytest.raises(ValueError, match=message):
                route(*pair)


def test_default_ceilings():
    assert DEFAULT_ENUMERATION_CEILING == 10**6
    assert DEFAULT_PAIR_CHECK_CEILING == 10**4


def test_enumeration_ceiling(monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    big = Residue(3, DEFAULT_ENUMERATION_CEILING + 1)
    with pytest.raises(CeilingExceeded) as exc:
        enumerate_class(big, ResidueClass.POSITIVE)
    assert exc.value.size == DEFAULT_ENUMERATION_CEILING + 1
    assert exc.value.ceiling == DEFAULT_ENUMERATION_CEILING
    with pytest.raises(CeilingExceeded):
        brute_minimum(big)


def test_pair_check_ceiling(monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    m = DEFAULT_PAIR_CHECK_CEILING + 1
    pair = (1, m, -m, 0, 1, 1)
    with pytest.raises(CeilingExceeded):
        brute_pair_minimal(*pair)
    # explicit ceiling unlocks it
    assert brute_pair_minimal(*pair, ceiling=m)
    # The ceiling is checked before the pair: an over-ceiling modulus is
    # refused even for a pair that does not represent x.
    with pytest.raises(CeilingExceeded):
        brute_pair_minimal(1, m, -1, 2, 1, 1)


def test_prefix_scan_example():
    # |negative residues| of 7 mod 17 for d = 0..16: 17 10 3 13 6 16 9 2 12 5 ...;
    # positive residues for d = 1..16: 7 14 4 11 1 ...; an empty range reads +inf
    neg, pos, minimum = prefix_scan(7, 17)
    assert neg == [math.inf, 17, 10] + [3] * 5 + [2] * 5 + [1] * 5
    assert pos == [math.inf, math.inf, 7, 7, 4, 4] + [1] * 12
    assert minimum == (-3, 2)


def test_prefix_scan_matches_the_definitions():
    # Every x mod M for M <= 300: slot D of each class holds the minimum
    # magnitude over the class's denominators below D (+inf when there are
    # none), and the minimum is the one the downward scan finds.
    empty = math.inf
    for m in range(2, 301):
        for x in range(m):
            neg, pos, minimum = prefix_scan(x, m)
            assert neg == list(accumulate((m - x * d % m for d in range(m)), min, initial=empty))
            assert pos == [empty, *accumulate((x * d % m for d in range(1, m)), min, initial=empty)]
            expected = brute_minimum(Residue(x, m))
            assert minimum == (expected.n, expected.d), (x, m)


def test_prefix_minima_ceiling(monkeypatch):
    # The scan checks no ceiling: its callers hold M to the pair-check
    # ceiling, as run_checks does once per sweep, and scan past it only
    # when it is raised.
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    m = DEFAULT_PAIR_CHECK_CEILING + 1
    with pytest.raises(CeilingExceeded) as exc:
        check_pair_ceiling(m)
    assert str(exc.value).startswith(f"pair-minimality check: modulus {m} exceeds")
    check_pair_ceiling(m, m)
    neg, pos, minimum = prefix_scan(1, m)
    assert len(neg) == len(pos) == m + 1
    assert minimum == (1, 1)


def test_a_class_pair_is_minimal_iff_its_determinant_is_m():
    # The criterion is_minimal_pair evaluates, held by the oracle routes alone:
    # for every in-class pair with M <= 24, the exhaustive scan and the
    # prefix-minima verdict both say minimal iff the determinant is M, and
    # every determinant is a positive multiple of M.
    for m in range(2, 25):
        for x in range(m):
            neg, pos, _ = prefix_scan(x, m)
            for nd in range(m):
                nn = (x * nd) % m - m
                for pd in range(1, m + 1):
                    pn = (x * pd) % m
                    det = pn * nd - nn * pd
                    assert det > 0 and det % m == 0, (x, m, nn, nd, pn, pd)
                    minimal = det == m
                    assert brute_pair_minimal(x, m, nn, nd, pn, pd) == minimal, (x, m, nn, nd, pn, pd)
                    threshold = pn - nn
                    assert (neg[nd] >= threshold and pos[pd] >= threshold) == minimal


def test_prefix_minima_verdict_matches_brute_pair_minimal_off_the_class_residues():
    # A numerator off its class residue by a multiple of M raises the
    # threshold above M, and can raise it above 2M, so an empty range must
    # read above every threshold: -34/0 with 7/1 of 7 mod 17 (threshold 41)
    # is minimal.  The shifts are those of the is_minimal_pair test on the
    # same pairs.
    neg, pos, _ = prefix_scan(7, 17)
    assert neg[0] >= 34 + 7 and pos[1] >= 34 + 7
    for m in range(2, 13):
        for x in range(m):
            neg, pos, _ = prefix_scan(x, m)
            for nd in range(m):
                for pd in range(1, m + 1):
                    for i, j in ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2)):
                        nn = (x * nd) % m - m - i * m
                        pn = (x * pd) % m + j * m
                        threshold = pn - nn
                        verdict = neg[nd] >= threshold and pos[pd] >= threshold
                        assert verdict == brute_pair_minimal(x, m, nn, nd, pn, pd), (x, m, nn, nd, pn, pd)


@given(st.data())
@settings(deadline=None)
def test_prefix_minima_verdict_matches_brute_pair_minimal(data):
    m = data.draw(st.integers(2, 300))
    x = data.draw(st.integers(0, m - 1))
    if data.draw(st.booleans()):
        # a descent pair: minimal, so both verdicts should be True
        steps = list(descent_steps(x, m))
        nn, nd, pn, pd, _ = steps[data.draw(st.integers(0, len(steps) - 1))]
    else:
        nd = data.draw(st.integers(0, m - 1))
        pd = data.draw(st.integers(1, m))
        nn, pn = x * nd % m - m, x * pd % m
    neg, pos, _ = prefix_scan(x, m)
    threshold = pn - nn
    verdict = neg[nd] >= threshold and pos[pd] >= threshold
    assert verdict == brute_pair_minimal(x, m, nn, nd, pn, pd)


def test_explicit_ceiling_argument():
    r = Residue(3, 11)
    with pytest.raises(CeilingExceeded):
        enumerate_class(r, ResidueClass.POSITIVE, ceiling=10)
    assert len(list(enumerate_class(r, ResidueClass.POSITIVE, ceiling=11))) == 11


def test_ceiling_env_var(monkeypatch):
    r = Residue(3, 25)
    monkeypatch.setenv(CEILING_ENV_VAR, "20")
    with pytest.raises(CeilingExceeded):
        enumerate_class(r, ResidueClass.POSITIVE)
    monkeypatch.setenv(CEILING_ENV_VAR, "0x20")  # hex accepted
    assert len(list(enumerate_class(r, ResidueClass.POSITIVE))) == 25
    # an explicit argument beats the environment
    monkeypatch.setenv(CEILING_ENV_VAR, "10")
    assert len(list(enumerate_class(r, ResidueClass.POSITIVE, ceiling=30))) == 25


@given(st.data())
@settings(deadline=None)
def test_oracle_lists_are_representations(data):
    m = data.draw(st.integers(2, 300))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    cls = data.draw(st.sampled_from(list(ResidueClass)))
    fractions = [Fraction(n, d) for n, d in enumerate_class(r, cls)]
    # One fraction per denominator of the class, in order, with the
    # numerator in the class's range: with `represents`, that fixes the list.
    if cls is ResidueClass.POSITIVE:
        assert [f.d for f in fractions] == list(range(1, m + 1))
        assert all(0 <= f.n < m for f in fractions)
    else:
        assert [f.d for f in fractions] == list(range(m))
        assert all(-m <= f.n <= -1 for f in fractions)
    assert all(represents(r, f) for f in fractions)


def test_brute_minimum_is_a_minimal_representation():
    # The whole criterion, not just the max coefficient: a broken tie-break
    # on the denominator or on the class changes some residue's minimum.
    # The step scan, minimum_fraction's slow twin, and the oracle's upward
    # records scan, which leaves the tie-breaks to its order, are held to it too.
    for m in range(2, 101):
        for x in range(m):
            r = Residue(x, m)
            candidates = [Fraction(n, d) for cls in ResidueClass
                          for n, d in enumerate_class(r, cls) if d >= 1]
            expected = min(candidates, key=criterion_key)
            assert brute_minimum(r) == expected, r
            assert prefix_scan(x, m)[2] == (expected.n, expected.d), r
            assert _scan_minimum(descent_steps(x, m)) == (expected.n, expected.d), r
