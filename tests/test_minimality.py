"""Tests for per-class/pair minimality and the minimum-fraction criterion."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minfrac.descent import descent_steps, run_descent
from minfrac.errors import InvariantError
from minfrac.harness import _scan_minimum, _step_witness
from minfrac.minimality import (
    is_minimal_pair,
    minimum_fraction,
    minimum_table,
    sqrt_bound_witness,
)
from minfrac.oracle import brute_minimum, brute_pair_minimal, prefix_scan
from minfrac.residues import Fraction, Residue


def criterion_key(f):
    """The minimum fraction's order as a sort key.

    Smallest max(|n|, d) first, then the smaller denominator; a residual tie
    (same |n| and d in both classes, possible when 2x = 0 mod M) prefers the
    positive-class fraction.
    """
    return (max(abs(f.n), f.d), f.d, 0 if f.n >= 0 else 1)


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
    nums, dens = minimum_table(17)
    assert (nums[0], dens[0]) == (0, 1)
    assert nums[1:] == [f.n for f in MIN_TABLE_17]
    assert dens[1:] == [f.d for f in MIN_TABLE_17]


def test_minimum_table_matches_per_residue_minimum():
    # 1024, 2310, 4096, 9984 and 10080 share many factors with small
    # denominators, so the sieve's gcd(d, M) > 1 branch and its g | n skip
    # carry much of the table.
    for m in [*range(2, 301), 1024, 2310, 4096, 9984, 10080]:
        nums, dens = minimum_table(m)
        assert (nums[0], dens[0]) == (0, 1), m
        assert 0 not in dens, m
        minima = [minimum_fraction(Residue(x, m)) for x in range(m)]
        assert nums == [f.n for f in minima], m
        assert dens == [f.d for f in minima], m


def test_minimum_table_raises_when_the_sqrt_bound_leaves_an_x_unreached(monkeypatch):
    # With the bound cut to 2 at M = 17 the candidates of max coefficient
    # <= 2 reach x = 0, 1, 2, 8, 9, 15 and 16, so 3 is the first x left.
    monkeypatch.setattr("minfrac.minimality.isqrt", lambda m: 2)
    with pytest.raises(InvariantError) as info:
        minimum_table(17)
    assert str(info.value) == (
        "no sqrt-bounded representation found for 3 (mod 17); "
        "this falsifies the existence bound and should be reported"
    )


def test_minimum_table_rejects_bad_moduli():
    with pytest.raises(ValueError):
        minimum_table(1)


def test_is_minimal_pair_holds_on_trace_pairs():
    for nn, nd, pn, pd, _ in descent_steps(7, 17):
        assert is_minimal_pair(7, 17, nn, nd, pn, pd)


def test_is_minimal_pair_counterexample():
    # -6/4 pairs with 4/3 for 7 mod 17, but d=2 already gives magnitude
    # 3 < 6+4, so the pair is not minimal
    assert not is_minimal_pair(7, 17, -6, 4, 4, 3)


def test_is_minimal_pair_rejects_non_representations():
    with pytest.raises(ValueError):
        is_minimal_pair(7, 17, -1, 2, 4, 3)


def test_is_minimal_pair_rejects_out_of_class_denominators():
    # Both pairs represent their residue, but -n/18 lies outside the
    # negative class (denominators 0..M-1).  The first would pass the scan
    # and the second fail it at d = 1; both are refused before any scan.
    for pair in ((0, 17, -17, 18, 0, 1), (7, 17, -10, 18, 7, 1)):
        with pytest.raises(ValueError, match=r"^negative-class denominator 18 out of range \[0, 16\]$"):
            is_minimal_pair(*pair)
    # The positive class takes denominators 1..M, so 7/18 is outside it.
    with pytest.raises(ValueError, match=r"^positive-class denominator 18 out of range \[1, 17\]$"):
        is_minimal_pair(7, 17, -3, 2, 7, 18)


def test_is_minimal_pair_matches_the_oracle_on_every_in_class_pair():
    # Every representing pair with a negative denominator in 0..M-1 and a
    # positive one in 1..M, for every residue of every M <= 24.  The oracle
    # gives its verdict twice: by its per-pair scan, and read off the
    # residue's prefix minima, as the agreement check does.
    for m in range(2, 25):
        for x in range(m):
            neg, pos, _ = prefix_scan(x, m)
            for nd in range(m):
                nn = (x * nd) % m - m
                for pd in range(1, m + 1):
                    pn = (x * pd) % m
                    pair = (x, m, nn, nd, pn, pd)
                    fast = is_minimal_pair(*pair)
                    assert fast == brute_pair_minimal(*pair), pair
                    threshold = pn - nn
                    assert fast == (neg[nd] >= threshold and pos[pd] >= threshold), pair


def test_is_minimal_pair_matches_the_oracle_off_the_class_residues():
    # A numerator off its class residue by a multiple of M still represents
    # x, but its threshold is above M, so the pair is minimal only when both
    # of its ranges are empty (neg.d = 0, pos.d = 1), whatever its
    # determinant: -34/0 with 7/1 has determinant 34 for 7 mod 17.
    assert is_minimal_pair(7, 17, -34, 0, 7, 1)
    assert is_minimal_pair(7, 17, -17, 0, 24, 1)
    assert not is_minimal_pair(7, 17, -27, 1, 7, 1)
    for m in range(2, 13):
        for x in range(m):
            for nd in range(m):
                for pd in range(1, m + 1):
                    for i, j in ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2)):
                        nn = (x * nd) % m - m - i * m
                        pn = (x * pd) % m + j * m
                        pair = (x, m, nn, nd, pn, pd)
                        expected = brute_pair_minimal(*pair)
                        assert is_minimal_pair(*pair) == expected, pair
                        assert expected == (nd == 0 and pd == 1)


# The acceptance input: the secp256k1 field prime and the first 77 decimal
# digits of pi, whose walk has 2457 pairs.
P256 = 2**256 - 2**32 - 977
X256 = 31415926535897932384626433832795028841971693993751058209749445923078164062862


def test_is_minimal_pair_holds_on_every_256_bit_trace_pair():
    steps = list(descent_steps(X256, P256))
    assert len(steps) == 2457
    assert all(is_minimal_pair(X256, P256, nn, nd, pn, pd) for nn, nd, pn, pd, _ in steps)


def test_is_minimal_pair_refuses_a_256_bit_pair_at_the_first_denominator():
    # (x-M)/1 and 2x/2 both represent x, and with 2x < M the threshold is
    # M + x, above the magnitude M of -M/0 at d = 0 < 1.
    for x in (1, X256, P256 // 3):
        assert not is_minimal_pair(x, P256, x - P256, 1, 2 * x, 2)


def test_is_minimal_pair_refuses_a_256_bit_pair_with_a_deep_witness():
    # The walk's last new negative fraction is a = prev + pos.  Paired with
    # the positive trace fraction visited just before pos, whose numerator
    # is larger, a has a threshold above |prev.n| = |a.n| + pos.n, so prev
    # is a witness.  The threshold is small, so every witness lies far past
    # the reach of a scan over smaller denominators.
    steps = list(descent_steps(X256, P256))
    i = max(i for i, step in enumerate(steps) if step[4] == "negative")
    prev_n, prev_d, pos_n, _, _ = steps[i - 1]
    a_n, a_d = steps[i][:2]
    pn, pd = min((pn, pd) for _, _, pn, pd, _ in steps if pn > pos_n)
    assert -prev_n < pn - a_n and 2**200 < prev_d < a_d
    assert not is_minimal_pair(X256, P256, a_n, a_d, pn, pd)
    # The refusal is the determinant's: a multiple of P256 other than P256.
    k, rest = divmod(pn * a_d - a_n * pd, P256)
    assert rest == 0 and k >= 2


def test_is_minimal_pair_returns_a_plain_bool():
    assert is_minimal_pair(7, 17, -3, 2, 4, 3) is True
    assert is_minimal_pair(7, 17, -6, 4, 4, 3) is False


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
            assert (x * w.d - w.n) % m == 0


def _class_minimal(f, scan):
    """n/d is per-class minimal iff its class's prefix minimum at d is >= |n|."""
    neg, pos, _ = scan
    return (neg if f.n < 0 else pos)[f.d] >= abs(f.n)


def test_is_minimal_in_class():
    minima = prefix_scan(7, 17)
    assert _class_minimal(Fraction(4, 3), minima)  # positive residues 7, 14 before d = 3
    assert _class_minimal(Fraction(-3, 2), minima)  # negative magnitudes 17, 10 before d = 2
    # the positive prefix minimum at d = 4 is 4 (from 4/3), below 11
    assert not _class_minimal(Fraction(11, 4), minima)


def test_trace_fractions_are_class_minimal():
    # pair minimality of every trace pair implies per-class minimality of
    # each component
    for m in (2, 3, 17, 60, 97):
        for x in range(m):
            r = Residue(x, m)
            minima = prefix_scan(x, m)
            for nn, nd, pn, pd, _ in run_descent(r):
                assert _class_minimal(Fraction(nn, nd), minima)
                assert _class_minimal(Fraction(pn, pd), minima)


@given(st.data())
@settings(deadline=None)
def test_minimum_agrees_with_exhaustive_enumeration(data):
    m = data.draw(st.integers(2, 400))
    x = data.draw(st.integers(0, m - 1))
    r = Residue(x, m)
    f = minimum_fraction(r)
    assert f == brute_minimum(r)
    assert (x * f.d - f.n) % m == 0
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
    f = minimum_fraction(r)
    assert (f.n, f.d) == _scan_minimum(descent_steps(x, m))
    f = sqrt_bound_witness(r)
    assert (f.n, f.d) == _step_witness(r, descent_steps(x, m))
