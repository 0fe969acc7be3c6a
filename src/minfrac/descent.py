"""Mediant descent: computing minimal fractional representations.

Starting from the trivially minimal pair (-M/0, x/1), repeatedly replace the
fraction whose numerator has the larger magnitude with the mediant of the
two, until the positive-side numerator hits zero.  The mediant of fractions
with opposite-sign numerators has a numerator strictly smaller in magnitude
than the larger of the two, so the walk terminates; every pair along the way
keeps the determinant identity pos.n*neg.d - neg.n*pos.d = M, the modular
analogue of the Farey neighbour identity, which equals 1 instead.

On a tie in magnitudes the two numerators cancel exactly, so the mediant
numerator is 0 and it must take the positive slot; replacing the negative
side instead would strand a zero numerator there and the walk would never
end.

The walk is a subtractive Euclid, so its length is the sum of the partial
quotients of x/M and can be of order M.  `descent_runs` groups consecutive
replacements of the same side into runs, of which there are O(log M); the
step walk `descent_steps` stays as the reference it is checked against.
Both name a side by the word the CLI prints: "negative" or "positive".
"""

from collections.abc import Iterator

from .residues import Residue, check_residue

RawStep = tuple[int, int, int, int, str | None]


def descent_steps(x: int, m: int) -> Iterator[RawStep]:
    """Low-overhead descent iterator over plain integers.

    Yields (neg_n, neg_d, pos_n, pos_d, replaced) for every pair from the
    initial one to the terminal one; `replaced` is None for the initial pair.
    Requires 0 <= x < m.  This is the one implementation of the step;
    the CLI's `trace`, the sweep harness and run_descent consume it.
    """
    check_residue(x, m)
    nn, nd, pn, pd = -m, 0, x, 1
    yield nn, nd, pn, pd, None
    while pn != 0:
        if -nn > pn:
            nn += pn
            nd += pd
            yield nn, nd, pn, pd, "negative"
        else:
            pn += nn
            pd += nd
            yield nn, nd, pn, pd, "positive"


def descent_runs(x: int, m: int) -> Iterator[tuple[int, int, int, int, str, int]]:
    """The descent walk grouped into runs of same-side replacements.

    Yields (|a.n|, a.d, |b.n|, b.d, replaced, k) for each run: a is the
    side the run replaces (named as its steps' `replaced`) and b the other
    side, both as they stand at the run's start, with numerators as
    magnitudes; k >= 1 is the run's length.
    Step j of the run (1 <= j <= k) turns a into a + j*b, so its numerator
    magnitude is |a.n| - j*|b.n| and its denominator a.d + j*b.d, and the
    walk's pair count is 1 + the sum of the k.  Runs alternate sides; the
    terminal pair is not yielded.  Requires 0 <= x < m.
    """
    check_residue(x, m)
    nm, nd, pn, pd = m, 0, x, 1  # nm = |neg.n|
    while pn:
        if nm > pn:
            k = (nm - 1) // pn  # largest k with nm - (k-1)*pn > pn
            yield nm, nd, pn, pd, "negative", k
            nm -= k * pn
            nd += k * pd
        else:
            k = pn // nm  # largest k with pn - (k-1)*nm >= nm, ties included
            yield pn, pd, nm, nd, "positive", k
            pn -= k * nm
            pd += k * nd


def run_descent(r: Residue) -> list[RawStep]:
    """The full descent for r, as descent_steps' tuples in a list."""
    return list(descent_steps(r.x, r.m))
