"""Mediant descent: computing minimal fractional representations.

Starting from the trivially minimal pair (-M/0, x/1), repeatedly replace the
fraction whose numerator has the larger magnitude with the mediant of the
two, until the positive-side numerator hits zero.  The mediant of fractions
with opposite-sign numerators has a numerator strictly smaller in magnitude
than the larger of the two, so the walk terminates; every pair along the way
keeps the determinant identity pos.n*neg.d - neg.n*pos.d = M.

On a tie in magnitudes the two numerators cancel exactly, so the mediant
numerator is 0 and it must take the positive slot; replacing the negative
side instead would strand a zero numerator there and the walk would never
end.

The walk is a subtractive Euclid, so its length is the sum of the partial
quotients of x/M and can be of order M.  `descent_runs` groups consecutive
replacements of the same side into runs, of which there are O(log M); the
step walk `descent_steps` stays as the reference it is checked against.
"""

from __future__ import annotations

from collections.abc import Iterator

from .residues import Fraction, FractionPair, Record, Residue, ResidueClass

RawStep = tuple[int, int, int, int, "ResidueClass | None"]


def descent_steps(x: int, m: int) -> Iterator[RawStep]:
    """Low-overhead descent iterator over plain integers.

    Yields (neg_n, neg_d, pos_n, pos_d, replaced) for every pair from the
    initial one to the terminal one; `replaced` is None for the initial pair.
    Requires 0 <= x < m.  This is the one implementation of the step;
    run_descent and the sweep harness both consume it.
    """
    if not 0 <= x < m:
        raise ValueError(f"residue {x} out of range [0, {m})")
    neg, pos = ResidueClass.NEGATIVE, ResidueClass.POSITIVE
    nn, nd, pn, pd = -m, 0, x, 1
    yield nn, nd, pn, pd, None
    while pn != 0:
        if -nn > pn:
            nn += pn
            nd += pd
            yield nn, nd, pn, pd, neg
        else:
            pn += nn
            pd += nd
            yield nn, nd, pn, pd, pos


def descent_runs(x: int, m: int) -> Iterator[tuple[int, int, int, int, ResidueClass, int]]:
    """The descent walk grouped into runs of same-side replacements.

    Yields (neg_n, neg_d, pos_n, pos_d, replaced, k): the pair at the start
    of a run, the side the run replaces and its length k >= 1.  Step j of
    the run (1 <= j <= k) turns the replaced side a into a + j*b, where b is
    the other side, so the walk's pair count is 1 + the sum of the k.  Runs
    alternate sides; the terminal pair is not yielded.  Requires 0 <= x < m.
    """
    if not 0 <= x < m:
        raise ValueError(f"residue {x} out of range [0, {m})")
    nn, nd, pn, pd = -m, 0, x, 1
    while pn != 0:
        if -nn > pn:
            k = (-nn - 1) // pn  # largest k with -(nn + (k-1)*pn) > pn
            yield nn, nd, pn, pd, ResidueClass.NEGATIVE, k
            nn += k * pn
            nd += k * pd
        else:
            k = pn // -nn  # largest k with pn + (k-1)*nn >= -nn, ties included
            yield nn, nd, pn, pd, ResidueClass.POSITIVE, k
            pn += k * nn
            pd += k * nd


class DescentTrace(Record):
    """Full record of one descent: every pair visited, in order.

    replaced[i] is the side whose replacement made pairs[i]; None at step 0.
    """

    __slots__ = ("residue", "pairs", "replaced")

    def __init__(
        self,
        residue: Residue,
        pairs: tuple[FractionPair, ...],
        replaced: tuple[ResidueClass | None, ...],
    ) -> None:
        self.residue = residue
        self.pairs = pairs
        self.replaced = replaced

    def __len__(self) -> int:
        return len(self.pairs)


def run_descent(r: Residue) -> DescentTrace:
    """Run the full descent for r and materialize the trace."""
    pairs: list[FractionPair] = []
    replaced: list[ResidueClass | None] = []
    for nn, nd, pn, pd, rep in descent_steps(r.x, r.m):
        pairs.append(FractionPair(neg=Fraction(nn, nd), pos=Fraction(pn, pd)))
        replaced.append(rep)
    return DescentTrace(residue=r, pairs=tuple(pairs), replaced=tuple(replaced))
