"""The three minimality notions and the sqrt(M) bound witness.

Per-class minimality: no smaller denominator in the same residue class gives
a numerator of smaller magnitude.  Pair minimality generalizes this to a
(negative, positive) pair via a sum-of-magnitudes threshold and is the
invariant the descent preserves.  The global minimum fraction is the
representation with the smallest maximum coefficient, ties broken by the
smaller denominator.
"""

from __future__ import annotations

from math import gcd, isqrt

from .descent import descent_runs
from .errors import InvariantError
from .residues import (
    Fraction,
    FractionPair,
    Record,
    Residue,
    ResidueClass,
    check_modulus,
    neg_residue,
    pos_residue,
    represents,
)


class MinimalityVerdict(Record):
    """Outcome of a minimality check; carries a violating denominator on failure."""

    __slots__ = ("holds", "witness_d")

    def __init__(self, holds: bool, witness_d: int | None = None) -> None:
        self.holds = holds
        self.witness_d = witness_d

    def __bool__(self) -> bool:
        return self.holds


def criterion_key(f: Fraction) -> tuple[int, int, int]:
    """Total order for picking the minimum fraction.

    Smallest maximum coefficient first, then smaller denominator; a residual
    tie (same |n| and d in both classes, possible when 2x = 0 mod M) prefers
    the positive-class fraction.
    """
    return (max(abs(f.n), f.d), f.d, 0 if f.n >= 0 else 1)


def is_minimal_in_class(f: Fraction, r: Residue) -> MinimalityVerdict:
    """Check that no smaller same-class denominator beats |f.n|.

    Denominators are scanned in increasing order, so a failing verdict
    carries the smallest violating denominator.
    """
    if not represents(r, f):
        raise ValueError(f"{f} does not represent {r}")
    if f.residue_class is ResidueClass.POSITIVE:
        lo, residue_of = 1, pos_residue
        if not lo <= f.d <= r.m:
            raise ValueError(f"denominator {f.d} out of positive-class range [1, {r.m}]")
    else:
        lo, residue_of = 0, neg_residue
        if not lo <= f.d <= r.m - 1:
            raise ValueError(f"denominator {f.d} out of negative-class range [0, {r.m - 1}]")
    bound = abs(f.n)
    for d in range(lo, f.d):
        if abs(residue_of(r, d)) < bound:
            return MinimalityVerdict(False, d)
    return MinimalityVerdict(True)


def is_minimal_pair(p: FractionPair, r: Residue) -> MinimalityVerdict:
    """Check the generalized pair-minimality condition.

    The pair is minimal iff any denominator whose residue magnitude (in
    either class) drops below |neg.n| + |pos.n| is at least as large as the
    pair's denominator of the matching class.  Denominators at or above the
    matching-class denominator satisfy the condition trivially, so only the
    smaller ones are scanned: the negative side first, then the positive
    side, each in increasing order.  A negative-side scan that runs past
    denominator M - 1 raises ValueError, as neg_residue would.
    """
    for f in (p.neg, p.pos):
        if not represents(r, f):
            raise ValueError(f"{f} does not represent {r}")
    x, m = r.x, r.m
    threshold = -p.neg.n + p.pos.n  # |neg.n| + |pos.n|
    # The residues are computed inline: this scan is the harness's hot loop.
    for d in range(0, min(p.neg.d, m)):
        if m - (x * d) % m < threshold:  # |negative residue|
            return MinimalityVerdict(False, d)
    if p.neg.d > m:
        neg_residue(r, m)  # raises: m is outside the negative class
    # Residue 0 at d = m is below any threshold, so this scan never passes m.
    for d in range(1, p.pos.d):
        if (x * d) % m < threshold:
            return MinimalityVerdict(False, d)
    return MinimalityVerdict(True)


def minimum_fraction(r: Residue) -> Fraction:
    """The criterion-minimal representation of r, excluding denominator 0.

    The descent visits every per-class minimal fraction, so the global
    minimum is among x/1 and the mediants it visits (checked against the
    step scan and exhaustive enumeration by the agreement sweep).  Within a
    run that turns side a into a + j*b (j = 1..k), |a.n| - j*|b.n| falls
    and a.d + j*b.d rises, so the key falls up to
    j = c = (|a.n| - a.d) // (|b.n| + b.d) and rises after it: the run's
    best is at c or c+1, clamped to [1, k].  That is O(log M) work where
    the step walk needs one comparison per step.  No tie can depend on
    scan order, because the class and the denominator fix a visited
    fraction's numerator, so distinct fractions have distinct keys.
    """
    x = r.x
    best_key, best_n, best_d = (max(x, 1), 1, 0), x, 1
    for nn, nd, pn, pd, side, k in descent_runs(x, r.m):
        if side is ResidueClass.NEGATIVE:
            an, ad, bn, bd, negative = -nn, nd, pn, pd, 1
        else:
            an, ad, bn, bd, negative = pn, pd, -nn, nd, 0
        if ad + bd > best_key[0]:
            # Mediant denominators rise along the whole walk and bound the
            # key from below, so no later fraction can win.
            break
        c = (an - ad) // (bn + bd)
        for j in (1,) if c < 1 else (k,) if c >= k else (c, c + 1):
            n = an - j * bn
            d = ad + j * bd
            key = (n if n > d else d, d, negative)
            if key < best_key:
                best_key, best_n, best_d = key, -n if negative else n, d
    return Fraction(best_n, best_d)


def sqrt_bound_witness(r: Residue) -> Fraction:
    """A representation of r with |n| <= sqrt(M) and d <= sqrt(M).

    The first qualifying fraction in trace order is returned (the harness
    checks this against a scan of the step walk).  Each trace pair adds one
    fraction to the pair before it, and -M/0 never qualifies, so trace
    order is x/1 and then each run's mediants in order of j.  Within a run
    |n| falls and d rises, so only the smallest j with |n| <= isqrt(M) can
    be the run's first qualifying mediant.  Everything stays in exact
    integers.  Every residue has such a representation; if the scan ever
    comes up empty that falsifies the bound and is raised as an
    InvariantError.
    """
    m = r.m
    s = isqrt(m)
    if r.x <= s:
        return Fraction(r.x, 1)
    for nn, nd, pn, pd, side, k in descent_runs(r.x, m):
        if side is ResidueClass.NEGATIVE:
            an, ad, bn, bd, sign = -nn, nd, pn, pd, -1
        else:
            an, ad, bn, bd, sign = pn, pd, -nn, nd, 1
        j = max(1, -((s - an) // bn))  # smallest j with an - j*bn <= s
        if j <= k and ad + j * bd <= s:
            return Fraction(sign * (an - j * bn), ad + j * bd)
    raise InvariantError(
        f"no sqrt-bounded representation found for {r}; "
        f"this falsifies the existence bound and should be reported"
    )


def minimum_table(m: int) -> list[Fraction]:
    """minimum_fraction for x = 1..M-1, from one pass over small candidates.

    Every x has a representation with |n| <= isqrt(M) and d <= isqrt(M), so
    its minimum is among those.  They are walked in criterion_key order:
    max coefficient c = 1, 2, ..., then d = 1..c, then the positive
    numerator before the negative one (for d < c the numerator is +-c, for
    d = c it is 0..c and then -1..-c).  A candidate n/d represents x iff
    x*d = n (mod M): with g = gcd(d, M) that needs g | n, and then holds for
    every x = (n/g) * (d/g)^-1 (mod M/g).  The first candidate to reach x is
    its minimum.  The walk stops once every x is reached, after about M
    candidates; x = 0 is reached first, by 0/1, and left out of the result.
    If some x is never reached that falsifies the bound and is raised as an
    InvariantError.
    """
    check_modulus(m)
    table: list[Fraction | None] = [None] * m
    left = m
    per_d = [(0, 0, 0)]  # per denominator d: (g, (d/g)^-1 mod M/g, M/g)
    for c in range(1, isqrt(m) + 1):
        g = gcd(c, m)
        per_d.append((g, pow(c // g, -1, m // g), m // g))
        for d in range(1, c + 1):
            g, inv, step = per_d[d]
            numerators = (c, -c) if d < c else (*range(c + 1), *range(-1, -c - 1, -1))
            if g == 1:
                # The common case, one x per candidate.
                for n in numerators:
                    x = n * inv % m
                    if table[x] is None:
                        table[x] = Fraction(n, d)
                        left -= 1
            else:
                for n in numerators:
                    if n % g == 0:
                        for x in range(n // g * inv % step, m, step):
                            if table[x] is None:
                                table[x] = Fraction(n, d)
                                left -= 1
            if not left:
                return table[1:]
    raise InvariantError(
        f"no sqrt-bounded representation found for {table.index(None)} (mod {m}); "
        f"this falsifies the existence bound and should be reported"
    )
