"""Pair minimality, the minimum fraction and the sqrt(M) bound witness.

Pair minimality is the invariant the descent preserves: no denominator
below the pair's own in either class gives a residue magnitude under the
threshold |neg.n| + |pos.n|.  Per-class minimality of each side (no smaller
same-class denominator gives a numerator of smaller magnitude) follows from
it, because the threshold is at least either side's magnitude, so it needs
no check of its own.  The fractions the descent visits are exactly each
class's prefix-minimum records, so is_minimal_pair reads both classes'
minima off the descent's runs in O(log M) rather than scanning every
smaller denominator.  The global minimum fraction is the representation
with the smallest maximum coefficient, ties broken by the smaller
denominator.
"""

from __future__ import annotations

from math import gcd, isqrt

from .descent import descent_runs
from .errors import InvariantError
from .residues import (
    Fraction,
    FractionPair,
    Residue,
    ResidueClass,
    check_modulus,
    represents,
)


def criterion_key(f: Fraction) -> tuple[int, int, int]:
    """Total order for picking the minimum fraction.

    Smallest maximum coefficient first, then smaller denominator; a residual
    tie (same |n| and d in both classes, possible when 2x = 0 mod M) prefers
    the positive-class fraction.
    """
    return (max(abs(f.n), f.d), f.d, 0 if f.n >= 0 else 1)


def is_minimal_pair(p: FractionPair, r: Residue) -> bool:
    """Check the generalized pair-minimality condition in O(log M) steps.

    The pair is minimal iff any denominator whose residue magnitude (in
    either class) drops below |neg.n| + |pos.n| is at least as large as the
    pair's denominator of the matching class: iff the smallest |negative
    residue| over 0 <= d < neg.d and the smallest positive residue over
    1 <= d < pos.d are both at least that threshold.  A side that does not
    represent r, or whose denominator is outside its class's range, raises
    ValueError.  The work is done by pair_minimal, on the pair's four
    integers; the harness calls that directly on every pair it checks.
    """
    neg, pos = p.neg, p.pos
    return pair_minimal(r.x, r.m, neg.n, neg.d, pos.n, pos.d)


def pair_minimal(x: int, m: int, neg_n: int, neg_d: int, pos_n: int, pos_d: int) -> bool:
    """is_minimal_pair on plain integers: the pair (neg_n/neg_d, pos_n/pos_d) of x mod m.

    The sides are taken as a FractionPair would hold them (neg_n < 0 <=
    pos_n); representation and denominator ranges are checked here, with
    is_minimal_pair's messages.

    Both classes' minima are read off the descent.  Record argument: let
    (a, b) be a walk pair whose next step turns a into a + b.  Its
    determinant is M, the index of the lattice {(n, d) : n = x*d (mod M)},
    so a and b are a basis and every representation of r is w = s*a + t*b
    for integers s, t.  If 0 <= w.d < a.d + b.d then s and t are not both
    positive; s <= 0 < t puts w in b's class, t <= 0 < s gives
    |w.n| >= |a.n|, and s, t <= 0 gives w.d <= 0.  So no denominator
    strictly between a.d and (a + b).d has a magnitude below |a.n| in a's
    class: the visited fractions of each class, from -M/0 and x/1 on, are
    exactly its prefix-minimum records, and the minimum below a bound D is
    the magnitude of the class's last visited fraction with denominator
    below D.  In a run that turns a into a + j*b (j = 1..k) that fraction
    is at j = (D - 1 - a.d) // b.d, clamped to k.  Visited denominators rise
    along the whole walk, so it stops at the first run whose first mediant
    is past both bounds.  The runs are those of descent_runs, walked inline:
    this is the harness's hot loop, and the generator would cost about as
    much as the walk.
    """
    for n, d in ((neg_n, neg_d), (pos_n, pos_d)):
        if (x * d - n) % m:  # represents(), inlined for the same reason
            raise ValueError(f"{n}/{d} does not represent {x} (mod {m})")
    if not 0 <= neg_d <= m - 1:
        raise ValueError(f"negative-class denominator {neg_d} out of range [0, {m - 1}]")
    if not 1 <= pos_d <= m:
        raise ValueError(f"positive-class denominator {pos_d} out of range [1, {m}]")
    threshold = pos_n - neg_n  # |neg.n| + |pos.n|
    # -M/0 and x/1, the first record of each class.
    if neg_d > 0 and m < threshold or pos_d > 1 and x < threshold:
        return False
    last = neg_d if neg_d > pos_d else pos_d
    nm, nd, pn, pd = m, 0, x, 1  # nm = |neg.n|
    while pn and nd + pd < last:
        if nm > pn:  # a negative run: nm/nd becomes (nm - j*pn)/(nd + j*pd)
            k = (nm - 1) // pn
            j = (neg_d - 1 - nd) // pd  # the run's last mediant below the bound
            if j >= 1 and nm - (j if j < k else k) * pn < threshold:
                return False
            nm -= k * pn
            nd += k * pd
        else:  # a positive run, ties included: pn/pd becomes (pn - j*nm)/(pd + j*nd)
            k = pn // nm
            j = (pos_d - 1 - pd) // nd
            if j >= 1 and pn - (j if j < k else k) * nm < threshold:
                return False
            pn -= k * nm
            pd += k * nd
    return True


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
