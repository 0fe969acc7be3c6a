"""Pair minimality, the minimum fraction and the sqrt(M) bound witness.

Pair minimality is the invariant the descent preserves: no denominator
below the pair's own in either class gives a residue magnitude under the
threshold |neg.n| + |pos.n|.  Per-class minimality of each side (no smaller
same-class denominator gives a numerator of smaller magnitude) follows from
it, because the threshold is at least either side's magnitude, so it needs
no check of its own.  A pair of class residues is minimal iff its
determinant pos.n*neg.d - neg.n*pos.d is exactly M, just as two fractions
are Farey neighbours iff their determinant is 1, so is_minimal_pair is one
comparison on the pair's four integers, with no scan and no walk (its
docstring has the proof).  The global minimum fraction is the
representation with the smallest maximum coefficient, ties broken by the
smaller denominator and then by the positive class (a tie of the same |n|
and d in both classes is possible when 2x = 0 mod M).
"""

from math import gcd, isqrt

from .descent import descent_runs
from .errors import InvariantError
from .residues import Fraction, Residue, check_modulus, check_pair


def is_minimal_pair(x: int, m: int, neg_n: int, neg_d: int, pos_n: int, pos_d: int) -> bool:
    """Whether the pair (neg_n/neg_d, pos_n/pos_d) of x mod m is minimal, in O(1).

    The pair is minimal iff any denominator whose residue magnitude (in
    either class) drops below |neg_n| + |pos_n| is at least as large as the
    pair's denominator of the matching class: iff the smallest |negative
    residue| over 0 <= d < neg_d and the smallest positive residue over
    1 <= d < pos_d are both at least that threshold.  The negative side
    has neg_n < 0 and the positive side pos_n >= 0; residues.check_pair
    refuses a pair outside that domain.  The verdict is a determinant test.

    Let L = {(n, d) : n = x*d (mod M)}, a lattice of index M in Z^2, and
    take the sides at their class residues: a = (-A, a.d) with 1 <= A <= M
    and b = (B, b.d) with 0 <= B < M.  A witness against the pair is a
    point w of L with w.n < 0, 0 <= w.d < a.d and |w.n| < A + B, or with
    w.n >= 0, 1 <= w.d < b.d and w.n < A + B; the pair is minimal iff there
    is none, as a class's residue at d is at most |n| for any such point.
    Both sides are in L, so det = B*a.d + A*b.d is a positive multiple of
    M: it is M times the index of Za + Zb in L.

    det = M means minimal.  Then a and b are a basis of L, and every w in
    L is s*a + t*b for integers s, t.  If s, t <= 0, then w.d <= 0, and
    w.d = 0 only for w = s*a with s*a.d = 0, whose w.n = -s*A >= 0: neither
    kind of witness.  If s, t >= 0, not both 0, then w.d >= a.d when s >= 1,
    w.d >= b.d when t >= 1, and w.n < 0 when t = 0.  If s and t have
    opposite signs, |w.n| = |s|*A + |t|*B >= A + B.  So there is no
    witness.

    det = k*M with k >= 2 means not minimal.  The half-open parallelogram
    {s*a + t*b : 0 <= s, t < 1} holds k points of L, so it holds some
    w != 0.  If t = 0, w = s*a has w.n = -s*A < 0 and w.d = s*a.d < a.d
    (a.d > 0, since at a.d = 0 the side is -M/0 and no multiple s*a with
    0 < s < 1 is in L): a negative witness.  If s = 0, w = t*b is a
    positive witness with 1 <= w.d < b.d.  Otherwise, if
    (1 - t)*b.d > s*a.d, then b - w = (s*A + (1 - t)*B, (1 - t)*b.d - s*a.d)
    is a positive witness; if not, w - b is a negative witness, with
    0 <= d < a.d and |n| = s*A + (1 - t)*B < A + B.

    A numerator off its class residue by i (negative side) or j (positive
    side) multiples of M, i, j >= 0 and not both 0, still represents x but
    raises the threshold above M: past the magnitude M of -M/0 at d = 0 and
    x at d = 1.  So that pair is minimal iff both its ranges are empty,
    neg_d = 0 and pos_d = 1.  Its determinant is the class pair's plus
    M*(i*pos_d + j*neg_d), which is M only for such a pair; and -M/0 with
    x/1 has determinant M.  So one test covers both: det = M, or both
    ranges empty.
    """
    check_pair(x, m, neg_n, neg_d, pos_n, pos_d)
    return pos_n * neg_d - neg_n * pos_d == m or neg_d == 0 and pos_d == 1


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
    best_max, best_n, best_d = max(x, 1), x, 1
    for an, ad, bn, bd, side, k in descent_runs(x, r.m):
        if ad + bd > best_max:
            # Mediant denominators rise along the whole walk and bound the
            # key from below, so no later fraction can win.
            break
        c = (an - ad) // (bn + bd)
        negative = side == "negative"
        for j in (1,) if c < 1 else (k,) if c >= k else (c, c + 1):
            n = an - j * bn
            d = ad + j * bd
            a = n if n > d else d
            # The key (a, d, negative), compared field by field.
            if a < best_max or a == best_max and (
                d < best_d or d == best_d and best_n < 0 and not negative
            ):
                best_max, best_n, best_d = a, -n if negative else n, d
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
    for an, ad, bn, bd, side, k in descent_runs(r.x, m):
        j = max(1, -((s - an) // bn))  # smallest j with an - j*bn <= s
        if j <= k and ad + j * bd <= s:
            n = an - j * bn
            return Fraction(-n if side == "negative" else n, ad + j * bd)
    raise InvariantError(
        f"no sqrt-bounded representation found for {r}; "
        f"this falsifies the existence bound and should be reported"
    )


def minimum_table(m: int) -> tuple[list[int], list[int]]:
    """minimum_fraction for every x = 0..M-1, as numerators and denominators.

    Returns two lists of length M indexed by x: the minimum of x is
    numerators[x]/denominators[x].  x = 0 is a real entry, 0/1, the first
    candidate the walk reaches.  Plain ints keep a 10^6-entry table to two
    lists of small ints, where one Fraction per x would be most of its memory.

    Every x has a representation with |n| <= isqrt(M) and d <= isqrt(M), so
    its minimum is among those.  They are walked in the minimum's order:
    max coefficient c = 1, 2, ..., then d = 1..c, then the positive
    numerator before the negative one (for d < c the numerator is +-c, for
    d = c it is 0..c and then -1..-c).  A candidate n/d represents x iff
    x*d = n (mod M): with g = gcd(d, M) that needs g | n, and then holds for
    every x = (n/g) * (d/g)^-1 (mod M/g).  The first candidate to reach x is
    its minimum; a denominator of 0 marks an x not reached yet.  The walk
    stops once every x is reached, after about M candidates.  If some x is
    never reached that falsifies the bound and is raised as an
    InvariantError.
    """
    check_modulus(m)
    numerators = [0] * m
    denominators = [0] * m
    left = m
    per_d = [(0, 0, 0)]  # per denominator d: (g, (d/g)^-1 mod M/g, M/g)
    for c in range(1, isqrt(m) + 1):
        g = gcd(c, m)
        per_d.append((g, pow(c // g, -1, m // g), m // g))
        last_row = (*range(c + 1), *range(-1, -c - 1, -1))  # the numerators for d = c
        for d in range(1, c + 1):
            g, inv, step = per_d[d]
            if g == 1:
                # One x per candidate.
                for n in (c, -c) if d < c else last_row:
                    x = n * inv % m
                    if not denominators[x]:
                        numerators[x] = n
                        denominators[x] = d
                        left -= 1
            else:
                for n in (c, -c) if d < c else last_row:
                    if n % g == 0:
                        for x in range(n // g * inv % step, m, step):
                            if not denominators[x]:
                                numerators[x] = n
                                denominators[x] = d
                                left -= 1
            if not left:
                return numerators, denominators
    raise InvariantError(
        f"no sqrt-bounded representation found for {denominators.index(0)} (mod {m}); "
        f"this falsifies the existence bound and should be reported"
    )
