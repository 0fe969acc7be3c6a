"""Brute-force ground truth for cross-checking the algorithmic modules.

Everything here recomputes residues from first principles and evaluates
definitions by exhaustive iteration: the per-call routes multiply and take
the residue mod M at each denominator, and the prefix scan, which `verify`
makes once per residue, steps from one denominator's residue to the next by
adding x and subtracting M on a wrap.  The duplication with the
residues/minimality modules is deliberate: this module has to stay an
independent witness, so it shares the data types and their input checks
(residues) with them, but none of the arithmetic it verifies.

Brute-force work is gated behind the ceilings of the errors module, so a
typo'd modulus cannot start an hours-long run by accident; exceeding a
ceiling raises CeilingExceeded rather than silently proceeding.  The CLI's
`enumerate` is enumerate_class.  prefix_scan alone checks no ceiling:
`verify` calls it once per residue, after run_checks has held the whole
modulus range to the pair-check ceiling (errors.check_pair_ceiling) once.

brute_pair_minimal takes a pair as is_minimal_pair does, as its four
integers (neg_n, neg_d, pos_n, pos_d).  `verify` reads the same verdict off
the prefix scan's minima, one scan per residue for all its pairs.
"""

from collections.abc import Iterator
from math import inf

from .errors import (
    DEFAULT_ENUMERATION_CEILING, check_ceiling, check_minimum_ceiling, check_pair_ceiling,
)
from .residues import Fraction, Residue, check_pair, check_residue


def enumerate_class(r: Residue, cls: str, ceiling: int | None = None) -> Iterator[tuple[int, int]]:
    """Every class-cls representation of r as (n, d), one per denominator, in denominator order.

    cls is "positive" (denominators 1..M) or "negative" (0..M-1); anything
    else is a ValueError.  Either way the stream has exactly M entries.  The
    ceiling is checked here, at the call, and the stream is lazy: `minfrac
    enumerate` writes it out entry by entry, and a refused modulus writes
    nothing.
    """
    if cls not in ("positive", "negative"):
        raise ValueError(f"residue class must be 'positive' or 'negative', got {cls!r}")
    check_ceiling(r.m, ceiling, DEFAULT_ENUMERATION_CEILING, "class enumeration: modulus")
    x, m = r.x, r.m
    if cls == "positive":
        return ((x * d % m, d) for d in range(1, m + 1))
    return ((x * d % m - m, d) for d in range(m))


def brute_minimum(r: Residue, ceiling: int | None = None) -> Fraction:
    """Criterion-minimal representation found by scanning every denominator.

    Applies the minimum's order -- smallest maximum coefficient, then smaller
    denominator, then positive class -- spelled out locally so this path
    shares no code with the module it checks.
    Denominators run downwards, and each one's negative candidate comes
    before its positive one, so every tie on the maximum coefficient goes to
    the later candidate through the denominator or the class tie-break:
    none of the order is left to the scan.
    Only `minfrac table --cross-check` calls it: `verify` reads the same
    minimum off prefix_scan, a different scan that the tests hold to this
    one.
    """
    check_minimum_ceiling(r.m, ceiling)
    x, m = r.x, r.m
    best_n, best_d, best_max = 0, m, m  # d = M has only the positive candidate, 0/M
    for d in range(m - 1, 0, -1):
        rp = (x * d) % m
        a = m - rp  # the negative candidate, rp - M
        maxc = a if a > d else d
        if maxc < best_max or maxc == best_max and d < best_d:
            best_n, best_d, best_max = rp - m, d, maxc
        maxc = rp if rp > d else d  # the positive candidate, rp
        if maxc < best_max or maxc == best_max and (d < best_d or d == best_d and best_n < 0):
            best_n, best_d, best_max = rp, d, maxc
    return Fraction(best_n, best_d)


def brute_pair_minimal(
    x: int, m: int, neg_n: int, neg_d: int, pos_n: int, pos_d: int, ceiling: int | None = None
) -> bool:
    """Evaluate the pair-minimality definition literally, denominator by denominator.

    For each d, if the residue magnitude in either class is below the sum of
    the pair's numerator magnitudes, d must be >= the pair's denominator of
    that class.  At or above that denominator the implication holds whatever
    the residue, so each class is scanned only below it: positive residues
    for d = 1..pos_d-1, negative ones for d = 0..neg_d-1.  Gated by the
    pair-check ceiling, which is checked first; then residues.check_pair
    refuses a pair outside the domain, as it does for is_minimal_pair.
    """
    check_pair_ceiling(m, ceiling)
    check_pair(x, m, neg_n, neg_d, pos_n, pos_d)
    threshold = -neg_n + pos_n
    for d in range(1, pos_d):
        if (x * d) % m < threshold:
            return False
    for d in range(0, neg_d):
        if m - (x * d) % m < threshold:
            return False
    return True


def prefix_scan(x: int, m: int) -> tuple[list[float], list[float], tuple[int, int]]:
    """Running minima of both classes and the criterion-minimal representation of x mod m.

    Returns (neg, pos, minimum).  neg[D] is the smallest |negative residue|
    over 0 <= d < D, and pos[D] the smallest positive residue over
    1 <= d < D, for every denominator D a pair can carry (0..M).  An empty
    range (neg[0], pos[0] and pos[1]) reads +inf, above every pair
    threshold |neg.n| + |pos.n|, including those of pairs whose numerators
    are off their class residues by multiples of M.  A pair is minimal iff
    neg[neg.d] and pos[pos.d] are both at least its threshold: the same
    definition brute_pair_minimal evaluates, with the scan over d shared by
    every pair of one residue.  minimum is the representation brute_minimum
    finds, as (n, d).  An x outside [0, M) raises ValueError.  No ceiling is
    checked: the caller holds m to one, as run_checks does.

    The scan walks d = 1..M-1 upwards and gets each positive residue
    x*d % M from the previous one by adding x and, past M, subtracting M
    once.  It appends each class's running minimum as slot d + 1, so it
    costs O(M) per residue.  d = 0 has residue 0, the negative candidate
    -M/0 of magnitude M; the positive class starts at d = 1.  A negative
    residue's magnitude is M minus the positive one, so a new smallest
    |negative residue| is a new largest positive residue (M - rp < low iff
    rp > high): the scan tracks that largest residue and subtracts only at
    such a record.

    The minimum is compared only at records: denominators whose residue
    magnitude sets a new running minimum of their class.  Lemma: a
    non-record d loses to the earlier record d' < d of its class that holds
    the running minimum.  d' has a magnitude no larger than d's, so
    max(|n'|, d') <= max(|n|, d): d loses on the max coefficient or, on a
    tie, strictly on the denominator.  So only records can win.  That record
    is no candidate only when it is the negative class's d = 0.  Then d's
    candidate is -M/d, and the positive 0/d at the same d has the smaller
    max d < M.
    Order: the scan starts from best = 0/M with max M, the positive
    candidate at d = M, and replaces it only on a strict <.  Because the
    scan runs upward, a tie on the max goes to the smaller d, tested first.
    At a shared d the positive candidate is tested before the negative one,
    so it wins the class tie.  x/1 has max below M, so 0/M never stands.
    """
    check_residue(x, m)
    neg = [inf, m]  # d = 0: -M/0
    pos = [inf, inf]
    low_neg = m
    low_pos = m  # above every residue, so d = 1 is a record; never a slot
    high = rp = 0
    best_n, best_d, best_max = 0, m, m
    for d in range(1, m):
        rp += x
        if rp >= m:
            rp -= m
        if rp < low_pos:
            low_pos = rp
            maxc = rp if rp > d else d
            if maxc < best_max:
                best_n, best_d, best_max = rp, d, maxc
        if rp > high:
            high = rp
            low_neg = m - rp  # the negative candidate, rp - M
            maxc = low_neg if low_neg > d else d
            if maxc < best_max:
                best_n, best_d, best_max = -low_neg, d, maxc
        neg.append(low_neg)
        pos.append(low_pos)
    return neg, pos, (best_n, best_d)
