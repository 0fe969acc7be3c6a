"""Brute-force ground truth for cross-checking the algorithmic modules.

Everything here recomputes residues from first principles (multiply, mod,
shift) and evaluates definitions by exhaustive iteration.  The duplication
with the residues/minimality modules is deliberate: this module has to stay
an independent witness, so it shares data types with them but no arithmetic
helpers.

Brute-force work is gated behind ceilings so a typo'd modulus cannot start
an hours-long run by accident; exceeding a ceiling raises CeilingExceeded
rather than silently proceeding.  The CLI's `enumerate` is enumerate_class;
its `trace` and `table` hold their pair and entry counts against the
enumeration ceiling through the same gate.

brute_pair_minimal takes a pair as is_minimal_pair does, as its four
integers (neg_n, neg_d, pos_n, pos_d).  `verify` reads the same verdict off
brute_prefix_scan's prefix minima, one scan per residue for all its pairs.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

from .errors import CeilingExceeded
from .residues import Fraction, Residue, ResidueClass

DEFAULT_ENUMERATION_CEILING = 10**6
DEFAULT_PAIR_CHECK_CEILING = 10**4

# Environment override for the default ceilings (every gate); explicit
# `ceiling=` arguments still win over it.
CEILING_ENV_VAR = "MINFRAC_CEILING"


def resolve_ceiling(explicit: int | None, default: int) -> int:
    """The ceiling in force: `explicit` if given, else $MINFRAC_CEILING, else `default`."""
    if explicit is not None:
        return explicit
    env = os.environ.get(CEILING_ENV_VAR)
    if env is None:
        return default
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(
            f"{CEILING_ENV_VAR}={env!r} is not an integer (decimal or 0x hex)"
        ) from None


def check_ceiling(size: int, explicit: int | None, default: int, what: str) -> None:
    """Raise CeilingExceeded if size is above the resolved ceiling.

    The ceiling is `explicit` if given, else $MINFRAC_CEILING, else `default`.
    """
    ceiling = resolve_ceiling(explicit, default)
    if size > ceiling:
        raise CeilingExceeded(size, ceiling, what)


def check_pair_ceiling(m: int, ceiling: int | None = None) -> None:
    """The pair-minimality gate: raise CeilingExceeded if modulus m is above its ceiling."""
    check_ceiling(m, ceiling, DEFAULT_PAIR_CHECK_CEILING, "pair-minimality check: modulus")


def enumerate_class(
    r: Residue, cls: ResidueClass, ceiling: int | None = None
) -> Iterator[tuple[int, int]]:
    """Every class-c representation of r as (n, d), one per denominator, in denominator order.

    Positive class: denominators 1..M; negative class: 0..M-1.  Either way
    the stream has exactly M entries.  The ceiling is checked here, at the
    call, and the stream is lazy: `minfrac enumerate` writes it out entry
    by entry, and a refused modulus writes nothing.
    """
    check_ceiling(r.m, ceiling, DEFAULT_ENUMERATION_CEILING, "class enumeration: modulus")
    x, m = r.x, r.m
    if cls is ResidueClass.POSITIVE:
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
    minimum off brute_prefix_scan, a different scan that the tests hold to
    this one.
    """
    check_ceiling(r.m, ceiling, DEFAULT_ENUMERATION_CEILING, "minimum enumeration: modulus")
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
    pair-check ceiling, which is checked first.  The domain is
    is_minimal_pair's: both sides must represent x, with the negative
    denominator in 0..M-1 and the positive one in 1..M, else ValueError with
    the same messages, in the same order: the negative side's representation,
    the positive side's, then the two ranges.
    """
    check_pair_ceiling(m, ceiling)
    if (x * neg_d - neg_n) % m:
        raise ValueError(f"{neg_n}/{neg_d} does not represent {x} (mod {m})")
    if (x * pos_d - pos_n) % m:
        raise ValueError(f"{pos_n}/{pos_d} does not represent {x} (mod {m})")
    if not 0 <= neg_d <= m - 1:
        raise ValueError(f"negative-class denominator {neg_d} out of range [0, {m - 1}]")
    if not 1 <= pos_d <= m:
        raise ValueError(f"positive-class denominator {pos_d} out of range [1, {m}]")
    threshold = -neg_n + pos_n
    for d in range(1, pos_d):
        if (x * d) % m < threshold:
            return False
    for d in range(0, neg_d):
        if m - (x * d) % m < threshold:
            return False
    return True


def brute_prefix_scan(
    r: Residue, ceiling: int | None = None
) -> tuple[list[int], list[int], Fraction]:
    """Both classes' running minima and the criterion-minimal representation, from one scan.

    Returns (neg, pos, minimum).  neg[D] is the smallest |negative residue|
    over 0 <= d < D, and pos[D] the smallest positive residue over
    1 <= d < D, for every denominator D a pair can carry (0..M).  An empty
    range reads 2M, above every pair threshold |neg.n| + |pos.n| < 2M.  A
    pair is minimal iff neg[neg.d] and pos[pos.d] are both at least its
    threshold: the same definition brute_pair_minimal evaluates, with the
    scan over d shared by every pair of one residue.  minimum is the
    representation brute_minimum finds.  Gated by the pair-check ceiling.

    The scan recomputes x*d % M for d = 1..M-1, upwards, and writes each
    class's running minimum to slot d + 1, so it costs O(M) per residue
    with no intermediate list.  d = 0 has residue 0, the negative
    candidate -M/0 of magnitude M; the positive class starts at d = 1.

    The minimum is compared only at records: denominators whose residue
    magnitude sets a new running minimum of their class.  Lemma: a
    non-record d loses to the earlier record d' < d of its class that holds
    the running minimum.  d' has a magnitude no larger than d's, so
    max(|n'|, d') <= max(|n|, d): d loses on the max coefficient or, on a
    tie, strictly on the denominator.  So only records can win.  (That record is no candidate only when it is the negative
    class's d = 0; then d's candidate is -M/d, and the positive 0/d at the
    same d has the smaller max d < M.)
    Order: the scan starts from best = 0/M with max M, the positive
    candidate at d = M, and replaces it only on a strict <.  Because the
    scan runs upward, a tie on the max goes to the smaller d, tested first.
    At a shared d the positive candidate is tested before the negative one,
    so it wins the class tie.  x/1 has max below M, so 0/M never stands.
    """
    check_pair_ceiling(r.m, ceiling)
    x, m = r.x, r.m
    empty = 2 * m
    neg = [empty] * (m + 1)
    pos = [empty] * (m + 1)
    low_neg = neg[1] = m  # d = 0
    low_pos = empty
    best_n, best_d, best_max = 0, m, m
    for d in range(1, m):
        rp = x * d % m
        if rp < low_pos:
            low_pos = rp
            maxc = rp if rp > d else d
            if maxc < best_max:
                best_n, best_d, best_max = rp, d, maxc
        a = m - rp  # the negative candidate, rp - M
        if a < low_neg:
            low_neg = a
            maxc = a if a > d else d
            if maxc < best_max:
                best_n, best_d, best_max = -a, d, maxc
        neg[d + 1] = low_neg
        pos[d + 1] = low_pos
    return neg, pos, Fraction(best_n, best_d)
