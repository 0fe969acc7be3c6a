"""Seeded inputs for the minfrac benchmark, built without any minfrac code.

Every call carries the descent step count of its residues, computed here by
Euclid's algorithm: the mediant walk for x mod M takes exactly the sum of the
partial quotients of x/M steps.  That count is both the input cap (an x close
to a small-denominator rational of M would need about M steps and never end)
and the reference the traced run checks the observed walk length against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

SECP256K1_P = 2**256 - 2**32 - 977
CURVE25519_P = 2**255 - 19

# Largest accepted walk lengths; longer draws are redrawn.  Skewed x reach
# about 2**16 steps by design.  Uniform x stay typical: about 7% of uniform
# 256-bit draws exceed 2**12 steps, and those few long trace calls (up to
# 2**17 steps, a 50 MB JSON document) would set a run's memory and tail.
STEP_CAP = 2**17
UNIFORM_STEP_CAP = 2**12

GOLDEN = (math.sqrt(5) - 1) / 2

CHECKS = ("determinant", "minimality", "sqrt_bound", "progress", "agreement")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checker needs to know about it."""

    kind: str  # "repr", "trace", "table" or "verify"
    argv: tuple[str, ...]
    m: int  # the modulus; for verify, the top of the range
    x: int = 0
    steps: int = 0  # Euclid step count of (x, m) for single-residue calls
    residues: int = 1  # residues the call computes, for residues_per_s
    random_pairs: int = 0  # verify only: --random-pairs


def partial_quotients(x: int, m: int) -> list[int]:
    """Partial quotients a1, a2, ... of x/m = [0; a1, a2, ...] (0 <= x < m)."""
    out = []
    a, b = m, x
    while b:
        q, b_next = divmod(a, b)
        out.append(q)
        a, b = b, b_next
    return out


def euclid_steps(x: int, m: int) -> int:
    """Descent step count of x mod m: the sum of the partial quotients of x/m."""
    return sum(partial_quotients(x, m))


def _cf_value(quotients: list[int]) -> Fraction:
    value = Fraction(0)
    for a in reversed(quotients):
        value = 1 / (a + value)
    return value


def uniform_x(rng: random.Random, m: int, cap: int = UNIFORM_STEP_CAP) -> tuple[int, int]:
    """A uniform residue in [1, m) whose walk stays under the cap, with its steps."""
    while True:
        x = rng.randrange(1, m)
        steps = euclid_steps(x, m)
        if steps <= cap:
            return x, steps


def skewed_x(rng: random.Random, m: int, k: int, cap: int = STEP_CAP) -> tuple[int, int]:
    """A residue whose x/m has the partial quotient k, with its steps.

    The continued fraction is chosen as a short random prefix, then k, then
    a random tail: x is drawn uniformly from the open interval of reals whose
    expansion starts [0; prefix, k], which lies between [0; prefix, k] and
    [0; prefix, k + 1].
    """
    while True:
        prefix = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        lo, hi = sorted((_cf_value(prefix + [k]), _cf_value(prefix + [k + 1])))
        x = rng.randrange(math.floor(lo * m) + 1, math.ceil(hi * m))
        steps = euclid_steps(x, m)
        if steps <= cap:
            return x, steps


def odd_composite(rng: random.Random, bits: int = 256) -> int:
    """A product of two odd bits/2-bit numbers: odd and composite by construction."""
    half = bits // 2
    p, q = (rng.getrandbits(half) | (1 << (half - 1)) | 1 for _ in range(2))
    return p * q


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _smooth_numbers(lo: int, hi: int) -> list[int]:
    """Every 7-smooth integer in [lo, hi]."""
    out = []
    for n in range(lo, hi + 1):
        r = n
        for p in (2, 3, 5, 7):
            while r % p == 0:
                r //= p
        if r == 1:
            out.append(n)
    return out


def _single(kind: str, m: int, x: int, steps: int) -> Call:
    argv = (kind, "-m", str(m), "--x", str(x))
    if kind == "trace":
        argv += ("--format", "json")
    return Call(kind=kind, argv=argv, m=m, x=x, steps=steps)


def query_calls(seed: int, n: int = 600) -> list[Call]:
    """Single-residue calls on 256-bit moduli.

    Calls come in shuffled blocks of five (three repr on uniform x, one repr
    on skewed x, one trace on uniform x), so any prefix of the list keeps the
    60/20/20 mix and runs that stop at different points stay comparable.
    The skewed quotient K is log-uniform in 2**8..2**16, stratified: the
    j-th skewed call takes log2 K = 8 + 8 * frac(u + j * GOLDEN) for a seeded
    u, so every prefix covers the range evenly instead of by chance.
    """
    rng = random.Random(f"query:{seed}")
    moduli = (SECP256K1_P, CURVE25519_P, odd_composite(rng))
    offset = rng.random()
    calls: list[Call] = []
    while len(calls) < n:
        block = ["repr", "repr", "repr", "skewed", "trace"]
        rng.shuffle(block)
        for kind in block:
            m = rng.choice(moduli)
            if kind == "skewed":
                k = int(2 ** (8 + 8 * ((offset + len(calls) // 5 * GOLDEN) % 1)))
                x, steps = skewed_x(rng, m, k)
            else:
                x, steps = uniform_x(rng, m)
            calls.append(_single("trace" if kind == "trace" else "repr", m, x, steps))
    return calls[:n]


def table_moduli(seed: int, scale: int = 10**4, triples: int = 16) -> list[int]:
    """Moduli within 3% of scale: a prime, a 7-smooth number and a semiprime, repeated.

    Each class is a seeded shuffle of every such number in the window
    (semiprimes are p * q with p a prime in [sqrt(scale)/2, sqrt(scale))),
    taken in turn, so a run of ten triples sees ten primes, every smooth
    number and ten semiprimes rather than one draw of each.  The mix, and
    so a run's cost, then depends little on the seed.
    """
    rng = random.Random(f"table:{seed}")
    lo, hi = scale * 97 // 100, scale * 103 // 100
    small = [p for p in range(math.isqrt(scale) // 2, math.isqrt(scale)) if _is_prime(p)]
    classes = [
        [n for n in range(lo, hi + 1) if _is_prime(n)],
        _smooth_numbers(lo, hi),
        sorted({p * q for p in small for q in range(lo // p, hi // p + 1)
                if q > p and _is_prime(q) and lo <= p * q <= hi}),
    ]
    for moduli in classes:
        if not moduli:
            raise ValueError(f"no modulus of some class within 3% of {scale}")
        rng.shuffle(moduli)
    return [moduli[i % len(moduli)] for i in range(triples) for moduli in classes]


def table_calls(seed: int, scale: int = 10**4) -> list[Call]:
    return [
        Call(kind="table", argv=("table", "-m", str(m), "--format", "json"), m=m, residues=m - 1)
        for m in table_moduli(seed, scale)
    ]


def verify_calls(seed: int, m_max: int = 72, random_pairs: int = 4) -> list[Call]:
    argv = (
        "verify", "--m-min", "2", "--m-max", str(m_max), "--checks", ",".join(CHECKS),
        "--workers", "1", "--random-pairs", str(random_pairs), "--seed", str(seed),
        "--format", "json",
    )
    residues = sum(range(2, m_max + 1)) * len(CHECKS)
    return [Call(kind="verify", argv=argv, m=m_max, residues=residues, random_pairs=random_pairs)]


def verify_expected(m_max: int, random_pairs: int) -> dict[str, int]:
    """Pass counts every check must report on the range [2, m_max].

    Derived from Euclid step counts alone: one determinant and one
    minimality pass per trace pair, one sqrt_bound pass per residue, one
    progress pass per step, and for agreement one pass per residue, per
    trace pair and per random pair.
    """
    residues = pairs = steps = 0
    for m in range(2, m_max + 1):
        for x in range(m):
            s = euclid_steps(x, m)
            residues += 1
            steps += s
            pairs += s + 1
    return {
        "determinant": pairs,
        "minimality": pairs,
        "sqrt_bound": residues,
        "progress": steps,
        "agreement": residues + pairs + random_pairs * (m_max - 1),
    }


def residues_of(call: Call) -> list[tuple[int, int]]:
    """Every residue (x, m) whose walk the call performs."""
    if call.kind in ("repr", "trace"):
        return [(call.x, call.m)]
    if call.kind == "table":
        return [(x, call.m) for x in range(1, call.m)]
    return [(x, m) for m in range(2, call.m + 1) for x in range(m)]
