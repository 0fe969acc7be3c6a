"""Signed fractional representations of residues modulo M.

A fraction N/D represents x in Z/MZ when x*D is congruent to N (mod M).
Numerators come in two flavours: positive residues (x*D mod M, denominators
1..M) and negative residues (the same value shifted down by M, denominators
0..M-1).  All arithmetic is exact arbitrary-precision integer arithmetic;
there is no floating point anywhere in this package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ResidueClass(enum.Enum):
    """Which residue flavour a fraction's numerator carries."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    def __str__(self) -> str:
        return self.value


def check_modulus(m: int) -> int:
    """Validate a modulus (an integer >= 2) and return it."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return m


@dataclass(frozen=True)
class Residue:
    """A residue x in Z/mZ, kept in canonical range 0 <= x < m."""

    x: int
    m: int

    def __post_init__(self) -> None:
        check_modulus(self.m)
        if not 0 <= self.x < self.m:
            raise ValueError(f"residue {self.x} out of range [0, {self.m})")

    def __str__(self) -> str:
        return f"{self.x} (mod {self.m})"


@dataclass(frozen=True)
class Fraction:
    """One candidate representation N/D of some residue.

    The numerator is signed; the denominator is never negative.  The residue
    class is determined by the numerator's sign: negative numerators are
    negative-class, everything else (including 0) is positive-class.  A
    zero denominator only occurs for the negative-class fraction -M/0.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"denominator must be >= 0, got {self.d}")
        if self.n >= 0 and self.d == 0:
            raise ValueError("positive-class fractions need a denominator >= 1")

    @property
    def residue_class(self) -> ResidueClass:
        return ResidueClass.NEGATIVE if self.n < 0 else ResidueClass.POSITIVE

    def __str__(self) -> str:
        return f"{self.n}/{self.d}"


def parse_fraction(text: str) -> Fraction:
    """Parse "n/d" (or a bare integer, meaning denominator 1) into a Fraction."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s), 1)


def pos_residue(r: Residue, d: int) -> int:
    """Positive residue of r for denominator d: (x*d) mod M, in [0, M).

    Defined for denominators 1..M inclusive.
    """
    if not 1 <= d <= r.m:
        raise ValueError(f"positive-class denominator {d} out of range [1, {r.m}]")
    return (r.x * d) % r.m


def neg_residue(r: Residue, d: int) -> int:
    """Negative residue of r for denominator d: ((x*d) mod M) - M, in [-M, -1].

    Defined for denominators 0..M-1 inclusive.
    """
    if not 0 <= d <= r.m - 1:
        raise ValueError(f"negative-class denominator {d} out of range [0, {r.m - 1}]")
    return (r.x * d) % r.m - r.m


def residue_fraction(r: Residue, d: int, cls: ResidueClass) -> Fraction:
    """The class-c fraction with denominator d that represents r."""
    if cls is ResidueClass.POSITIVE:
        return Fraction(pos_residue(r, d), d)
    return Fraction(neg_residue(r, d), d)


def represents(r: Residue, f: Fraction) -> bool:
    """True iff x*D is congruent to N (mod M)."""
    return (r.x * f.d - f.n) % r.m == 0


def mediant(f1: Fraction, f2: Fraction) -> Fraction:
    """The mediant (N1+N2)/(D1+D2).

    If both inputs represent the same residue x, so does the mediant; this
    is the Farey-sequence mediant property carried over to Z/MZ.
    """
    return Fraction(f1.n + f2.n, f1.d + f2.d)


@dataclass(frozen=True)
class FractionPair:
    """A negative-class and a positive-class fraction for the same residue.

    Every pair produced by the descent satisfies the determinant identity
    pos.n * neg.d - neg.n * pos.d = M (the modular analogue of the Farey
    neighbour identity, which equals 1 instead).
    """

    neg: Fraction
    pos: Fraction

    def __post_init__(self) -> None:
        if self.neg.n >= 0:
            raise ValueError(f"neg side must have a negative numerator, got {self.neg}")
        if self.pos.n < 0:
            raise ValueError(f"pos side must have a non-negative numerator, got {self.pos}")

    def determinant(self) -> int:
        return self.pos.n * self.neg.d - self.neg.n * self.pos.d

    def __str__(self) -> str:
        return f"({self.neg}, {self.pos})"
