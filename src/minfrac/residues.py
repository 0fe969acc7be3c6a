"""Signed fractional representations of residues modulo M.

A fraction N/D represents x in Z/MZ when x*D is congruent to N (mod M).
Numerators come in two flavours: positive residues (x*D mod M, denominators
1..M) and negative residues (the same value shifted down by M, denominators
0..M-1).  All arithmetic is exact arbitrary-precision integer arithmetic;
there is no floating point anywhere in this package.
"""

from __future__ import annotations

import enum
from operator import attrgetter


class ResidueClass(enum.Enum):
    """Which residue flavour a fraction's numerator carries."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


def check_modulus(m: int) -> int:
    """Validate a modulus (an integer >= 2) and return it."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return m


class Record:
    """Base for the value types: fields are the subclass's __slots__.

    Gives what a frozen dataclass would (field-wise equality within one
    class, a hash of the fields and a `Name(field=value, ...)` repr) without
    importing dataclasses.  Fields are set once in __init__ and never
    reassigned, though nothing enforces that.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)  # a plain callable: _values(obj)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Residue(Record):
    """A residue x in Z/mZ, kept in canonical range 0 <= x < m."""

    __slots__ = ("x", "m")

    def __init__(self, x: int, m: int) -> None:
        check_modulus(m)
        if not 0 <= x < m:
            raise ValueError(f"residue {x} out of range [0, {m})")
        self.x = x
        self.m = m

    def __str__(self) -> str:
        return f"{self.x} (mod {self.m})"


class Fraction(Record):
    """One candidate representation N/D of some residue.

    The numerator is signed; the denominator is never negative.  The residue
    class is determined by the numerator's sign: negative numerators are
    negative-class, everything else (including 0) is positive-class.  A
    zero denominator only occurs for the negative-class fraction -M/0.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        if d < 0:
            raise ValueError(f"denominator must be >= 0, got {d}")
        if n >= 0 and d == 0:
            raise ValueError("positive-class fractions need a denominator >= 1")
        self.n = n
        self.d = d

    def __str__(self) -> str:
        return f"{self.n}/{self.d}"


def represents(r: Residue, f: Fraction) -> bool:
    """True iff x*D is congruent to N (mod M)."""
    return (r.x * f.d - f.n) % r.m == 0
