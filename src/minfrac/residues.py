"""Signed fractional representations of residues modulo M.

A fraction N/D represents x in Z/MZ when x*D is congruent to N (mod M).
Numerators come in two flavours: positive residues (x*D mod M, denominators
1..M) and negative residues (the same value shifted down by M, denominators
0..M-1).  All arithmetic is exact arbitrary-precision integer arithmetic;
there is no floating point anywhere in this package.
"""

from operator import attrgetter


def check_modulus(m: int) -> int:
    """Validate a modulus (an integer >= 2) and return it."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return m


def check_residue(x: int, m: int) -> None:
    """Refuse an x outside [0, M), the residues every theorem is stated over."""
    if not 0 <= x < m:
        raise ValueError(f"residue {x} out of range [0, {m})")


def check_pair(x: int, m: int, neg_n: int, neg_d: int, pos_n: int, pos_d: int) -> None:
    """Refuse a pair outside the pair routes' domain, with ValueError.

    x must be in [0, M), both sides must represent x (x*d = n mod M), and
    the denominators must lie in their classes' ranges: 0..M-1 negative,
    1..M positive.  Checked in that order, negative side first.
    """
    check_residue(x, m)
    if (x * neg_d - neg_n) % m:
        raise ValueError(f"{neg_n}/{neg_d} does not represent {x} (mod {m})")
    if (x * pos_d - pos_n) % m:
        raise ValueError(f"{pos_n}/{pos_d} does not represent {x} (mod {m})")
    if not 0 <= neg_d <= m - 1:
        raise ValueError(f"negative-class denominator {neg_d} out of range [0, {m - 1}]")
    if not 1 <= pos_d <= m:
        raise ValueError(f"positive-class denominator {pos_d} out of range [1, {m}]")


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
        check_residue(x, m)
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
