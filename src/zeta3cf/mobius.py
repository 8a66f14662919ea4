"""Moebius transformations with polynomial entries: x -> (a*x + b)/(c*x + d).

A transformation is the 2x2 matrix [[a, b], [c, d]] over Poly, kept in a
canonical normalized form so that structurally different builds of the same
map render identically: the four entries share no common rational content
and no common polynomial factor of positive degree, and the first nonzero
entry in (a, b, c, d) order has a positive leading coefficient.

Composition of maps is matrix multiplication.  Equality of maps is
projective -- equal up to a nonzero scalar -- and is decided by
cross-multiplication of entries, never by division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .polynomial import Poly, Scalar, _make, as_poly, poly_gcd

Entry = Union[Poly, int, Fraction]


class DegenerateMobius(ArithmeticError):
    """The matrix determinant is the zero polynomial (not a transformation)."""


class PoleError(ArithmeticError):
    """Evaluation hit a zero denominator; carries the offending (k, x)."""

    def __init__(self, k: int, x: object):
        super().__init__(f"pole at k={k}, x={x}")
        self.k = k
        self.x = x


@dataclass(frozen=True, eq=False)
class PolyMobius:
    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __post_init__(self) -> None:
        entries = [as_poly(self.a), as_poly(self.b), as_poly(self.c), as_poly(self.d)]
        entries = _normalize(entries)
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det.is_zero:
            raise DegenerateMobius(f"degenerate transformation {entries}")
        for name, value in zip("abcd", entries):
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls) -> "PolyMobius":
        return cls(1, 0, 0, 1)

    @property
    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a, self.b, self.c, self.d)

    @property
    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self.entries)

    def compose(self, other: "PolyMobius") -> "PolyMobius":
        """Matrix product: (self o other) as maps."""
        return PolyMobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "PolyMobius":
        """Adjugate [[d, -b], [-c, a]]; projectively the inverse map."""
        return PolyMobius(self.d, -self.b, -self.c, self.a)

    def proj_eq(self, other: "PolyMobius") -> bool:
        """True iff self == lambda * other for some nonzero scalar lambda."""
        mine = self.entries
        theirs = other.entries
        for i in range(4):
            for j in range(i + 1, 4):
                if not (mine[i] * theirs[j] - mine[j] * theirs[i]).is_zero:
                    return False
        return True

    def shifted(self, offset: int) -> "PolyMobius":
        """Substitute k -> k + offset in every entry."""
        return PolyMobius(*(e.shift(offset) for e in self.entries))

    def at_k(self, k: int) -> "PolyMobius":
        """Evaluate entries at a concrete index, giving a constant map."""
        return PolyMobius(self.a(k), self.b(k), self.c(k), self.d(k))

    def apply(self, x: Scalar, k: int) -> Fraction:
        """Evaluate entries at k, then the map at x, exactly."""
        denom = self.c(k) * x + self.d(k)
        if denom == 0:
            raise PoleError(k, x)
        return (self.a(k) * x + self.b(k)) / denom

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMobius):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def __repr__(self) -> str:
        return f"PolyMobius{self}"


def _normalize(entries: list[Poly]) -> list[Poly]:
    entries = _divide_content(entries)
    # Common polynomial factor of positive degree.
    g = Poly.zero()
    for e in entries:
        g = poly_gcd(g, e)
        if g.degree == 0:
            break
    if g.degree > 0:
        # g is primitive, so by Gauss's lemma the quotients stay integral and
        # content-free.
        entries = [e.divexact(g) for e in entries]
    # Sign: first nonzero entry has a positive leading coefficient.
    if next((e.nums[-1] for e in entries if e.nums), 0) < 0:
        entries = [-x for x in entries]
    return entries


def _divide_content(entries: list[Poly]) -> list[Poly]:
    """Divide out the rational content shared by all four entries."""
    g = gcd(*(n for e in entries for n in e.nums))
    if not g:
        return entries
    den = lcm(*(e.den for e in entries))
    return [_make([n * (den // e.den) // g for n in e.nums], 1) for e in entries]


def level_map(b: Entry, a: Entry) -> PolyMobius:
    """One continued-fraction level: x -> b + a/x, matrix [[b, a], [1, 0]]."""
    return PolyMobius(as_poly(b), as_poly(a), Poly.const(1), Poly.zero())


def shift_map(c: Entry) -> PolyMobius:
    """x -> x + c."""
    return PolyMobius(Poly.const(1), as_poly(c), Poly.zero(), Poly.const(1))


def scale_map(c: Entry) -> PolyMobius:
    """x -> c * x."""
    return PolyMobius(as_poly(c), Poly.zero(), Poly.zero(), Poly.const(1))
