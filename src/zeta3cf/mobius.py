"""Moebius transformations with polynomial entries: x -> (a*x + b)/(c*x + d).

A transformation is the 2x2 matrix [[a, b], [c, d]] over Poly, kept in a
canonical normalized form so that structurally different builds of the same
map render identically: the four entries share no common integer content
and no common polynomial factor of positive degree, and the first nonzero
entry in (a, b, c, d) order has a positive leading coefficient.

A map is the record (a, b, c, d) of that normal form, the very tuple that
`_product` multiplies: composition of maps is matrix multiplication through
`_product`, the package's one 2x2 matrix product, which serves these
polynomial matrices and the integer matrices of the engine alike.  Its
projective mode divides the large integer nodes of the tree by their
content in alternate rounds, for every engine product that is read only as
a ratio.  Equality of maps is projective -- equal up to a nonzero scalar --
and is decided by comparing normal forms: the form above is unique in each
projective class over Q(k), and every map is an exact multiple of its
normal form.  So `==` (and the hash) is the tuple's own.

Normalizing divides out the entries' integer content, then their gcd over
Z[k], taken from the lowest-degree entry up so that a constant entry ends it
at once.  A map of four constants -- every head, every sigma(0)*head product
and `--hook-break-sigma`'s map -- has no factor of positive degree, and skips
that search.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .polynomial import Poly, Scalar, _make, as_poly, poly_gcd

Entry = Poly | int | Fraction


class DegenerateMobius(ArithmeticError):
    """The matrix determinant is the zero polynomial (not a transformation)."""


class PoleError(ArithmeticError):
    """Evaluation has no finite value; carries (k, x).

    `PolyMobius.apply` raises it for a zero denominator at index k and
    argument x.  Backward evaluation raises it only for its final value,
    with k = 0 and x = "infinity" (infinite) or "0/0" (some map met 0/0).
    """

    def __init__(self, k: int, x: object):
        super().__init__(f"pole at k={k}, x={x}")
        self.k = k
        self.x = x


class PolyMobius(namedtuple("PolyMobius", "a b c d")):
    __slots__ = ()

    def __new__(cls, a: Entry, b: Entry, c: Entry, d: Entry) -> "PolyMobius":
        return tuple.__new__(cls, cls.__post_init__(a, b, c, d))

    @classmethod
    def _make(cls, fields: Iterable[Entry]) -> "PolyMobius":
        return cls(*fields)

    @staticmethod
    def __post_init__(a: Entry, b: Entry, c: Entry, d: Entry) -> list[Poly]:
        """The normal form of the entries.  Every constructor call runs it;
        perfbench's tracer times it as `mobius.new`."""
        entries = _normalize([as_poly(a), as_poly(b), as_poly(c), as_poly(d)])
        if entries[0] * entries[3] == entries[1] * entries[2]:
            raise DegenerateMobius(f"degenerate transformation {entries}")
        return entries

    @classmethod
    def identity(cls) -> "PolyMobius":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self)

    def compose(self, other: "PolyMobius") -> "PolyMobius":
        """Matrix product: (self o other) as maps."""
        return PolyMobius(*_product([other, self]))

    __matmul__ = compose

    def inverse(self) -> "PolyMobius":
        """Adjugate [[d, -b], [-c, a]]; projectively the inverse map."""
        return PolyMobius(self.d, -self.b, -self.c, self.a)

    def proj_eq(self, other: "PolyMobius") -> bool:
        """True iff self == lambda * other for some nonzero scalar lambda:
        both are stored in the one normal form of their projective class."""
        return self == other

    def shifted(self, offset: int) -> "PolyMobius":
        """Substitute k -> k + offset in every entry."""
        return PolyMobius(*(e.shift(offset) for e in self))

    def at_k(self, k: int) -> tuple[int, int, int, int]:
        """The entries' values (a(k), b(k), c(k), d(k)) at an integer index."""
        return self.a.value_at(k), self.b.value_at(k), self.c.value_at(k), self.d.value_at(k)

    def apply(self, x: Scalar, k: int) -> Fraction:
        """Evaluate entries at k, then the map at x, exactly."""
        denom = self.c(k) * x + self.d(k)
        if denom == 0:
            raise PoleError(k, x)
        return (self.a(k) * x + self.b(k)) / denom

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def __repr__(self) -> str:
        return f"PolyMobius{self}"


# The bit size at which a projective product starts to shed content.
CONTENT_BITS = 2500


def _product(mats: Iterable[tuple], projective: bool = False) -> tuple:
    """The product M_n ... M_2 M_1 of the matrices M_i = (a, b, c, d) =
    [[a, b], [c, d]], over ints or Polys: the first matrix acts first on a
    column.  Adjacent pairs are multiplied in rounds, a balanced product
    tree; the empty product is (1, 0, 0, 1).

    Rounds pair from the back, and an odd round leaves its first matrix
    over, so a last matrix (x, y, 0, 0) joins every round and keeps each
    node on the tree's last edge a row, at half a matrix's cost.

    `projective` (ints only) gives a positive integer multiple of the
    product instead: in a round where an end node has an entry of
    CONTENT_BITS bits or more, each node below the root is divided by the
    gcd of its four entries, unless the round before it did so.  That keeps
    every ratio, sign and zero of the entries.  A shed costs a quadratic gcd
    per node while the merges multiply in subquadratic time, and one merge
    adds only about a fifth of a node's size in content, so shedding in
    alternate rounds keeps most of the saving at fewer gcds.  Matrices that
    grow or shrink along the list put each round's largest node at an end,
    so a round of small nodes costs one test."""
    mats = list(mats) or [(1, 0, 0, 1)]
    shed = False
    while len(mats) > 1:
        odd = mats[:len(mats) % 2]
        mats = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (e, f, g, h), (a, b, c, d) in zip(mats[len(odd)::2], mats[len(odd) + 1::2])
        ]
        shed = (
            projective and not shed and len(mats) + len(odd) > 1
            and max(map(abs, mats[0] + mats[-1])).bit_length() >= CONTENT_BITS
        )
        if shed:
            # An all-zero node has gcd 0 and stays as it is.
            mats = [tuple(x // k for x in m) if (k := gcd(*m)) > 1 else m for m in mats]
        mats = odd + mats
    return mats[0]


def _normalize(entries: list[Poly]) -> list[Poly]:
    # Common integer content.
    g = gcd(*(n for e in entries for n in e.nums))
    if g > 1:
        entries = [_make([n // g for n in e.nums]) for e in entries]
    # Common polynomial factor of positive degree, lowest-degree entry first.
    if any(len(e.nums) > 1 for e in entries):
        g = Poly.zero()
        for e in sorted(entries, key=lambda e: e.degree):
            g = poly_gcd(g, e)
            if g.degree == 0:
                break
        if g.degree > 0:
            # g is primitive, so by Gauss's lemma the quotients stay integral
            # and content-free.
            entries = [e.divexact(g) for e in entries]
    # Sign: first nonzero entry has a positive leading coefficient.
    if next((e.nums[-1] for e in entries if e.nums), 0) < 0:
        entries = [-x for x in entries]
    return entries


def level_map(b: Entry, a: Entry) -> PolyMobius:
    """One continued-fraction level: x -> b + a/x, matrix [[b, a], [1, 0]]."""
    return PolyMobius(as_poly(b), as_poly(a), Poly.const(1), Poly.zero())


def shift_map(c: Entry) -> PolyMobius:
    """x -> x + c."""
    return PolyMobius(Poly.const(1), as_poly(c), Poly.zero(), Poly.const(1))


def scale_map(c: Entry) -> PolyMobius:
    """x -> c * x."""
    return PolyMobius(as_poly(c), Poly.zero(), Poly.zero(), Poly.const(1))
