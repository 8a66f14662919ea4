"""Univariate polynomials over the integers in the recurrence index k.

A polynomial is a one-field record, `nums`: its integer coefficients in
ascending order (nums[i] multiplies k**i), with no trailing zero, so the
zero polynomial is () and degree() is -1 for it.  Values are immutable; all
arithmetic, division included, is exact and runs in ints, with no
floating-point path anywhere.  A scalar is an int or a Fraction equal to
one: a non-integral Fraction raises ValueError, anything else TypeError.
`constant_value()` returns an exact Fraction, so a caller that divides by
it stays exact.  Division is one integer pseudo-division (Knuth, TAOCP
vol. 2, 4.6.1, Algorithm R): `divexact` divides exactly over Z with it, and
`poly_gcd` runs the primitive remainder sequence over Z[k] on it (Collins
1967; Brown 1971); a zero operand needs no division, the gcd is the other's
primitive part.  A product needs no trailing-zero strip: Z has no zero
divisors, so two nonzero leading coefficients have a nonzero product.  A
constant equals its scalar, so it hashes as that scalar.

`value_at(k)` is the one Horner loop: an int for an integer k.  `p(x)` is
`value_at(x)` cast to Fraction, for any rational x.  `run(count)`
tabulates the values at k = 0 .. count - 1 by forward differences: past
the first deg + 1, which it takes from `value_at`, each costs deg
additions.  Backward evaluation, the forward term stream and the chain
check's tables read their entries that way.

Build polynomials with the exported indeterminate K and ordinary operators:

    34 * K**3 + 51 * K**2 + 27 * K + 5
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, islice, pairwise, repeat, zip_longest
from math import gcd

Scalar = int | Fraction


class ZeroDivisor(ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder or a non-integral quotient."""


class Poly(namedtuple("Poly", "nums")):
    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Scalar]) -> "Poly":
        return _make([_integer(c) for c in coeffs])

    @classmethod
    def _make(cls, fields: Iterable) -> "Poly":
        """namedtuple's own _make, which _replace calls, skips the constructor."""
        return cls(*fields)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree under the canonical encoding; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(self.nums[0] if self.nums else 0)

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at a rational x, always a Fraction (never an int or float)."""
        return Fraction(self.value_at(x))

    def value_at(self, k: Scalar) -> Scalar:
        """Exact value at k by Horner over the integer coefficients: an int
        for an integer k."""
        if type(k) is not int:
            _scalar(k)
        acc = 0
        for c in reversed(self.nums):
            acc = acc * k + c
        return acc

    def run(self, count: int) -> Iterator[int]:
        """The exact values at k = 0 .. count - 1, lazily, as ints.

        Past the first deg + 1 values, which `value_at` gives, each value is
        deg additions: the first column of their difference table seeds deg
        nested running sums over the constant top difference (Knuth, TAOCP
        vol. 2, 4.6.4, evaluation at equally spaced points).
        """
        if not self.nums:
            return repeat(0, max(count, 0))
        values = [self.value_at(k) for k in range(min(count, len(self.nums)))]
        if count <= len(self.nums):
            return iter(values)
        firsts = []
        while values:
            firsts.append(values[0])
            values = [b - a for a, b in pairwise(values)]
        run = repeat(firsts.pop())
        for first in reversed(firsts):
            run = accumulate(run, initial=first)
        return islice(run, count)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> "Poly":
        o = other if isinstance(other, Poly) else as_poly(other)
        return _make([a + b for a, b in zip_longest(self.nums, o.nums, fillvalue=0)])

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return as_poly(other) - self

    def __neg__(self) -> "Poly":
        return _make([-n for n in self.nums])

    def __mul__(self, other: Poly | Scalar) -> "Poly":
        o = other if isinstance(other, Poly) else as_poly(other)
        if not self.nums or not o.nums:
            return o if self.nums else self
        out = [0] * (len(self.nums) + len(o.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(o.nums, i):
                    out[j] += a * b
        # No strip: the top entry is the product of two nonzero leading
        # coefficients.
        return tuple.__new__(Poly, (tuple(out),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = Poly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.nums == ((other,) if other else ())
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nums == other.nums

    def __hash__(self) -> int:
        """A constant hashes as its scalar, the zero polynomial as 0: each
        equals that scalar."""
        if len(self.nums) > 1:
            return tuple.__hash__(self)
        return hash(self.nums[0] if self.nums else 0)

    # tuple's own != would skip the scalar case of __eq__.
    __ne__ = object.__ne__

    # -- division ------------------------------------------------------

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division over Z: (q, r) with m * self == q * divisor + r and
        deg r < deg divisor, for m = |lc(divisor)|**len(q.nums).

        The multiplier m is positive, so r keeps the sign of the true
        remainder, as a Sturm sequence needs.
        """
        if divisor.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        v = divisor.nums
        n, lc, sign = len(v) - 1, abs(v[-1]), 1 if v[-1] > 0 else -1
        r = list(self.nums)
        q = [0] * max(len(r) - n, 0)
        for k in range(len(q) - 1, -1, -1):
            c = sign * r.pop()
            q[k] = c * lc**k
            if lc != 1:
                r = [lc * x for x in r]
            for j in range(n):
                r[j + k] -= c * v[j]
        return _make(q), _make(r)

    def divexact(self, divisor: "Poly") -> "Poly":
        """Return r over Z with r * divisor == self, or raise NotDivisible."""
        quo, rem = self.divmod(divisor)
        m = abs(divisor.nums[-1]) ** len(quo.nums)
        if rem.nums or any(c % m for c in quo.nums):
            raise NotDivisible(f"({self}) is not divisible by ({divisor}) over Z")
        return _make([c // m for c in quo.nums])

    def shift(self, c: Scalar) -> "Poly":
        """Substitute k -> k + c for an integer c (exact Taylor shift, in ints)."""
        h, c = list(self.nums), _integer(c)
        for i in range(len(h) - 1):
            for j in range(len(h) - 2, i - 1, -1):
                h[j] += c * h[j + 1]
        return _make(h)

    def primitive(self) -> "Poly":
        """self over its content: content 1, same sign pattern."""
        g = gcd(*self.nums)
        return _make([n // g for n in self.nums]) if g > 1 else self

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            n = self.nums[i]
            if not n:
                continue
            sign = "-" if n < 0 else ("+" if parts else "")
            if i == 0:
                body = str(abs(n))
            else:
                var = "k" if i == 1 else f"k^{i}"
                body = var if abs(n) == 1 else f"{abs(n)}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _make(nums: list[int]) -> Poly:
    """The canonical Poly with the integer coefficients nums."""
    while nums and not nums[-1]:
        nums.pop()
    return tuple.__new__(Poly, (tuple(nums),))


def _scalar(x: Scalar) -> Scalar:
    """x itself if it is an exact scalar (int or Fraction); else TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, not {type(x).__name__} {x!r}")
    return x


def _integer(x: Scalar) -> int:
    """x as an int, for an int or a Fraction equal to one; ValueError for
    another Fraction, TypeError for anything else."""
    if type(x) is int:
        return x
    if _scalar(x).denominator != 1:
        raise ValueError(f"expected an integer, not {x}")
    return int(x)


def as_poly(x: Poly | Scalar) -> Poly:
    """Coerce an int or a Fraction equal to one to a constant polynomial."""
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over Z[k] with positive leading coefficient.

    The primitive remainder sequence: a, b = b, primitive(prem(a, b)).
    """
    a, b = p.primitive(), q.primitive()
    if a.is_zero:
        a, b = b, a
    while not b.is_zero:
        a, b = b, a.divmod(b)[1].primitive()
    return -a if a.nums and a.nums[-1] < 0 else a


K = Poly.variable()
