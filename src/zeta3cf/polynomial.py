"""Univariate polynomials over the rationals in the recurrence index k.

A polynomial is held once, in integer form: `nums`, integer numerators in
ascending order (nums[i] multiplies k**i), over one positive denominator
`den`.  Canonical form has no trailing zero numerator and
gcd(*nums, den) == 1, so the zero polynomial is ((), 1) and degree() is -1
for it, and an integer polynomial has den == 1.  Values are immutable; all
arithmetic is exact and, except for `divmod`, runs in ints, with no
floating-point path anywhere.  `coeffs`, `leading`, `content()` and
`constant_value()` return exact Fractions.

`value_at(k)` is the one Horner loop: for integer k it runs in ints and
returns an int whenever the value is an integer.  `p(x)` is `value_at(x)`
cast to Fraction, for any rational x, so a caller that divides by a value
stays exact.

Build polynomials with the exported indeterminate K and ordinary operators:

    34 * K**3 + 51 * K**2 + 27 * K + 5
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class ZeroDivisor(ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


@dataclass(frozen=True, eq=False, init=False)
class Poly:
    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[Scalar]) -> "Poly":
        coeffs = tuple(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        return _make([c.numerator * (den // c.denominator) for c in coeffs], den)

    def __getnewargs__(self) -> tuple:
        return (self.coeffs,)

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients ascending, each an exact Fraction."""
        return tuple(Fraction(n, self.den) for n in self.nums)

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

    @property
    def leading(self) -> Fraction:
        return Fraction(self.nums[-1] if self.nums else 0, self.den)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(self.nums[0] if self.nums else 0, self.den)

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at a rational x, always a Fraction (never an int or float)."""
        return Fraction(self.value_at(x))

    def value_at(self, k: Scalar) -> int | Fraction:
        """Exact value at k by Horner over the integer numerators.

        For an integer k the loop runs in ints and returns an int whenever
        the value is an integer, else a Fraction; a Fraction k gives the
        same value as an int or a Fraction.
        """
        acc = 0
        for c in reversed(self.nums):
            acc = acc * k + c
        if self.den == 1:
            return acc
        quo, rem = divmod(acc, self.den)
        return Fraction(acc, self.den) if rem else quo

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        o = as_poly(other)
        den = lcm(self.den, o.den)
        sa, so = den // self.den, den // o.den
        return _make([a * sa + b * so for a, b in zip_longest(self.nums, o.nums, fillvalue=0)], den)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return as_poly(other) - self

    def __neg__(self) -> "Poly":
        return _make([-n for n in self.nums], self.den)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        o = as_poly(other)
        out = [0] * (len(self.nums) + len(o.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(o.nums):
                out[i + j] += a * b
        return _make(out, self.den * o.den)

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
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- division ------------------------------------------------------

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        dd = divisor.degree
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / dcoeffs[-1]
            quo[i] = factor
            if factor:
                for j, c in enumerate(dcoeffs):
                    rem[i + j] -= factor * c
        return Poly(quo), Poly(rem)

    def divexact(self, divisor: "Poly") -> "Poly":
        """Return r with r * divisor == self, or raise NotDivisible."""
        quo, rem = self.divmod(divisor)
        if not rem.is_zero:
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return quo

    def shift(self, c: Scalar) -> "Poly":
        """Substitute k -> k + c (exact Taylor shift, in ints): for c = p/q and
        degree d, f(k + c) = h(q*k + p) / q**d with h(x) = q**d * f(x/q)."""
        p, q = c.numerator, c.denominator
        d = max(self.degree, 0)
        h = [n * q ** (d - j) for j, n in enumerate(self.nums)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                h[j] += p * h[j + 1]
        return _make([n * q**j for j, n in enumerate(h)], self.den * q**d)

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        return Fraction(gcd(*self.nums), self.den)

    def primitive(self) -> "Poly":
        """Integer-coefficient multiple with content 1, same sign pattern."""
        g = gcd(*self.nums)
        return _make([n // g for n in self.nums], 1) if g else self

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = Fraction(self.nums[i], self.den)
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = _frac_str(mag)
            else:
                var = "k" if i == 1 else f"k^{i}"
                body = var if mag == 1 else f"{_frac_str(mag)}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _make(nums: list[int], den: int) -> Poly:
    """The canonical Poly with coefficients nums[i] / den, for den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(*nums, den)
    poly = object.__new__(Poly)
    object.__setattr__(poly, "nums", tuple(n // g for n in nums))
    object.__setattr__(poly, "den", den // g)
    return poly


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"({f})"


def as_poly(x: Union[Poly, Scalar]) -> Poly:
    """Coerce an int or Fraction to a constant polynomial."""
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over Q[k] with positive leading coefficient."""
    a, b = p, q
    while not b.is_zero:
        _, rem = a.divmod(b)
        a, b = b, rem
    if a.is_zero:
        return a
    a = a.primitive()
    if a.leading < 0:
        a = -a
    return a


K = Poly.variable()
