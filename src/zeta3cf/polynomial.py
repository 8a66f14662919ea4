"""Univariate polynomials over the rationals in the recurrence index k.

Coefficients are stored ascending: coeffs[i] multiplies k**i, every
coefficient an exact Fraction.  Canonical form has no trailing zero
coefficients, so the zero polynomial is the empty tuple and degree() is -1
for it.  Values are immutable; all arithmetic is exact, with no
floating-point path anywhere.

Evaluation runs in plain ints.  Each polynomial derives, once and on first
use, its integer form: integer numerators over one positive common
denominator (1 for an integer polynomial).  `value_at(k)` is the one
Horner loop over it: for integer k it runs in ints and returns an int
whenever the value is an integer.  `p(x)` is `value_at(x)` cast to Fraction,
for any rational x, so a caller that divides by a value stays exact.

Build polynomials with the exported indeterminate K and ordinary operators:

    34 * K**3 + 51 * K**2 + 27 * K + 5
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class ZeroDivisor(ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def _canon(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Poly:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _canon(self.coeffs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree under the canonical encoding; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"polynomial {self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """(numerators, highest power first; positive common denominator)."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in reversed(self.coeffs)), den

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at a rational x, always a Fraction (never an int or float)."""
        return Fraction(self.value_at(x))

    def value_at(self, k: Scalar) -> int | Fraction:
        """Exact value at k by Horner over the integer form.

        For an integer k the loop runs in ints and returns an int whenever
        the value is an integer, else a Fraction; a Fraction k gives the
        same value as an int or a Fraction.
        """
        nums, den = self._integer_form
        acc = 0
        for c in nums:
            acc = acc * k + c
        if den == 1:
            return acc
        quo, rem = divmod(acc, den)
        return Fraction(acc, den) if rem else quo

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        o = as_poly(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(tuple(self._c(i) + o._c(i) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return as_poly(other) - self

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        o = as_poly(other)
        if self.is_zero or o.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

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
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _c(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    # -- division ------------------------------------------------------

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / lead
            quo[i] = factor
            if factor:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= factor * c
        return Poly(tuple(quo)), Poly(tuple(rem))

    def divexact(self, divisor: "Poly") -> "Poly":
        """Return r with r * divisor == self, or raise NotDivisible."""
        quo, rem = self.divmod(divisor)
        if not rem.is_zero:
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return quo

    def shift(self, c: Scalar) -> "Poly":
        """Substitute k -> k + c (exact Taylor shift)."""
        linear = Poly((Fraction(c), Fraction(1)))
        acc = Poly(())
        for coeff in reversed(self.coeffs):
            acc = acc * linear + coeff
        return acc

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        if num == 0:
            return Fraction(0)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Integer-coefficient multiple with content 1, same sign pattern."""
        cont = self.content()
        if cont == 0:
            return self
        return Poly(tuple(c / cont for c in self.coeffs))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
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
