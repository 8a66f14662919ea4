"""Univariate polynomials over the rationals in the recurrence index k.

A polynomial is held once, in integer form: `nums`, integer numerators in
ascending order (nums[i] multiplies k**i), over one positive denominator
`den`.  Canonical form has no trailing zero numerator and
gcd(*nums, den) == 1, so the zero polynomial is ((), 1) and degree() is -1
for it, and an integer polynomial has den == 1.  Values are immutable; all
arithmetic, division included, is exact and runs in ints, with no
floating-point path anywhere: a scalar that is neither an int nor a Fraction
raises TypeError.  `coeffs`, `leading`, `content()` and `constant_value()`
return exact Fractions.  Division is one integer pseudo-division (Knuth,
TAOCP vol. 2, 4.6.1, Algorithm R): `divmod` scales it back to Q, and
`poly_gcd` runs the primitive remainder sequence over Z[k] on it (Collins
1967; Brown 1971).

`value_at(k)` is the one Horner loop: for integer k it runs in ints and
returns an int whenever the value is an integer.  `p(x)` is `value_at(x)`
cast to Fraction, for any rational x, so a caller that divides by a value
stays exact.

Build polynomials with the exported indeterminate K and ordinary operators:

    34 * K**3 + 51 * K**2 + 27 * K + 5
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

Scalar = int | Fraction


class ZeroDivisor(ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class Frozen:
    """Base of the immutable value types.  The constructor sets the fields in
    the instance dict, once; assigning or deleting one raises AttributeError.
    Equality, hash and repr go by the fields in the order the constructor set
    them, as a frozen dataclass's do."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: object) -> Frozen:
        """A copy with the named fields changed, built by the constructor."""
        return type(self)(**{**vars(self), **changes})


class Poly(Frozen):
    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[Scalar]) -> "Poly":
        coeffs = tuple(map(_scalar, coeffs))
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
        if type(k) is not int:
            _scalar(k)
        acc = 0
        for c in reversed(self.nums):
            acc = acc * k + c
        if self.den == 1:
            return acc
        quo, rem = divmod(acc, self.den)
        return Fraction(acc, self.den) if rem else quo

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> "Poly":
        o = as_poly(other)
        den = lcm(self.den, o.den)
        sa, so = den // self.den, den // o.den
        return _make([a * sa + b * so for a, b in zip_longest(self.nums, o.nums, fillvalue=0)], den)

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return as_poly(other) - self

    def __neg__(self) -> "Poly":
        return _make([-n for n in self.nums], self.den)

    def __mul__(self, other: Poly | Scalar) -> "Poly":
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
        """Exact quotient and remainder over the rationals, deg rem < deg divisor."""
        if divisor.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        quo, rem, scale = _pseudo_divmod(self.nums, divisor.nums)
        # scale * nums == quo * divisor.nums + rem, divided through by scale * den.
        den = scale * self.den
        return _make([n * divisor.den for n in quo], den), _make(rem, den)

    def divexact(self, divisor: "Poly") -> "Poly":
        """Return r with r * divisor == self, or raise NotDivisible."""
        quo, rem = self.divmod(divisor)
        if not rem.is_zero:
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return quo

    def shift(self, c: Scalar) -> "Poly":
        """Substitute k -> k + c (exact Taylor shift, in ints): for c = p/q and
        degree d, f(k + c) = h(q*k + p) / q**d with h(x) = q**d * f(x/q)."""
        p, q = _scalar(c).numerator, c.denominator
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
            n = self.nums[i]
            if not n:
                continue
            sign = "-" if n < 0 else ("+" if parts else "")
            mag = Fraction(abs(n), self.den)
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
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    poly = object.__new__(Poly)
    object.__setattr__(poly, "nums", tuple(nums))
    object.__setattr__(poly, "den", den)
    return poly


def _pseudo_divmod(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m * u == q * v + r over ints, deg r < deg v (v nonzero).

    The multiplier m = |lc(v)|**e, e = max(deg u - deg v + 1, 0), is positive,
    so r keeps the sign of the true remainder, as a Sturm sequence needs.
    """
    n, lc, sign = len(v) - 1, abs(v[-1]), 1 if v[-1] > 0 else -1
    r = list(u)
    q = [0] * max(len(u) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = sign * r.pop()
        q[k] = c * lc**k
        if lc != 1:
            r = [lc * x for x in r]
        for j in range(n):
            r[j + k] -= c * v[j]
    return q, r, lc ** len(q)


def _scalar(x: Scalar) -> Scalar:
    """x itself if it is an exact scalar (int or Fraction); else TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, not {type(x).__name__} {x!r}")
    return x


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"({f})"


def as_poly(x: Poly | Scalar) -> Poly:
    """Coerce an int or Fraction to a constant polynomial."""
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over Q[k] with positive leading coefficient.

    The primitive remainder sequence over Z[k]: a, b = b, primitive(prem(a, b)).
    """
    a, b = p.primitive(), q.primitive()
    while not b.is_zero:
        a, b = b, _make(_pseudo_divmod(a.nums, b.nums)[1], 1).primitive()
    return -a if a.nums and a.nums[-1] < 0 else a


K = Poly.variable()
