"""Exact rational scalars: truncating decimal and scientific output.

The scalar type used throughout the package is fractions.Fraction, which
already maintains the canonical form the rest of the code relies on: the
denominator is positive, gcd(|num|, den) == 1, and zero is stored as 0/1.
This module adds what Fraction does not provide: decimal rendering that
truncates toward zero (never rounds), so printed digits do not depend on
any rounding mode, plus a log10 that is safe for huge numerators and
denominators and the scientific notation built on it.

Integers that are only ever printed in full are carried as integral
`decimal.Decimal` values instead, because CPython converts a binary int to
decimal text in time quadratic in its length and a Decimal in linear time.
Their arithmetic goes through explicit calls on `EXACT`, never through
operators, so an ambient decimal context cannot round them.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

# Exact integer arithmetic in base 10: EXACT.multiply and EXACT.fma never
# round, and a result that would need rounding raises instead.  Only
# methods called on this context are exact; `*` and `+` on Decimals use
# the caller's context, which may round.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)


def decimal_int_str(d: decimal.Decimal) -> str:
    """str(int(d)) for an integral Decimal built by EXACT from ints, in time
    linear in its length.  A signed zero (a negative term times zero) prints
    as "0", never "-0"."""
    return str(d) if d else "0"


def to_decimal(r: Fraction, digits: int) -> tuple[str, bool]:
    """Render r with exactly `digits` fractional digits, truncated toward zero.

    Returns (text, exact); exact is True when the expansion terminates
    within `digits` digits.
    """
    return ratio_to_decimal(r.numerator, r.denominator, digits)


def ratio_to_decimal(num: int, den: int, digits: int) -> tuple[str, bool]:
    """`to_decimal` of num/den for ints with den > 0, with no Fraction built."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num), den)
    frac, rem = divmod(rem * 10**digits, den)
    return f"{sign}{whole}.{_zero_padded(frac, digits)}", rem == 0


# str() of an int this short is never refused by the interpreter's int->str
# digit limit, which cannot be set below 640 digits.
_STR_CHUNK = 640


def _zero_padded(n: int, width: int) -> str:
    """0 <= n < 10**width as exactly `width` decimal digits, converted in
    halves down to chunks of at most _STR_CHUNK digits."""
    if width <= _STR_CHUNK:
        return str(n).zfill(width)
    low = width // 2
    high, n = divmod(n, 10**low)
    return _zero_padded(high, width - low) + _zero_padded(n, low)


def truncate_float(x: float, places: int) -> str:
    """Format a float with `places` decimals, truncating toward zero."""
    scaled = int(abs(x) * 10**places)
    sign = "-" if x < 0 and scaled != 0 else ""
    text = str(scaled).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}" if places else f"{sign}{text}"


def _log10_int(n: int) -> float:
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log10(n)
    return math.log10(n >> shift) + shift * math.log10(2)


def log10_fraction(r: Fraction) -> float:
    """log10 of a positive rational, safe for arbitrarily large num/den."""
    return log10_ratio(r.numerator, r.denominator)


def log10_ratio(num: int, den: int) -> float:
    """`log10_fraction` of num/den for positive ints, reduced or not, with
    no Fraction built and no gcd taken."""
    if num <= 0 or den <= 0:
        raise ValueError("log10 needs a positive value")
    return _log10_int(num) - _log10_int(den)


def sci_string(r: Fraction) -> str:
    """Scientific notation with a truncated three-digit mantissa, computed exactly."""
    return sci_ratio(r.numerator, r.denominator)


def sci_ratio(num: int, den: int) -> str:
    """`sci_string` of num/den for ints with den > 0, reduced or not, with no
    Fraction built: the decade is found by exact int comparison with 10**exp
    and the mantissa by one floor division."""
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    exp = math.floor(log10_ratio(num, den))
    # log10_ratio is float; land on the exact decade, 10**exp <= num/den.
    while not _at_least_power(num, den, exp):
        exp -= 1
    while _at_least_power(num, den, exp + 1):
        exp += 1
    shift = 2 - exp
    mantissa = str(num * 10**shift // den if shift >= 0 else num // (den * 10**-shift))
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{exp:+03d}"


def _at_least_power(num: int, den: int, exp: int) -> bool:
    """num/den >= 10**exp, for positive ints."""
    return num >= den * 10**exp if exp >= 0 else num * 10**-exp >= den
