from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from zeta3cf.rational import (
    log10_fraction,
    sci_string,
    to_decimal,
    truncate_float,
)


def oracle_digits(r: Fraction, digits: int) -> str:
    """Independent truncation oracle: digit i is floor(|r|*10^i) mod 10."""
    sign = "-" if r < 0 else ""
    n, d = abs(r.numerator), r.denominator
    whole = n // d
    frac = "".join(str(n * 10**i // d % 10) for i in range(1, digits + 1))
    return f"{sign}{whole}.{frac}"


# The scalar type is Fraction; the package relies on its canonical form
# (reduced, positive denominator, zero as 0/1), pinned by the tests below.


def test_make_reduces():
    r = Fraction(24, 10)
    assert (r.numerator, r.denominator) == (12, 5)


def test_make_zero_canonical():
    r = Fraction(0, 5)
    assert r.numerator == 0 and r.denominator == 1


def test_make_sign_normalization():
    r = Fraction(3, -6)
    assert r == Fraction(-1, 2)
    assert r.denominator == 2


def test_decimal_terminating():
    text, exact = to_decimal(Fraction(12, 5), 4)
    assert text == "2.4000"
    assert exact


def test_decimal_long_division_oracle():
    text, exact = to_decimal(Fraction(351, 146), 8)
    assert text == "2.40410958"
    assert text == oracle_digits(Fraction(351, 146), 8)
    assert not exact


def test_decimal_repeating():
    text, exact = to_decimal(Fraction(1, 3), 3)
    assert text == "0.333"
    assert not exact


def test_decimal_truncates_toward_zero():
    text, _ = to_decimal(Fraction(-351, 146), 4)
    assert text == "-2.4041"
    assert text == oracle_digits(Fraction(-351, 146), 4)


def test_decimal_rejects_zero_digits():
    with pytest.raises(ValueError):
        to_decimal(Fraction(1, 3), 0)


def test_decimal_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        digits = rng.randint(1, 12)
        text, exact = to_decimal(r, digits)
        assert text == oracle_digits(r, digits)
        if exact:
            assert Fraction(text) == r


def test_canonical_form_randomized():
    rng = random.Random(11)
    for _ in range(300):
        num = rng.randint(-10**9, 10**9)
        den = rng.randint(1, 10**9) * rng.choice((1, -1))
        r = Fraction(num, den)
        assert r.denominator > 0
        assert gcd(abs(r.numerator), r.denominator) == 1


def test_log10_fraction_large():
    r = Fraction(10**500 + 12345, 3)
    assert abs(log10_fraction(r) - (500 - log10_fraction(Fraction(3)))) < 1e-6


def test_sci_string():
    assert sci_string(Fraction(0)) == "0"
    assert sci_string(Fraction(42, 10000)) == "4.20e-03"
    assert sci_string(Fraction(-1234)) == "-1.23e+03"
    assert sci_string(Fraction(1, 10**40)) == "1.00e-40"


def test_truncate_float():
    assert truncate_float(3.0617, 3) == "3.061"
    assert truncate_float(-0.7659, 2) == "-0.76"
