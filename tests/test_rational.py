from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta3cf.rational import (
    log10_fraction,
    log10_ratio,
    sci_ratio,
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


def long_division(r: Fraction, digits: int) -> tuple[str, bool]:
    """Schoolbook long division, one fractional digit per step."""
    sign = "-" if r < 0 else ""
    whole, rem = divmod(abs(r.numerator), r.denominator)
    out = []
    for _ in range(digits):
        digit, rem = divmod(rem * 10, r.denominator)
        out.append(str(digit))
    return f"{sign}{whole}.{''.join(out)}", rem == 0


decimal_fractions = st.builds(
    Fraction,
    st.integers(-(10**40), 10**40) | st.sampled_from([0, 1, -1]),
    # Products of 2s and 5s terminate: they exercise exact = True.
    st.integers(1, 10**30) | st.builds(lambda i, j: 2**i * 5**j, st.integers(0, 60), st.integers(0, 60)),
)


@settings(max_examples=300)
@given(decimal_fractions, st.integers(1, 300))
def test_decimal_matches_long_division(r, digits):
    assert to_decimal(r, digits) == long_division(r, digits)


def test_decimal_small_cases():
    assert to_decimal(Fraction(0), 3) == ("0.000", True)
    assert to_decimal(Fraction(-1, 3), 2) == ("-0.33", False)
    assert to_decimal(Fraction(-7, 2), 1) == ("-3.5", True)


def test_decimal_beyond_int_str_limit():
    # 5000 digits is past the interpreter's default 4300-digit int->str limit.
    text, exact = to_decimal(Fraction(1, 7), 5000)
    assert text == "0." + ("142857" * 834)[:5000]
    assert not exact
    text, exact = to_decimal(Fraction(1, 10**700), 1000)
    assert text == "0." + "0" * 699 + "1" + "0" * 300
    assert exact
    r = Fraction(10**50 + 12345, 3**77 * 7)
    for width in (640, 641, 1281, 4301):
        assert to_decimal(r, width) == long_division(r, width), width


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


def test_log10_ratio_is_log10_fraction_core():
    rng = random.Random(31)
    for _ in range(300):
        r = Fraction(rng.randint(1, 10 ** rng.randint(1, 400)), rng.randint(1, 10 ** rng.randint(1, 400)))
        assert log10_ratio(r.numerator, r.denominator) == log10_fraction(r)


def test_log10_ratio_unreduced():
    rng = random.Random(37)
    for _ in range(100):
        r = Fraction(rng.randint(1, 10**60), rng.randint(1, 10**60))
        common = rng.getrandbits(10**4) | 1 << (10**4 - 1)
        got = log10_ratio(r.numerator * common, r.denominator * common)
        assert abs(got - log10_fraction(r)) < 1e-12


@pytest.mark.parametrize("num, den", [(0, 1), (1, 0), (-3, 2), (3, -2), (-3, -2)])
def test_log10_ratio_rejects_non_positive(num, den):
    with pytest.raises(ValueError):
        log10_ratio(num, den)


def test_sci_string():
    assert sci_string(Fraction(0)) == "0"
    assert sci_string(Fraction(42, 10000)) == "4.20e-03"
    assert sci_string(Fraction(-1234)) == "-1.23e+03"
    assert sci_string(Fraction(1, 10**40)) == "1.00e-40"


def _sci_string_reference(r: Fraction) -> str:
    """sci_string as it was in Fraction arithmetic, kept as the reference."""
    if r == 0:
        return "0"
    sign = "-" if r < 0 else ""
    a = abs(r)
    exp = math.floor(log10_fraction(a))
    # log10_fraction is float; land on the exact decade.
    while Fraction(10) ** exp > a:
        exp -= 1
    while Fraction(10) ** (exp + 1) <= a:
        exp += 1
    mantissa = str(int(a * Fraction(10) ** (2 - exp)))
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{exp:+03d}"


_BIG = 10**300
_signed = st.integers(-_BIG, _BIG)
_nonzero = _signed.filter(bool)
_decade = st.integers(-300, 300)
_near_decade = st.builds(
    lambda k, j, delta: Fraction(10**k + delta, 10**j),
    st.integers(0, 300), st.integers(0, 300), st.sampled_from([-1, 0, 1]),
)
# Just below 10**k, by 1/d: the float log reads the decade above.
_below_decade = st.builds(
    lambda k, d: Fraction(10**k * d - 1, d) if k >= 0 else Fraction(d - 1, 10**-k * d),
    _decade, st.integers(1, _BIG),
)


@settings(max_examples=400, deadline=None)
@given(_signed, _nonzero)
@example(10**300, 1)
@example(-1, 10**300)
@example(999, 1000)
def test_sci_string_matches_fraction_reference(num, den):
    r = Fraction(num, den)
    assert sci_string(r) == _sci_string_reference(r)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.builds(lambda k: Fraction(10) ** k, _decade),
    _near_decade,
    _below_decade,
), st.booleans())
def test_sci_string_matches_fraction_reference_at_decades(r, negate):
    r = -r if negate else r
    assert sci_string(r) == _sci_string_reference(r)


@settings(max_examples=200, deadline=None)
@given(_signed, _nonzero, st.integers(1, 10**40))
def test_sci_ratio_reads_unreduced_ratios(num, den, g):
    r = Fraction(num, den)
    assert sci_ratio(r.numerator * g, r.denominator * g) == sci_string(r)


def test_truncate_float():
    assert truncate_float(3.0617, 3) == "3.061"
    assert truncate_float(-0.7659, 2) == "-0.76"
