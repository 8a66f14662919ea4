from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3cf.polynomial import K, NotDivisible, Poly, ZeroDivisor, poly_gcd


def rand_poly(rng: random.Random, max_deg: int = 4, zero_ok: bool = True) -> Poly:
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return Poly.zero()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([x for x in range(-9, 10) if x])))
    return Poly(tuple(coeffs))


def test_zero_encoding():
    z = Poly.zero()
    assert z.coeffs == ()
    assert z.degree == -1
    assert (K - K).coeffs == ()


def test_degree_matches_length():
    p = 34 * K**3 + 51 * K**2 + 27 * K + 5
    assert p.degree == 3
    assert len(p.coeffs) == p.degree + 1


def test_eval_shifted_constant_term():
    p = 34 * K**3 + 153 * K**2 + 231 * K + 117
    assert p(0) == 117


def test_eval_consistency_across_shift():
    # Evaluating the unshifted cubic at 1 equals the shifted one at 0.
    p = 34 * K**3 + 51 * K**2 + 27 * K + 5
    assert p(1) == 117
    assert p.shift(1)(0) == 117


def test_eval_vanishing_numerator():
    p = K * (K + 1)
    assert p(0) == 0


def test_arith_expansion():
    assert (K + 1) * (K + 2) == K**2 + 3 * K + 2


def test_arith_cubic_split():
    lhs = 5 * (K + 1) ** 3 + (29 * K**3 + 138 * K**2 + 216 * K + 112)
    assert lhs == 34 * K**3 + 153 * K**2 + 231 * K + 117


def test_arith_cancellation():
    assert ((K + 2) ** 3 - (K + 2) ** 3).is_zero


def test_divexact_power():
    assert ((K + 2) ** 6).divexact(K + 2) == (K + 2) ** 5


def test_divexact_linear_factor():
    assert (K**2 + 3 * K + 2).divexact(K + 1) == K + 2


def test_divexact_remainder():
    with pytest.raises(NotDivisible):
        (K**2 + 1).divexact(K + 1)


def test_divexact_zero_divisor():
    with pytest.raises(ZeroDivisor):
        (K + 1).divexact(Poly.zero())


def test_shift():
    p = 34 * K**3 + 51 * K**2 + 27 * K + 5
    assert p.shift(1) == 34 * K**3 + 153 * K**2 + 231 * K + 117
    assert p.shift(1).shift(-1) == p


def test_gcd():
    p = (K + 1) ** 2 * (K + 2)
    q = (K + 1) * (K + 3)
    assert poly_gcd(p, q) == K + 1
    assert poly_gcd(p, Poly.zero()) == p.primitive()


def test_content_primitive():
    p = Fraction(4, 6) * K + Fraction(2, 3)
    assert p.content() == Fraction(2, 3)
    assert p.primitive() == K + 1


def test_str():
    assert str(34 * K**3 + 51 * K**2 + 27 * K + 5) == "34k^3+51k^2+27k+5"
    assert str(-((K + 1) ** 2)) == "-k^2-2k-1"
    assert str(Poly.zero()) == "0"
    assert str(Fraction(5, 2) * K) == "(5/2)k"


def fraction_horner(p: Poly, x) -> Fraction:
    """Reference evaluator: Horner over Fraction, as the integer form replaced."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def binomial_poly(i: int) -> Poly:
    """C(k, i) = k(k-1)...(k-i+1)/i!: rational coefficients, integer values
    (C(k, 1) + C(k, 2) = k(k+1)/2)."""
    acc = Poly.const(1)
    for j in range(i):
        acc = acc * (K - j) * Fraction(1, j + 1)
    return acc


indices = st.integers(-50, 2000)
rational_polys = st.lists(st.fractions(max_denominator=50), max_size=6).map(Poly)
nonzero_polys = rational_polys.filter(lambda p: not p.is_zero)
scalars = st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=9), indices)
def test_integer_horner_integer_coefficients(coeffs, k):
    p = Poly(tuple(coeffs))
    value = p.value_at(k)
    assert type(value) is int
    assert value == fraction_horner(p, k)
    assert p(k) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), max_size=7), indices)
def test_integer_horner_integer_valued_rational_coefficients(weights, k):
    p = sum((w * binomial_poly(i) for i, w in enumerate(weights)), Poly.zero())
    value = p.value_at(k)
    assert type(value) is int
    assert value == fraction_horner(p, k)
    assert p(k) == value


@settings(max_examples=100, deadline=None)
@given(rational_polys, indices, st.fractions(max_denominator=1000))
def test_integer_horner_rational_coefficients_and_points(p, k, x):
    expected = fraction_horner(p, k)
    assert p.value_at(k) == expected
    assert type(p.value_at(k)) is (int if expected.denominator == 1 else Fraction)
    assert p(x) == fraction_horner(p, x)


@settings(max_examples=100, deadline=None)
@given(rational_polys, rational_polys, rational_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p and p * 1 == p and (p - p).is_zero and -(-p) == p


@settings(max_examples=100, deadline=None)
@given(rational_polys, rational_polys, scalars, scalars, st.fractions(max_denominator=100))
def test_shift_composition(p, q, a, b, x):
    assert p.shift(a).shift(b) == p.shift(a + b)
    assert (p * q).shift(a) == p.shift(a) * q.shift(a)
    assert p.shift(a)(x) == fraction_horner(p, x + a)


@settings(max_examples=100, deadline=None)
@given(rational_polys, nonzero_polys)
def test_divexact_round_trip_randomized(p, d):
    assert (p * d).divexact(d) == p
    quo, rem = p.divmod(d)
    assert quo * d + rem == p and rem.degree < d.degree


@settings(max_examples=100, deadline=None)
@given(rational_polys)
def test_canonical_form(p):
    # Ints for integral coefficients and trailing zeros build the same value.
    rebuilt = Poly([c.numerator if c.denominator == 1 else c for c in p.coeffs] + [0, Fraction(0)])
    assert Poly(p.coeffs) == p and rebuilt == p
    assert hash(Poly(p.coeffs)) == hash(rebuilt) == hash(p)
    assert copy.copy(p) == pickle.loads(pickle.dumps(p)) == p
    assert all(type(c) is Fraction for c in p.coeffs)
    assert type(p.leading) is Fraction and type(p.content()) is Fraction
    if p.is_constant:
        assert type(p.constant_value()) is Fraction and p == p.constant_value()
