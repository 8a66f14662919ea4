from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta3cf.mobius import PolyMobius
from zeta3cf.polynomial import K, NotDivisible, Poly, ZeroDivisor, as_poly, poly_gcd
from zeta3cf.stages import Level


def rand_poly(rng: random.Random, max_deg: int = 4, zero_ok: bool = True) -> Poly:
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return Poly.zero()
    coeffs = [rng.randint(-9, 9) for _ in range(deg)]
    coeffs.append(rng.choice([x for x in range(-9, 10) if x]))
    return Poly(tuple(coeffs))


def test_zero_encoding():
    z = Poly.zero()
    assert z.nums == ()
    assert z.degree == -1
    assert (K - K).nums == ()


def test_degree_matches_length():
    p = 34 * K**3 + 51 * K**2 + 27 * K + 5
    assert p.degree == 3
    assert len(p.nums) == p.degree + 1


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
    assert poly_gcd(Poly.zero(), -2 * p) == p.primitive()
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero


def test_gcd_with_zero_divides_nothing(monkeypatch):
    def refuse(self, divisor):
        raise AssertionError("pseudo-division")

    monkeypatch.setattr(Poly, "divmod", refuse)
    assert poly_gcd(Poly.zero(), -6 * K**2 - 4) == 3 * K**2 + 2
    assert poly_gcd(-6 * K**2 - 4, Poly.zero()) == 3 * K**2 + 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly([1.5]),
        lambda: Poly([1, 2.0]),
        lambda: as_poly(0.5),
        lambda: K * 1.5,
        lambda: 1.5 * K,
        lambda: K + 0.5,
        lambda: K - 0.5,
        lambda: K.shift(0.5),
        lambda: K(0.1),
        lambda: K.value_at(0.5),
        lambda: (K + 1).value_at(complex(1, 0)),
    ],
)
def test_float_scalars_rejected(build):
    # The core is exact: a float never enters it, silently or otherwise.
    with pytest.raises(TypeError, match="int or Fraction"):
        build()


def test_content_primitive():
    p = 6 * K + 6
    assert p.primitive() == K + 1
    assert (-p).primitive() == -K - 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly([Fraction(1, 2)]),
        lambda: K * Fraction(1, 2),
        lambda: Fraction(1, 2) * K,
        lambda: K + Fraction(1, 2),
        lambda: K.shift(Fraction(1, 2)),
        lambda: Level(K, Fraction(1, 2)),
        lambda: PolyMobius(1, Fraction(1, 2), 0, 1),
    ],
)
def test_non_integral_scalars_rejected(build):
    # Coefficients live in Z: a Fraction equal to an int is that int, any
    # other Fraction is refused.
    with pytest.raises(ValueError, match="^expected an integer, not 1/2$"):
        build()


def test_integer_coefficients():
    assert Poly([Fraction(4, 2)]) == Poly([2]) == 2
    assert K.shift(Fraction(3, 1)) == K + 3
    # Exact division stays in Z: k / 2k = 1/2 is not a polynomial over Z.
    with pytest.raises(NotDivisible):
        K.divexact(2 * K)
    assert (6 * K + 4).divexact(3 * K + 2) == 2


def test_str():
    assert str(34 * K**3 + 51 * K**2 + 27 * K + 5) == "34k^3+51k^2+27k+5"
    assert str(-((K + 1) ** 2)) == "-k^2-2k-1"
    assert str(Poly.zero()) == "0"
    assert str(5 * K**2 - K) == "5k^2-k"


def fraction_horner(p: Poly, x) -> Fraction:
    """Reference evaluator: Horner over Fraction, as the integer form replaced."""
    acc = Fraction(0)
    for c in reversed(p.nums):
        acc = acc * x + c
    return acc


indices = st.integers(-50, 2000)
polys = st.lists(st.integers(-(10**6), 10**6), max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
offsets = st.integers(-50, 50)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=9), indices)
def test_integer_horner_integer_coefficients(coeffs, k):
    p = Poly(tuple(coeffs))
    value = p.value_at(k)
    assert type(value) is int
    assert value == fraction_horner(p, k)
    assert p(k) == value


@settings(max_examples=300, deadline=None)
@example(Poly.zero(), (0, 200))
@example(Poly.const(-7), (1, 1))
@example(Poly([10**30, -(10**30), 3, 0, 0, 0, 0, 0, -(10**30)]), (0, 200))
@given(st.lists(st.integers(-(10**30), 10**30), max_size=9).map(Poly),
       st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (0, 200)])
       | st.tuples(st.just(1), st.integers(-3, 20)))
def test_run_matches_value_at(p, rule):
    # count = u * deg + v: 0, 1, deg, deg + 1, deg + 2 and 200 on either side
    # of the difference table's edge, at degrees -1 (zero) .. 8.
    u, v = rule
    count = max(u * p.degree + v, 0)
    values = list(p.run(count))
    assert values == [p.value_at(k) for k in range(count)]
    assert all(type(x) is int for x in values)


def test_run_is_lazy():
    assert list(islice((K**3 - 2 * K).run(10**15), 5)) == [0, -1, 4, 21, 56]


@settings(max_examples=100, deadline=None)
@given(polys, st.fractions(max_denominator=1000))
def test_integer_horner_at_rational_points(p, x):
    assert p(x) == p.value_at(x) == fraction_horner(p, x)
    assert type(p(x)) is Fraction


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p and p * 1 == p and (p - p).is_zero and -(-p) == p


@settings(max_examples=100, deadline=None)
@given(polys, polys, offsets, offsets, st.fractions(max_denominator=100))
def test_shift_composition(p, q, a, b, x):
    assert p.shift(a).shift(b) == p.shift(a + b)
    assert (p * q).shift(a) == p.shift(a) * q.shift(a)
    assert p.shift(a)(x) == fraction_horner(p, x + a)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_divexact_round_trip_randomized(p, d):
    assert (p * d).divexact(d) == p
    # Pseudo-division: m * p == quo * d + rem for m = |lc(d)|**len(quo).
    quo, rem = p.divmod(d)
    m = abs(d.nums[-1]) ** len(quo.nums)
    assert quo * d + rem == m * p and rem.degree < d.degree


@settings(max_examples=100, deadline=None)
@given(polys)
def test_canonical_form(p):
    # Fractions equal to ints and trailing zeros build the same value.
    fractions = [Fraction(n) for n in p.nums]
    rebuilt = Poly([*fractions, 0, Fraction(0)])
    assert Poly(fractions) == p and rebuilt == p
    assert rebuilt.nums == p.nums and all(type(n) is int for n in rebuilt.nums)
    assert hash(Poly(fractions)) == hash(rebuilt) == hash(p)
    assert copy.copy(p) == pickle.loads(pickle.dumps(p)) == p
    if p.is_constant:
        assert type(p.constant_value()) is Fraction and p == p.constant_value()


@settings(max_examples=100, deadline=None)
@given(polys, polys, nonzero_polys)
def test_gcd_common_factor(p, q, h):
    a, b = p * h, q * h
    g = poly_gcd(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.nums[-1] > 0 and gcd(*g.nums) == 1
    assert a.divmod(g)[1].is_zero and b.divmod(g)[1].is_zero
    if h.degree > 0:
        assert g.divmod(h.primitive())[1].is_zero


def test_equal_scalars_hash_alike():
    # A constant equals its scalar and the zero polynomial equals 0, so each
    # must hash as that scalar too.
    assert len({Poly.const(3), 3}) == 1
    assert len({Poly.zero(), 0}) == 1
    assert len({Poly.const(-5), Fraction(-5), -5}) == 1
    assert {K: "k"}[Poly((0, 1))] == "k"


def schoolbook(p: tuple, q: tuple) -> tuple:
    """Reference product: every pair of coefficients, then trailing zeros stripped."""
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# Small entries put zero inner coefficients and negative leading ones in
# most draws; the wide ones keep big-int products in.
mul_polys = st.lists(st.integers(-2, 2) | st.integers(-(10**20), 10**20), max_size=7).map(Poly)
int_scalars = st.integers(-3, 3) | st.integers(-(10**20), 10**20)


def _canonical(p: Poly) -> bool:
    return not p.nums or (p.nums[-1] != 0 and all(type(n) is int for n in p.nums))


@settings(max_examples=300, deadline=None)
@example(Poly.zero(), K + 1)
@example(K + 1, Poly.zero())
@example(Poly.zero(), Poly.zero())
@example(Poly((3, 0, 0, -2)), Poly((0, 0, -1)))
@given(mul_polys, mul_polys)
def test_mul_matches_schoolbook(p, q):
    product = p * q
    assert product.nums == schoolbook(p.nums, q.nums)
    assert _canonical(product)


@settings(max_examples=200, deadline=None)
@example(K - 1, 0, False)
@example(Poly.zero(), -4, True)
@given(mul_polys, int_scalars, st.booleans())
def test_mul_by_a_scalar_matches_schoolbook(p, c, as_fraction):
    # int and integral Fraction scalars, on the right (__mul__) and on the
    # left (__rmul__).
    scalar = Fraction(c) if as_fraction else c
    want = schoolbook(p.nums, (c,))
    for product in (p * scalar, scalar * p):
        assert product.nums == want
        assert _canonical(product)
