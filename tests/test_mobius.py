from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta3cf import mobius
from zeta3cf.mobius import (
    DegenerateMobius,
    PoleError,
    PolyMobius,
    _product,
    level_map,
    scale_map,
    shift_map,
)
from zeta3cf.polynomial import K, Poly, poly_gcd

from test_polynomial import rand_poly


def rand_mobius(rng: random.Random) -> PolyMobius:
    while True:
        try:
            return PolyMobius(
                rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2)
            )
        except DegenerateMobius:
            continue


def test_compose_hand_product():
    m = level_map(K, 1) @ level_map(K + 1, 1)
    assert m == PolyMobius(K**2 + K + 1, K, K + 1, 1)


def test_compose_identity_law():
    m = PolyMobius(34 * K**3 + 51 * K**2 + 27 * K + 5, -((K + 1) ** 6), 1, 0)
    assert m @ PolyMobius.identity() == m
    assert PolyMobius.identity() @ m == m


def test_compose_constant_nest():
    m = level_map(1, 1) @ level_map(4, 1) @ level_map(1, 1)
    assert m == PolyMobius(6, 5, 5, 4)


def test_inverse_shear():
    m = PolyMobius(1, 5 * (K + 1) ** 3, 0, 1)
    assert m.inverse() == PolyMobius(1, -5 * (K + 1) ** 3, 0, 1)


def test_inverse_scaling():
    m = PolyMobius(6 * (K + 1), 0, 0, 1)
    assert m.inverse() == PolyMobius(1, 0, 0, 6 * (K + 1))


def test_inverse_adjugate():
    m = PolyMobius(6, 5, 5, 4)
    assert m.inverse() == PolyMobius(4, -5, -5, 6)


def test_inverse_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(100):
        m = rand_mobius(rng)
        assert (m @ m.inverse()).proj_eq(PolyMobius.identity())


def test_proj_eq_scalar_factor():
    assert PolyMobius(2 * K, 2, 4, 0).proj_eq(PolyMobius(K, 1, 2, 0))


def test_proj_eq_normalization_is_identity():
    m = PolyMobius(2 * K + 2, 4 * K + 4, 2, 6)
    again = PolyMobius(m.a, m.b, m.c, m.d)
    assert m.proj_eq(again)
    assert m == again


def test_proj_eq_different_maps():
    assert not PolyMobius(K, 1, 1, 0).proj_eq(PolyMobius(K, 1, 1, 1))


def test_apply_head():
    head = PolyMobius(0, 12, 1, 0)
    assert head.apply(5, 0) == Fraction(12, 5)


def test_apply_identity():
    for x in (Fraction(3, 7), Fraction(-2), Fraction(0)):
        assert PolyMobius.identity().apply(x, 9) == x


def test_apply_pole():
    with pytest.raises(PoleError) as exc:
        level_map(1, 1).apply(0, 0)
    assert exc.value.k == 0
    assert exc.value.x == 0


def test_compose_associative_randomized():
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = rand_mobius(rng), rand_mobius(rng), rand_mobius(rng)
        assert ((a @ b) @ c).proj_eq(a @ (b @ c))


def test_apply_homomorphism_randomized():
    rng = random.Random(17)
    for _ in range(100):
        m, n = rand_mobius(rng), rand_mobius(rng)
        k = rng.randint(0, 5)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        try:
            inner = n.apply(x, k)
            direct = m.apply(inner, k)
        except PoleError:
            continue
        try:
            composed = (m @ n).apply(x, k)
        except PoleError:
            continue
        assert composed == direct


def test_level_determinant():
    rng = random.Random(19)
    for _ in range(50):
        b = rand_poly(rng, 3)
        a = rand_poly(rng, 3, zero_ok=False)
        m = level_map(b, a)
        # level_map normalizes, so compare projectively: det stays -a up to
        # the square of the normalization scalar; check sign/shape directly
        # on the raw product instead.
        raw_det = b * Poly.zero() - a * Poly.const(1)
        assert raw_det == -a
        assert not m.det.is_zero


def test_degenerate_rejected():
    with pytest.raises(DegenerateMobius):
        PolyMobius(K, K, K, K)
    with pytest.raises(DegenerateMobius):
        PolyMobius(0, 0, 0, 0)


def test_normalization_canonical_form():
    m = PolyMobius(-2 * (K + 1), 0, 0, -4 * (K + 1) * (K + 2))
    # content 2 and common factor (k+1) removed, leading sign positive
    assert m == PolyMobius(1, 0, 0, 2 * (K + 2))


def minors_vanish(e: tuple, f: tuple) -> bool:
    """Reference for projective equality, on raw entries: e == lambda * f
    for a nonzero lambda in Q(k) iff every 2x2 minor of the pairs vanishes."""
    return all((e[i] * f[j] - e[j] * f[i]).is_zero for i in range(4) for j in range(i + 1, 4))


small_polys = st.lists(st.integers(-9, 9), max_size=3).map(lambda cs: Poly(tuple(cs)))
entry_quads = st.tuples(small_polys, small_polys, small_polys, small_polys).filter(
    lambda e: not (e[0] * e[3] - e[1] * e[2]).is_zero
)


@settings(max_examples=150, deadline=None)
@given(
    e=entry_quads,
    other=entry_quads,
    lam=st.integers(-20, 20).filter(bool),
    g=small_polys.filter(lambda p: not p.is_zero),
    same=st.booleans(),
)
def test_normal_form_is_canonical(e, other, lam, g, same):
    m = PolyMobius(*e)
    scaled = tuple(lam * g * x for x in e)
    assert PolyMobius(*scaled) == m
    # proj_eq compares normal forms; the minors never look at them.
    other = scaled if same else other
    assert m.proj_eq(PolyMobius(*other)) == minors_vanish(e, other)
    first = next(x for x in m if not x.is_zero)
    assert first.nums[-1] > 0


def reference_normal_form(e: tuple) -> tuple:
    """The normal form by its definition: content and the gcd of all four
    entries, taken in entry order, divided out, then the sign fixed."""
    g = math.gcd(*(n for x in e for n in x.nums))
    e = tuple(Poly(tuple(n // g for n in x.nums)) for x in e) if g > 1 else e
    h = Poly.zero()
    for x in e:
        h = poly_gcd(h, x)
    if h.degree > 0:
        e = tuple(x.divexact(h) for x in e)
    first = next(x for x in e if not x.is_zero)
    return tuple(-x for x in e) if first.nums[-1] < 0 else e


@settings(max_examples=150, deadline=None)
@given(e=entry_quads, g=small_polys.filter(lambda p: not p.is_zero))
def test_normal_form_matches_its_definition(e, g):
    scaled = tuple(g * x for x in e)
    assert tuple(PolyMobius(*scaled)) == reference_normal_form(scaled)


small_ints = st.integers(-4, 4) | st.integers(-(10**12), 10**12)


@settings(max_examples=200, deadline=None)
@example((0, 0, 0, 0))
@example((2, 4, 4, 8))
@example((-6, 0, 0, 4))
@given(st.tuples(small_ints, small_ints, small_ints, small_ints))
def test_int_entries_build_the_map_of_their_constants(quad):
    consts = [Poly.const(x) for x in quad]
    try:
        m = PolyMobius(*quad)
    except DegenerateMobius as exc:
        with pytest.raises(DegenerateMobius) as raised:
            PolyMobius(*consts)
        assert str(raised.value) == str(exc)
        return
    assert m == PolyMobius(*consts)
    assert all(x.is_constant for x in m)


def test_constant_map_skips_the_factor_search(monkeypatch):
    calls = []

    def spy(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    monkeypatch.setattr(mobius, "poly_gcd", spy)
    PolyMobius(6, -4, 0, 10)
    PolyMobius(Poly.const(3), Poly.zero(), Poly.const(-1), Poly.const(1))
    assert calls == []
    PolyMobius(K + 1, 1, 0, 1)
    assert calls


@pytest.mark.parametrize(
    "quad, text",
    [
        ((2, 4, 4, 8), "degenerate transformation [Poly(1), Poly(2), Poly(2), Poly(4)]"),
        ((0, 0, 0, 0), "degenerate transformation [Poly(0), Poly(0), Poly(0), Poly(0)]"),
    ],
)
def test_degenerate_constant_maps_keep_their_texts(quad, text):
    with pytest.raises(DegenerateMobius) as raised:
        PolyMobius(*quad)
    assert str(raised.value) == text


def test_builders():
    assert shift_map(5) == PolyMobius(1, 5, 0, 1)
    assert scale_map(K + 1) == PolyMobius(K + 1, 0, 0, 1)
    assert level_map(2, 1) == PolyMobius(2, 1, 1, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(entry_quads, max_size=6))
def test_product_of_polys_matches_compose_fold(quads):
    # The balanced tree over raw Poly tuples, normalized once, is the left
    # fold M_n @ ... @ M_1 of normalized products.
    fold = PolyMobius.identity()
    for quad in quads:
        fold = PolyMobius(*quad) @ fold
    assert PolyMobius(*_product(quads)) == fold


# Integer matrices with a common factor of 1 .. 6, zero and singular ones
# among them.
int_quads = st.builds(
    lambda lam, quad: tuple(lam * x for x in quad),
    st.integers(1, 6),
    st.tuples(*[st.integers(-3, 3)] * 4),
)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=300, deadline=None)
@example([(0, 0, 0, 0), (2, 0, 0, 2), (1, 1, 1, 1)])  # an all-zero node
@given(st.lists(int_quads, max_size=12))
def test_projective_product_is_a_positive_multiple(quads):
    # With the size at 0 every node below the root is divided by its
    # content; the root is a positive multiple of the exact product: every
    # cross product of two entries vanishes and every sign agrees.
    exact = _product(quads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mobius, "CONTENT_BITS", 0)
        root = _product(quads, projective=True)
    assert all(x * root[j] == exact[j] * y for x, y in zip(exact, root) for j in range(4))
    assert list(map(_sign, root)) == list(map(_sign, exact))


@settings(max_examples=300, deadline=None)
@example([(0, 0, 0, 0), (2, 0, 0, 2), (1, 1, 1, 1)])
@given(st.lists(int_quads, max_size=12))
def test_product_ending_in_a_row_is_its_first_row(quads):
    # A product read only through its first row ends in (1, 0, 0, 0).  Of a
    # list of either parity, zero and singular matrices among them, that
    # gives the first row of the product without it, and a zero second row:
    # exactly, and as a positive multiple with every node below the root
    # divided by its content.
    exact = _product(quads)
    rowed = [*quads, (1, 0, 0, 0)]
    assert _product(rowed) == (*exact[:2], 0, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mobius, "CONTENT_BITS", 0)
        root = _product(rowed, projective=True)
    assert root[2:] == (0, 0)
    assert exact[0] * root[1] == exact[1] * root[0]
    assert list(map(_sign, root[:2])) == list(map(_sign, exact[:2]))


def test_projective_product_leaves_the_root_to_the_caller(monkeypatch):
    # The caller reduces the root (backward evaluation through Fraction), so
    # the tree does not: here only the node (4, 0, 0, 4) below it sheds 4.
    monkeypatch.setattr(mobius, "CONTENT_BITS", 0)
    assert _product([(2, 0, 0, 2)] * 2, projective=True) == (4, 0, 0, 4)
    assert _product([(2, 0, 0, 2)] * 3, projective=True) == (2, 0, 0, 2)


def test_projective_product_finds_its_largest_node_at_either_end():
    # The only node past CONTENT_BITS is the last one of its round, or the
    # first: either way it sheds its content 2**CONTENT_BITS, and the root is
    # the exact product over that.
    big = tuple(x << mobius.CONTENT_BITS for x in (3, 5, 7, 2))
    for quads in ([(1, 1, 1, 0)] * 3 + [big], [big] + [(1, 1, 1, 0)] * 3):
        exact = _product(quads)
        root = _product(quads, projective=True)
        assert exact == tuple(x << mobius.CONTENT_BITS for x in root)


def test_projective_product_keeps_small_nodes_exact():
    # Below CONTENT_BITS the projective tree is the exact one.
    quads = [(2, 0, 0, 2)] * 5 + [(3, 1, 1, 0)] * 6
    assert _product(quads, projective=True) == _product(quads)
