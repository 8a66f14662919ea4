from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3cf.engine import convergents, eval_backward
from zeta3cf.mobius import PolyMobius, level_map
from zeta3cf.polynomial import K, Poly
from zeta3cf.stages import (
    CHAIN_ORDER,
    HeadNotFlattenable,
    Stage,
    Target,
    catalog,
    flatten,
    lookup,
    peel_head,
    perturbed,
    stage_from_levels,
    substitution_chain,
)


def nested_truncation(stage: Stage, n: int) -> Fraction:
    """Independent oracle: evaluate the nested display cut after n partial
    denominators, using only the level polynomials and plain Fractions."""
    assert stage.levels is not None
    p = len(stage.levels)
    h = stage.head
    b0 = h.a.constant_value() / h.c.constant_value()
    a1 = h.b.constant_value() / h.c.constant_value()
    if n == 0:
        return b0
    m, j = divmod(n - 1, p)  # last included level: index j of block m
    value = stage.levels[j].b(m)
    for i in range(j - 1, -1, -1):
        value = stage.levels[i].b(m) + stage.levels[i].a(m) / value
    for t in range(m - 1, -1, -1):
        for i in range(p - 1, -1, -1):
            value = stage.levels[i].b(t) + stage.levels[i].a(t) / value
    return b0 + a1 / value


def test_catalog_names():
    assert tuple(catalog()) == (
        "APERY", "A5", "A6", "W", "U", "U4", "P", "Q", "Q12",
        "Z", "H", "G", "G16", "G17", "N",
    )


def test_catalog_heads():
    apery = lookup("APERY")
    assert apery.head.apply(Fraction(7), 0) == Fraction(12, 7)
    assert apery.target is Target.TWO_ZETA3
    n = lookup("N")
    assert n.head.apply(Fraction(3), 0) == Fraction(7, 3)  # 2 + 1/3
    assert n.target is Target.TWO_ZETA3
    q = lookup("Q")
    assert q.head == PolyMobius.identity()
    assert q.target is Target.ZETA3


def test_step_matrix_apery():
    assert lookup("APERY").step == PolyMobius(
        34 * K**3 + 51 * K**2 + 27 * K + 5, -((K + 1) ** 6), 1, 0
    )


def test_step_matrix_n_is_level_product():
    expected = (
        level_map(2 * K + 2, (K + 1) * (K + 2))
        @ level_map(2 * K + 4, (K + 1) ** 2)
        @ level_map(2 * K + 3, (K + 2) ** 2)
        @ level_map(2 * K + 2, (K + 1) * (K + 2))
    )
    assert lookup("N").step.proj_eq(expected)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(lambda cs: Poly(tuple(cs)))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
level_lists = st.lists(st.tuples(small_polys, nonzero_polys), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(level_lists)
def test_step_is_left_fold_of_level_maps(levels):
    # One product of the raw level matrices, normalized once, is the fold
    # level_map(b_1, a_1) @ level_map(b_2, a_2) @ ... of normalized maps.
    fold = PolyMobius.identity()
    for b, a in levels:
        fold = fold @ level_map(b, a)
    stage = stage_from_levels("R", levels, PolyMobius(2, 1, 1, 0), Target.TWO_ZETA3)
    assert stage.step == fold


def test_stage_without_levels_raises():
    with pytest.raises(ValueError):
        stage_from_levels("R", [], PolyMobius(2, 1, 1, 0), Target.TWO_ZETA3)


def test_step_matrix_single_level():
    s = stage_from_levels("tmp", [(K + 3, K + 1)], PolyMobius(2, 1, 1, 0), Target.TWO_ZETA3)
    assert s.step == level_map(K + 3, K + 1)


def test_chain_order_and_entries():
    chain = substitution_chain()
    assert [s.name for s in chain] == ["A5", "W", "U", "P", "Q", "Z", "H", "G", "N"]
    assert chain[0].is_peel
    by_name = {s.name: s for s in chain}
    assert by_name["W"].sigma == PolyMobius(1, 5 * (K + 1) ** 3, 0, 1)
    assert by_name["U"].sigma == PolyMobius(6 * (K + 1), 0, 0, 1)
    assert by_name["P"].sigma == PolyMobius((K + 1) ** 2, 0, 0, 1)
    assert by_name["Q"].sigma == PolyMobius(6, 5, 5, 4).inverse()
    assert by_name["N"].sigma == PolyMobius(1, 0, 0, K + 1)
    # Links are contiguous along the chain positions.
    assert [s.to_stage for s in chain] == list(CHAIN_ORDER[1:])
    assert [s.from_stage for s in chain] == list(CHAIN_ORDER[:-1])
    # Built once per process: every call returns the same tuple.
    assert substitution_chain() is chain


def test_sigma_nondegenerate_for_nonnegative_k():
    for step in substitution_chain():
        if step.sigma is None:
            continue
        det = step.sigma.det
        for k in range(0, 60):
            assert det(k) != 0, f"sigma for {step.name} degenerates at k={k}"


def test_peel_head_map():
    peeled = peel_head(lookup("APERY"))
    # head becomes x -> 12/(5 - 1/x)
    x = Fraction(117)
    assert peeled.head.apply(x, 0) == 12 / (5 - 1 / x)
    assert peeled.step == PolyMobius(
        34 * K**3 + 153 * K**2 + 231 * K + 117, -((K + 2) ** 6), 1, 0
    )
    assert peeled.target is Target.TWO_ZETA3


def test_peel_twice_absorbs_two_steps():
    apery = lookup("APERY")
    twice = peel_head(peel_head(apery))
    expected_head = apery.head @ apery.step.at_k(0) @ apery.step.at_k(1)
    assert twice.head.proj_eq(expected_head)
    assert twice.step.proj_eq(apery.step.shifted(2))


def test_peel_preserves_value():
    apery = lookup("APERY")
    peeled = peel_head(apery)
    for m in (0, 1, 3):
        seed = Fraction(1000003, 7)
        assert eval_backward(apery, m + 1, seed) == eval_backward(peeled, m, seed)


def test_flatten_n_terms(nes_flat):
    assert [nes_flat.b_term(n) for n in range(1, 13)] == [2, 4, 3, 2, 4, 6, 5, 4, 6, 8, 7, 6]
    assert [nes_flat.a_term(n) for n in range(2, 10)] == [2, 1, 4, 2, 6, 4, 9, 6]
    assert nes_flat.a_term(2) == Fraction((0 + 1) * (0 + 2))


def test_flatten_n_families_match_period_four_rules(nes_flat):
    k = K
    assert nes_flat.a_fam[0] == k * (k + 1)
    assert nes_flat.a_fam[1] == (k + 1) * (k + 2)
    assert nes_flat.a_fam[2] == (k + 1) ** 2
    assert nes_flat.a_fam[3] == (k + 2) ** 2
    assert nes_flat.b_fam[0] == 2 * k + 2
    assert nes_flat.b_fam[1] == 2 * k + 4
    assert nes_flat.b_fam[2] == 2 * k + 3
    assert nes_flat.b_fam[3] == 2 * k + 2


def test_flatten_n_opening_terms(nes_flat):
    assert (nes_flat.b_term(1), nes_flat.b_term(2), nes_flat.b_term(3), nes_flat.b_term(4)) == (
        2, 4, 3, 2,
    )
    assert nes_flat.b0 == 2
    assert nes_flat.a_term(1) == 1


def test_flatten_n_exception_list(nes_flat):
    # a_{4k+1} = k(k+1) vanishes only at k = 0, the position the head fixes.
    assert nes_flat.exceptions == {1: Fraction(1)}
    assert nes_flat.a_fam[0](0) == 0
    for m in range(1, 60):
        assert nes_flat.a_fam[0](m) != 0


def test_flatten_apery(apery_flat):
    assert apery_flat.b0 == 0
    assert apery_flat.a_term(1) == 12
    for n in range(1, 20):
        m = n - 1
        assert apery_flat.b_term(n) == 34 * m**3 + 51 * m**2 + 27 * m + 5
    for n in range(2, 20):
        assert apery_flat.a_term(n) == -((n - 1) ** 6)


@pytest.mark.parametrize("name, perturb", [("APERY", None), ("N", None), ("N", (7, Fraction(1, 2)))])
def test_terms_match_term_accessors(name, perturb):
    # The runs over m, interleaved and sliced, give each term its accessor's
    # value at every end, including those inside a block; a family value is
    # an int and an exception keeps its own value, a Fraction.
    flat = flatten(lookup(name))
    if perturb:
        flat = perturbed(flat, *perturb)
    for n_max in range(41):
        pairs = list(flat.terms(n_max))
        assert pairs == [(flat.a_term(n), flat.b_term(n)) for n in range(1, n_max + 1)]
        for n, (a, b) in enumerate(pairs, 1):
            assert (type(a), type(b)) == ((Fraction if n in flat.exceptions else int), int)


def test_flatten_terms_nonzero(nes_flat, apery_flat):
    for flat in (nes_flat, apery_flat):
        for n in range(1, 201):
            assert flat.b_term(n) != 0
            assert flat.a_term(n) != 0 or n == 1
        assert flat.a_term(1) != 0  # head-provided exception


def test_flatten_matches_nested_oracle(nes_flat, apery_flat):
    for name, flat in (("N", nes_flat), ("APERY", apery_flat)):
        stage = lookup(name)
        convs = convergents(flat, 40)
        for n in range(0, 41):
            assert convs[n].value == nested_truncation(stage, n), (name, n)


def test_flatten_rejects_identity_head():
    with pytest.raises(HeadNotFlattenable):
        flatten(lookup("Q12"))


def test_flatten_rejects_stage_without_levels():
    with pytest.raises(HeadNotFlattenable):
        flatten(lookup("W"))


def raw_level_product(levels):
    """Unnormalized product of [[b, a], [1, 0]] matrices, plain Poly math."""
    one, zero = K**0, K - K
    m = (one, zero, zero, one)
    for lv in levels:
        a11, a12, a21, a22 = m
        b, a = lv.b, lv.a
        m = (a11 * b + a12, a11 * a, a21 * b + a22, a21 * a)
    return m


def test_level_determinant_identity():
    # det [[b, a], [1, 0]] == -a, and det of a d-level product is
    # (-1)^d * prod(a_i), exactly as polynomials (before normalization).
    for stage in catalog().values():
        if stage.levels is None:
            continue
        a11, a12, a21, a22 = raw_level_product(stage.levels)
        det = a11 * a22 - a12 * a21
        expected = K**0
        for lv in stage.levels:
            expected = expected * -lv.a
        assert det == expected, stage.name


def test_w_step_carries_notation_note():
    chain = substitution_chain()
    w = next(s for s in chain if s.name == "W")
    assert "T" in w.note
    assert lookup("W").note == w.note


def test_public_evaluators_return_fraction(nes_flat, apery_flat):
    # Integer-form evaluation must not leak ints: apply() divides by an
    # entry value, and int / int would be a float (2.4, not 12/5).
    assert type((34 * K**3 + 5)(2)) is Fraction
    assert type(K(Fraction(1, 2))) is Fraction
    head = PolyMobius(0, 12, 1, 0)
    assert type(head.apply(5, 0)) is Fraction and head.apply(5, 0) == Fraction(12, 5)
    for flat in (nes_flat, apery_flat):
        for n in range(1, 9):
            assert type(flat.a_term(n)) is Fraction
            assert type(flat.b_term(n)) is Fraction
