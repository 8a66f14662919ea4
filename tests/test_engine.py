from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zeta3cf.engine import (
    DegenerateConvergent,
    InsufficientData,
    InsufficientReferencePrecision,
    _product,
    convergents,
    convergents_from_terms,
    digits_per_term,
    error_curve,
    eval_backward,
    last_convergent,
    oracles_agree,
    reduced_convergents,
    truncation_value,
    values_from_terms,
    zeta3_reference,
)
from zeta3cf import engine, mobius
from zeta3cf.cli import MAX_REF_DIGITS
from zeta3cf.mobius import PoleError, PolyMobius
from zeta3cf.stages import FlatCF, Stage, Target, flatten, lookup, perturbed, stage_from_levels
from zeta3cf.polynomial import K, Poly
from zeta3cf.rational import log10_fraction, to_decimal, truncate_float
from zeta3cf.verify import derived_chain

from test_polynomial import fraction_horner


def _walk(mats, *cols):
    """The reference walk: left-multiply the columns (x, y) by each matrix
    (a, b, c, d) in turn and yield the columns after every step."""
    for a, b, c, d in mats:
        cols = [(a * x + b * y, c * x + d * y) for x, y in cols]
        yield cols


def test_convergents_hand_values_n_stage(nes_flat):
    convs = convergents(nes_flat, 6)
    assert (convs[2].p, convs[2].q) == (24, 10)
    assert convs[2].value == Fraction(12, 5)
    assert (convs[6].p, convs[6].q) == (8424, 3504)
    assert convs[6].value == Fraction(351, 146)


def test_convergents_hand_values_apery(apery_flat):
    convs = convergents(apery_flat, 2)
    assert convs[1].value == Fraction(12, 5)
    assert (convs[2].p, convs[2].q) == (1404, 584)
    assert convs[2].value == Fraction(351, 146)


def test_convergents_match_direct_evaluation(nes_flat):
    # Oracle: b0 + a1/(b1 + a2/(...)), evaluated inside out with Fractions.
    for n in range(1, 25):
        value = Fraction(nes_flat.b_term(n))
        for i in range(n - 1, 0, -1):
            value = nes_flat.b_term(i) + nes_flat.a_term(i + 1) / value
        value = nes_flat.b0 + nes_flat.a_term(1) / value
        assert convergents(nes_flat, n)[n].value == value


def test_determinant_identity(nes_flat, apery_flat):
    for flat in (nes_flat, apery_flat):
        convs = convergents(flat, 60)
        product = Fraction(1)
        for n in range(1, 61):
            product *= flat.a_term(n)
            lhs = convs[n].p * convs[n - 1].q - convs[n - 1].p * convs[n].q
            assert lhs == (-1) ** (n - 1) * product


def test_degenerate_convergent_detected():
    # b_n = 0, a_n = 1 gives q_1 = 0 immediately: poly families both constant.
    flat = FlatCF("degen", Fraction(0), 1, (Poly.zero() + 0,), (Poly.const(1),))
    with pytest.raises(DegenerateConvergent):
        convergents(flat, 2)


def test_eval_backward_head_only():
    assert eval_backward(lookup("APERY"), 0, 5) == Fraction(12, 5)


def test_eval_backward_one_step():
    assert eval_backward(lookup("APERY"), 1, 117) == Fraction(351, 146)


def test_eval_backward_n_one_level():
    assert eval_backward(lookup("N"), 0, 2) == Fraction(5, 2)


def test_eval_backward_pole_propagates():
    # The step sends the seed 0 to infinity, which the head 12/x sends to 0:
    # an infinite intermediate value is no pole.
    assert eval_backward(lookup("APERY"), 1, 0) == 0


def test_eval_backward_infinite_value_is_pole():
    with pytest.raises(PoleError) as exc:
        eval_backward(lookup("APERY"), 0, 0)
    assert exc.value.x == "infinity"


@pytest.mark.parametrize("seed", [0.1, Decimal("0.1"), "1/3"])
def test_eval_backward_rejects_an_inexact_seed(seed):
    # Fraction(seed) would read 0.1's binary value, or parse the text.
    with pytest.raises(TypeError, match="int or Fraction"):
        eval_backward(lookup("APERY"), 1, seed)


def test_truncation_value_seeds_infinity():
    # X_1 = a(1)/c(1) = 117, the step map at infinity; then 12/(5 - 1/117).
    assert truncation_value(lookup("APERY"), 1) == Fraction(351, 146)


def test_truncation_value_pole_at_infinity_seed():
    # c(k) = k - 2 vanishes at k = 2, so step_2 sends infinity to infinity;
    # step_1 sends that to -1 and step_0 sends -1 to 0.
    stage = Stage("c-vanishes", PolyMobius(1, 1, K - 2, 1), PolyMobius.identity(), Target.ZETA3)
    assert truncation_value(stage, 2) == 0


def test_truncation_value_zero_over_zero_is_pole():
    # At k = 1 the step (k - 1) x sends infinity to (0, 0), which no later map
    # can give a value.
    stage = Stage("s", PolyMobius(K - 1, 0, 0, 1), PolyMobius.identity(), Target.ZETA3)
    with pytest.raises(PoleError) as exc:
        truncation_value(stage, 1)
    assert exc.value.x == "0/0"


def test_truncation_value_rejects_negative_depth():
    # The depth is checked before any map is evaluated, even where the first
    # map would have a pole (c(k) = k + 1 vanishes at k = -1).
    stage = Stage("c-vanishes", PolyMobius(1, 1, K + 1, 1), PolyMobius.identity(), Target.ZETA3)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        truncation_value(stage, -1)


def test_truncation_value_reads_given_columns(chain):
    # Tabulated entries, as verify-chain passes them, give the value the
    # runs give; the columns may run past the depth, but not stop short.
    stage = chain["W"]
    columns = [list(e.run(30)) for e in stage.step]
    for depth in (0, 1, 25, 29):
        assert truncation_value(stage, depth, columns) == truncation_value(stage, depth)
    with pytest.raises(ValueError, match="k = 0 .. 30"):
        truncation_value(stage, 30, columns)


def _fraction_truncation(stage: Stage, depth: int) -> Fraction:
    # The descent in Fractions, each entry by Fraction Horner on its coefficients.
    def entries(m: PolyMobius, k: int) -> list[Fraction]:
        return [fraction_horner(e, k) for e in m]

    a, _, c, _ = entries(stage.step, depth)
    x = a / c
    for k in range(depth - 1, -1, -1):
        a, b, c, d = entries(stage.step, k)
        x = (a * x + b) / (c * x + d)
    a, b, c, d = entries(stage.head, 0)
    return (a * x + b) / (c * x + d)


def test_truncation_value_matches_fraction_descent(chain):
    for name, stage in chain.items():
        for depth in (0, 1, 25, 700):
            assert truncation_value(stage, depth) == _fraction_truncation(stage, depth), (name, depth)


@pytest.mark.parametrize("depth", [*range(9), 61])
def test_backward_matches_per_level_build(chain, depth):
    # The matrices built per level from `at_k`, walked one by one: depths
    # 0 .. 8 take fewer steps than an entry's degree + 1, the edge of the
    # difference table the runs start from.
    for name, stage in chain.items():
        mats = [stage.step.at_k(k) for k in range(depth, -1, -1)] + [stage.head.at_k(0)]
        for got, top, seed in ((truncation_value(stage, depth), depth + 1, (1, 0)),
                               (eval_backward(stage, depth, Fraction(7, 3)), depth, (7, 3))):
            *_, [(x, y)] = _walk(mats[-(top + 1):], seed)
            assert got == Fraction(x, y), (name, depth, seed)


def test_backward_forward_agreement(nes_flat, apery_flat):
    # Seeding with the bare b-part of level 1 at k = m equals the flat
    # truncation at n = d*m + 1, exactly.
    n_stage, apery = lookup("N"), lookup("APERY")
    nes_convs = convergents(nes_flat, 4 * 6 + 1)
    ap_convs = convergents(apery_flat, 8)
    for m in range(0, 6):
        seed = n_stage.levels[0].b(m)
        assert eval_backward(n_stage, m, seed) == nes_convs[4 * m + 1].value
    for m in range(0, 7):
        seed = apery.levels[0].b(m)
        assert eval_backward(apery, m, seed) == ap_convs[m + 1].value


def test_truncation_value_matches_full_block(nes_flat):
    # Dropping the tail at depth m equals the flat truncation at n = d*(m+1).
    n_stage = lookup("N")
    convs = convergents(nes_flat, 4 * 7)
    for m in range(0, 6):
        assert truncation_value(n_stage, m) == convs[4 * (m + 1)].value


small_ints = st.integers(-4, 4)
nonzero_small_ints = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
random_levels = st.lists(
    st.tuples(
        st.lists(small_ints, max_size=3).map(Poly),
        # Partial numerators are nonzero polynomials: a nonzero leading coefficient.
        st.builds(
            lambda low, lead: Poly(low + [lead]), st.lists(small_ints, max_size=2), nonzero_small_ints
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@example(
    levels=[(Poly([4]), K**2 - 3 * K - 2), (Poly([0]), -2 * K**2 - 3 * K - 3)], b0=3, a1=-2, m=6
)
@given(random_levels, small_ints, nonzero_small_ints, st.integers(0, 6))
def test_truncation_value_matches_forward_on_random_level_stages(levels, b0, a1, m):
    # The same relation on random level stages: backward through the
    # normalized step map, forward through the flattened term families, each
    # as one product with no test on the intermediate columns.  Only a final
    # q = 0 is skipped; a backward pole with a finite forward value fails.
    # The example passes infinity between maps on the way (value 3).
    stage = stage_from_levels("R", levels, PolyMobius(b0, a1, 1, 0), Target.TWO_ZETA3)
    flat = flatten(stage)
    steps = [(b, a, 1, 0) for a, b in flat.terms(len(levels) * (m + 1))]
    [(p, _), (q, _)] = next(_walk([_product(steps)], (flat.b0, 1), (1, 0)))
    assume(q != 0)
    assert truncation_value(stage, m) == Fraction(p, q)


def test_truncation_value_matches_forward_with_every_node_reduced(monkeypatch):
    # The same property with every node below the root divided by its
    # content, so that infinities and 0/0 pass through reduced nodes.
    monkeypatch.setattr(mobius, "CONTENT_BITS", 0)
    test_truncation_value_matches_forward_on_random_level_stages()


def test_backward_product_sheds_its_content(monkeypatch):
    # At G, depth 1378, the exact column has 44 229 bits and the value
    # 12 913: the root that backward evaluation hands to Fraction is under
    # half the exact column's size, and its value is the exact one's.
    roots = []

    def spy(mats, projective=False):
        mats = list(mats)
        roots.append((_product(mats), _product(mats, projective)))
        return roots[-1][1]

    monkeypatch.setattr(engine, "_product", spy)
    value = truncation_value(derived_chain(stop="G")["G"], 1378)
    [(exact, root)] = roots
    bits = lambda m: max(map(abs, m)).bit_length()
    assert 2 * bits(root) < bits(exact) == 44229
    assert value == Fraction(exact[0], exact[1])


def _descend(stage: Stage, depth: int, top: int, seed: tuple[int, int]) -> Fraction:
    """Apply step_k for k = top-1 .. 0, then the head, to the column (x, y) = x/y,
    as one projective product: (1, 0) is infinity, and a node is only ever
    divided by a positive integer, so a map's 0/0 stays (0, 0) and only the
    final column needs testing.  The nodes below the root shed their integer
    content, about two thirds of the column's bits, once they reach
    `mobius.CONTENT_BITS` bits; `Fraction` reduces the root.  The step
    matrices come from one `Poly.run` of each entry along k = 0 .. top-1.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    steps = list(zip(*(e.run(top) for e in stage.step)))
    mats = [(seed[0], 0, seed[1], 0), *reversed(steps), stage.head.at_k(0)]
    x, _, y, _ = _product(mats, projective=True)
    if y == 0:
        raise PoleError(0, "infinity" if x else "0/0")
    return Fraction(x, y)


def _outcome(evaluate, *args):
    # The value, or the pole's (k, x).
    try:
        return evaluate(*args)
    except PoleError as exc:
        return "pole", exc.k, exc.x


def _assert_backward_matches_descend(stage, depths, seeds):
    # The earlier backward evaluation, which multiplied the reversed step
    # list into the column (x, 0, y, 0), is the reference for both entries.
    for depth in depths:
        want = _outcome(_descend, stage, depth, depth + 1, (1, 0))
        assert _outcome(truncation_value, stage, depth) == want, (stage.name, depth)
        for seed in seeds:
            want = _outcome(_descend, stage, depth, depth, seed.as_integer_ratio())
            got = _outcome(eval_backward, stage, depth, seed)
            assert got == want, (stage.name, depth, seed)


backward_seeds = [0, 1, -1, 5, -2, Fraction(7, 3), Fraction(-1, 2)]
# 0/0 at the last map, and infinity: the step (k - 1) x sends infinity to
# (0, 0) at k = 1, and the step x + 1 sends the seed -1 to the head 1/x's
# pole at 0.
pole_stages = [
    Stage("zero-over-zero", PolyMobius(K - 1, 0, 0, 1), PolyMobius.identity(), Target.ZETA3),
    Stage("infinite", PolyMobius(1, 1, 0, 1), PolyMobius(0, 1, 1, 0), Target.ZETA3),
]


@pytest.mark.parametrize("content_bits", [mobius.CONTENT_BITS, 0])
def test_backward_matches_descend_on_the_chain(chain, monkeypatch, content_bits):
    monkeypatch.setattr(mobius, "CONTENT_BITS", content_bits)
    assert len(chain) == 10
    for stage in [*chain.values(), *pole_stages]:
        _assert_backward_matches_descend(stage, range(31), backward_seeds)
    kinds = {_outcome(truncation_value, pole_stages[0], 1),
             _outcome(eval_backward, pole_stages[1], 1, -1)}
    assert kinds == {("pole", 0, "0/0"), ("pole", 0, "infinity")}


@settings(max_examples=100, deadline=None)
@given(random_levels, small_ints, nonzero_small_ints, st.integers(0, 12), st.sampled_from([2500, 0]))
def test_backward_matches_descend_on_random_level_stages(levels, b0, a1, depth, content_bits):
    stage = stage_from_levels("R", levels, PolyMobius(b0, a1, 1, 0), Target.TWO_ZETA3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mobius, "CONTENT_BITS", content_bits)
        _assert_backward_matches_descend(stage, [depth], backward_seeds)


# Random integer-term flat fractions: each of the `period` term families is a
# polynomial of degree <= 2 in the block index, so a_n and b_n take zero and
# negative values at some n, and b0 ranges over nonpositive values too.
def _flat_from_families(b0: int, fams: list[tuple[Poly, Poly]]) -> FlatCF:
    b_fam = tuple(b for b, _ in fams)
    a_fam = tuple(a for _, a in fams)
    return FlatCF("R", Fraction(b0), len(fams), b_fam, a_fam)


small_polys = st.lists(small_ints, max_size=3).map(Poly)
random_integer_cfs = st.builds(
    _flat_from_families,
    st.integers(-5, 5),
    st.lists(st.tuples(small_polys, small_polys), min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(random_integer_cfs, st.integers(0, 40))
def test_reduced_convergents_match_fraction(flat, n_max):
    # Each row is n, the unreduced convergent as integral Decimals, and
    # Fraction(p, q)'s numerator and denominator; |q| / den is gcd(p, q).
    # A vanishing q_n raises at the same n as convergents(), after the same
    # rows.
    rows = []
    try:
        for row in reduced_convergents(flat, n_max):
            rows.append(row)
    except DegenerateConvergent as exc:
        with pytest.raises(DegenerateConvergent) as expected:
            convergents(flat, n_max)
        assert exc.n == expected.value.n == len(rows)
    else:
        assert len(rows) == n_max + 1
    for conv, (n, p, q, num, den) in zip(convergents(flat, len(rows) - 1), rows):
        assert isinstance(p, Decimal) and isinstance(q, Decimal)
        assert (n, int(p), int(q)) == (conv.n, conv.p, conv.q)
        assert p.as_tuple().exponent == q.as_tuple().exponent == 0
        value = Fraction(conv.p, conv.q)
        assert (num, den) == (value.numerator, value.denominator)
        g = abs(conv.q) // den
        assert g == math.gcd(conv.p, conv.q)
        assert conv.p == (num * g if conv.q > 0 else -num * g)


def test_reduced_convergents_match_fraction_at_table_sizes(nes_flat, apery_flat):
    for flat, n_max in ((apery_flat, 120), (nes_flat, 480)):
        convs = convergents(flat, n_max)
        rows = list(reduced_convergents(flat, n_max))
        assert [(n, int(p), int(q)) for n, p, q, _, _ in rows] == [(c.n, c.p, c.q) for c in convs]
        assert [Fraction(num, den) for *_, num, den in rows] == [c.value for c in convs]
        assert all(den > 0 for *_, den in rows)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["N", "APERY"]).map(lambda name: flatten(lookup(name))) | random_integer_cfs,
       st.integers(0, 40))
def test_steps_product_is_the_state(flat, n_max):
    # The product of steps 0 .. n is S_n = (p_n, q_n, p_{n-1}, q_{n-1}), with
    # S_{-1} = I, for every n before a vanishing q_n.
    try:
        convs = convergents(flat, n_max)
    except DegenerateConvergent as exc:
        convs = convergents(flat, exc.n - 1)
    prev = (1, 0)
    for conv in convs:
        assert _product(engine._steps(flat, conv.n)) == (conv.p, conv.q, *prev)
        prev = (conv.p, conv.q)


def test_steps_check_at_the_call_and_raise_at_the_term():
    # The exception a_2 = 3/2: the stream yields steps 0 and 1 before it raises.
    one = Poly.const(1)
    flat = FlatCF("F", Fraction(1), 1, (one,), (one,), {2: Fraction(3, 2)})
    with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
        engine._steps(flat, -1)
    with pytest.raises(ValueError, match=r"^non-integer leading term b0 = 1/2$"):
        engine._steps(flat._replace(b0=Fraction(1, 2)), 3)
    steps = engine._steps(flat, 3)
    assert [next(steps), next(steps)] == [(1, 1, 1, 0), (1, 1, 1, 0)]
    with pytest.raises(ValueError, match=r"^non-integer term at n=2: a=3/2, b=1$"):
        next(steps)


@pytest.mark.parametrize("before", range(8))
def test_steps_raise_at_the_non_integer_term(nes_flat, before):
    # a_n + 1/2 at n = before + 1, a_1's exception included: the stream
    # yields every step before n, then raises there.
    n = before + 1
    a, b = nes_flat.a_term(n) + Fraction(1, 2), nes_flat.b_term(n)
    steps = []
    with pytest.raises(ValueError, match=rf"^non-integer term at n={n}: a={a}, b={b}$"):
        for step in engine._steps(perturbed(nes_flat, n, Fraction(1, 2)), 40):
            steps.append(step)
    assert steps == list(engine._steps(nes_flat, before))


def test_reduced_convergents_checks_arguments_eagerly(nes_flat):
    with pytest.raises(ValueError):
        reduced_convergents(nes_flat, -1)


# Stops as a start and non-negative gaps: each stretch is the product of
# its steps, and a gap of 0 repeats a stop with an empty stretch, the identity.
stop_lists = st.builds(
    lambda start, gaps: [start + sum(gaps[:i]) for i in range(len(gaps) + 1)],
    st.integers(0, 9),
    st.lists(st.sampled_from([0, 1, 2, 3, 4, 4, 4, 5, 8]), max_size=24),
)
# b = k(k+1) + 1, twice a triangular number plus one: a quadratic family
# beside linear ones in a period of two, so the stream interleaves
# difference tables of unequal depth.
TRIANGULAR = FlatCF("T", Fraction(1), 2, (K * (K + 1) + 1, K + 3), (Poly.const(1), K + 2))


def _reduced_at_flats():
    nes, apery = flatten(lookup("N")), flatten(lookup("APERY"))
    return {"N": nes, "APERY": apery, "G": flatten(lookup("G")), "N a7+1": perturbed(nes, 7, 1),
            "APERY a3+5": perturbed(apery, 3, 5), "T": TRIANGULAR}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_reduced_at_flats())), stop_lists, st.booleans())
def test_reduced_at_matches_convergents(name, stops, guess):
    # Each row is (n, p_n/q_n in lowest terms with den > 0, gcd(p_n, q_n)),
    # with or without the right reduced values offered as candidates.
    flat = _reduced_at_flats()[name]
    convs = convergents(flat, stops[-1])
    values = [convs[n].value for n in stops]
    candidates = [(v.numerator, v.denominator) for v in values] if guess else None
    rows = list(engine.reduced_at(flat, stops, candidates))
    assert [n for n, _, _ in rows] == stops
    for (n, (num, den), g), value in zip(rows, values):
        assert (num, den) == (value.numerator, value.denominator)
        assert isinstance(g, Decimal) and g == math.gcd(convs[n].p, convs[n].q)


@settings(max_examples=200, deadline=None)
@given(random_integer_cfs, stop_lists)
def test_reduced_at_matches_last_convergent_on_random_fractions(flat, stops):
    # Zero and negative terms: a stop raises DegenerateConvergent exactly
    # when last_convergent does, after the same rows; a vanishing q between
    # two stops raises nothing.
    rows = engine.reduced_at(flat, stops)
    for n in stops:
        try:
            last = last_convergent(flat, n)
        except DegenerateConvergent:
            with pytest.raises(DegenerateConvergent) as exc:
                next(rows)
            assert exc.value.n == n
            return
        p, q, _, _ = _product(engine._steps(flat, n))
        assert next(rows) == (n, (last.numerator, last.denominator), math.gcd(p, q))


def test_reduced_at_raises_at_a_stop_with_q_zero():
    # b_n = 0 and a_n = 1: q_n = 0 for every odd n.
    flat = FlatCF("Z", Fraction(0), 1, (Poly.zero(),), (Poly.const(1),))
    assert flat.exceptions == {}
    rows = engine.reduced_at(flat, [2, 3])
    assert next(rows) == (2, (0, 1), 1)
    with pytest.raises(DegenerateConvergent) as exc:
        next(rows)
    assert exc.value.n == 3
    with pytest.raises(ValueError, match="stops must not decrease"):
        list(engine.reduced_at(flat, [2, 0]))
    # A negative stop is named as such, not as a q_{-1} = 0 or a "-2 after -1".
    for stops in ([-1, 2], [-2, 2]):
        with pytest.raises(ValueError, match="stops must be >= 0"):
            list(engine.reduced_at(flat, stops))


def test_reduced_at_wrong_candidates_change_no_row(nes_flat, apery_flat):
    # The Apery rows are the right guesses for the Nesterenko rows 4v - 2.
    # A pair off by a sign, a pair with a common factor 2 (each
    # gcd(x1, x2) of these rows is even, so 2 divides it), a coprime pair of
    # another value and (0, 1) give the rows of a call without candidates.
    stops = range(2, 4 * 60 - 1, 4)
    plain = list(engine.reduced_at(nes_flat, stops))
    right = [ratio for _, ratio, _ in engine.reduced_at(apery_flat, range(1, 61))]
    assert [ratio for _, ratio, _ in plain] == right
    wrong = [
        [(-num, -den) for num, den in right],
        [(2 * num, 2 * den) for num, den in right],
        [(num + den, den) for num, den in right],
        [(0, 1)] * 60,
        right[:30],
    ]
    for guesses in [right] + wrong:
        assert list(engine.reduced_at(nes_flat, stops, guesses)) == plain


def test_right_candidates_spare_every_big_gcd(monkeypatch, nes_flat, apery_flat):
    # gcd(x1, x2) is the only gcd whose arguments are all big; the coprimality
    # test on a candidate has one small argument.
    sizes = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def gcd(*args):
            sizes.append(min(abs(x).bit_length() for x in args))
            return math.gcd(*args)

    monkeypatch.setattr(engine, "math", CountingMath())
    stops = range(2, 4 * 60 - 1, 4)
    right = [ratio for _, ratio, _ in engine.reduced_at(apery_flat, range(1, 61))]
    sizes.clear()
    list(engine.reduced_at(nes_flat, stops))
    assert sum(size > 300 for size in sizes) > 20
    sizes.clear()
    list(engine.reduced_at(nes_flat, stops, right))
    assert max(sizes) < 300


def test_table_pays_one_big_gcd_per_row(monkeypatch, nes_flat, apery_flat):
    # gcd(x1, x2) is the one gcd per row on big numbers; the content step
    # takes its gcd with gx first, which is small.
    sizes = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def gcd(*args):
            sizes.append(min(abs(x).bit_length() for x in args))
            return math.gcd(*args)

    monkeypatch.setattr(engine, "math", CountingMath())
    for flat, n_max in ((nes_flat, 480), (apery_flat, 200)):
        sizes.clear()
        assert len(list(reduced_convergents(flat, n_max))) == n_max + 1
        assert sum(size > 300 for size in sizes) <= n_max + 1


def test_reduced_at_rejects_non_integer_terms():
    # The exception a_2 = 3/2 raises when the stream reaches it, as in
    # `convergents`, after row 1.  The table reads its terms lazily too:
    # rows 0 and 1 come first.
    one = Poly.const(1)
    flat = FlatCF("F", Fraction(1), 1, (one,), (one,), {2: Fraction(3, 2)})
    rows = engine.reduced_at(flat, [1, 2, 3])
    assert next(rows) == (1, (2, 1), 1)
    with pytest.raises(ValueError, match=r"^non-integer term at n=2: "):
        next(rows)
    table = reduced_convergents(flat, 3)
    first = [next(table), next(table)]
    assert [(n, int(p), num, den) for n, p, _, num, den in first] == [(0, 1, 1, 1), (1, 2, 2, 1)]
    with pytest.raises(ValueError, match=r"^non-integer term at n=2: "):
        next(table)
    with pytest.raises(ValueError, match=r"^non-integer term at n=2: "):
        convergents(flat, 3)


def test_apery_convergents_are_van_der_poortens_sums(apery_flat):
    # A third certificate besides the recurrence and Gutnik's rows:
    # q_n = (n!)^3 b_n and p_n = 2 (n!)^3 a_n with b_n = sum_k C(n,k)^2 C(n+k,k)^2
    # and a_n = sum_k C(n,k)^2 C(n+k,k)^2 c_{n,k}, c_{n,k} = sum_{m<=n} 1/m^3 +
    # sum_{m<=k} (-1)^(m-1) / (2 m^3 C(n,m) C(n+m,m))  (van der Poorten, "A
    # proof that Euler missed", Math. Intelligencer 1, 1979).
    convs = convergents(apery_flat, 200)
    harmonic3 = Fraction(0)
    for n in range(201):
        harmonic3 += Fraction(1, n**3) if n else 0
        b = a = tail = 0
        for k in range(n + 1):
            if k:
                tail += Fraction((-1) ** (k - 1), 2 * k**3 * math.comb(n, k) * math.comb(n + k, k))
            weight = math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2
            b += weight
            a += weight * (harmonic3 + tail)
        cube = math.factorial(n) ** 3
        assert (convs[n].q, convs[n].p) == (cube * b, 2 * cube * a)


matrix_entries = st.integers(-(10**6), 10**6) | st.sampled_from([0, 1, -1])
matrix_streams = st.lists(st.tuples(*[matrix_entries] * 4), max_size=64)


@settings(max_examples=200, deadline=None)
@given(matrix_streams, st.tuples(matrix_entries, matrix_entries), st.tuples(matrix_entries, matrix_entries))
def test_product_tree_matches_walk(mats, col, col2):
    # The tree product applied once equals the last columns of the step-by-step
    # walk; the empty product is the identity, which leaves the columns as given.
    last = [col, col2]
    for last in _walk(mats, col, col2):
        pass
    assert next(_walk([_product(mats)], col, col2)) == last


@settings(max_examples=300, deadline=None)
@example(mats=[(0, 0, 0, 0)], col=(1, 0))
@example(mats=[(2, 4, 1, 2), (1, 0, 0, 1)], col=(0, 1))
@given(
    st.lists(st.tuples(*[small_ints | matrix_entries] * 4), max_size=12),
    st.sampled_from([(1, 0), (0, 1)]) | st.tuples(matrix_entries, matrix_entries),
)
def test_column_first_matches_product(mats, col):
    # The product seeded with the column (x, 0, y, 0) as its first matrix, as
    # backward evaluation seeds it, carries the column of the step-by-step
    # walk in its first column, singular matrices and zero entries included;
    # no matrices leave the column as given.
    last = [col]
    for last in _walk(mats, col):
        pass
    x, b, y, d = _product([(col[0], 0, col[1], 0), *mats])
    assert ((x, y), b, d) == (last[0], 0, 0)


@pytest.mark.parametrize("name", ["APERY", "N", "G16", "G17"])
def test_last_convergent_matches_convergents(name):
    flat = flatten(lookup(name))
    convs = convergents(flat, 1200)
    for n in (0, 1, 2, 299, 1200):
        last = last_convergent(flat, n)
        assert type(last) is Fraction and last == convs[n].value


def test_last_convergent_sheds_the_content_of_a_forward_product(monkeypatch, apery_flat):
    # Apery's q_n = (n!)^3 b_n: the forward tree's largest nodes come last,
    # and it sheds their content as backward evaluation's tree does, so the
    # root handed to Fraction is smaller than the exact S_300.
    roots = []

    def product(mats, projective=False):
        roots.append(_product(mats, projective))
        return roots[-1]

    monkeypatch.setattr(engine, "_product", product)
    value = last_convergent(apery_flat, 300)
    p, q, _, _ = _product(engine._steps(apery_flat, 300))
    [root] = roots
    assert Fraction(root[0], root[1]) == value == Fraction(p, q)
    assert max(map(abs, root)).bit_length() < max(abs(p), abs(q)).bit_length()


def test_last_convergent_reads_only_the_final_denominator(apery_flat):
    # APERY has b0 = 0, a1 = 12, b1 = 5, b2 = 117, a3 = -64, b3 = 535.
    # a2 = -585 gives q_2 = 117 * 5 - 585 = 0: x_2 = 1404/0 is infinite, and
    # x_3 = (535 * 1404 - 64 * 12) / (535 * 0 - 64 * 5) = 750372/-320.
    flat = perturbed(apery_flat, 2, -584)
    assert flat.a_term(2) == -585
    with pytest.raises(DegenerateConvergent) as exc:
        last_convergent(flat, 2)
    assert exc.value.n == 2
    assert last_convergent(flat, 3) == Fraction(750372, -320) == Fraction(-187593, 80)
    with pytest.raises(DegenerateConvergent):
        convergents(flat, 3)


def test_product_tree_empty_is_identity():
    assert _product([]) == (1, 0, 0, 1)


def test_two_seed_agreement(nes_flat):
    # Backward evaluation is tail-seed-insensitive: with all terms positive
    # the depth-m map is monotone on (0, inf), so any two positive seeds land
    # inside the enclosing truncation gap |x_{4m-1} - x_{4m}| (the image of
    # the whole seed axis), which itself shrinks geometrically.
    n_stage = lookup("N")
    convs = convergents(nes_flat, 44)
    for m in (2, 5, 8, 10):
        lo = eval_backward(n_stage, m, 1)
        hi = eval_backward(n_stage, m, 10**6)
        gap = abs(convs[4 * m - 1].value - convs[4 * m].value)
        assert abs(lo - hi) < gap


def test_apery_monotonic_at_desk_scale(apery_flat):
    convs = convergents(apery_flat, 50)
    for n in range(1, 50):
        assert convs[n].value < convs[n + 1].value


def test_reference_seven_digits():
    ref = zeta3_reference(7)
    assert ref.decimal == "1.2020569"
    assert ref.decimal_for(Target.TWO_ZETA3) == "2.4041138"


def test_reference_one_digit():
    assert zeta3_reference(1).decimal == "1.2"


def test_reference_doubling_is_exact():
    ref = zeta3_reference(30)
    assert ref.value(Target.TWO_ZETA3) == 2 * ref.value(Target.ZETA3)


def test_oracles_agree_200_digits():
    agree, series, deep = oracles_agree(200)
    assert agree
    assert series.decimal == deep.decimal
    assert series.oracle_id == "SERIES"
    assert deep.oracle_id == "DEEP_CF"


def _series_reference(digits: int) -> Fraction:
    # The alternating central-binomial sum (5/2) sum (-1)^(n-1) / (n^3
    # C(2n,n)) term by term in Fractions, within (5/2) * 10**-(digits+5): a
    # series independent of the SERIES oracle's.
    threshold = Fraction(1, 10 ** (digits + 5))
    total = Fraction(0)
    n = 1
    while True:
        term = Fraction(1, n**3 * math.comb(2 * n, n))
        if term < threshold:
            break
        total += term if n % 2 == 1 else -term
        n += 1
    return Fraction(5, 2) * total


def test_series_oracle_matches_fraction_sum():
    # The two bounds, 5/4 and 5/2 times 10**-(digits+5), put the values within
    # 15/4 * 10**-(digits+5), well inside the 2 * 10**-(digits+3) that
    # ReferenceValue documents for two references, and both truncate alike.
    for digits in [*range(1, 401), 1000]:
        new, old = zeta3_reference(digits), _series_reference(digits)
        assert abs(new.fraction - old) < Fraction(15, 4 * 10 ** (digits + 5)), digits
        assert new.decimal == to_decimal(old, digits)[0], digits


def _series_stop(digits: int) -> int:
    # The SERIES oracle's stop m, read from its sum at its own scale and cut.
    e = digits + 5
    g = 4 * e.bit_length() + 32
    return engine._series_sum(10**e << g, 1 << (g + 4))[0]


def _series_exact_floor(digits: int) -> Fraction:
    # The SERIES value from the exact partial sum over n < m of Amdeberhan &
    # Zeilberger's series, S = sum (-1)^n P(n) s_n, s_{n+1} = -s_n u / v:
    # x = S*D and y = s_n*D over the denominator D step in integers, then
    # floor(10**e S / 64) / 10**e.
    m, e = _series_stop(digits), digits + 5
    x, y, den = 0, 1, 1
    for n in range(m):
        v = 32 * (2 * n + 3) ** 5
        x, y, den = v * (x + ((205 * n + 250) * n + 77) * y), -y * (n + 1) ** 5, den * v
    return Fraction(x * 10**e // (64 * den), 10**e)


def test_series_fixed_point_matches_product_floor():
    for digits in [*range(1, 1001), 3000, 5010, 10010]:
        assert zeta3_reference(digits).fraction == _series_exact_floor(digits), digits


def _counting_product(monkeypatch) -> list:
    calls = []

    def product(mats, projective=False):
        calls.append(1)
        return _product(mats, projective)

    monkeypatch.setattr(engine, "_product", product)
    return calls


def test_series_straddle_takes_the_exact_product(monkeypatch):
    # A bound E = W = 10**e 2**G makes the enclosure wider than one floor
    # step, 2**(G+6), so every call must fall back to the exact product and
    # return its floor.
    calls, series_sum = _counting_product(monkeypatch), engine._series_sum
    monkeypatch.setattr(engine, "_series_sum", lambda w, cut: (*series_sum(w, cut)[:2], w))
    for count, digits in enumerate((1, 2, 7, 50, 301, 1000), 1):
        assert zeta3_reference(digits).fraction == _series_exact_floor(digits), digits
        assert len(calls) == count, digits


def test_series_fixed_point_decides_without_the_product(monkeypatch):
    calls = _counting_product(monkeypatch)
    for digits in (1, 7, 50, 301, 1000):
        zeta3_reference(digits)
    assert not calls


def test_series_sum_encloses_the_exact_partial_sum():
    # T - E < W S < T + E for the exact S = sum P(n) s_n over n < m, at the
    # oracle's own scale and cut, and at scales with no power of two under a
    # low cut, so that the sum runs on until a_n is small (m = 0 sums
    # nothing: T = E = W S = 0; the loop ends by n = e, as a_e = 0 and
    # e P(e) < cut).  At every scale the stop is certified: W P(m) |s_m| < cut.
    sums, terms = [Fraction(0)], []
    for digits in range(1, 401):
        e = digits + 5
        g, low = 4 * e.bit_length() + 32, 1 << (3 * e.bit_length() + 10)
        for w, cut in ((10**e << g, 1 << (g + 4)), (10**e, low), (3**e + 1, low)):
            m, t, bound = engine._series_sum(w, cut)
            for n in range(len(terms), m + 1):
                terms.append(_amdeberhan_term(n))
                sums.append(sums[n] + (-1) ** n * terms[n])
            assert m == 0 or t - bound < w * sums[m] < t + bound, (digits, w)
            assert w * terms[m] < cut, (digits, w)


def _amdeberhan_term(n: int) -> Fraction:
    # |t_n| = P(n) |s_n|, P(n) = 205n^2 + 250n + 77, |s_n| = (n!)^10 / ((2n+1)!)^5.
    return Fraction((205 * n + 250) * n + 77) * Fraction(math.factorial(n) ** 10, math.factorial(2 * n + 1) ** 5)


def test_amdeberhan_terms_decrease_from_the_first():
    # |t_{n+1}| / |t_n| = u P(n+1) / (v P(n)), u = (n+1)^5, v = 32(2n+3)^5,
    # so |t_{n+1}| < |t_n| iff v P(n) - u P(n+1) > 0; every coefficient is
    # positive, so it is for every n >= 0, and the alternating tail is below
    # its first term.
    p = 205 * K**2 + 250 * K + 77
    gap = 32 * (2 * K + 3) ** 5 * p - (K + 1) ** 5 * p.shift(1)
    assert gap.nums == (598220, 3936520, 10726375, 15714735, 13424850, 6716166, 1828715, 209715)
    assert all(_amdeberhan_term(n + 1) < _amdeberhan_term(n) for n in range(60))


def test_series_stop_is_the_first_small_term():
    # The stop is certified, |t_m| < 16 * 10**-e, so the tail of zeta(3) past
    # S / 64 is under 10**-e / 4; and it comes at the first n with |t_n| below
    # that or one past it, as a_n + n exceeds W |s_n| by at most n.
    terms = [_amdeberhan_term(n) for n in range(350)]
    for digits in range(1, 1001):
        m, bound = _series_stop(digits), Fraction(16, 10 ** (digits + 5))
        first = next(n for n, t in enumerate(terms) if t < bound)
        assert terms[m] < bound, digits
        assert m in (first, first + 1), digits
    # The stop reads a_n + n, not a_n, which can fall short of W |s_n|: at
    # the cut floor(W |t_n|), which term n does not meet, the sum runs
    # exactly one term past n.
    for digits in range(1, 301, 7):
        e = digits + 5
        w = 10**e << (4 * e.bit_length() + 32)
        for n in range(_series_stop(digits)):
            assert engine._series_sum(w, math.floor(w * terms[n]))[0] == n + 1, (digits, n)


def _deep_cf_by_convergents(digits: int) -> Fraction:
    # The DEEP_CF oracle as a loop over full convergent tables and Fraction gaps.
    flat = flatten(lookup("APERY"))
    depth = int(digits / 3) + 12
    for _ in range(6):
        convs = convergents(flat, depth + 2)
        gap1 = abs(convs[depth + 1].value - convs[depth].value)
        gap2 = abs(convs[depth + 2].value - convs[depth + 1].value)
        if gap2 < Fraction(1, 10 ** (digits + 6)) and gap2 * 50 < gap1:
            return convs[depth + 2].value / 2
        depth = depth + depth // 2 + 8
    raise AssertionError(f"no certified depth for {digits} digits")


def test_deep_cf_matches_convergent_loop():
    for digits in [*range(1, 301), 1000]:
        assert zeta3_reference(digits, "DEEP_CF").fraction == _deep_cf_by_convergents(digits), digits


def test_deep_cf_certifies_at_first_depth_for_every_cli_precision():
    # DEEP_CF tests one depth, digits/3 + 12, and raises if it fails; for
    # Apery's fraction that depth passes at every precision `ref` accepts.
    for digits in range(1, MAX_REF_DIGITS + 1):
        zeta3_reference(digits, "DEEP_CF")


SLOW_CONSTANT = stage_from_levels("C", [(10, 1)], PolyMobius(0, 1, 1, 0), Target.ZETA3)


@pytest.mark.parametrize(
    "stage, digits",
    [
        # Resolves ten digits at depth 12 but contracts ~6x per term, not 50x.
        (lookup("N"), 1),
        # Contracts ~100x per term but resolves ~93 of 106 digits at depth 45.
        (SLOW_CONSTANT, 100),
    ],
    ids=["N-no-contraction", "constant-no-resolution"],
)
def test_deep_cf_uncertified_depth_raises(monkeypatch, stage, digits):
    monkeypatch.setattr(engine, "lookup", lambda name: stage)
    with pytest.raises(InsufficientReferencePrecision):
        zeta3_reference(digits, "DEEP_CF")


@pytest.mark.parametrize("oracle", ["SERIES", "DEEP_CF"])
def test_reference_matches_mpmath(oracle):
    # A third, independent oracle at positions where the next digits read
    # 9990 (after 32), 0003 (after 356) and 0009 (after 617): a reference
    # that is off by one unit in the last place shows up there first.
    mpmath = pytest.importorskip("mpmath")
    for digits in (32, 356, 617, 1000):
        with mpmath.workdps(digits + 30):
            scaled = int(mpmath.floor(mpmath.zeta(3) * mpmath.mpf(10) ** digits))
        text = str(scaled)
        assert zeta3_reference(digits, oracle).decimal == f"{text[:1]}.{text[1:]}", digits


def test_series_error_within_its_bound():
    # The floor of the partial sum over 10**e, e = digits + 5, is within
    # 1.25 * 10**-e of zeta(3).
    mpmath = pytest.importorskip("mpmath")
    for digits in (32, 356, 617, 1000):
        with mpmath.workdps(digits + 30):
            zeta3 = Fraction(mpmath.nstr(mpmath.zeta(3), digits + 25, strip_zeros=False))
        error = abs(zeta3_reference(digits).fraction - zeta3)
        assert error < Fraction(5, 4 * 10 ** (digits + 5)), digits


def test_series_tail_bound():
    # The alternating series truncated at term t_n has error < t_{n+1}; the
    # 30-digit and 60-digit references must therefore agree to 30 digits.
    a = zeta3_reference(30)
    b = zeta3_reference(60)
    assert abs(a.fraction - b.fraction) < Fraction(1, 10**33)


def test_error_curve_hand_points(nes_flat, apery_flat, ref40):
    curve_a = error_curve(apery_flat, Target.TWO_ZETA3, 3, ref40)
    curve_n = error_curve(nes_flat, Target.TWO_ZETA3, 3, ref40)
    d_a = dict(curve_a.points)
    d_n = dict(curve_n.points)
    # |351/146 - 2z(3)| ~ 4.2e-6 and |12/5 - 2z(3)| ~ 4.1e-3
    assert abs(d_a[2] - 5.375) < 0.01
    assert abs(d_n[2] - 2.386) < 0.01


def test_error_curve_extends_short_reference(nes_flat, ref120):
    # At n = 200 the N stage passes 150 digits, beyond a 120-digit
    # reference: the extension must be sized before any point is measured.
    curve = error_curve(nes_flat, Target.TWO_ZETA3, 200, ref120)
    long = error_curve(nes_flat, Target.TWO_ZETA3, 200, zeta3_reference(300))
    assert max(d for _, d in curve.points) > 150
    assert [(n, truncate_float(d, 3)) for n, d in curve.points] == [
        (n, truncate_float(d, 3)) for n, d in long.points
    ]


def test_error_curve_omits_exact_hits(apery_flat):
    # Against a reference equal to one convergent, that index is omitted.
    from zeta3cf.engine import ReferenceValue

    fake = ReferenceValue(40, "n/a", "SERIES", Fraction(351, 146) / 2)
    curve = error_curve(apery_flat, Target.TWO_ZETA3, 4, fake)
    indices = [n for n, _ in curve.points]
    assert 2 not in indices
    assert {0, 1, 3, 4} <= set(indices)


@pytest.mark.parametrize("name, n_max", [("APERY", 150), ("N", 600)])
def test_error_curve_residual_matches_fraction_errors(name, n_max):
    # The residual column against the direct measurement: reduce each x_n,
    # subtract the reference, take log10 of the exact error.
    flat = flatten(lookup(name))
    ref = zeta3_reference(520)
    curve = error_curve(flat, Target.TWO_ZETA3, n_max, ref)
    assert curve.ref_digits == 520
    limit = ref.value(Target.TWO_ZETA3)
    direct = {}
    for c in convergents(flat, n_max):
        err = abs(c.value - limit)
        if err:
            direct[c.n] = -log10_fraction(err)
    assert [n for n, _ in curve.points] == sorted(direct)
    for n, d in curve.points:
        assert abs(d - direct[n]) < 1e-9, n


def test_error_curve_degenerate_convergent_raises(ref40):
    # b_1 = K(0) = 0 and a_1 = 1 give q_1 = 0 before any residual is walked.
    flat = FlatCF("T", Fraction(1), 1, (K,), (Poly.const(1),))
    with pytest.raises(DegenerateConvergent, match=r"^q_1 = 0$"):
        error_curve(flat, Target.ZETA3, 5, ref40)


def test_error_curve_reduces_only_the_gap(monkeypatch, nes_flat):
    # Each row is measured from the residual column; only the last two
    # convergents are reduced, to size the reference.  The reference is long
    # enough that no extension builds a Fraction of its own.
    ref = zeta3_reference(400)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(engine, "Fraction", counted)
    error_curve(nes_flat, Target.TWO_ZETA3, 400, ref)
    assert len(built) <= 2


# Apery's convergents gain 2 log10(1 + sqrt 2)**4 = 2 log10(17 + 12 sqrt 2)
# digits per term; Nesterenko's N takes four terms for each of Apery's.
APERY_RATE = 2 * math.log10(17 + 12 * math.sqrt(2))


@pytest.mark.parametrize("name, n_max, rate", [("APERY", 100, APERY_RATE), ("N", 400, APERY_RATE / 4)])
def test_slope_matches_rate_theory(name, n_max, rate, ref40):
    curve = error_curve(flatten(lookup(name)), Target.TWO_ZETA3, n_max, ref40)
    assert abs(digits_per_term(curve, n_max // 5 + 1, n_max) - rate) < 5e-4


def test_slope_apery_window(apery_flat, ref120):
    curve = error_curve(apery_flat, Target.TWO_ZETA3, 25, ref120)
    slope = digits_per_term(curve, 5, 25)
    assert 2.9 <= slope <= 3.2


def test_slope_cross_check_by_error_ratio(apery_flat, ref120):
    # Independent oracle: consecutive error ratios stabilize near a constant
    # ~1.15e3 per term, so log10(ratio) must sit near the fitted slope.
    limit = ref120.value(Target.TWO_ZETA3)
    convs = convergents(apery_flat, 26)
    ratios = []
    for n in range(15, 25):
        e1 = abs(convs[n].value - limit)
        e2 = abs(convs[n + 1].value - limit)
        ratios.append(e1 / e2)
    for r in ratios:
        assert 1.0e3 < r < 1.35e3
    mean_log = sum(math.log10(r) for r in ratios) / len(ratios)
    curve = error_curve(apery_flat, Target.TWO_ZETA3, 25, ref120)
    slope = digits_per_term(curve, 5, 25)
    assert abs(mean_log - slope) < 0.05


def test_slope_constant_curve_is_zero():
    from zeta3cf.engine import ErrorCurve

    curve = ErrorCurve(((1, 2.5), (2, 2.5), (3, 2.5)), Target.ZETA3, 40)
    assert digits_per_term(curve, 1, 3) == 0.0


def test_slope_window_too_small(apery_flat, ref40):
    curve = error_curve(apery_flat, Target.TWO_ZETA3, 5, ref40)
    with pytest.raises(InsufficientData):
        digits_per_term(curve, 3, 3)


def test_values_from_terms_matches_flat(nes_flat):
    terms = [(nes_flat.a_term(n), nes_flat.b_term(n)) for n in range(1, 11)]
    values = values_from_terms(nes_flat.b0, terms)
    convs = convergents(nes_flat, 10)
    assert values == [c.value for c in convs]


def test_convergents_rejects_non_integer_term(nes_flat):
    flat = perturbed(nes_flat, 3, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"^non-integer term at n=3: "):
        convergents(flat, 5)


def test_convergents_from_terms_rational_safe():
    rng = random.Random(23)
    terms = [
        (Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9)))
        for _ in range(12)
    ]
    pairs = convergents_from_terms(Fraction(2), terms)
    assert len(pairs) == 13
    for p, q in pairs:
        assert q != 0
