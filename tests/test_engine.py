from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeta3cf.engine import (
    DegenerateConvergent,
    InsufficientData,
    convergents,
    convergents_from_terms,
    digits_per_term,
    error_curve,
    eval_backward,
    oracles_agree,
    truncation_value,
    values_from_terms,
    zeta3_reference,
)
from zeta3cf.mobius import PoleError, PolyMobius
from zeta3cf.stages import FlatCF, Stage, Target, flatten, lookup, perturbed, stage_from_levels
from zeta3cf.polynomial import K, Poly
from zeta3cf.rational import truncate_float

from test_polynomial import fraction_horner


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
    flat = FlatCF("degen", Fraction(0), Fraction(1), 1, (Poly.zero() + 0,), (Poly.const(1),))
    with pytest.raises(DegenerateConvergent):
        convergents(flat, 2)


def test_eval_backward_head_only():
    assert eval_backward(lookup("APERY"), 0, 5) == Fraction(12, 5)


def test_eval_backward_one_step():
    assert eval_backward(lookup("APERY"), 1, 117) == Fraction(351, 146)


def test_eval_backward_n_one_level():
    assert eval_backward(lookup("N"), 0, 2) == Fraction(5, 2)


def test_eval_backward_pole_propagates():
    with pytest.raises(PoleError) as exc:
        eval_backward(lookup("APERY"), 1, 0)
    assert exc.value.k == 0
    assert exc.value.x == 0


def test_truncation_value_seeds_infinity():
    # X_1 = a(1)/c(1) = 117, the step map at infinity; then 12/(5 - 1/117).
    assert truncation_value(lookup("APERY"), 1) == Fraction(351, 146)


def test_truncation_value_pole_at_infinity_seed():
    # c(k) = k - 2 vanishes at k = 2: the seed X_3 = step_2(infinity) has no value.
    stage = Stage("c-vanishes", PolyMobius(1, 1, K - 2, 1), PolyMobius.identity(), Target.ZETA3)
    with pytest.raises(PoleError) as exc:
        truncation_value(stage, 2)
    assert exc.value.k == 2
    assert exc.value.x == "infinity"


def test_truncation_value_rejects_negative_depth():
    # The depth is checked before any map is evaluated, even where the first
    # map would have a pole (c(k) = k + 1 vanishes at k = -1).
    stage = Stage("c-vanishes", PolyMobius(1, 1, K + 1, 1), PolyMobius.identity(), Target.ZETA3)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        truncation_value(stage, -1)


def _fraction_truncation(stage: Stage, depth: int) -> Fraction:
    # The descent in Fractions, each entry by Fraction Horner on its coefficients.
    def entries(m: PolyMobius, k: int) -> list[Fraction]:
        return [fraction_horner(e, k) for e in m.entries]

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
@given(random_levels, small_ints, nonzero_small_ints, st.integers(0, 6))
def test_truncation_value_matches_forward_on_random_level_stages(levels, b0, a1, m):
    # The same relation on random level stages: backward through the
    # normalized step map, forward through the flattened term families.
    stage = stage_from_levels("R", levels, PolyMobius(b0, a1, 1, 0), Target.TWO_ZETA3)
    try:
        backward = truncation_value(stage, m)
        forward = convergents(flatten(stage), len(levels) * (m + 1))[-1].value
    except (PoleError, DegenerateConvergent):
        assume(False)
    assert backward == forward


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
    # The alternating central-binomial sum term by term in Fractions.
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
    for digits in [*range(1, 401), 1000]:
        assert zeta3_reference(digits).fraction == _series_reference(digits), digits


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
