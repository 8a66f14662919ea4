from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeta3cf.engine import (
    DegenerateConvergent,
    convergents,
    convergents_from_terms,
    last_convergent,
    truncation_value,
    zeta3_reference,
)
from zeta3cf.mobius import PolyMobius, scale_map
from zeta3cf.polynomial import K, Poly
from zeta3cf.stages import (
    CHAIN_ORDER,
    Stage,
    SubstitutionStep,
    Target,
    lookup,
    perturbed,
    substitution_chain,
)
from zeta3cf.rational import sci_string
from zeta3cf.verify import (
    RESIDUAL_DEPTH,
    DegenerateSigma,
    InvalidScale,
    _mul,
    _symbolic_check,
    canonical_head,
    derive_stage,
    derived_chain,
    equivalence_scale,
    gutnik_alignment,
    verify_chain,
)

from test_mobius import entry_quads


def step_named(name):
    return next(s for s in substitution_chain() if s.name == name)


def values(b0, terms):
    return [Fraction(p, q) for p, q in convergents_from_terms(b0, terms)]


def test_derive_w_from_a5(chain):
    derived = chain["W"]
    # b-part and inner shift of the displayed two-level form
    b_w = 29 * K**3 + 138 * K**2 + 216 * K + 112
    assert derived.step.a == b_w
    assert derived.step.d == (5 * K**2 + 20 * K + 20) * (K + 2)
    assert derived.step.proj_eq(lookup("W").step)


def test_derive_identity_sigma(chain):
    q = chain["Q"]
    step = type(step_named("Z"))("X", "Q", "Q", PolyMobius.identity())
    again = derive_stage(q, step)
    assert again.step.proj_eq(q.step)
    assert again.head.proj_eq(q.head)


def test_derive_n_from_g(chain):
    derived = derive_stage(chain["G"], step_named("N"))
    assert derived.step.proj_eq(lookup("N").step)
    assert canonical_head(derived).proj_eq(PolyMobius(2, 1, 1, 0))


def test_stopped_derivation_matches_full_chain(chain):
    for i, name in enumerate(CHAIN_ORDER):
        prefix = derived_chain(stop=name)
        assert tuple(prefix) == CHAIN_ORDER[: i + 1]
        assert prefix[name] == chain[name]


@settings(max_examples=60, deadline=None)
@given(entry_quads, st.sampled_from(CHAIN_ORDER[:-1]))
def test_one_product_psi_matches_composition(chain, quad, name):
    # derive_stage multiplies adj(sigma), phi and sigma(k+1) as raw tuples and
    # normalizes once; the normalized pairwise composition is the same map.
    sigma = PolyMobius(*quad)
    source = chain[name]
    try:
        derived = derive_stage(source, SubstitutionStep("X", name, "X", sigma))
    except DegenerateSigma:
        assume(False)
    assert derived.step.proj_eq(sigma.inverse() @ source.step @ sigma.shifted(1))


def step_report(report, name):
    return next(s for s in report.steps if s.step_name == name)


def test_verify_substitution_w(chain_report):
    report = step_report(chain_report, "W")
    assert report.symbolic_pass
    assert report.claimed_matches
    assert report.mismatches == ()


def test_verify_substitution_q_head(chain_report):
    # The derived Q head is the identity on the zeta(3) scale: zeta3 = Q_0.
    report = step_report(chain_report, "Q")
    assert report.symbolic_pass
    assert canonical_head(report.derived).proj_eq(PolyMobius(2, 0, 0, 1))
    claimed = lookup("Q")
    assert claimed.head == PolyMobius.identity()
    assert claimed.target is Target.ZETA3


def test_verify_substitution_wrong_sigma_negative_control():
    report = step_report(verify_chain(sigma_override={"U": PolyMobius(1, 1, 0, 1)}), "U")
    assert not report.claimed_matches
    assert report.mismatches


def test_sigma_degenerate_at_large_root_reported(chain):
    # det = k - 10**12 vanishes only far out; the check still finds it fast.
    sigma = scale_map(K - 10**12)
    step = step_named("U")._replace(sigma=sigma)
    with pytest.raises(DegenerateSigma, match="k = 1000000000000$"):
        derive_stage(chain["W"], step)
    report = step_report(verify_chain(sigma_override={"U": sigma}), "U")
    assert not report.symbolic_pass
    assert report.error == "step U: sigma degenerates at k = 1000000000000"


def test_sigma_large_constant_without_root_passes():
    report = step_report(verify_chain(sigma_override={"U": scale_map(K + 10**12)}), "U")
    assert report.error is None
    assert report.symbolic_pass


def _count_evaluations(monkeypatch) -> list:
    calls = []
    value_at = Poly.value_at

    def counted(self, k):
        calls.append(k)
        return value_at(self, k)

    monkeypatch.setattr(Poly, "value_at", counted)
    return calls


def _sigma_check_budget(sigma: PolyMobius) -> int:
    # Bisecting (0, B], B the Cauchy bound, visits at most deg intervals per
    # halving and evaluates at most deg + 1 Sturm polynomials per visit;
    # derive_stage then evaluates sigma's 4 entries at k = 0.  A search whose
    # cost grows with the size of the roots or constants overruns this.
    det = sigma.det.primitive()
    deg = det.degree
    bits = ceil(Fraction(max(abs(c) for c in det.nums), abs(det.nums[-1]))).bit_length() + 1
    return (deg + 1) * (2 + deg * (bits + 1)) + deg + 4


def test_sigma_check_cost_independent_of_constant_size(chain, monkeypatch):
    # A divisor search up to sqrt(10**16) ran for seconds; the check costs
    # a number of evaluations set by degree and bit size alone.
    sigma = scale_map(K + 10**16 + 61)
    report = step_report(verify_chain(sigma_override={"U": sigma}), "U")
    assert report.error is None and report.symbolic_pass
    calls = _count_evaluations(monkeypatch)
    derive_stage(chain["W"], step_named("U")._replace(sigma=sigma))
    assert len(calls) <= _sigma_check_budget(sigma)


def test_sigma_degree_two_root_far_out_reported(chain, monkeypatch):
    # det = (k - 10**15)(k + 3): one sign change, one positive root.
    sigma = scale_map((K - 10**15) * (K + 3))
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(DegenerateSigma, match="k = 1000000000000000$"):
        derive_stage(chain["W"], step_named("U")._replace(sigma=sigma))
    assert len(calls) <= _sigma_check_budget(sigma)


def test_sigma_smallest_integer_root_reported(chain):
    # Roots 7 (double), 3, 1/2 and +-i: the smallest integer root is named;
    # a double root alone is found too.
    det = (K - 7) ** 2 * (K - 3) * (2 * K - 1) * (K**2 + 1)
    with pytest.raises(DegenerateSigma, match="k = 3$"):
        derive_stage(chain["W"], step_named("U")._replace(sigma=scale_map(det)))
    with pytest.raises(DegenerateSigma, match="k = 7$"):
        derive_stage(chain["W"], step_named("U")._replace(sigma=scale_map((K - 7) ** 2 * (K + 1))))


def test_step_equivalence_a5_a6():
    a5, a6 = lookup("A5"), lookup("A6")
    assert a5.step.proj_eq(a6.step) and a5.head.proj_eq(a6.head)


def test_step_equivalence_u_u4():
    u, u4 = lookup("U"), lookup("U4")
    assert u.step.proj_eq(u4.step) and u.head.proj_eq(u4.head)


def test_step_equivalence_g16_g17_as_printed():
    # The two circulated four-level displays differ beyond a rescaling (one
    # level's denominator carries an extra k+1 factor), so the literal
    # transcriptions are NOT the same rewrite.  Both are flagged against the
    # derived stage instead.
    assert not lookup("G16").step.proj_eq(lookup("G17").step)


def test_step_equivalence_different_stages():
    assert not lookup("N").step.proj_eq(lookup("APERY").step)


def test_verify_chain_full(chain_report):
    assert chain_report.passed
    assert chain_report.final_matches_n
    assert chain_report.final_head_ok
    assert [s.step_name for s in chain_report.steps] == [
        "A5", "W", "U", "P", "Q", "Z", "H", "G", "N",
    ]
    for s in chain_report.steps:
        assert s.symbolic_pass, s.step_name
        assert s.error is None


def test_verify_chain_claimed_scorecard(chain_report):
    # Which circulated displays survive literal transcription: the damaged
    # ones (Q, H, G and the Q12/G16/G17 variants) must be flagged, the rest
    # must match the derived chain exactly.
    by_name = {s.step_name: s.claimed_matches for s in chain_report.steps}
    assert by_name == {
        "A5": True, "W": True, "U": True, "P": True, "Q": False,
        "Z": True, "H": False, "G": False, "N": True,
    }
    variants = {v.name: v.matches_derived for v in chain_report.variants}
    assert variants == {
        "A6": True, "U4": True, "Q12": False, "G16": False, "G17": False,
    }


def test_verify_chain_mismatches_print_both_polynomials(chain_report):
    q = next(s for s in chain_report.steps if s.step_name == "Q")
    assert q.mismatches
    for entry, claimed_text, derived_text in q.mismatches:
        assert entry.startswith("step.")
        assert claimed_text and derived_text
        assert claimed_text != derived_text


def test_verify_chain_numeric_residuals(chain_report):
    for s in chain_report.steps:
        mantissa, _, exponent = s.numeric_residual.partition("e")
        assert float(mantissa) > 0
        assert int(exponent) <= -20


def test_verify_chain_residuals_are_the_stages_own(chain_report):
    # Each printed residual is the depth-25 error of the stage itself: it
    # reads the same measured against a 300-digit reference.
    ref = zeta3_reference(300).fraction
    for s in chain_report.steps:
        value = truncation_value(s.derived, RESIDUAL_DEPTH)
        residual = abs(value - s.derived.target.scale * ref)
        assert s.numeric_residual == sci_string(residual), s.step_name


def test_verify_chain_w_annotation(chain_report):
    w = next(s for s in chain_report.steps if s.step_name == "W")
    assert "T" in w.derived.note


def test_verify_chain_injected_bad_sigma():
    report = verify_chain(sigma_override={"W": PolyMobius(1, 1, 0, 1)})
    assert not report.passed
    assert not report.final_matches_n
    w = next(s for s in report.steps if s.step_name == "W")
    assert not w.claimed_matches


def _failing_steps():
    return [s.step_name for s in verify_chain().steps if not s.symbolic_pass]


def test_symbolic_check_catches_broken_shift(cat, monkeypatch):
    # A shift that is wrong in its top coefficient from degree 2 on derives
    # a wrong psi wherever sigma or phi has such an entry.  A check that
    # shifted sigma too would share the fault and pass all nine steps; this
    # one evaluates sigma at k + 1 and flags those three.
    shift = Poly.shift

    def broken(self, c):
        out = shift(self, c)
        if out.degree < 2:
            return out
        return Poly(out.nums[:-1] + (out.nums[-1] + 1,))

    monkeypatch.setattr(Poly, "shift", broken)
    assert _failing_steps() == ["A5", "W", "P"]


def test_symbolic_check_catches_broken_product(cat, monkeypatch):
    mul = Poly.__mul__

    def broken(self, other):
        out = mul(self, other)
        return out + 1 if out.degree >= 2 else out

    monkeypatch.setattr(Poly, "__mul__", broken)
    monkeypatch.setattr(Poly, "__rmul__", broken)
    assert _failing_steps()


def test_symbolic_check_side_zero_at_a_sample_point():
    # sigma(1) = diag(1, 0) and psi(1) = [[0, 0], [1, 1]] give L(1) = 0, and
    # phi(1) = [[0, 1], [0, 1]] and sigma(2) = diag(1, 0) give R(1) = 0: the
    # identity holds as polynomials, so a zero side at k = 1 is no failure.
    sigma = PolyMobius(1, 0, 0, (K - 1) * (K - 2))
    phi = PolyMobius(K - 1, 1, K - 1, K)
    psi = PolyMobius((K - 1) * (K - 2), (K - 2) * K * (K - 1), 1, K**2)
    assert _mul(sigma.at_k(1), psi.at_k(1)) == _mul(phi.at_k(1), sigma.at_k(2)) == (0, 0, 0, 0)
    source = Stage("S", phi, PolyMobius(1, 0, 0, 1), Target.ZETA3)
    derived = Stage("T", psi, PolyMobius(1, 0, 0, 2), Target.ZETA3)
    step = SubstitutionStep("T", "S", "T", sigma)
    assert _symbolic_check(source, derived, step)
    assert not _symbolic_check(source, derived._replace(step=psi._replace(d=K**2 + 1)), step)


@pytest.mark.parametrize("name", CHAIN_ORDER[1:])
def test_symbolic_check_rejects_perturbed_stage(chain, name):
    step = step_named(name)
    source, derived = chain[step.from_stage], chain[name]
    assert _symbolic_check(source, derived, step)
    a, b, c, d = derived.head.at_k(0)
    assert not _symbolic_check(source, derived._replace(head=PolyMobius(a, b + 1, c, d)), step)
    # Any one coefficient of psi bumped by one.
    for i, entry in enumerate(derived.step):
        for j in range(len(entry.nums) or 1):
            nums = list(entry.nums) or [0]
            nums[j] += 1
            psi = derived.step._replace(**{"abcd"[i]: Poly(nums)})
            assert not _symbolic_check(source, derived._replace(step=psi), step), (i, j)
    # k (k - 1) ... (k - 29) vanishes at more points than the unperturbed
    # sides' degrees call for: the check has to size its points from the
    # entries it is given, not sample a fixed range.
    vanishing = Poly.const(1)
    for i in range(30):
        vanishing *= K - i
    psi = derived.step._replace(a=derived.step.a + vanishing)
    assert not _symbolic_check(source, derived._replace(step=psi), step)


def test_equivalence_scale_identity(nes_flat):
    terms = list(nes_flat.terms(8))
    assert equivalence_scale(terms, [Fraction(1)] * 8) == terms


def test_equivalence_scale_hand_example():
    # 3-term prefix scaled by c = (1, 2, 2): all three values unchanged.
    b0 = Fraction(2)
    terms = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))]
    scaled = equivalence_scale(terms, [Fraction(1), Fraction(2), Fraction(2)])
    assert scaled == [
        (Fraction(1), Fraction(2)),
        (Fraction(4), Fraction(8)),
        (Fraction(4), Fraction(6)),
    ]
    assert values(b0, terms) == values(b0, scaled)


@pytest.mark.parametrize("scale", [0.5, Decimal("0.5"), "1/2"])
def test_equivalence_scale_rejects_an_inexact_scale(scale):
    # A float scale used to return float terms, [(0.5, 1.0)] here; the other
    # two met a TypeError only in the arithmetic.
    with pytest.raises(TypeError, match="int or Fraction"):
        equivalence_scale([(Fraction(1), Fraction(2))], [scale])


def test_equivalence_scale_value_invariance_randomized(nes_flat):
    rng = random.Random(29)
    base = list(nes_flat.terms(20))
    for _ in range(50):
        scales = [
            Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
            for _ in range(20)
        ]
        scaled = equivalence_scale(base, scales)
        assert values(nes_flat.b0, base) == values(
            nes_flat.b0, scaled
        )
        # p_n and q_n each pick up the running product of the scales.
        orig = convergents_from_terms(nes_flat.b0, base)
        new = convergents_from_terms(nes_flat.b0, scaled)
        running = Fraction(1)
        for n, c in enumerate(scales, start=1):
            running *= c
            assert new[n][0] == running * orig[n][0]
            assert new[n][1] == running * orig[n][1]


def test_equivalence_scale_rejects_zero():
    with pytest.raises(InvalidScale):
        equivalence_scale([(Fraction(1), Fraction(2))], [Fraction(0)])
    with pytest.raises(InvalidScale):
        equivalence_scale([(Fraction(1), Fraction(2))], [])


def test_equivalence_scale_two_pattern_reproduces_doubled_display(chain):
    # The doubled display of the Q-form rewrite: scaling positions 4m+3 of
    # the derived Q-stage block pattern by 2 reproduces its published
    # doubled coefficients 2, 2(k+1)^3 at positions 3 and 4 of each block,
    # against the block families (k+1)^3 and 2(k+1)(k+2)(2k+3).
    blocks = 5
    terms = []
    for m in range(blocks):
        e2 = (m + 1) * (m + 2) * (2 * m + 3)
        handoff = Fraction((m + 1) ** 3) if m else Fraction(1)  # ((m-1)+2)^3, head at m=0
        terms.append((handoff, Fraction(1)))
        terms.append((Fraction(1), Fraction(4)))
        terms.append((Fraction(1), Fraction(1)))
        terms.append((Fraction((m + 1) ** 3), Fraction(2 * e2)))
    scales = []
    for m in range(blocks):
        scales.extend([Fraction(1), Fraction(1), Fraction(2), Fraction(1)])
    scaled = equivalence_scale(terms, scales)
    for m in range(blocks):
        a3, b3 = scaled[4 * m + 2]
        a4, b4 = scaled[4 * m + 3]
        assert (a3, b3) == (2, 2)
        assert a4 == 2 * (m + 1) ** 3
        assert b4 == 2 * (m + 1) * (m + 2) * (2 * m + 3)
    # and the convergent values are untouched
    assert values(Fraction(1), terms) == values(
        Fraction(1), scaled
    )


def test_gutnik_alignment_hand_values(nes_flat, apery_flat):
    report = gutnik_alignment(nes_flat, apery_flat, 3)
    rows = {r.v: r for r in report.entries}
    assert rows[1].nes_value == Fraction(12, 5)
    assert rows[1].apery_value == Fraction(12, 5)
    assert rows[1].nes_index == 2 and rows[1].apery_index == 1
    assert rows[2].nes_value == Fraction(351, 146)
    assert rows[2].apery_value == Fraction(351, 146)
    assert report.all_equal


def test_gutnik_alignment_full_range(nes_flat, apery_flat):
    report = gutnik_alignment(nes_flat, apery_flat, 50)
    assert report.all_equal
    assert len(report.entries) == 50


def test_gutnik_unreduced_factors_reported(nes_flat, apery_flat):
    report = gutnik_alignment(nes_flat, apery_flat, 3)
    gcds = [r.nes_gcd for r in report.entries]
    assert gcds[0] == 2 and gcds[1] == 24  # 24/10 and 8424/3504
    assert all(g >= 1 for g in gcds)


def test_gutnik_perturbed_fails(nes_flat, apery_flat):
    # a_1 bumped: every Apery convergent changes, so every row of the
    # fixed map (4v - 2, v) reports the mismatch.
    report = gutnik_alignment(nes_flat, perturbed(apery_flat, 1, 1), 3)
    assert [(r.nes_index, r.apery_index) for r in report.entries] == [(2, 1), (6, 2), (10, 3)]
    assert not any(r.equal for r in report.entries)
    assert not report.all_equal
    assert report.entries[0].nes_value == Fraction(12, 5)
    assert report.entries[0].apery_value == Fraction(13, 5)


@pytest.mark.parametrize(
    "position, v_max",
    [
        pytest.param(1, 6, id="a1"),
        pytest.param(10, 15, id="a10"),
        pytest.param(57, 62, id="a57"),
        pytest.param(None, 200, id="unperturbed"),
    ],
)
def test_gutnik_unequal_rows_reduce_nesterenko_side(nes_flat, apery_flat, position, v_max):
    # a_position bumped: the Apery side changes from v = position on.  Every
    # row's Nesterenko side is p/q and gcd(p, q) of the plain recurrence.
    apery = apery_flat if position is None else perturbed(apery_flat, position, 1)
    report = gutnik_alignment(nes_flat, apery, v_max)
    assert [r.v for r in report.entries] == list(range(1, v_max + 1))
    assert [r.equal for r in report.entries] == [
        position is None or v < position for v in range(1, v_max + 1)
    ]
    nes_convs = convergents(nes_flat, 4 * v_max - 2)
    for r in report.entries:
        c = nes_convs[r.nes_index]
        assert type(r.nes_value) is Fraction and type(r.apery_value) is Fraction
        assert r.nes_value == Fraction(c.p, c.q)
        assert r.nes_gcd == math.gcd(c.p, c.q)
        assert (r.nes_value == r.apery_value) == r.equal


def test_gutnik_tests_only_printed_nesterenko_denominators(nes_flat, apery_flat):
    # N has b0 = 2 and (a_n, b_n) = (1, 2), (2, 4), (1, 3), (4, 2), (2, 4),
    # (6, 6) for n = 1 .. 6.  a_3 = -15 gives q_3 = 3 * 10 - 15 * 2 = 0, an
    # infinite x_3 off the printed rows 2 and 6; then p_6/q_6 = 2664/1200.
    flat = perturbed(nes_flat, 3, -16)
    with pytest.raises(DegenerateConvergent):
        convergents(flat, 6)
    report = gutnik_alignment(flat, apery_flat, 2)
    assert [r.equal for r in report.entries] == [True, False]
    row = report.entries[1]
    assert (row.nes_ratio, row.nes_gcd) == ((111, 50), 24)
    assert last_convergent(flat, 6) == Fraction(2664, 1200)
    # a_2 = -8 gives q_2 = 4 * 2 - 8 * 1 = 0 on the printed row v = 1.
    with pytest.raises(DegenerateConvergent) as exc:
        gutnik_alignment(perturbed(nes_flat, 2, -10), apery_flat, 2)
    assert exc.value.n == 2
    # a_2 = -9 gives p_2/q_2 = (4 * 5 - 9 * 2)/(4 * 2 - 9 * 1) = 2/-1.
    [row] = gutnik_alignment(perturbed(nes_flat, 2, -11), apery_flat, 1).entries
    assert (row.nes_ratio, row.nes_gcd) == ((-2, 1), 1)


def test_gutnik_rejects_bad_vmax(nes_flat, apery_flat):
    with pytest.raises(ValueError):
        gutnik_alignment(nes_flat, apery_flat, 0)


def test_gutnik_boundary_indices_skipped(nes_flat, apery_flat):
    # The fixed map puts row v at (4v - 2, v), so no row is skipped and
    # the first one already carries valid nonnegative indices.
    report = gutnik_alignment(nes_flat, apery_flat, 1)
    assert len(report.entries) == 1
    assert (report.entries[0].nes_index, report.entries[0].apery_index) == (2, 1)


def test_canonical_head_scales_zeta3_targets():
    a5 = lookup("A5")
    assert a5.target is Target.ZETA3
    assert canonical_head(a5).proj_eq(PolyMobius(12, 0, 5, -1))


def test_derived_q_value_is_zeta3(chain, ref40):
    from zeta3cf.engine import truncation_value

    q = chain["Q"]
    value = truncation_value(q, 25)
    assert abs(value - q.target.scale * ref40.fraction) < Fraction(1, 10**20)


def test_claimed_z_matches_derived_q(chain):
    # The doubled display defines the same rewrite as the derived Q stage.
    z = lookup("Z")
    assert z.step.proj_eq(chain["Q"].step)
