from __future__ import annotations

import functools
import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeta3cf import stages, verify
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
    _proof_rows,
    _symbolic_check,
    _tabulate,
    canonical_head,
    derive_stage,
    derived_chain,
    diff_stages,
    diff_texts,
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
    step = type(step_named("Z"))("X", PolyMobius.identity())
    again = derive_stage(q, step)
    assert again.step.proj_eq(q.step)
    assert again.head.proj_eq(q.head)


def test_derive_n_from_g(chain):
    derived = derive_stage(chain["G"], step_named("N"))
    assert derived.step.proj_eq(lookup("N").step)
    assert canonical_head(derived).proj_eq(PolyMobius(2, 1, 1, 0))


def _count_derivations(monkeypatch) -> list:
    calls = []
    derive = verify.derive_stage

    def counted(source, step):
        calls.append(step.name)
        return derive(source, step)

    monkeypatch.setattr(verify, "derive_stage", counted)
    return calls


def test_second_derived_chain_derives_nothing(chain, monkeypatch):
    calls = _count_derivations(monkeypatch)
    again = derived_chain()
    assert calls == []
    assert again == chain


def test_derived_chain_derives_only_up_to_stop(monkeypatch):
    # From an empty memo, the first call derives A5 .. N once each, in chain
    # order, and a second call derives nothing.  A fresh cache, not
    # cache_clear(), leaves the session's shared stages as they are.
    fresh = functools.cache(verify._normative_chain.__wrapped__)
    monkeypatch.setattr(verify, "_normative_chain", fresh)
    calls = _count_derivations(monkeypatch)
    assert tuple(derived_chain()) == CHAIN_ORDER
    assert calls == list(CHAIN_ORDER[1:])
    derived_chain()
    assert calls == list(CHAIN_ORDER[1:])


def test_derived_chain_returns_new_dicts_of_shared_stages(chain):
    first, second = derived_chain(), derived_chain()
    assert first is not second and first is not chain
    assert all(first[name] is chain[name] for name in CHAIN_ORDER)
    assert all(second[name] is chain[name] for name in CHAIN_ORDER)
    # A caller that changes its dict changes no later result.
    first["W"] = first.pop("N")
    first.clear()
    assert tuple(derived_chain()) == CHAIN_ORDER
    assert derived_chain()["W"] is chain["W"]


def test_eval_reads_the_stages_verify_chain_proves(chain, chain_report):
    # One derivation serves both readers: each stage `eval` and `catalog`
    # read is the one verify-chain derives and proves at its position.
    assert chain["APERY"] is stages.catalog()["APERY"]
    assert [s.step_name for s in chain_report.steps] == list(CHAIN_ORDER[1:])
    for report in chain_report.steps:
        assert chain[report.step_name] == report.derived, report.step_name


def test_nothing_is_derived_at_import():
    import subprocess
    import sys

    script = (
        "import zeta3cf.cli as c, zeta3cf.stages as s, zeta3cf.verify as v\n"
        "for f in (v._normative_chain, s.catalog, s.substitution_chain, c._catalog_rows):\n"
        "    assert f.cache_info().currsize == 0, f\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@settings(max_examples=60, deadline=None)
@given(entry_quads, st.sampled_from(CHAIN_ORDER[:-1]))
def test_one_product_psi_matches_composition(chain, quad, name):
    # derive_stage multiplies adj(sigma), phi and sigma(k+1) as raw tuples and
    # normalizes once; the normalized pairwise composition is the same map.
    sigma = PolyMobius(*quad)
    source = chain[name]
    try:
        derived = derive_stage(source, SubstitutionStep("X", sigma))
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
    # The report holds the labels; the texts are rendered on demand.
    q = next(s for s in chain_report.steps if s.step_name == "Q")
    assert q.mismatches
    texts = diff_texts(lookup("Q"), q.derived)
    assert tuple(entry for entry, _, _ in texts) == q.mismatches
    for entry, claimed_text, derived_text in texts:
        assert entry.startswith("step.")
        assert claimed_text and derived_text
        assert claimed_text != derived_text
        assert claimed_text == str(getattr(lookup("Q").step, entry[-1]))
        assert derived_text == str(getattr(q.derived.step, entry[-1]))


@pytest.mark.parametrize("broken", [None] + list(CHAIN_ORDER[1:]))
def test_diff_texts_labels_are_the_reported_mismatches(broken):
    # verify-chain renders each mismatch by `diff_texts`, and reports it by
    # `diff_stages`: the two name the same entries, for every step and
    # variant of the normative chain and of each --hook-break-sigma chain.
    override = {broken: PolyMobius(1, 1, 0, 1)} if broken else None
    report = verify_chain(sigma_override=override)
    claimed = stages.catalog()

    def labels(name, derived):
        return tuple(label for label, _, _ in diff_texts(claimed[name], derived))

    for step in report.steps:
        assert step.error is None
        assert labels(step.step_name, step.derived) == step.mismatches, step.step_name
    derived = {step.step_name: step.derived for step in report.steps}
    for variant in report.variants:
        assert labels(variant.name, derived[variant.base]) == variant.mismatches, variant.name
    assert any(step.mismatches for step in report.steps)


def test_diff_texts_renders_a_head_rescaled(chain):
    # Claimed Q is on the zeta(3) scale: a head that differs is printed
    # rescaled onto 2*zeta(3), as canonical_head prints it.
    claimed, q = lookup("Q")._replace(head=PolyMobius(1, 1, 0, 1)), chain["Q"]
    labels = diff_stages(claimed, q)
    texts = diff_texts(claimed, q)
    assert labels[-1] == "head" and tuple(entry for entry, _, _ in texts) == labels
    assert texts[-1] == ("head", "[[2, 2], [0, 1]]", "[[2, 0], [0, 1]]")
    assert diff_stages(q, q) == diff_texts(q, q) == ()


def test_verify_chain_renders_no_polynomial(chain, monkeypatch):
    # Damaged transcriptions (Q, H, G and three variants) and an injected
    # fault are diffed by label: nothing is printed or rescaled.
    calls = []
    poly_str, head = Poly.__str__, verify.canonical_head
    monkeypatch.setattr(Poly, "__str__", lambda p: calls.append(p) or poly_str(p))
    monkeypatch.setattr(verify, "canonical_head", lambda s: calls.append(s) or head(s))
    assert verify_chain().passed
    report = verify_chain(sigma_override={"A5": PolyMobius(1, 1, 0, 1)})
    assert not report.passed
    assert calls == []


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


@pytest.mark.parametrize("name", ["BOGUS", "APERY", "A6", ""])
def test_verify_chain_unknown_override_step_raises_before_any_work(monkeypatch, name):
    # An override of a step the chain does not have injects nothing, so the
    # chain would pass; it is an error, raised before anything is derived.
    calls = _count_derivations(monkeypatch)
    monkeypatch.setattr(verify, "zeta3_reference", lambda digits: calls.append(digits))
    with pytest.raises(ValueError) as info:
        verify_chain(sigma_override={"W": PolyMobius(1, 1, 0, 1), name: PolyMobius(1, 1, 0, 1)})
    assert str(info.value) == f"unknown step {name!r}; chain steps: A5, W, U, P, Q, Z, H, G, N"
    assert calls == []


def test_verify_chain_derives_afresh_with_the_memo_filled(chain, monkeypatch):
    calls = _count_derivations(monkeypatch)
    assert verify_chain().passed
    assert calls == list(CHAIN_ORDER[1:])


def test_verify_chain_injected_bad_sigma():
    report = verify_chain(sigma_override={"W": PolyMobius(1, 1, 0, 1)})
    assert not report.passed
    assert not report.final_matches_n
    w = next(s for s in report.steps if s.step_name == "W")
    assert not w.claimed_matches


def _failing_steps():
    return [s.step_name for s in verify_chain().steps if not s.symbolic_pass]


def test_symbolic_check_catches_broken_run(chain, monkeypatch):
    # The proof and the residual read one table per stage, from Poly.run.
    # A run that is off by one at index deg + 1, the first value it does not
    # take from value_at, must fail the proofs, not only move the residuals.
    run = Poly.run

    def broken(self, count):
        values = list(run(self, count))
        if len(values) > self.degree + 1 >= 0:
            values[self.degree + 1] += 1
        return iter(values)

    monkeypatch.setattr(Poly, "run", broken)
    assert _failing_steps() == list(CHAIN_ORDER[1:])


def test_verify_chain_tabulates_each_stage_once(chain, monkeypatch):
    # One Poly.run per entry of each stage (APERY and the nine derived) and
    # of each of the nine sigma; the residuals read the derived stages'
    # tables.
    runs, depths = [], []
    run, truncation = Poly.run, verify.truncation_value
    monkeypatch.setattr(Poly, "run", lambda p, count: runs.append(count) or run(p, count))
    monkeypatch.setattr(verify, "truncation_value",
                        lambda s, depth, columns: depths.append(depth) or truncation(s, depth, columns))
    assert verify_chain().passed
    assert len(runs) == 4 * (10 + 9)
    assert depths == [RESIDUAL_DEPTH] * 9


def test_verify_chain_sizes_tables_from_a_high_degree_sigma(chain):
    # deg sigma = 12 asks for more proof points than the residual's depth
    # + 1 rows: the tables grow to the proof, and every identity holds.
    report = verify_chain(sigma_override={"U": scale_map((K + 1) ** 12)})
    assert all(s.symbolic_pass and s.error is None for s in report.steps)
    wrong = [s.step_name for s in report.steps if s.mismatches]
    assert wrong == ["U", "P", "Q", "Z", "H", "G", "N"]
    assert not report.passed


def test_symbolic_check_catches_broken_shift(chain, monkeypatch):
    # The `chain` fixture fills the catalog, substitution-chain and derived
    # memos with the sound kernels first, so that none of them holds the
    # broken kernel's output for the rest of the session.
    # A shift that is wrong in its top coefficient from degree 2 on derives
    # a wrong psi wherever sigma or phi has such an entry.  A check that
    # shifted sigma too would share the fault and pass all nine steps; this
    # one evaluates sigma at k + 1 and flags those three.
    assert stages.substitution_chain.cache_info().currsize
    shift = Poly.shift

    def broken(self, c):
        out = shift(self, c)
        if out.degree < 2:
            return out
        return Poly(out.nums[:-1] + (out.nums[-1] + 1,))

    monkeypatch.setattr(Poly, "shift", broken)
    assert _failing_steps() == ["A5", "W", "P"]


def test_broken_shift_is_caught_with_the_memo_filled(chain, monkeypatch):
    # The memo holds the chain derived with the sound kernels; verify_chain
    # derives its own with the broken shift and flags the same three steps.
    assert tuple(derived_chain()) == CHAIN_ORDER
    test_symbolic_check_catches_broken_shift(None, monkeypatch)
    assert all(derived_chain()[name] is chain[name] for name in CHAIN_ORDER)


def test_symbolic_check_catches_broken_product(chain, monkeypatch):
    # As above, the memos are filled before the product breaks.
    assert stages.substitution_chain.cache_info().currsize
    mul = Poly.__mul__

    def broken(self, other):
        out = mul(self, other)
        return out + 1 if out.degree >= 2 else out

    monkeypatch.setattr(Poly, "__mul__", broken)
    monkeypatch.setattr(Poly, "__rmul__", broken)
    assert _failing_steps()


def symbolic_check(source, derived, step):
    """`_symbolic_check` on tables as long as the proof asks for."""
    rows = _proof_rows(source.step, derived.step, step.sigma)
    return _symbolic_check(source, derived, step,
                           _tabulate(source.step, rows), _tabulate(derived.step, rows))


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
    step = SubstitutionStep("T", sigma)
    assert symbolic_check(source, derived, step)
    assert not symbolic_check(source, derived._replace(step=psi._replace(d=K**2 + 1)), step)


def six_minor_proportional(points: list) -> bool:
    """Reference for `_proportional`: every 2x2 minor L_i R_j - L_j R_i
    vanishes at every point, and neither side is zero at them all."""
    return (
        any(any(L) for L, _ in points)
        and any(any(R) for _, R in points)
        and all(L[i] * R[j] == L[j] * R[i] for L, R in points for i, j in combinations(range(4), 2))
    )


int_quads4 = st.tuples(*[st.integers(-6, 6)] * 4)
nonzero_ints = st.integers(-6, 6).filter(bool)


@st.composite
def proportion_points(draw):
    """(L, R) pairs: free, proportional (zero and negative scalars too), a
    zero side, or both sides nonzero at only two places i < j, so that the
    one minor (i, j) alone can be off."""
    kind = draw(st.sampled_from(["free", "scaled", "zero L", "zero R", "one minor"]))
    L = draw(int_quads4)
    if kind == "free":
        return L, draw(int_quads4)
    if kind == "scaled":
        lam = draw(st.integers(-4, 4))
        return L, tuple(lam * x for x in L)
    if kind == "zero L":
        return (0, 0, 0, 0), draw(int_quads4)
    if kind == "zero R":
        return L, (0, 0, 0, 0)
    i, j = draw(st.sampled_from(list(combinations(range(4), 2))))
    L, R = [0] * 4, [0] * 4
    L[i], L[j], R[i], R[j] = (draw(nonzero_ints) for _ in range(4))
    return tuple(L), tuple(R)


@settings(max_examples=500, deadline=None)
@given(st.lists(proportion_points(), max_size=4))
def test_proportional_matches_the_six_minors(points):
    assert verify._proportional(points) == six_minor_proportional(points)


@pytest.mark.parametrize("i, j", list(combinations(range(4), 2)))
def test_proportional_sees_each_minor(i, j):
    # Only the minor (i, j) is off at the second point; the first is
    # proportional under -3, with no zero entry.
    L, R = [0] * 4, [0] * 4
    L[i] = L[j] = R[i] = 1
    R[j] = 2
    points = [((1, 2, 3, 5), (-3, -6, -9, -15)), (tuple(L), tuple(R))]
    assert verify._proportional(points[:1]) and six_minor_proportional(points[:1])
    assert not verify._proportional(points) and not six_minor_proportional(points)


@pytest.mark.parametrize("sigma", [PolyMobius.identity()])
def test_symbolic_check_reads_every_point_the_degrees_ask_for(sigma):
    # psi = diag(1 + V, 1) against phi = sigma = I: the one nonzero minor is
    # V = k (k - 1) ... (k - 5), of degree D = 6, which vanishes at k = 0 ..
    # 5, so only the last of the D + 1 points shows that psi is not phi.
    vanishing = Poly.const(1)
    for i in range(6):
        vanishing *= K - i
    identity = PolyMobius.identity()
    source = Stage("S", identity, identity, Target.ZETA3)
    derived = Stage("T", PolyMobius(1 + vanishing, 0, 0, 1), identity, Target.ZETA3)
    step = SubstitutionStep("T", sigma)
    assert not symbolic_check(source, derived, step)
    assert symbolic_check(source, source._replace(name="T"), step)


@pytest.mark.parametrize("name", CHAIN_ORDER[1:])
def test_symbolic_check_rejects_perturbed_stage(chain, name):
    step = step_named(name)
    source, derived = chain[CHAIN_ORDER[CHAIN_ORDER.index(name) - 1]], chain[name]
    assert symbolic_check(source, derived, step)
    a, b, c, d = derived.head.at_k(0)
    assert not symbolic_check(source, derived._replace(head=PolyMobius(a, b + 1, c, d)), step)
    # Any one coefficient of psi bumped by one.
    for i, entry in enumerate(derived.step):
        for j in range(len(entry.nums) or 1):
            nums = list(entry.nums) or [0]
            nums[j] += 1
            psi = derived.step._replace(**{"abcd"[i]: Poly(nums)})
            assert not symbolic_check(source, derived._replace(step=psi), step), (i, j)
    # k (k - 1) ... (k - 29) vanishes at more points than the unperturbed
    # sides' degrees call for: the check has to size its points from the
    # entries it is given, not sample a fixed range.
    vanishing = Poly.const(1)
    for i in range(30):
        vanishing *= K - i
    psi = derived.step._replace(a=derived.step.a + vanishing)
    assert not symbolic_check(source, derived._replace(step=psi), step)


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
