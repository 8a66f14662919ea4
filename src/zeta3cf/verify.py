"""Symbolic verification of the derivation chain and related checks.

Every substitution X^{from}_k = sigma_k(X^{to}_k) forces the rewritten
recurrence: psi_k = sigma_k^{-1} o phi_k o sigma_{k+1} and the new head is
the old head composed with sigma_0.  This module re-derives each stage of
the chain that way, starting from the Apery endpoint, checks the defining
conjugation identity sigma_k o psi_k = phi_k o sigma_{k+1} as an exact
polynomial statement, and diffs the result against the claimed (transcribed)
catalog entry.  Claimed entries are never trusted: a mismatch is report
content, printed with both polynomials, which makes the verifier double as
a typo detector for damaged displays.

Also here: the equivalence-transformation check (rescaling a_n, b_n leaves
every convergent value unchanged) and the alignment of reduced Nesterenko
convergents at index 4v-2 with reduced Apery convergents at index v.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .engine import ReferenceValue, Terms, convergents, truncation_value, zeta3_reference
from .mobius import DegenerateMobius, PolyMobius, scale_map
from .polynomial import Poly, poly_gcd
from .rational import sci_string
from .stages import (
    VARIANTS,
    FlatCF,
    Stage,
    SubstitutionStep,
    Target,
    catalog,
    peel_head,
    substitution_chain,
)

RESIDUAL_DEPTH = 25
RESIDUAL_REF_DIGITS = 40
RESIDUAL_BOUND = Fraction(1, 10**20)


class DegenerateSigma(ArithmeticError):
    """A substitution matrix degenerates at some index k >= 0."""


class ChainInconsistency(ArithmeticError):
    """Deriving a stage through the chain broke down."""


class InvalidScale(ValueError):
    """An equivalence transformation used a zero scale factor."""


class NoAlignmentFound(ValueError):
    """No offset pair aligns the two convergent sequences."""


def canonical_head(stage: Stage) -> PolyMobius:
    """Head rescaled onto the 2*zeta(3) target, for cross-target comparison."""
    if stage.target is Target.TWO_ZETA3:
        return stage.head
    return scale_map(2) @ stage.head


def _check_sigma(step: SubstitutionStep) -> None:
    """Nondegenerate for all integer k >= 0: det has no nonnegative integer root."""
    sigma = step.sigma
    assert sigma is not None
    det = sigma.det.primitive()
    if det.is_constant:
        return
    if det.nums[0] == 0:
        raise DegenerateSigma(f"step {step.name}: sigma degenerates at k = 0")
    root = _least_positive_integer_root(det)
    if root is not None:
        raise DegenerateSigma(f"step {step.name}: sigma degenerates at k = {root}")


def _least_positive_integer_root(f: Poly) -> int | None:
    """Smallest integer root k >= 1 of a nonconstant f, or None.

    The cost depends on the degree and bit size of f, not on its values.
    Descartes' rule of signs settles an f without a coefficient sign change
    (no positive root).  Otherwise a Sturm sequence of the square-free part
    g counts the roots in (lo, hi] as V(lo) - V(hi); bisecting (0, B], B the
    Cauchy bound, on integer end points down to unit intervals leaves one
    candidate, hi, per interval that holds a root.
    """
    signs = [n > 0 for n in f.nums if n]
    if all(s == signs[0] for s in signs):
        return None
    g = f.divexact(poly_gcd(f, _derivative(f))).primitive()
    seq = [g, _derivative(g).primitive()]
    while seq[-1].degree > 0:
        seq.append((-seq[-2].divmod(seq[-1])[1]).primitive())

    def variations(x: int) -> int:
        values = [v for v in (p.value_at(x) for p in seq) if v]
        return sum((u < 0) != (v < 0) for u, v in zip(values, values[1:]))

    lead = abs(g.nums[-1])
    bound = 1 + (max(abs(n) for n in g.nums[:-1]) + lead - 1) // lead
    pending = [(0, bound, variations(0), variations(bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if g.value_at(hi) == 0:
                return hi
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        # Lower half popped first, so the first root found is the smallest.
        pending += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return None


def _derivative(f: Poly) -> Poly:
    """den(f) times the derivative of f: a positive multiple, in ints."""
    return Poly([i * n for i, n in enumerate(f.nums)][1:])


def derive_stage(source: Stage, step: SubstitutionStep) -> Stage:
    """Rewrite `source` through one chain step; result is the normative stage."""
    if step.is_peel:
        return peel_head(source, new_name=step.to_stage)
    sigma = step.sigma
    assert sigma is not None
    _check_sigma(step)
    try:
        psi = sigma.inverse() @ source.step @ sigma.shifted(1)
        head = source.head @ sigma.at_k(0)
    except DegenerateMobius as exc:
        raise ChainInconsistency(f"step {step.name}: {exc}") from exc
    return Stage(
        step.to_stage,
        psi,
        head,
        source.target,
        kind="derived",
        note=step.note,
    )


def derived_chain() -> dict[str, Stage]:
    """All normative stages, re-derived from the Apery endpoint alone."""
    stages: dict[str, Stage] = {"APERY": catalog()["APERY"]}
    current = stages["APERY"]
    for step in substitution_chain():
        current = derive_stage(current, step)
        stages[step.to_stage] = current
    return stages


@dataclass(frozen=True)
class StepReport:
    step_name: str
    symbolic_pass: bool
    derived: Stage
    claimed_matches: bool
    mismatches: tuple[tuple[str, str, str], ...]  # (entry, claimed, derived)
    numeric_residual: str
    error: str | None = None


@dataclass(frozen=True)
class VariantReport:
    name: str
    base: str
    matches_derived: bool
    mismatches: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[StepReport, ...]
    variants: tuple[VariantReport, ...]
    final_matches_n: bool
    final_head_ok: bool

    @property
    def passed(self) -> bool:
        return (
            all(s.symbolic_pass and s.error is None for s in self.steps)
            and self.final_matches_n
            and self.final_head_ok
        )


def _diff_stages(claimed: Stage, derived: Stage) -> tuple[tuple[str, str, str], ...]:
    out: list[tuple[str, str, str]] = []
    if not claimed.step.proj_eq(derived.step):
        for label, cl, dv in zip(
            ("step.a", "step.b", "step.c", "step.d"),
            claimed.step.entries,
            derived.step.entries,
        ):
            if cl != dv:
                out.append((label, str(cl), str(dv)))
    if not canonical_head(claimed).proj_eq(canonical_head(derived)):
        out.append(("head", str(canonical_head(claimed)), str(canonical_head(derived))))
    return tuple(out)


def _symbolic_check(source: Stage, derived: Stage, step: SubstitutionStep) -> bool:
    """Exact polynomial identity behind the rewrite.

    For a substitution: sigma_k o psi_k == phi_k o sigma_{k+1} projectively.
    For the head peel: psi is phi shifted and the head absorbed phi at k = 0.
    """
    if step.is_peel:
        return derived.step.proj_eq(source.step.shifted(1)) and derived.head.proj_eq(
            source.head @ source.step.at_k(0)
        )
    sigma = step.sigma
    assert sigma is not None
    lhs = sigma @ derived.step
    rhs = source.step @ sigma.shifted(1)
    head_ok = derived.head.proj_eq(source.head @ sigma.at_k(0))
    return lhs.proj_eq(rhs) and head_ok


def _residual(stage: Stage, ref_fraction: Fraction) -> Fraction:
    value = truncation_value(stage, RESIDUAL_DEPTH)
    return abs(value - stage.target.scale * ref_fraction)


def _verify_step(
    source: Stage, step: SubstitutionStep, claimed: Stage | None, ref: ReferenceValue
) -> StepReport:
    """Derive one chain step and diff it against its claimed transcription."""
    try:
        derived = derive_stage(source, step)
    except (DegenerateSigma, ChainInconsistency) as exc:
        return StepReport(step.name, False, source, False, (), "n/a", str(exc))
    symbolic = _symbolic_check(source, derived, step)
    residual = sci_string(_residual(derived, ref.fraction))
    if claimed is None:
        return StepReport(
            step.name,
            symbolic,
            derived,
            False,
            (),
            residual,
            error=f"ChainInconsistency: no claimed stage {step.to_stage!r} in catalog",
        )
    mismatches = _diff_stages(claimed, derived)
    return StepReport(step.name, symbolic, derived, not mismatches, mismatches, residual)


def verify_chain(
    stages: dict[str, Stage] | None = None,
    sigma_override: dict[str, PolyMobius] | None = None,
) -> ChainReport:
    """Run the whole derivation and report every step in chain order.

    `stages` substitutes the claimed catalog (negative-control hook);
    `sigma_override` replaces named substitution matrices (fault injection).
    It accepts any PolyMobius a caller builds, so the degeneracy check on
    sigma costs time set by the degree and bit size of det(sigma), never by
    the size of its roots or coefficients.  Overall pass means: every symbolic identity holds and the final derived
    stage is projectively the Nesterenko stage with head 2 + 1/N_0.
    """
    claimed = catalog() if stages is None else stages
    ref = zeta3_reference(RESIDUAL_REF_DIGITS)
    reports: list[StepReport] = []
    current = claimed.get("APERY") or catalog()["APERY"]
    for step in substitution_chain():
        if sigma_override and step.name in sigma_override:
            step = replace(step, sigma=sigma_override[step.name])
        report = _verify_step(current, step, claimed.get(step.to_stage), ref)
        reports.append(report)
        current = report.derived

    variant_reports: list[VariantReport] = []
    derived_by_name = {r.step_name: r.derived for r in reports}
    for base, names in VARIANTS.items():
        derived_stage = derived_by_name.get(base)
        if derived_stage is None:
            continue
        for name in names:
            variant = claimed.get(name)
            if variant is None:
                continue
            mism = _diff_stages(variant, derived_stage)
            variant_reports.append(VariantReport(name, base, not mism, mism))

    final = derived_by_name.get("N")
    n_claimed = claimed.get("N") or catalog()["N"]
    final_matches = final is not None and final.step.proj_eq(n_claimed.step)
    final_head_ok = (
        final is not None
        and canonical_head(final).proj_eq(PolyMobius(2, 1, 1, 0))
        and final.target is Target.TWO_ZETA3
    )
    return ChainReport(tuple(reports), tuple(variant_reports), final_matches, final_head_ok)


# ---------------------------------------------------------------------------
# Equivalence transformations.
# ---------------------------------------------------------------------------


def equivalence_scale(terms: Terms, scales: list[Fraction]) -> Terms:
    """Rescale a_n -> c_{n-1} c_n a_n, b_n -> c_n b_n with c_0 = 1.

    `scales` supplies c_1 .. c_len(terms); every convergent value of the
    transformed prefix equals the original's, while p_n and q_n each pick up
    the factor prod(c_1..c_n).
    """
    if len(scales) != len(terms):
        raise InvalidScale(f"{len(terms)} terms but {len(scales)} scale factors")
    if any(c == 0 for c in scales):
        raise InvalidScale("scale factors must be nonzero")
    out: Terms = []
    prev = Fraction(1)
    for (a, b), c in zip(terms, scales):
        out.append((prev * c * a, c * b))
        prev = c
    return out


def flat_prefix(flat: FlatCF, length: int) -> Terms:
    """First `length` (a_n, b_n) pairs of a flattened fraction."""
    return [(flat.a_term(n), flat.b_term(n)) for n in range(1, length + 1)]


# ---------------------------------------------------------------------------
# The convergent coincidence.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentRow:
    v: int
    nes_index: int
    apery_index: int
    equal: bool
    nes_value: Fraction
    apery_value: Fraction
    nes_gcd: int  # common factor of the unreduced Nesterenko p, q


@dataclass(frozen=True)
class AlignmentReport:
    offset_nes: int
    offset_apery: int
    entries: tuple[AlignmentRow, ...]

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.entries)


def gutnik_alignment(nes: FlatCF, apery: FlatCF, v_max: int) -> AlignmentReport:
    """Match reduced Nesterenko convergents at 4v-2 with Apery ones at v.

    The offset pair (delta, delta') is calibrated on v in {1, 2, 3} over the
    window [-3, 3] to absorb indexing-convention differences, then applied
    to every v up to v_max.  Rows whose shifted index falls below zero are
    skipped as boundary entries.
    """
    if v_max < 1:
        raise ValueError("v_max must be >= 1")
    # Depth covers both the calibration rows (v <= 3) and the full range.
    nes_convs = convergents(nes, max(4 * v_max, 12) + 2)
    apery_convs = convergents(apery, max(v_max, 3) + 4)

    def row(v: int, d_nes: int, d_apery: int) -> AlignmentRow | None:
        i = 4 * v - 2 + d_nes
        j = v + d_apery
        if i < 0 or j < 0:
            return None
        nc, ac = nes_convs[i], apery_convs[j]
        nv, av = nc.value, ac.value
        # Fraction(p, q) reduces by gcd(p, q), so |q| / denominator is it.
        return AlignmentRow(v, i, j, nv == av, nv, av, abs(nc.q) // nv.denominator)

    chosen: tuple[int, int] | None = None
    for d_nes in range(-3, 4):
        for d_apery in range(-3, 4):
            ok = True
            for v in (1, 2, 3):
                r = row(v, d_nes, d_apery)
                if r is None or not r.equal:
                    ok = False
                    break
            if ok:
                chosen = (d_nes, d_apery)
                break
        if chosen:
            break
    if chosen is None:
        raise NoAlignmentFound(
            "no offset pair in [-3, 3] aligns the sequences for v in {1, 2, 3}"
        )
    d_nes, d_apery = chosen
    rows = []
    for v in range(1, v_max + 1):
        r = row(v, d_nes, d_apery)
        if r is not None:
            rows.append(r)
    return AlignmentReport(d_nes, d_apery, tuple(rows))
