"""Symbolic verification of the derivation chain and related checks.

Every substitution X^{from}_k = sigma_k(X^{to}_k) forces the rewritten
recurrence: psi_k = sigma_k^{-1} o phi_k o sigma_{k+1} and the new head is
the old head composed with sigma_0.  This module re-derives each stage of
the chain that way, starting from the Apery endpoint, proves the defining
conjugation identity sigma_k o psi_k = phi_k o sigma_{k+1} as an exact
polynomial statement, and diffs the result against the claimed (transcribed)
catalog entry.  Claimed entries are never trusted: a mismatch is report
content, the labels of the entries that differ (`diff_stages`; `diff_texts`
renders both polynomials on demand), which makes the verifier double as a
typo detector for damaged displays.

The derived stages are constants: `derived_chain`, which `eval` and
`catalog` read, derives each of them once per process (`functools.cache`)
and only as far down the chain as a caller asks.  `verify_chain` derives
the whole chain afresh on every call, since deriving is what it checks;
what it derives from, the claimed catalog and the substitution steps, is
built once per process in `stages`.  Each stage's step map is tabulated
once per call, at k = 0 .. T - 1 with one `Poly.run` per entry, T one
length for the whole chain, as far as the residual and every proof need;
a stage's own proof reads its table as psi, the next step's as phi, and
the residual as the backward stream of `engine.truncation_value`.  The
residual column is formed in ints, from the cross products of each stage's
depth-25 value with the reference.

The proof (verify-chain's `symbolic` column) runs in ints and shares no
shift, product tree or normal form with the derivation.  Two 2x2 matrices
L, R over Z[k] are the same map iff neither is zero and the six minors
L_i R_j - L_j R_i vanish; each has degree at most D = deg L + deg R, so it
is zero iff it vanishes at k = 0 .. D.  Entries are read there from the
tables, sigma's from its own, sigma_{k+1} at k + 1 itself.

Also here: the equivalence-transformation check (rescaling a_n, b_n leaves
every convergent value unchanged) and the alignment of reduced Nesterenko
convergents at index 4v-2 with reduced Apery convergents at index v.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .engine import (
    Terms,
    reduced_at,
    truncation_value,
    zeta3_reference,
)
from .mobius import PolyMobius, _product
from .polynomial import Poly, _scalar, poly_gcd
from .rational import sci_ratio
from .stages import (
    CHAIN_ORDER,
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
# Residuals at depth 25 are 1e-82 .. 1e-79 and a 100-digit reference is off by
# about 1e-105, so each printed residual is the stage's own error, not the
# reference's.  A deeper RESIDUAL_DEPTH needs more digits here.
RESIDUAL_REF_DIGITS = 100


class DegenerateSigma(ArithmeticError):
    """A substitution matrix degenerates at some index k >= 0."""


class InvalidScale(ValueError):
    """An equivalence transformation used a zero scale factor."""


def canonical_head(stage: Stage) -> PolyMobius:
    """Head rescaled onto the 2*zeta(3) target, for cross-target comparison."""
    return PolyMobius(*_two_zeta3_head(stage))


def _two_zeta3_head(stage: Stage) -> tuple[int, int, int, int]:
    """The head's constant entries, with a and b scaled onto 2*zeta(3)."""
    a, b, c, d = stage.head.at_k(0)
    scale = 2 // stage.target.scale
    return scale * a, scale * b, c, d


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
    """The derivative of f, in ints."""
    return Poly([i * n for i, n in enumerate(f.nums)][1:])


def derive_stage(source: Stage, step: SubstitutionStep) -> Stage:
    """Rewrite `source` through one chain step; result is the normative stage."""
    if step.is_peel:
        return peel_head(source, new_name=step.to_stage)
    sigma = step.sigma
    assert sigma is not None
    _check_sigma(step)
    adjugate = (sigma.d, -sigma.b, -sigma.c, sigma.a)
    shifted = tuple(e.shift(1) for e in sigma)
    # psi = sigma^-1 o phi o sigma(k+1) as one product, normalized once.
    # Neither map below can be degenerate: _check_sigma has shown det sigma(k)
    # != 0 for every integer k >= 0, so sigma(0) is invertible, and det psi =
    # det sigma * det phi * det sigma(k+1) is a nonzero polynomial, which
    # normalization keeps nonzero.
    psi = PolyMobius(*_product([shifted, source.step, adjugate]))
    head = PolyMobius(*_product([sigma.at_k(0), source.head.at_k(0)]))
    return Stage(
        step.to_stage,
        psi,
        head,
        source.target,
        kind="derived",
        note=step.note,
    )


@cache
def _derived(i: int) -> Stage:
    """The normative stage at chain position i, derived from the Apery endpoint."""
    if i == 0:
        return catalog()["APERY"]
    return derive_stage(_derived(i - 1), substitution_chain()[i - 1])


def derived_chain(stop: str | None = None) -> dict[str, Stage]:
    """The normative stages, derived from the Apery endpoint alone: all of
    them, or with `stop` named, those up to and including it.

    Each stage is derived once per process, and only as far as a call asks:
    `stop="A5"` derives one step.  Every call returns a new dict of shared
    stages.  ValueError if `stop` is not a chain position.
    """
    if stop is None:
        names = CHAIN_ORDER
    elif stop in CHAIN_ORDER:
        names = CHAIN_ORDER[: CHAIN_ORDER.index(stop) + 1]
    else:
        raise ValueError(f"unknown stage {stop!r}; chain positions: {', '.join(CHAIN_ORDER)}")
    return {name: _derived(i) for i, name in enumerate(names)}


class StepReport(namedtuple("StepReport", "step_name symbolic_pass derived mismatches "
                            "numeric_residual error", defaults=(None,))):
    """One chain step: `mismatches` holds the labels of the entries in which
    the claimed stage differs from the derived one (`diff_stages`)."""

    __slots__ = ()

    @property
    def claimed_matches(self) -> bool:
        return self.error is None and not self.mismatches


class VariantReport(namedtuple("VariantReport", "name base mismatches")):
    __slots__ = ()

    @property
    def matches_derived(self) -> bool:
        return not self.mismatches


class ChainReport(namedtuple("ChainReport", "steps variants final_matches_n final_head_ok")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            all(s.symbolic_pass and s.error is None for s in self.steps)
            and self.final_matches_n
            and self.final_head_ok
        )


_STEP_LABELS = ("step.a", "step.b", "step.c", "step.d")


def diff_stages(claimed: Stage, derived: Stage) -> tuple[str, ...]:
    """The labels of the entries in which two normal forms differ, "step.a"
    .. "step.d" and "head": none iff the maps agree.  Nothing is rendered;
    `diff_texts` gives the texts."""
    out = [label for label, cl, dv in zip(_STEP_LABELS, claimed.step, derived.step) if cl != dv]
    if not _proportional([(_two_zeta3_head(claimed), _two_zeta3_head(derived))]):
        out.append("head")
    return tuple(out)


def diff_texts(claimed: Stage, derived: Stage) -> tuple[tuple[str, str, str], ...]:
    """(label, claimed text, derived text) for each entry `diff_stages`
    names; a head is printed rescaled onto 2*zeta(3) (`canonical_head`)."""

    def text(stage: Stage, label: str) -> str:
        if label == "head":
            return str(canonical_head(stage))
        return str(stage.step[_STEP_LABELS.index(label)])

    return tuple((label, text(claimed, label), text(derived, label))
                 for label in diff_stages(claimed, derived))


def _tabulate(m: PolyMobius, count: int) -> list[list[int]]:
    """The columns (a, b, c, d) of m's entries at k = 0 .. count - 1, one
    `Poly.run` each."""
    return [list(e.run(count)) for e in m]


def _proof_rows(phi: PolyMobius, psi: PolyMobius, sigma: PolyMobius | None) -> int:
    """How many rows, k = 0 .. D + 1, of phi's and psi's tables
    `_symbolic_check` reads: D = deg L + deg R bounds its minors' degrees."""
    mats = (psi, phi) if sigma is None else (sigma, sigma, psi, phi)
    return sum(max(e.degree for e in m) for m in mats) + 2


def _symbolic_check(source: Stage, derived: Stage, step: SubstitutionStep,
                    phi_table: list[list[int]], psi_table: list[list[int]]) -> bool:
    """Exact polynomial identity behind the rewrite, proved at integer points.

    Substitution: L(k) = sigma(k) psi(k) against R(k) = phi(k) sigma(k+1), and
    the derived head against the source head times sigma(0).  Head peel:
    psi(k) against phi(k+1), and the head against the source head times phi(0).
    `phi_table` and `psi_table` tabulate the source's and the derived step
    map (`_tabulate`) at least as far as `_proof_rows` asks.
    """
    sigma = step.sigma
    top = _proof_rows(source.step, derived.step, sigma) - 2
    phi, psi = list(zip(*phi_table)), list(zip(*psi_table))
    if sigma is None:
        points = [(psi[k], phi[k + 1]) for k in range(top + 1)]
        entry = phi[0]
    else:
        s = list(zip(*_tabulate(sigma, top + 2)))
        points = [(_mul(s[k], psi[k]), _mul(phi[k], s[k + 1])) for k in range(top + 1)]
        entry = s[0]
    head = (derived.head.at_k(0), _mul(source.head.at_k(0), entry))
    return _proportional(points) and _proportional([head])


def _mul(m: tuple, n: tuple) -> tuple:
    """The 2x2 int matrix product m n, written out apart from `_product`, which derived psi."""
    (a, b, c, d), (e, f, g, h) = m, n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _proportional(points: list) -> bool:
    """True iff L_i R_j == L_j R_i at every (L, R) pair, and neither side is zero at them all."""
    return (
        any(any(L) for L, _ in points)
        and any(any(R) for _, R in points)
        and all(
            a * f == b * e and a * g == c * e and a * h == d * e
            and b * g == c * f and b * h == d * f and c * h == d * g
            for (a, b, c, d), (e, f, g, h) in points
        )
    )


def _residual(stage: Stage, table: list[list[int]], ref: Fraction) -> str:
    """|x - s * ref| in scientific notation, x the stage's value at
    RESIDUAL_DEPTH, read from its table, and s its target's scale, from
    integer cross products."""
    x = truncation_value(stage, RESIDUAL_DEPTH, table)
    num = x.numerator * ref.denominator - stage.target.scale * ref.numerator * x.denominator
    return sci_ratio(abs(num), x.denominator * ref.denominator)


def verify_chain(sigma_override: dict[str, PolyMobius] | None = None) -> ChainReport:
    """Run the whole derivation and report every step in chain order.

    `sigma_override` replaces named substitution matrices (fault injection).
    It accepts any PolyMobius a caller builds, so the degeneracy check on
    sigma costs time set by the degree and bit size of det(sigma), never by
    the size of its roots or coefficients.  Overall pass means: every
    symbolic identity holds and the final derived stage is projectively the
    Nesterenko stage with head 2 + 1/N_0.  ValueError, before any work, if
    `sigma_override` names a step the chain does not have.

    Unlike `derived_chain`, every call derives the whole chain afresh:
    deriving is what it checks, and an override derives another chain.
    Each stage's step map is tabulated once (`_tabulate`), to one length
    for the whole chain, and read by its residual and by the proofs of its
    own step, as psi, and of the next, as phi.
    """
    steps = CHAIN_ORDER[1:]
    for name in sigma_override or ():
        if name not in steps:
            raise ValueError(f"unknown step {name!r}; chain steps: {', '.join(steps)}")
    claimed = catalog()
    ref = zeta3_reference(RESIDUAL_REF_DIGITS).fraction
    # The whole chain is derived first, since the table length waits on
    # every step's degrees.  A degenerate sigma derives nothing, and the
    # step after it starts from the same source.
    links: list[tuple[Stage, SubstitutionStep, Stage | None, str | None]] = []
    source = claimed["APERY"]
    for step in substitution_chain():
        if sigma_override and step.name in sigma_override:
            step = step._replace(sigma=sigma_override[step.name])
        try:
            derived = derive_stage(source, step)
        except DegenerateSigma as exc:
            links.append((source, step, None, str(exc)))
        else:
            links.append((source, step, derived, None))
            source = derived
    # One table length covers every residual and every proof.
    count = max([RESIDUAL_DEPTH + 1] + [_proof_rows(source.step, derived.step, step.sigma)
                                        for source, step, derived, _ in links
                                        if derived is not None])

    reports: list[StepReport] = []
    phi = _tabulate(claimed["APERY"].step, count)
    for source, step, derived, error in links:
        if derived is None:
            reports.append(StepReport(step.name, False, source, (), "n/a", error))
            continue
        psi = _tabulate(derived.step, count)
        reports.append(StepReport(
            step.name,
            _symbolic_check(source, derived, step, phi, psi),
            derived,
            diff_stages(claimed[step.to_stage], derived),
            _residual(derived, psi, ref),
        ))
        phi = psi

    derived = {r.step_name: r.derived for r in reports}
    variants = tuple(
        VariantReport(name, base, diff_stages(claimed[name], derived[base]))
        for base, names in VARIANTS.items()
        for name in names
    )
    final = derived["N"]
    final_matches = final.step.proj_eq(claimed["N"].step)
    final_head_ok = (
        _proportional([(_two_zeta3_head(final), (2, 1, 1, 0))])
        and final.target is Target.TWO_ZETA3
    )
    return ChainReport(tuple(reports), variants, final_matches, final_head_ok)


# ---------------------------------------------------------------------------
# Equivalence transformations.
# ---------------------------------------------------------------------------


def equivalence_scale(terms: Terms, scales: list[Fraction]) -> Terms:
    """Rescale a_n -> c_{n-1} c_n a_n, b_n -> c_n b_n with c_0 = 1.

    `scales` supplies c_1 .. c_len(terms); every convergent value of the
    transformed prefix equals the original's, while p_n and q_n each pick up
    the factor prod(c_1..c_n).  Each scale is an int or a Fraction;
    TypeError for any other type.
    """
    scales = [_scalar(c) for c in scales]
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


class AlignmentRow(namedtuple("AlignmentRow", "v nes_index apery_index equal nes_ratio "
                              "apery_ratio nes_gcd")):
    """One aligned pair; each value is held as its reduced (num, den), den > 0,
    and `nes_gcd` is the gcd of the unreduced Nesterenko p, q, an integral
    Decimal."""

    __slots__ = ()

    @property
    def nes_value(self) -> Fraction:
        return Fraction(*self.nes_ratio)

    @property
    def apery_value(self) -> Fraction:
        return Fraction(*self.apery_ratio)


class AlignmentReport(namedtuple("AlignmentReport", "entries")):
    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.entries)


def gutnik_alignment(nes: FlatCF, apery: FlatCF, v_max: int) -> AlignmentReport:
    """Match reduced Nesterenko convergents at 4v-2 with Apery ones at v.

    The index map (4v - 2, v) is the one the coincidence states, checked
    for v = 1 .. v_max with no search and no offset.

    Both sides come from `engine.reduced_at` as coprime (num, den) pairs
    with den > 0, the one form of each value, so a row is equal exactly
    when the two pairs are, and no row divides one convergent by another.
    The Nesterenko walk stops only at the printed rows 4v - 2, each block
    n = 4v - 1 .. 4v + 2 one product of its four steps; its state is
    H * X with X primitive and H the content, so gcd(p, q) = H * gcd(x1,
    x2) = H * gx is `nes_gcd`, an integral Decimal, read without forming
    p or q.  The Apery rows are its candidates: on an
    equal row x = k * (num, den), and gx = |k| follows from one division,
    one product and a gcd of small numbers, so the row's one big gcd is
    the Apery side's.  Nothing assumes that the rows are equal: an unequal
    row takes its own gcd.  As in
    `engine.last_convergent`, a Nesterenko q_n = 0 off the printed rows is
    a point of the projective line, not an error; q_{4v-2} = 0 raises
    DegenerateConvergent(4v - 2).
    """
    if v_max < 1:
        raise ValueError("v_max must be >= 1")
    apery_rows = list(reduced_at(apery, range(1, v_max + 1)))
    guesses = (ratio for _, ratio, _ in apery_rows)
    nes_rows = reduced_at(nes, range(2, 4 * v_max - 1, 4), guesses)
    rows = tuple(
        AlignmentRow(v, i, v, nes_ratio == apery_ratio, nes_ratio, apery_ratio, g)
        for v, (i, nes_ratio, g), (_, apery_ratio, _) in zip(
            range(1, v_max + 1), nes_rows, apery_rows
        )
    )
    return AlignmentReport(rows)
