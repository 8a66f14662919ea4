"""Stage catalog for the continued-fraction chain from Apery to Nesterenko.

A *stage* is a tail recurrence X_k = phi_k(X_{k+1}) together with a head
transform mapping X_0 to a target constant.  Apery's fraction for 2*zeta(3)

    2*zeta(3) = 12/A_0,   A_k = 34k^3 + 51k^2 + 27k + 5 - (k+1)^6 / A_{k+1}

is one stage; Nesterenko's four-level expansion

    2*zeta(3) = 2 + 1/N_0,
    N_k = 2k+2 + (k+1)(k+2)/(2k+4 + (k+1)^2/(2k+3 + (k+2)^2/(2k+2 + (k+1)(k+2)/N_{k+1})))

is another.  The elementary derivation connecting them runs through a chain
of named intermediate stages,

    APERY -> A5 -> W -> U -> P -> Q -> Z -> H -> G -> N,

each obtained from the previous by a substitution X^{from}_k = sigma_k(X^{to}_k)
(a shift, a scaling, or a constant Moebius change of variable).

The catalog stores each stage as it is traditionally displayed ("claimed"
entries, transcribed literally, including any typographical damage the
displays circulate with), plus the two normative endpoints.  The verifier
re-derives every intermediate stage from the substitutions alone and diffs
it against the claimed transcription; the claimed entries are never used as
ground truth.

Index conventions: stages use k >= 0.  Flattened fractions use n >= 0 with
b_0 the leading integer part and a_1 the first partial numerator, so the
three-term recurrence for convergents starts at p_0/q_0 = b_0/1.

Every value here is a namedtuple record whose constructor checks its
invariants, also when `_make`, `_replace`, pickle or copy build it.  A
`FlatCF` stores each term once: a_1 is its family value or, where the head
fixes it, an entry of `exceptions`, and `a_term(1)` reads it either way.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import chain, islice

from .mobius import Entry, PolyMobius, _product, level_map, scale_map, shift_map
from .polynomial import K, Poly, as_poly


class HeadNotFlattenable(ValueError):
    """The stage head is not of the b0 + a1/X_0 form needed to flatten."""


class Target(Enum):
    """Constant a stage evaluates to; TWO_ZETA3 is exactly 2 * ZETA3."""

    ZETA3 = 1
    TWO_ZETA3 = 2

    @property
    def scale(self) -> int:
        """Multiple of zeta(3) this target represents."""
        return self.value


class Level(namedtuple("Level", "b a")):
    """One nesting depth: contributes b + a/(next level) to the fraction."""

    __slots__ = ()

    def __new__(cls, b: Entry, a: Entry) -> Level:
        level = super().__new__(cls, as_poly(b), as_poly(a))
        if level.a.is_zero:
            raise ValueError("a zero partial numerator truncates the fraction")
        return level

    @classmethod
    def _make(cls, fields) -> Level:
        return cls(*fields)


class Stage(namedtuple("Stage", "name step head target levels kind note",
                       defaults=(None, "claimed", ""))):
    """Named tail recurrence with a head transform and target constant.

    `step` is the one-index map X_k = step_k(X_{k+1}); when the stage came
    from a pure nested display the original levels are kept as well (they
    are needed to flatten).  `kind` is "normative" for the trusted
    endpoints, "claimed" for literal transcriptions, "derived" for stages
    produced by the substitution chain.
    """

    __slots__ = ()

    def __new__(cls, name: str, step: PolyMobius, head: PolyMobius, target: Target,
                levels: tuple[Level, ...] | None = None, kind: str = "claimed",
                note: str = "") -> Stage:
        if not head.is_constant:
            raise ValueError(f"stage {name}: head entries must be constant")
        return super().__new__(cls, name, step, head, target, levels, kind, note)

    @classmethod
    def _make(cls, fields) -> Stage:
        return cls(*fields)


class SubstitutionStep(namedtuple("SubstitutionStep", "name from_stage to_stage sigma note",
                                  defaults=("",))):
    """Chain link: X^{from}_k = sigma_k(X^{to}_k); sigma None marks the head peel."""

    __slots__ = ()

    @property
    def is_peel(self) -> bool:
        return self.sigma is None


class FlatCF(namedtuple("FlatCF", "name b0 period b_fam a_fam exceptions",
                        defaults=(None,))):
    """Periodic flattened fraction b0 + a1/(b1 + a2/(b2 + ...)).

    For n >= 1 the terms follow period-`period` polynomial families in the
    block index m (n = period*m + j + 1):  b_n = b_fam[j](m) and
    a_n = a_fam[j](m).  Positions fixed up by the head override the families
    through the finite `exceptions` map (for these fractions that is just
    a_1, where the wrapped family value would vanish).

    `terms` yields the exact terms for the engine: family values are ints,
    tabulated along m by forward differences (`Poly.run`), and an exception
    keeps its own type.  `a_term` and `b_term` return the same values as
    Fractions, each from integer Horner form (`Poly.value_at`).
    """

    __slots__ = ()

    def __new__(cls, name: str, b0: Fraction, period: int, b_fam: tuple[Poly, ...],
                a_fam: tuple[Poly, ...], exceptions: dict[int, Fraction] | None = None) -> FlatCF:
        return super().__new__(cls, name, b0, period, b_fam, a_fam,
                               {} if exceptions is None else exceptions)

    @classmethod
    def _make(cls, fields) -> FlatCF:
        return cls(*fields)

    def b_term(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("partial denominators start at n = 1")
        return Fraction(self._b(n))

    def a_term(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("partial numerators start at n = 1")
        return Fraction(self._a(n))

    def terms(self, n_max: int) -> Iterator[tuple[int | Fraction, int]]:
        """(a_n, b_n) for n = 1 .. n_max, lazily: one `Poly.run` of each
        family over the blocks m that hold them, interleaved in n."""
        count = (n_max - 1) // self.period + 1
        a_run, b_run = (chain.from_iterable(zip(*(f.run(count) for f in fam)))
                        for fam in (self.a_fam, self.b_fam))
        pairs = islice(zip(a_run, b_run), max(n_max, 0))
        exc = self.exceptions
        return ((exc.get(n, a), b) for n, (a, b) in enumerate(pairs, 1))

    def _a(self, n: int) -> int | Fraction:
        if n in self.exceptions:
            return self.exceptions[n]
        m, j = divmod(n - 1, self.period)
        return self.a_fam[j].value_at(m)

    def _b(self, n: int) -> int:
        m, j = divmod(n - 1, self.period)
        return self.b_fam[j].value_at(m)


def stage_from_levels(
    name: str,
    levels: list[tuple],
    head: PolyMobius,
    target: Target,
    kind: str = "claimed",
    note: str = "",
) -> Stage:
    """Build a stage from a pure nested display (list of (b, a) pairs)."""
    lvls = tuple(Level(b, a) for b, a in levels)
    if not lvls:
        raise ValueError(f"stage {name}: no levels")
    # step = level_1 @ ... @ level_n, normalized once.  Each level [[b, a],
    # [1, 0]] has determinant -a, nonzero, so the product is never degenerate.
    step = PolyMobius(*_product((lv.b, lv.a, 1, 0) for lv in reversed(lvls)))
    return Stage(name, step, head, target, levels=lvls, kind=kind, note=note)


def peel_head(stage: Stage, new_name: str | None = None) -> Stage:
    """Absorb the k = 0 recurrence step into the head and shift k -> k+1.

    The peeled stage evaluates to the same target: running the original to
    depth m+1 equals running the peeled stage to depth m with the same seed.
    """
    head = PolyMobius(*_product([stage.step.at_k(0), stage.head.at_k(0)]))
    levels = None
    if stage.levels is not None:
        levels = tuple(Level(lv.b.shift(1), lv.a.shift(1)) for lv in stage.levels)
    return Stage(
        new_name or f"{stage.name}+1",
        stage.step.shifted(1),
        head,
        stage.target,
        levels=levels,
        kind="derived",
        note=stage.note,
    )


def flatten(stage: Stage) -> FlatCF:
    """Flatten a nested stage into its periodic term families.

    Requires the original levels and a head of the form b0 + a1/X_0
    (matrix proportional to [[b0, a1], [1, 0]]).  The n-th truncation of
    the result equals the depth-matched truncation of the nested stage
    exactly.
    """
    if stage.levels is None:
        raise HeadNotFlattenable(
            f"stage {stage.name} has no level decomposition to flatten"
        )
    h = stage.head
    if not h.d.is_zero or h.c.is_zero or h.b.is_zero:
        raise HeadNotFlattenable(
            f"stage {stage.name}: head {h} is not of the b0 + a1/x form"
        )
    c = h.c.constant_value()
    b0 = h.a.constant_value() / c
    a1 = h.b.constant_value() / c
    p = len(stage.levels)
    b_fam = tuple(lv.b for lv in stage.levels)
    a_fam = (stage.levels[-1].a.shift(-1),) + tuple(
        lv.a for lv in stage.levels[:-1]
    )
    exceptions: dict[int, Fraction] = {}
    if a_fam[0](0) != a1:
        exceptions[1] = a1
    return FlatCF(stage.name, b0, p, b_fam, a_fam, exceptions)


# ---------------------------------------------------------------------------
# The catalog.
# ---------------------------------------------------------------------------

_TAU = PolyMobius(6, 5, 5, 4)  # 1 + 1/(4 + 1/(1 + 1/x)) collapsed

T_NOTE = (
    "defining shift circulates as 'T_k - 5(k+1)^3' with T undeclared; "
    "read as the A-variable, the only reading consistent with the chain"
)


@cache
def catalog() -> dict[str, Stage]:
    """All claimed/normative stages, keyed by name (insertion = chain order).

    Built on the first call; every call returns the same dict.
    """
    k = K
    e2 = (k + 1) * (k + 2) * (2 * k + 3)
    b_apery = 34 * k**3 + 51 * k**2 + 27 * k + 5
    b_shifted = 34 * k**3 + 153 * k**2 + 231 * k + 117
    b_w = 29 * k**3 + 138 * k**2 + 216 * k + 112

    head_apery = PolyMobius(0, 12, 1, 0)  # 2*zeta(3) = 12/A_0
    head_a5 = PolyMobius(6, 0, 5, -1)  # zeta(3) = 6/(5 - 1/A_0)
    head_two_plus = PolyMobius(2, 1, 1, 0)  # 2 + 1/x
    identity = PolyMobius.identity()

    stages: list[Stage] = []

    stages.append(
        stage_from_levels(
            "APERY",
            [(b_apery, -((k + 1) ** 6))],
            head_apery,
            Target.TWO_ZETA3,
            kind="normative",
        )
    )
    stages.append(
        stage_from_levels(
            "A5",
            [(b_shifted, -((k + 2) ** 6))],
            head_a5,
            Target.ZETA3,
        )
    )
    stages.append(
        stage_from_levels(
            "A6",
            [(5 * (k + 1) ** 3 + b_w, -((k + 2) ** 6))],
            head_a5,
            Target.ZETA3,
            note="same recurrence as A5 with the cubic split off the leading term",
        )
    )
    # W_k = b_w - (k+2)^6 / (W_{k+1} + (5k^2+20k+20)(k+2))
    stages.append(
        Stage(
            "W",
            level_map(b_w, -((k + 2) ** 6)) @ shift_map((5 * k**2 + 20 * k + 20) * (k + 2)),
            PolyMobius(6, 30, 5, 24),
            Target.ZETA3,
            note=T_NOTE,
        )
    )
    # U_k = b_w/(6(k+1)) + (1/(6(k+1))) * (-(k+2)^5) / ((5k^2+20k+20) + 6U_{k+1})
    stages.append(
        Stage(
            "U",
            PolyMobius(1, 0, 0, 6 * (k + 1))
            @ level_map(b_w, -((k + 2) ** 5))
            @ PolyMobius(6, 5 * k**2 + 20 * k + 20, 0, 1),
            PolyMobius(6, 5, 5, 4),
            Target.ZETA3,
        )
    )
    # Four-level form of U
    stages.append(
        stage_from_levels(
            "U4",
            [
                ((2 * k + 3) * (2 * k + 4), (k + 2) ** 3),
                (k + 1, k + 1),
                (Poly.const(4), Poly.const(1)),
                (Poly.const(1), (k + 2) ** 2),
            ],
            PolyMobius(6, 5, 5, 4),
            Target.ZETA3,
        )
    )
    # P_k = (2k+3)(2k+4)/(k+1)^2 + ((k+2)^3/(k+1)^3) / (1 + 1/(4 + 1/(1 + 1/P_{k+1})))
    stages.append(
        Stage(
            "P",
            PolyMobius(2 * e2, (k + 2) ** 3, (k + 1) ** 3, 0) @ _TAU,
            PolyMobius(6, 5, 5, 4),
            Target.ZETA3,
            note="denominators (k+1)^2, (k+1)^3 cleared from the displayed step",
        )
    )
    # Q_k = 1 + 1/(4 + 1/(1 + 1/((2k+3)(2k+4)/(k+1)^2 + (k+2)^3/Q_{k+1})))
    stages.append(
        Stage(
            "Q",
            _TAU @ PolyMobius((2 * k + 3) * (2 * k + 4), (k + 1) ** 2 * (k + 2) ** 3, (k + 1) ** 2, 0),
            identity,
            Target.ZETA3,
            note="transcribed literally; the inner numerator appears without a (k+1)^3 divisor",
        )
    )
    # Q12: Q_k = 1 + 1/(4 + 1/(1 + 1/((k+1)^3 + (k+2)^3/Q_{k+1})))
    stages.append(
        stage_from_levels(
            "Q12",
            [
                (Poly.const(1), Poly.const(1)),
                (Poly.const(4), Poly.const(1)),
                (Poly.const(1), Poly.const(1)),
                ((k + 1) ** 3, (k + 2) ** 3),
            ],
            identity,
            Target.ZETA3,
        )
    )
    # Z_k = 1 + 1/(4 + 2/(2 + 2(k+1)^3/(2(k+1)(k+2)(2k+3) + 2(k+2)^3/(2 Z_{k+1}))))
    stages.append(
        Stage(
            "Z",
            level_map(1, 1)
            @ level_map(4, 2)
            @ level_map(2, 2 * (k + 1) ** 3)
            @ level_map(2 * e2, 2 * (k + 2) ** 3)
            @ scale_map(2),
            scale_map(2),  # 2*zeta(3) = 2 Z_0
            Target.TWO_ZETA3,
            note="trailing doubled-variable handoff folded into the step matrix",
        )
    )
    # H_k = 2 + 1/(2 + 1/(2 + 1/(k+1)^3 + (k+2)^3/H_{k+1}))
    stages.append(
        Stage(
            "H",
            head_two_plus
            @ head_two_plus
            @ PolyMobius(2 * (k + 1) ** 3 + 1, (k + 1) ** 3 * (k + 2) ** 3, (k + 1) ** 3, 0),
            identity,
            Target.TWO_ZETA3,
            note="innermost three-term denominator read literally as displayed",
        )
    )
    # G (first displayed form): 2 + 1/(2 + 1/((k+1)^3 + (k+2)^3/(2 + 1/G_{k+1})))
    stages.append(
        stage_from_levels(
            "G",
            [
                (Poly.const(2), Poly.const(1)),
                (Poly.const(2), Poly.const(1)),
                ((k + 1) ** 3, (k + 2) ** 3),
                (Poly.const(2), Poly.const(1)),
            ],
            head_two_plus,
            Target.TWO_ZETA3,
        )
    )
    stages.append(
        stage_from_levels(
            "G16",
            [
                (Poly.const(2), k + 2),
                (2 * k + 4, (k + 1) * (k + 2) ** 2),
                ((k + 1) * (2 * k + 3), k + 1),
                (2 * k + 2, Poly.const(1)),
            ],
            head_two_plus,
            Target.TWO_ZETA3,
        )
    )
    stages.append(
        stage_from_levels(
            "G17",
            [
                (Poly.const(2), k + 2),
                (2 * k + 4, (k + 1) * (k + 2) ** 2),
                (2 * k + 3, k + 1),
                (2 * k + 2, Poly.const(1)),
            ],
            head_two_plus,
            Target.TWO_ZETA3,
        )
    )
    stages.append(
        stage_from_levels(
            "N",
            [
                (2 * k + 2, (k + 1) * (k + 2)),
                (2 * k + 4, (k + 1) ** 2),
                (2 * k + 3, (k + 2) ** 2),
                (2 * k + 2, (k + 1) * (k + 2)),
            ],
            head_two_plus,
            Target.TWO_ZETA3,
            kind="normative",
        )
    )
    return {s.name: s for s in stages}


def lookup(name: str) -> Stage:
    try:
        return catalog()[name]
    except KeyError:
        raise KeyError(f"unknown stage {name!r}; known: {', '.join(catalog())}")


# Chain positions and the presentational variants attached to each.
CHAIN_ORDER = ("APERY", "A5", "W", "U", "P", "Q", "Z", "H", "G", "N")
VARIANTS = {"A5": ("A6",), "U": ("U4",), "Q": ("Q12",), "G": ("G16", "G17")}


@cache
def substitution_chain() -> tuple[SubstitutionStep, ...]:
    """The ordered chain of rewrites carrying APERY into N.

    The first entry is the distinguished head peel (absorb the k = 0 step
    and shift the index); every later entry is a substitution
    X^{from}_k = sigma_k(X^{to}_k).  Built on the first call; every call
    returns the same tuple of immutable steps.
    """
    k = K
    return (
        SubstitutionStep("A5", "APERY", "A5", None, note="head peel, k -> k+1"),
        SubstitutionStep("W", "A5", "W", shift_map(5 * (k + 1) ** 3), note=T_NOTE),
        SubstitutionStep("U", "W", "U", scale_map(6 * (k + 1))),
        SubstitutionStep("P", "U", "P", scale_map((k + 1) ** 2)),
        SubstitutionStep("Q", "P", "Q", _TAU.inverse()),
        SubstitutionStep("Z", "Q", "Z", PolyMobius.identity()),
        SubstitutionStep("H", "Z", "H", PolyMobius(1, 0, 0, 2)),
        SubstitutionStep("G", "H", "G", PolyMobius(2, 1, 1, 0)),
        SubstitutionStep("N", "G", "N", PolyMobius(1, 0, 0, k + 1)),
    )


def perturbed(flat: FlatCF, n: int, delta: Fraction | int) -> FlatCF:
    """Copy of a flat CF with a_n bumped by delta (negative-control hook)."""
    exc = dict(flat.exceptions)
    exc[n] = flat.a_term(n) + Fraction(delta)
    return flat._replace(exceptions=exc)
