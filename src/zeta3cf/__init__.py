"""Exact continued-fraction engine and derivation verifier for 2*zeta(3).

The package encodes the elementary transformation chain carrying Apery's
continued fraction for 2*zeta(3) into Nesterenko's period-four expansion,
proves each rewrite as an exact polynomial identity, evaluates every stage
to arbitrary precision in exact rational arithmetic, and reproduces the
coincidence between reduced Nesterenko convergents at index 4v-2 and
reduced Apery convergents at index v.
"""

from .engine import (
    Convergent,
    ErrorCurve,
    ReferenceValue,
    convergents,
    digits_per_term,
    error_curve,
    eval_backward,
    oracles_agree,
    truncation_value,
    zeta3_reference,
)
from .mobius import PoleError, PolyMobius, level_map, scale_map, shift_map
from .polynomial import K, NotDivisible, Poly, ZeroDivisor, poly_gcd
from .rational import to_decimal
from .stages import (
    CHAIN_ORDER,
    FlatCF,
    Level,
    Stage,
    SubstitutionStep,
    Target,
    catalog,
    flatten,
    lookup,
    peel_head,
    substitution_chain,
)
from .verify import (
    AlignmentReport,
    ChainReport,
    StepReport,
    derive_stage,
    derived_chain,
    equivalence_scale,
    gutnik_alignment,
    verify_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "CHAIN_ORDER",
    "ChainReport",
    "Convergent",
    "ErrorCurve",
    "FlatCF",
    "K",
    "Level",
    "NotDivisible",
    "PoleError",
    "Poly",
    "PolyMobius",
    "ReferenceValue",
    "Stage",
    "StepReport",
    "SubstitutionStep",
    "Target",
    "ZeroDivisor",
    "catalog",
    "convergents",
    "derive_stage",
    "derived_chain",
    "digits_per_term",
    "equivalence_scale",
    "error_curve",
    "eval_backward",
    "flatten",
    "gutnik_alignment",
    "level_map",
    "lookup",
    "oracles_agree",
    "peel_head",
    "poly_gcd",
    "scale_map",
    "shift_map",
    "substitution_chain",
    "to_decimal",
    "truncation_value",
    "verify_chain",
    "zeta3_reference",
]
