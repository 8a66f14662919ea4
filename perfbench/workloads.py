"""Seeded request sequences for the benchmark workloads.

A workload is a fixed sequence of CLI argv lists ("one pass").  The seed
picks the order of the requests and jitters each size by at most 0.5%; the
sizes themselves sit at fixed quantiles of each range and every format is
tied to a fixed size rank.  That keeps the work in one pass nearly the same
for every seed, so runs with different seeds measure the same thing.

`scale` < 1 shrinks the size ranges and request counts; the harness
self-test uses it to run every workload at tiny sizes.
"""

from __future__ import annotations

import random

import calib

FORMATS = ("text", "json", "csv")
CHAIN_STEPS = ("A5", "W", "U", "P", "Q", "Z", "H", "G", "N")
BACKWARD_STAGES = ("A5", "W", "U", "P", "Q", "Z", "H", "G")

# Defects reproduced in the ROADMAP (item 4).  Every run executes these
# once, outside the timing: they count in ok_share, so a fix raises it
# instead of reading as a slowdown.  Sizes are fixed, never scaled.
EDGE_REQUESTS = (
    ["convergents", "APERY", "--n-max", "600", "--format", "json"],  # int->str limit
    ["gutnik", "--v-max", "700"],  # int->str limit
    ["eval", "W", "--depth", "1600"],  # exits 2 at the int->str limit
    ["rate", "APERY", "--n-max", "50"],  # exits 2 after one reference extension
)


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _sizes(lo: int, hi: int, n: int, rng: random.Random, scale: float):
    """n sizes at even quantiles of [lo, hi'], each jittered by at most 0.5%.

    hi' = lo + (hi - lo) * scale.  No traffic data exists for this CLI, so
    every range is covered evenly rather than weighted toward a guessed mix.
    """
    hi = lo + round((hi - lo) * scale)
    out = []
    for i in range(n):
        base = lo + (hi - lo) * (i + 0.5) / n
        out.append(max(lo, min(hi, round(base * (1 + rng.uniform(-0.005, 0.005))))))
    return out


def _chain_proof(rng: random.Random, scale: float) -> list[list[str]]:
    n = _count(9, scale)
    reqs = [["verify-chain", "--format", FORMATS[i % 3]] for i in range(n)]
    reqs += [["catalog", "--format", FORMATS[i % 3]] for i in range(n)]
    # Fault injection: each step once; exit 1 with that step flagged is correct.
    steps = CHAIN_STEPS[: _count(len(CHAIN_STEPS), scale)]
    reqs += [
        ["verify-chain", "--hook-break-sigma", s, "--format", FORMATS[i % 3]]
        for i, s in enumerate(steps)
    ]
    return reqs


def _certified_digits(rng: random.Random, scale: float) -> list[list[str]]:
    reqs = []
    for i, d in enumerate(_sizes(100, 1000, _count(10, scale), rng, scale)):
        reqs.append(["ref", "--digits", str(d), "--format", FORMATS[i % 3]])
    # Printed digits sized to the accuracy the depth reaches (Apery ~3.06
    # digits per term, Nesterenko ~0.77).
    for stage, lo, hi, rate in (("APERY", 30, 300, 3.0), ("N", 100, 1200, 0.75)):
        for i, depth in enumerate(_sizes(lo, hi, _count(4, scale), rng, scale)):
            digits = int(depth * rate)
            reqs.append(
                ["eval", stage, "--depth", str(depth), "--digits", str(digits),
                 "--format", FORMATS[i % 3]]
            )
    # Reference digits sized to the accuracy n_max reaches, plus a margin.
    for stage, lo, hi, rate in (("APERY", 20, 150, 3.1), ("N", 60, 600, 0.8)):
        for i, n in enumerate(_sizes(lo, hi, _count(4, scale), rng, scale)):
            ref = int(n * rate) + 30
            reqs.append(
                ["rate", stage, "--n-max", str(n), "--ref-digits", str(ref),
                 "--format", FORMATS[(i + 1) % 3]]
            )
    return reqs


def _convergent_tables(rng: random.Random, scale: float) -> list[list[str]]:
    reqs = []
    n = _count(9, scale)
    for i, m in enumerate(_sizes(100, 1000, n, rng, scale)):
        reqs.append(["convergents", "N", "--n-max", str(m), "--format", FORMATS[i % 3]])
    for i, m in enumerate(_sizes(50, 500, n, rng, scale)):
        reqs.append(["convergents", "APERY", "--n-max", str(m), "--format", FORMATS[(i + 1) % 3]])
    for i, v in enumerate(_sizes(50, 500, n, rng, scale)):
        reqs.append(["gutnik", "--v-max", str(v), "--format", FORMATS[(i + 2) % 3]])
    return reqs


def _backward_eval(rng: random.Random, scale: float) -> list[list[str]]:
    n = _count(24, scale)
    depths = _sizes(100, 1400, n, rng, scale)
    return [
        ["eval", BACKWARD_STAGES[i % len(BACKWARD_STAGES)], "--depth", str(d)]
        for i, d in enumerate(depths)
    ]


# Calibration weights (see calib.py): the stdlib operations each workload
# spends its time in.  Symbolic work is small Fractions and products of
# small polynomials, with no int->str to speak of; the oracles sum big
# Fractions and print thousands of digits; tables and backward evaluation
# mix all three.
CALIBRATION = {
    "chain-proof": {"fractions": 0.5, "bigmul": 0.5},
    "certified-digits": {"fractions": 0.5, "int_str": 0.5},
    "convergent-tables": calib.EVEN,
    "backward-eval": calib.EVEN,
}

WORKLOADS = {
    "chain-proof": _chain_proof,
    "certified-digits": _certified_digits,
    "convergent-tables": _convergent_tables,
    "backward-eval": _backward_eval,
}


def sequence(name: str, seed: int, scale: float = 1.0) -> tuple[list, list]:
    """The workload's requests for one pass: in generation order (each
    family by ascending size) and in the seeded order of the timed passes."""
    rng = random.Random(f"{name}:{seed}")
    reqs = WORKLOADS[name](rng, scale)
    shuffled = list(reqs)
    rng.shuffle(shuffled)
    return reqs, shuffled
