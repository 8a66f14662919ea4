"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs at very different speeds from one
second to the next (phases of ~1.6x lasting seconds are common), so raw
wall times of two runs of identical code disagree by far more than any
regression worth catching.  Every timed request is therefore bracketed by
runs of fixed calibration kernels and reported in seconds of a reference
host, on which kernel `c` takes REF_S[c] seconds:

    speed      = sum_c weight_c * REF_S[c] / seconds_c   (kernels run now)
    normalized = raw * mean(speed before, speed after)

Each request is then reported at the median of its normalized runs.

The kernels stand for the stdlib work zeta3cf spends its time in: small
Fraction arithmetic, products of big integers, and int <-> str conversion
of numbers with thousands of digits.  They slow down by different amounts
under contention (in one measured phase int->str 1.15x, the others 1.6x,
symbolic requests 2x), so each workload weights them by the operations it
runs (workloads.CALIBRATION).  A cold set-up is scaled by all three,
run in its own interpreter right after it.

The kernels never touch zeta3cf, so a change to the program moves the
normalized time exactly as it moves the raw time on a steady host.  Raw
times are kept beside the normalized ones in the results file.
"""

from __future__ import annotations

import time
from fractions import Fraction

_BIG = 7**6000


def _fractions() -> None:
    acc = Fraction(0)
    for k in range(1, 500):
        acc += Fraction(k, k * k * k + 1)


def _bigmul() -> None:
    x = _BIG
    for i in range(12):
        x = (x * (_BIG + i)) >> _BIG.bit_length()


def _int_str() -> None:
    text = str(_BIG >> 8000)
    for i in range(10):
        text = str(int(text[: 3000 + i]) * 3)


KERNELS = {"fractions": _fractions, "bigmul": _bigmul, "int_str": _int_str}
REF_S = {"fractions": 0.0018, "bigmul": 0.0016, "int_str": 0.0018}


EVEN = {name: 1 / len(KERNELS) for name in KERNELS}


def speed(weights: dict[str, float]) -> float:
    """Reference seconds per second now, from the weighted kernels.

    Each kernel runs three times and its fastest run counts, so that one
    preemption inside a 2 ms kernel does not pass for a slow host.
    """
    total = 0.0
    for name, weight in weights.items():
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            KERNELS[name]()
            runs.append(time.perf_counter() - t0)
        total += weight * REF_S[name] / min(runs)
    return total
