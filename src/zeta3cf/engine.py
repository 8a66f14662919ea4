"""Exact evaluation of stages and flattened fractions, and rate measurement.

Ground truth for a flattened fraction is always the forward three-term
recurrence in exact integers:

    p_n = b_n p_{n-1} + a_n p_{n-2},   q_n = b_n q_{n-1} + a_n q_{n-2},

seeded p_{-1} = 1, q_{-1} = 0, p_0 = b_0, q_0 = 1.  Backward evaluation of
the nested recurrence is a cross-check, never the primary value, because it
needs a tail seed while forward convergents do not.  Both, and the DEEP_CF
oracle below, are products of 2x2 integer matrices in the layout of the
stream `_steps`: step 0 is (b_0, 1, 1, 0) and step n is (b_n, a_n, 1, 0),
so the product of steps 0 .. n is the state S_n = (p_n, q_n, p_{n-1},
q_{n-1}).  A stage's stream (`_stage_steps`) is its head, then its step
map at k = 0, 1, ..., each map transposed.  `convergents` and the rate
measurement (`error_curve`) step the literal recurrence over `_steps` row
by row.

`_primitive_walk` walks only the primitive part of the state matrix and
the content it sheds, so it gives each row's reduced value and
gcd(p_n, q_n) without forming p_n or q_n, and a right guess of the
reduced value spares the row its one big gcd.  `reduced_convergents`
(the `convergents` command) feeds it every step and steps the printed
p_n and q_n beside it.  `reduced_at` (the `gutnik` command) feeds it
only the rows it yields: the steps between two stops, read in order
from the same stream, are one small matrix, their product.

A single convergent (`last_convergent`), backward evaluation, the rate
measurement's last gap and both oracles' products need only the last
state and multiply all their steps in a balanced product tree (binary
splitting; Haible & Papanikolaou, ANTS 1998), which turns n big-by-small
products into O(log n) rounds of balanced big-by-big ones.  That tree is
`mobius._product`, the package's one 2x2 matrix product; it also composes
the polynomial maps of the stage chain.  A product read only through its
first row ends in that row: (1, 0, 0, 0), or backward evaluation's seed
(x, y, 0, 0).  One rule sets the tree's mode: every int product that is
read only as a ratio runs it projective, shedding the large content that
step products share (for Apery's fraction, q_n = (n!)^3 b_n; van der
Poorten 1979) in alternate rounds once its nodes reach
`mobius.CONTENT_BITS` bits, and only `reduced_at`'s stretches, whose
content is printed as a gcd, keep the exact tree.  These product walks,
like `reduced_at`, test only the denominators they report: an infinite
value on the way is a point of the projective line, not an error.

Printed integers thousands of digits long are carried as integral
Decimals, exact through `rational.EXACT`, because CPython converts an int
to text in time quadratic in its length and a Decimal in linear time, past
the interpreter's int-to-text digit limit too: the `convergents` table's
p_n and q_n, and the content H and gcd of `reduced_at`.  The reduced
num/den stay ints, as they need `math.gcd`, and `convergents` keeps int
fields.  The matrix entries are plain ints: step maps and term families
are polynomials over Z, and no Fraction arithmetic runs per step.  An
entry read at consecutive indices is one `Poly.run`, tabulated by forward
differences in additions: a stage's step map at k = 0 .. depth for
backward evaluation (unless the caller passes them tabulated, as
verify-chain does), and each term family along its block index for the
step stream (through `FlatCF.terms`).
The rate measurement walks q_n and a residual column instead of p_n: for
a limit L = L_n / L_d the residual r_n = L_d p_n - L_n q_n obeys the same
recurrence, and |x_n - L| = |r_n| / (|q_n| L_d), so each row's error is
read from bit lengths with no reduction.

The reference value of zeta(3) comes from two independent oracles:
Amdeberhan & Zeilberger's series zeta(3) = (1/64) sum (-1)^n (205n^2 +
250n + 77) (n!)^10 / ((2n+1)!)^5, whose terms fall by more than 1024 each,
cut by the alternating-series tail bound and floored once to a decimal
fraction, and a deep convergent of the Apery fraction.  Both must agree on
every reported digit.  SERIES reads its floor from a fixed-point sum at the
target precision with a proven error bound: one loop of big-by-small steps
on numbers the size of the answer, which also decides where to stop
(`_series_fraction` gives the argument).  Only when that enclosure
straddles a floor boundary does it read the floor from the product of
its steps in `_product`, whose numbers grow like (m!)^10 over m terms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, pairwise, tee

from .mobius import PoleError, _product
from .polynomial import _scalar
from .rational import EXACT, log10_fraction, log10_ratio, to_decimal
from .stages import FlatCF, Stage, Target, flatten, lookup

Terms = list[tuple[Fraction, Fraction]]  # [(a_n, b_n)] for n = 1, 2, ...


class DegenerateConvergent(ArithmeticError):
    """A convergent denominator q_n vanished."""

    def __init__(self, n: int):
        super().__init__(f"q_{n} = 0")
        self.n = n


class InsufficientData(ValueError):
    """Too few error-curve points in the requested window."""


class InsufficientReferencePrecision(ValueError):
    """Reference digits cannot resolve the smallest measured error."""


class Convergent(namedtuple("Convergent", "n p q")):
    """Unreduced p/q from the three-term recurrence; `value` reduces it on
    each access."""

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergents(flat: FlatCF, n_max: int) -> list[Convergent]:
    """Exact convergents x_0 .. x_{n_max} of a flattened fraction."""
    steps = _steps(flat, n_max)
    pairs = convergents_from_terms(next(steps)[0], ((a, b) for b, a, _, _ in steps))
    return [Convergent(n, p, q) for n, (p, q) in enumerate(pairs)]


ReducedRow = tuple[int, Decimal, Decimal, int, int]  # (n, p_n, q_n, num, den)


def last_convergent(flat: FlatCF, n: int) -> Fraction:
    """The value x_n alone, equal to `convergents(flat, n)[n].value`, from
    one product of the steps 0 .. n.

    Raises DegenerateConvergent(n) only when the final q_n is 0: an infinite
    convergent on the way is a point of the projective line, not an error.
    """
    p, q, _, _ = _product(chain(_steps(flat, n), [(1, 0, 0, 0)]), projective=True)
    if q == 0:
        raise DegenerateConvergent(n)
    return Fraction(p, q)


def reduced_convergents(flat: FlatCF, n_max: int) -> Iterator[ReducedRow]:
    """(n, p_n, q_n, num, den) for n = 0 .. n_max, lazily: the unreduced
    convergent as integral Decimals and num/den = p_n/q_n in lowest terms,
    as ints with den > 0.

    Raises DegenerateConvergent(n) when row n is reached with q_n = 0.
    """
    walked, steps = tee(_steps(flat, n_max))
    return _table_rows(steps, _primitive_walk(range(n_max + 1), walked))


StopRow = tuple[int, tuple[int, int], Decimal]  # (n, (num, den), gcd(p_n, q_n))


def reduced_at(
    flat: FlatCF, stops: Sequence[int], candidates: Iterable[tuple[int, int]] | None = None
) -> Iterator[StopRow]:
    """(n, (num, den), g) for each n in the non-decreasing `stops`, lazily:
    num/den = p_n/q_n in lowest terms as ints with den > 0, and g =
    gcd(p_n, q_n) as an integral Decimal.  A repeated stop repeats its row.

    The steps after one stop up to the next, read in order from one
    `_steps` stream, are multiplied as one product (step 0 rides in the
    first), so only a stop's q_n is tested: DegenerateConvergent(n) when
    q_n = 0 at a stop n.  A q_m = 0 at any other m is a point of the
    projective line, not an error, as in `last_convergent`.

    `candidates`, one pair per stop, may guess each row's reduced value.
    A right guess spares that row its one big gcd; any other pair is
    detected, and the row is computed as without it.
    """
    if stops and min(stops) < 0:
        raise ValueError("stops must be >= 0")
    steps = _steps(flat, stops[-1] if stops else 0)

    def stretches():
        for n, stop in pairwise(chain([-1], stops)):
            if stop < n:
                raise ValueError(f"stops must not decrease: {stop} after {n}")
            yield _product(islice(steps, stop - n))

    return _gcd_rows(_primitive_walk(stops, stretches(), candidates))


def _steps(flat: FlatCF, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """The int steps 0 .. n_max, lazily: (b_0, 1, 1, 0), then (b_n, a_n,
    1, 0).  n_max and b_0 are checked at the call; a non-integer term
    raises when the stream reaches it."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if flat.b0.denominator != 1:
        raise ValueError(f"non-integer leading term b0 = {flat.b0}")

    def stream():
        yield int(flat.b0), 1, 1, 0
        for n, (a, b) in enumerate(flat.terms(n_max), 1):
            if a.denominator != 1 or b.denominator != 1:
                raise ValueError(f"non-integer term at n={n}: a={a}, b={b}")
            yield int(b), int(a), 1, 0

    return stream()


def _primitive_walk(
    rows: Iterable[int], mats: Iterable[Sequence[int]],
    candidates: Iterable[tuple[int, int]] | None = None,
) -> Iterator[tuple[int, tuple[int, int], int, int]]:
    # The state S_n is H times a primitive X = (x1, x2, y1, y2), H the
    # content of S_n.  X starts at the identity, S_{-1}; the matrix B =
    # (a, b, c, d) of the steps up to each of the `rows` n acts on its
    # columns (x1, y1) and (x2, y2).  At row n, gx = gcd(x1, x2) is the
    # one big gcd, on numbers about a third the size of p_n, as H holds
    # nearly all of gcd(p_n, q_n) = H * gx; the content h of the new X is
    # then gcd(gx, y1, y2), which is cheap, and moves from X into H.
    # Yields (n, reduced value, h, gx), all ints.
    # A candidate with x = k * (num, den) gives gx = |k| instead, once
    # gcd(num, den) = 1 is shown in small numbers: a prime of gx divides
    # det X' or both a and b ((x1, x2) adj(X') = det(X') (a, b) for the
    # previous X'), hence some det B so far, and `radix` keeps one copy of those.
    x1, x2, y1, y2 = 1, 0, 0, 1
    guesses, radix = (None if candidates is None else iter(candidates)), 1
    for n, (a, b, c, d) in zip(rows, mats):
        x1, y1, x2, y2 = a * x1 + b * y1, c * x1 + d * y1, a * x2 + b * y2, c * x2 + d * y2
        if not x2:
            raise DegenerateConvergent(n)
        gx = 0
        if guesses is not None:
            # Strip the primes det shares with radix by gcds with the
            # small shared part, not the whole radix.
            det = abs(a * d - b * c)
            g = math.gcd(det, radix)
            while g != 1 and det:
                det //= g
                g = math.gcd(det, g)
            radix *= det
            num, den = next(guesses, (0, 0))
            k, r = divmod(x2, den) if den else (0, 1)
            if k and not r and x1 == k * num and math.gcd(radix, num, den) == 1:
                gx = abs(k)
        gx = gx or math.gcd(x1, x2)
        h = math.gcd(gx, y1, y2)
        if h != 1:
            x1, y1, x2, y2, gx = x1 // h, y1 // h, x2 // h, y2 // h, gx // h
        num, den = x1 // gx, x2 // gx
        yield n, ((num, den) if den > 0 else (-num, -den)), h, gx


def _table_rows(steps: Iterable[tuple[int, ...]], rows: Iterator) -> Iterator[ReducedRow]:
    # p_n and q_n as integral Decimals, stepped from S_{-1} = I by the same
    # steps the walk takes, which never forms them.
    fma, mul = EXACT.fma, EXACT.multiply
    p, p1, q, q1 = Decimal(1), Decimal(0), Decimal(0), Decimal(1)
    for (b, a, _, _), (n, (num, den), _, _) in zip(steps, rows):
        p, p1, q, q1 = fma(b, p, mul(a, p1)), p, fma(b, q, mul(a, q1)), q
        yield n, p, q, num, den


def _gcd_rows(rows: Iterator) -> Iterator[StopRow]:
    # gcd(p_n, q_n) = H * gx, with the content H kept as an integral Decimal.
    mul, content = EXACT.multiply, Decimal(1)
    for n, ratio, h, gx in rows:
        if h != 1:
            content = mul(content, h)
        yield n, ratio, mul(content, gx)


def convergents_from_terms(b0: Fraction, terms: Iterable[tuple]) -> list[tuple]:
    """(p_n, q_n) pairs from the three-term recurrence over explicit terms.

    Exact in the terms' own type: integer terms give integer pairs, Fraction
    terms give Fraction pairs.  Terms are consumed lazily, one per step.
    """
    p, q, p1, q1 = b0, 1, 1, 0
    out = [(p, q)]
    for n, (a, b) in enumerate(terms, start=1):
        p, q, p1, q1 = b * p + a * p1, b * q + a * q1, p, q
        if q == 0:
            raise DegenerateConvergent(n)
        out.append((p, q))
    return out


def values_from_terms(b0: Fraction, terms: Terms) -> list[Fraction]:
    return [Fraction(p, q) for p, q in convergents_from_terms(b0, terms)]


def eval_backward(stage: Stage, depth: int, seed: Fraction | int) -> Fraction:
    """Seed X_depth, apply the step maps down to X_0, then the head.

    Exact on the projective line: PoleError only when the final value is
    infinite (x = "infinity") or some map met 0/0 (x = "0/0").  The seed is
    an int or a Fraction; TypeError for any other type.
    """
    return _backward(stage, depth, depth, (*_scalar(seed).as_integer_ratio(), 0, 0))


def truncation_value(stage: Stage, depth: int, columns: Sequence[Sequence[int]] | None = None
                     ) -> Fraction:
    """Backward value with the tail dropped: X_depth = step_depth(infinity).

    For a level-form stage this seeds the full block at k = depth with its
    own trailing term removed (the b-part rule for one-level stages).
    Poles are as for `eval_backward`: only an infinite or 0/0 final value.
    `columns`, if given, holds the step entries' values at k = 0 .. depth
    or further, one sequence per entry in (a, b, c, d) order, in place of
    one `Poly.run` each; ValueError if one is shorter.
    """
    if columns is not None and min(map(len, columns)) <= depth:
        raise ValueError(f"columns must hold the values at k = 0 .. {depth}")
    return _backward(stage, depth, depth + 1, (1, 0, 0, 0), columns)


def _backward(stage: Stage, depth: int, top: int, seed: tuple[int, ...],
              columns: Sequence[Sequence[int]] | None = None) -> Fraction:
    # The stage's stream, then the seed row, (1, 0, 0, 0) for infinity.
    # Nodes are divided only by positive integers, so a map's 0/0 stays
    # (0, 0) and only the product's first row (x, y) needs testing.
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x, y, _, _ = _product(chain(_stage_steps(stage, top, columns), [seed]), projective=True)
    if y == 0:
        raise PoleError(0, "infinity" if x else "0/0")
    return Fraction(x, y)


def _stage_steps(stage: Stage, top: int, columns: Sequence[Sequence[int]] | None = None
                 ) -> Iterator[tuple[int, int, int, int]]:
    """The stage's stream in the layout of `_steps`, lazily: the head, then
    step_k for k < top, each map (a, b, c, d) as (a, c, b, d).  The step
    entries come from one `Poly.run` each, or from `columns`, their values
    at k = 0 .. top - 1 or further, in (a, b, c, d) order."""
    a, b, c, d = columns or [e.run(top) for e in stage.step]
    ha, hb, hc, hd = stage.head.at_k(0)
    return chain([(ha, hc, hb, hd)], islice(zip(a, c, b, d), top))


# ---------------------------------------------------------------------------
# Reference value of zeta(3).
# ---------------------------------------------------------------------------


class ReferenceValue(namedtuple("ReferenceValue", "digits decimal oracle_id fraction")):
    """zeta(3) to `digits` truncated digits, tagged with the oracle used.

    `fraction` approximates zeta(3) with |error| < 10**-(digits + 3) (SERIES:
    the partial sum of Amdeberhan & Zeilberger's series floored over 10**e,
    e = digits + 5, within 1.25 * 10**-e, the floor read from a certified
    fixed-point enclosure of the sum, else from the exact sum); the decimal
    string is its truncation to `digits` digits.
    """

    __slots__ = ()

    def value(self, target: Target) -> Fraction:
        return target.scale * self.fraction

    def decimal_for(self, target: Target) -> str:
        text, _ = to_decimal(self.value(target), self.digits)
        return text


def _series_sum(w: int, cut: int) -> tuple[int, int, int]:
    """(m, T, E) with |w S - T| < E if m > 0, S = sum P(n) s_n over n < m,
    from a fixed-point sum at scale w > 0 that stops at the first n with
    P(n) (a_n + n) < cut (see `_series_fraction`)."""
    a, total, n = w, 0, 0
    while (t := (p := (205 * n + 250) * n + 77) * a) + p * n >= cut:
        total += -t if n & 1 else t
        n += 1
        a = a * n**5 // (32 * (2 * n + 1) ** 5)
    return n, total, 133 * n**4


def _series_fraction(digits: int) -> Fraction:
    # Amdeberhan & Zeilberger's series (Electron. J. Combin. 4(2), 1997),
    # zeta(3) = (1/64) sum P(n) s_n, P(n) = 205n^2 + 250n + 77: s_n = (-1)^n
    # (n!)^10 / ((2n+1)!)^5 has s_0 = 1 and |s_{n+1}| = |s_n| u/v, u = (n+1)^5,
    # v = 32(2n+3)^5, so u/v < 1/1024.  It is read at scale W = 10**e 2**G,
    # e = digits + 5, in fixed point (Brent & Zimmermann, Modern Computer
    # Arithmetic, ch. 4): `_series_sum` steps a_0 = W, a_{n+1} =
    # floor(a_n u / v), so d_n = W|s_n| - a_n has d_0 = 0 and 0 <= d_{n+1} <
    # d_n u/v + 1, hence d_n < n.  It sums S over n < m, m the first n with
    # P(n) (a_n + n) < 2**(G+4); then W P(m) |s_m| < 2**(G+4), so P(m) |s_m| <
    # 16 * 10**-e.  The terms P(n) |s_n| alternate and decrease, so the tail
    # of zeta(3) past S / 64 is under a quarter of 10**-e, and the floor adds
    # under 10**-e: floor(10**e S / 64) / 10**e is within 1.25 * 10**-e.
    # T = sum (-1)^n P(n) a_n is off W S by at most sum P(n) d_n <= sum n P(n)
    # < E = 133m^4, as n P(n) <= 532n^3 and sum n^3 < m^4/4 over n < m.  W S
    # lies strictly inside T -+ E, so when both ends have one floor over
    # 2**(G+6), that is floor(10**e S / 64).  At n = e both P(n) a_n and
    # P(n) n are below 2**(G+3), as a_n < W 1024**-n and P(n) 10**e < 8 *
    # 1024**n there, so m <= e, and G = 4 bitlen(e) + 32 puts E below
    # 2**(G-24): the ends differ only when 10**e S / 64 is within 2**-30 of
    # an integer; then the exact product below decides.
    e = digits + 5
    g = 4 * e.bit_length() + 32
    m, total, bound = _series_sum(10**e << g, 1 << (g + 4))
    lo, hi = (total - bound) >> (g + 6), (total + bound) >> (g + 6)
    if lo == hi:
        return Fraction(lo, 10**e)
    # Over a common denominator D the columns (S*D, s_n*D) and (D, 0) times
    # (v, v*P(n), 0, -u) carry S + P(n) s_n and s_{n+1}; the seed (0, 1, 1, 0)
    # holds S = 0 and s_0.  The floor reads only the ratio of the first row.
    steps = ((v, v * ((205 * n + 250) * n + 77), 0, -((n + 1) ** 5)) for n in range(m)
             for v in [32 * (2 * n + 3) ** 5])
    total, denom, _, _ = _product(chain([(0, 1, 1, 0)], steps, [(1, 0, 0, 0)]), projective=True)
    return Fraction(total * 10**e // (64 * denom), 10**e)


def _deep_cf_fraction(digits: int) -> Fraction:
    # One certified depth.  Apery's convergents gain 2 log10(17 + 12 sqrt 2)
    # ~ 3.06 digits per term, so at depth digits/3 + 12 the last gap is
    # below 10**-(digits+6) with a margin that grows with digits, and the
    # gap ratio tends to (17 + 12 sqrt 2)**-2 ~ 1/1154, far under 1/50.
    # Both are tested; if either fails the oracle raises, never going deeper.
    flat = flatten(lookup("APERY"))
    depth = int(digits / 3) + 12
    # The tree gives a positive multiple of S_{depth+1}, and one literal step
    # goes on; every test below and the value are homogeneous in it.
    *steps, (b, a, _, _) = _steps(flat, depth + 2)
    p1, q1, p0, q0 = _product(steps, projective=True)
    p2, q2 = b * p1 + a * p0, b * q1 + a * q0
    # gap_n = |x_{n+1} - x_n| = |p_{n+1} q_n - p_n q_{n+1}| / |q_n q_{n+1}|.
    # Demand that gap2 already resolves the requested digits and keeps
    # contracting, gap2 * 50 < gap1, so the limit is within ~1.01 * gap2
    # of x_{depth+2}; both tests are cross-multiplied out.
    cross1 = abs(p1 * q0 - p0 * q1)
    cross2 = abs(p2 * q1 - p1 * q2)
    if cross2 * 10 ** (digits + 6) < abs(q1 * q2) and cross2 * 50 * abs(q0) < cross1 * abs(q2):
        return Fraction(p2, q2) / 2
    raise InsufficientReferencePrecision(
        f"deep-fraction oracle did not certify {digits} digits at depth {depth}"
    )


def zeta3_reference(digits: int, oracle: str = "SERIES") -> ReferenceValue:
    """zeta(3) correct to `digits` truncated digits from the named oracle."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    oracles = {"SERIES": _series_fraction, "DEEP_CF": _deep_cf_fraction}
    if oracle not in oracles:
        raise ValueError(f"unknown oracle {oracle!r}")
    frac = oracles[oracle](digits)
    text, _ = to_decimal(frac, digits)
    return ReferenceValue(digits, text, oracle, frac)


def oracles_agree(digits: int) -> tuple[bool, ReferenceValue, ReferenceValue]:
    """Compare the two oracles digit-for-digit at the requested precision."""
    series = zeta3_reference(digits, "SERIES")
    deep = zeta3_reference(digits, "DEEP_CF")
    close = abs(series.fraction - deep.fraction) < Fraction(1, 10 ** (digits + 2))
    return series.decimal == deep.decimal and close, series, deep


# ---------------------------------------------------------------------------
# Convergence-rate measurement.
# ---------------------------------------------------------------------------


class ErrorCurve(namedtuple("ErrorCurve", "points target ref_digits")):
    """Decimal-digits-of-accuracy d_n = -log10|x_n - L| per index: `points`
    holds the pairs (n, d_n), measured against a `ref_digits`-digit
    reference for `target`."""

    __slots__ = ()


def error_curve(
    flat: FlatCF, target: Target, n_max: int, ref: ReferenceValue
) -> ErrorCurve:
    """Measure accuracy of the first n_max convergents against the reference.

    Each d_n = log10|q_n| + log10 L_d - log10|r_n| comes from the residual
    column r_n = L_d p_n - L_n q_n, walked beside q_n over the same steps.
    Indices where x_n equals the reference exactly (r_n = 0) are omitted,
    and the first q_n = 0 raises DegenerateConvergent(n).  Before measuring,
    a reference too short for the gap |x_n - x_{n-1}| of the last two
    convergents (about the error of x_{n-1}) is extended to 20 digits past
    it; if the largest measured accuracy still comes within 10 guard
    digits of the reference precision, that is an error.
    """
    steps = list(_steps(flat, n_max))
    # The product of the steps is a positive multiple of S_n = (p_n, q_n,
    # p_{n-1}, q_{n-1}); only the gap of its two convergents is reduced, and
    # only when both are finite.
    p, q, p1, q1 = _product(steps, projective=True)
    if q * q1:
        gap = Fraction(abs(p * q1 - p1 * q), abs(q * q1))
        need = int(-log10_fraction(gap)) + 20 if gap else 0
        if need > ref.digits:
            ref = zeta3_reference(need, ref.oracle_id)
    # Seeded (q, r) = (0, L_d) at n = -1 and (1, -L_n) at n = -2, from S_{-1} = I;
    # each row costs four big-by-small products and two bit-length logs, no gcd.
    limit = ref.value(target)
    q, q1, r, r1, points = 0, 1, limit.denominator, -limit.numerator, []
    log_den = log10_ratio(limit.denominator, 1)
    for n, (b, a, _, _) in enumerate(steps):
        q, q1, r, r1 = b * q + a * q1, q, b * r + a * r1, r
        if not q:
            raise DegenerateConvergent(n)
        if r:
            points.append((n, log10_ratio(abs(q), abs(r)) + log_den))
    max_d = max((d for _, d in points), default=0.0)
    if max_d > ref.digits - 10:
        raise InsufficientReferencePrecision(
            f"reference digits {ref.digits} cannot resolve d = {max_d:.1f}"
        )
    return ErrorCurve(tuple(points), target, ref.digits)


def digits_per_term(curve: ErrorCurve, lo: int, hi: int) -> float:
    """Least-squares slope of d versus n over the window lo..hi inclusive."""
    pts = [(n, d) for n, d in curve.points if lo <= n <= hi]
    if len(pts) < 2:
        raise InsufficientData(
            f"window {lo}:{hi} holds {len(pts)} point(s); need at least 2"
        )
    count = len(pts)
    mean_n = sum(n for n, _ in pts) / count
    mean_d = sum(d for _, d in pts) / count
    cov = sum((n - mean_n) * (d - mean_d) for n, d in pts)
    var = sum((n - mean_n) ** 2 for n, _ in pts)
    return cov / var
