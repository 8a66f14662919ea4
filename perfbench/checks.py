"""Independent correctness checks for zeta3cf CLI output.

Nothing in this module imports zeta3cf.  Ground truth comes from the
formulas in PAPER.md, recomputed here with plain integers:

* zeta(3) from the Amdeberhan-Zeilberger series
      zeta(3) = (1/64) sum_k (-1)^k (k!)^10 (205k^2 + 250k + 77) / ((2k+1)!)^5,
  summed in fixed point (about 3 digits per term);
* p_n, q_n of Apery's and Nesterenko's fractions from their own three-term
  recurrence on the displayed partial numerators and denominators;
* the backward value of every chain stage, by telescoping the chain's
  substitutions back onto Apery's recurrence (see `Oracle.backward_value`).

`Checker.check` parses one request's stdout (text, json or csv) and returns
None when it is right, or a one-line reason.  Verdicts are memoized by the
request, its exit status and the sha256 of its output, so a request that
repeats byte for byte is checked once.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

CHAIN = ("APERY", "A5", "W", "U", "P", "Q", "Z", "H", "G", "N")
TARGET_SCALE = {"ZETA3": 1, "TWO_ZETA3": 2}
# Acceptance bands for the measured digits-per-term slope.
SLOPE_BAND = {"APERY": (2.9, 3.2), "N": (0.70, 0.85)}
RESIDUAL_MAX = 1e-20
CATALOG_DEPTH = 40  # depth of the numeric check of each catalog stage
# The circulated displays of Q, H and G and the variants Q12, G16 and G17
# carry step typos; every other transcription matches the stage derived at
# its chain position.  verify-chain and catalog must report exactly these
# verdicts, with these entries flagged (tests/test_verify.py pins the same
# set).
DAMAGED = {
    "Q": "step.a;step.b;step.c;step.d",
    "H": "step.a;step.b;step.c;step.d",
    "G": "step.a;step.b;step.c;step.d",
    "Q12": "step.a;step.c",
    "G16": "step.a;step.b;step.c;step.d",
    "G17": "step.a;step.b;step.c;step.d",
}
VARIANT_BASE = {"A6": "A5", "U4": "U", "Q12": "Q", "G16": "G", "G17": "G"}


def _apery_term(n: int) -> tuple[int, int]:
    """(a_n, b_n) of 2*zeta(3) = 12/A_0, A_k = 34k^3+51k^2+27k+5 - (k+1)^6/A_{k+1}."""
    k = n - 1
    a = 12 if n == 1 else -(k**6)
    return a, 34 * k**3 + 51 * k**2 + 27 * k + 5


def _nes_term(n: int) -> tuple[int, int]:
    """(a_n, b_n) of 2*zeta(3) = 2 + 1/N_0 with Nesterenko's four-level N_k."""
    m, j = divmod(n - 1, 4)
    b = (2 * m + 2, 2 * m + 4, 2 * m + 3, 2 * m + 2)[j]
    a = (m * (m + 1) if n > 1 else 1, (m + 1) * (m + 2), (m + 1) ** 2, (m + 2) ** 2)[j]
    return a, b


FRACTIONS = {"APERY": (0, _apery_term), "N": (2, _nes_term)}


def _sigma(name: str, k: int) -> tuple[int, int, int, int]:
    """X^from_k = sigma_k(X^to_k) for chain step `name`, as (a, b, c, d)."""
    if name == "W":  # A_k = W_k + 5(k+1)^3
        return 1, 5 * (k + 1) ** 3, 0, 1
    if name == "U":  # W_k = 6(k+1) U_k
        return 6 * (k + 1), 0, 0, 1
    if name == "P":  # U_k = (k+1)^2 P_k
        return (k + 1) ** 2, 0, 0, 1
    if name == "Q":  # Q_k = 1 + 1/(4 + 1/(1 + 1/P_k)) = (6P+5)/(5P+4), inverted
        return 4, -5, -5, 6
    if name == "Z":  # Z_k = Q_k
        return 1, 0, 0, 1
    if name == "H":  # H_k = 2 Z_k
        return 1, 0, 0, 2
    if name == "G":  # H_k = 2 + 1/G_k
        return 2, 1, 1, 0
    if name == "N":  # N_k = (k+1) G_k
        return 1, 0, 0, k + 1
    raise KeyError(name)


def _log10_int(n: int) -> float:
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log10(n)
    return math.log10(n >> shift) + shift * math.log10(2)


def _frac_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def trunc_decimal(num: int, den: int, digits: int) -> tuple[str, bool]:
    """num/den with `digits` fractional digits truncated toward zero; exact flag."""
    sign = "-" if (num < 0) != (den < 0) and num != 0 else ""
    scaled, rem = divmod(abs(num) * 10**digits, abs(den))
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}", rem == 0


class Oracle:
    """Ground truth from PAPER.md's formulas; caches grow on demand."""

    def __init__(self) -> None:
        self._zeta_prec = 0
        self._zeta = 0
        self._pq = {name: ([1, b0], [0, 1]) for name, (b0, _) in FRACTIONS.items()}
        self._reduced: dict[tuple[str, int], tuple[int, int, int]] = {}
        self._strs: dict[tuple[str, int], tuple[str, str, str]] = {}

    # -- zeta(3) ---------------------------------------------------------

    def zeta3(self, prec: int) -> int:
        """An integer Z with |Z - zeta(3) * 10**prec| < 2."""
        if prec + 25 > self._zeta_prec:
            work = max(prec + 25, 2 * self._zeta_prec)
            t = 10**work  # (k!)^10 / ((2k+1)!)^5, fixed point
            total = 0
            k = 0
            while t:
                term = t * (205 * k * k + 250 * k + 77)
                total += -term if k & 1 else term
                t = t * (k + 1) ** 10 // ((2 * k + 2) * (2 * k + 3)) ** 5
                k += 1
            # t is truncated once per term, so the sum is off by less than
            # (work/3 terms) * (205k^2+250k+77) ulps: far below 25 guard digits.
            self._zeta_prec, self._zeta = work, total // 64
        return self._zeta // 10 ** (self._zeta_prec - prec)

    def zeta3_trunc(self, scale: int, digits: int) -> str:
        """scale * zeta(3) truncated to `digits` fractional digits."""
        guard = 10
        while True:
            z = scale * self.zeta3(digits + guard)
            lo, hi = (z - 2 * scale) // 10**guard, (z + 2 * scale) // 10**guard
            if lo == hi:
                text = str(lo)
                return f"{text[:-digits]}.{text[-digits:]}"
            guard += 20

    # -- convergents -----------------------------------------------------

    def pq(self, name: str, n: int) -> tuple[int, int]:
        """Unreduced p_n, q_n of the named fraction (p_0 = b_0, q_0 = 1)."""
        ps, qs = self._pq[name]
        term = FRACTIONS[name][1]
        while len(ps) <= n + 1:
            i = len(ps) - 1  # index of the convergent being added
            a, b = term(i)
            ps.append(b * ps[-1] + a * ps[-2])
            qs.append(b * qs[-1] + a * qs[-2])
        return ps[n + 1], qs[n + 1]

    def reduced(self, name: str, n: int) -> tuple[int, int, int]:
        """(num, den, gcd) of the reduced convergent x_n."""
        key = (name, n)
        if key not in self._reduced:
            p, q = self.pq(name, n)
            g = math.gcd(p, q)
            if q < 0:
                g = -g
            self._reduced[key] = (p // g, q // g, abs(g))
        return self._reduced[key]

    def strings(self, name: str, n: int) -> tuple[str, str, str]:
        """str(p_n), str(q_n) and the reduced value as printed, cached."""
        key = (name, n)
        if key not in self._strs:
            p, q = self.pq(name, n)
            num, den, _ = self.reduced(name, n)
            self._strs[key] = (str(p), str(q), _frac_str(num, den))
        return self._strs[key]

    # -- backward evaluation of chain stages ------------------------------

    def backward_value(self, stage: str, depth: int) -> Fraction:
        """Value the CLI's backward truncation of a chain stage must give.

        With A_{k+1} = Sigma_k(X_k) (Sigma the chain's substitutions from
        A5 down to the stage, A5 being the peeled Apery variable), the
        stage's truncation at `depth` seeds X_depth = psi_depth(infinity).
        The stage maps telescope, so the value is Apery's fraction run down
        from the tail A_{depth+2} = Sigma_{depth+1}(infinity).
        """
        k = depth + 1
        num, den = 1, 0  # infinity
        for name in reversed(CHAIN[2 : CHAIN.index(stage) + 1]):
            a, b, c, d = _sigma(name, k)
            num, den = a * num + b * den, c * num + d * den
        for k in range(depth + 1, -1, -1):
            beta = 34 * k**3 + 51 * k**2 + 27 * k + 5
            num, den = beta * num - (k + 1) ** 6 * den, num
        return Fraction(12 * den, num)


# ---------------------------------------------------------------------------
# Output parsing: every format becomes a Doc.
# ---------------------------------------------------------------------------


@dataclass
class Doc:
    status: str | None  # None for csv, which prints no status
    payload: dict[str, str] = field(default_factory=dict)
    tables: dict[str, list[dict]] = field(default_factory=dict)


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_json(out: str) -> Doc:
    doc = json.loads(out)
    payload, tables = {}, {}
    for key, value in doc["payload"].items():
        if isinstance(value, list):
            tables[key] = value
        else:
            payload[key] = _plain(value)
    return Doc(doc["status"], payload, tables)


_TABLE_NAME = re.compile(r"^\[([a-z_]+)\]$")


def _parse_text(out: str) -> Doc:
    lines = out.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[-1].startswith("status: "):
        raise ValueError("text output does not end with a status line")
    doc = Doc(lines[-1][len("status: ") :])
    body = lines[1:-1]
    i = 0
    while i < len(body) and not _TABLE_NAME.match(body[i]):
        key, _, value = body[i].partition(": ")
        doc.payload[key] = value
        i += 1
    while i < len(body):
        name = _TABLE_NAME.match(body[i]).group(1)
        header = body[i + 1]
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        names = header.split()
        rows = []
        i += 2
        while i < len(body) and not _TABLE_NAME.match(body[i]):
            line = body[i]
            cells = [
                line[s : (starts[j + 1] if j + 1 < len(starts) else None)].rstrip()
                for j, s in enumerate(starts)
            ]
            rows.append(dict(zip(names, cells)))
            i += 1
        doc.tables[name] = rows
    return doc


def _split_csv(line: str, ncols: int) -> list[str]:
    """Split on commas outside [...]; the last column keeps any commas."""
    if "[" not in line:
        return line.split(",", ncols - 1)
    cells, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0 and len(cells) < ncols - 1:
            cells.append(line[start:i])
            start = i + 1
    cells.append(line[start:])
    return cells


_CSV_TABLE = {"convergents": "convergents", "catalog": "catalog", "gutnik": "alignment"}


def _parse_csv(command: str, out: str) -> Doc:
    lines = out.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, _split_csv(line, len(header)))) for line in lines[1:]]
    doc = Doc(None)
    if header == ["error"]:
        doc.payload["error"] = lines[1] if len(lines) > 1 else ""
    elif command in ("eval", "ref"):
        values = lines[1].split(",")
        if command == "ref" and len(values) == len(header) + 1:
            i = header.index("oracles")  # "SERIES,DEEP_CF" is not quoted
            values[i : i + 2] = [f"{values[i]},{values[i + 1]}"]
        doc.payload = dict(zip(header, values))
    elif command == "verify-chain":
        doc.tables["steps"] = [
            r for r in rows if r["step"] != "(chain)" and not r["step"].startswith("variant:")
        ]
        doc.tables["variants"] = [
            {"variant": r["step"][len("variant:") :], "base": r["error"].partition("base=")[2],
             "claimed": r["claimed"], "mismatch_entries": r["mismatch_entries"]}
            for r in rows if r["step"].startswith("variant:")
        ]
        chain = [r for r in rows if r["step"] == "(chain)"]
        if chain:
            doc.payload["passed"] = "true" if chain[0]["symbolic"] == "pass" else "false"
            doc.payload["final_matches_n"] = (
                "true" if chain[0]["claimed"] == "match" else "false"
            )
    elif command == "rate":
        doc.tables["points"] = [
            {"n": r["n"], "accurate_digits": r["value"]} for r in rows if r["record"] == "point"
        ]
        for r in rows:
            if r["record"] == "slope":
                doc.payload["window"], doc.payload["slope"] = r["n"], r["value"]
    else:
        doc.tables[_CSV_TABLE[command]] = rows
        if command == "gutnik" and rows:
            doc.payload["offset_nes"] = rows[0]["offset_nes"]
            doc.payload["offset_apery"] = rows[0]["offset_apery"]
    return doc


def parse(command: str, fmt: str, out: str) -> Doc:
    if fmt == "json":
        return _parse_json(out)
    if fmt == "csv":
        return _parse_csv(command, out)
    return _parse_text(out)


# ---------------------------------------------------------------------------
# Polynomial matrices as the catalog prints them: "[[a, b], [c, d]]".
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\((\d+)/(\d+)\)|\d+)?(k(?:\^(\d+))?)?")


def _parse_poly(text: str) -> list[Fraction]:
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial {text!r}")
        sign, num, fnum, fden, var, power = m.groups()
        if fnum is not None:
            c = Fraction(int(fnum), int(fden))
        else:
            c = Fraction(int(num)) if num else Fraction(1)
        if sign == "-":
            c = -c
        deg = (int(power) if power else 1) if var else 0
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + c
        pos = m.end()
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs, default=-1) + 1)]


def _parse_matrix(text: str) -> list[list[Fraction]]:
    inner = text.strip()
    if not (inner.startswith("[[") and inner.endswith("]]")):
        raise ValueError(f"bad matrix {text!r}")
    rows = inner[2:-2].split("], [")
    entries = [e for row in rows for e in row.split(", ")]
    if len(entries) != 4:
        raise ValueError(f"bad matrix {text!r}")
    return [_parse_poly(e) for e in entries]


def _at(poly: list[Fraction], k: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * k + c
    return acc


def _matrix_at(m: list[list[Fraction]], k: int) -> tuple[Fraction, ...]:
    return tuple(_at(e, k) for e in m)


def _proportional(x, y) -> bool:
    return all(x[i] * y[j] == x[j] * y[i] for i in range(4) for j in range(i + 1, 4))


def _canonical_head(row: dict) -> tuple[Fraction, ...]:
    """The stage's head with its value rescaled to 2*zeta(3)."""
    h = _matrix_at(_parse_matrix(row["head"]), 0)
    s = Fraction(2, TARGET_SCALE[row["target"]])
    return s * h[0], s * h[1], h[2], h[3]


def _same_stage(row: dict, other: dict) -> bool:
    """Steps and heads projectively equal as matrices over Q(k).

    The 2x2 minors of two step matrices are polynomials of degree at most
    twice the largest entry degree; if they vanish at more points than that,
    they vanish identically.
    """
    step, other_step = _parse_matrix(row["step"]), _parse_matrix(other["step"])
    degree = max(len(p) for p in step + other_step) - 1
    return all(
        _proportional(_matrix_at(step, k), _matrix_at(other_step, k))
        for k in range(2 * degree + 1)
    ) and _proportional(_canonical_head(row), _canonical_head(other))


def _mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


# ---------------------------------------------------------------------------
# Per-command checks.
# ---------------------------------------------------------------------------


def _parse_argv(argv: list[str]) -> tuple[str, list[str], dict[str, str]]:
    pos, opts = [], {}
    i = 1
    while i < len(argv):
        if argv[i].startswith("--"):
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            pos.append(argv[i])
            i += 1
    return argv[0], pos, opts


def _sci(text: str) -> Fraction:
    """Parse the CLI's truncated scientific notation, e.g. '4.21e-06'."""
    if text == "0":
        return Fraction(0)
    mant, _, exp = text.partition("e")
    return Fraction(mant) * Fraction(10) ** int(exp)


def _same(cell, expected_int: int, expected_str: str) -> bool:
    return cell == expected_int if isinstance(cell, int) else cell == expected_str


class Checker:
    def __init__(self) -> None:
        self.oracle = Oracle()
        self._memo: dict[tuple, str | None] = {}

    @staticmethod
    def _key(argv, code, exc, digest: bytes) -> tuple:
        return (tuple(argv), code, type(exc).__name__ if exc else None, digest)

    def check(self, argv, code, exc, out: str, digest: bytes) -> str | None:
        """None if the request's result is correct, else a reason."""
        key = self._key(argv, code, exc, digest)
        if key not in self._memo:
            self._memo[key] = self._check(argv, code, exc, out)
        return self._memo[key]

    def known(self, argv, code, exc, digest: bytes) -> str | None:
        """The verdict of an earlier check of the same result, else a reason."""
        return self._memo.get(
            self._key(argv, code, exc, digest), "output differs from every checked run"
        )

    def _check(self, argv, code, exc, out: str) -> str | None:
        if exc is not None:
            return f"uncaught {type(exc).__name__}: {str(exc)[:80]}"
        command, pos, opts = _parse_argv(argv)
        try:
            doc = parse(command, opts.get("format", "text"), out)
            return getattr(self, "_" + command.replace("-", "_"))(code, doc, pos, opts)
        except (ValueError, KeyError, IndexError, AttributeError, TypeError) as err:
            return f"unparseable output: {type(err).__name__}: {str(err)[:80]}"

    @staticmethod
    def _expect_status(doc: Doc, code, want_code: int, want_status: str) -> str | None:
        if code != want_code:
            return f"exit {code}, want {want_code}"
        if doc.status is not None and doc.status != want_status:
            return f"status {doc.status!r}, want {want_status!r}"
        if "error" in doc.payload:
            return f"error envelope: {doc.payload['error'][:80]}"
        return None

    # -- chain-proof -----------------------------------------------------

    def _verify_chain(self, code, doc, pos, opts):
        hook = opts.get("hook-break-sigma")
        bad = self._expect_status(doc, code, 1 if hook else 0, "fail" if hook else "ok")
        if bad:
            return bad
        steps = doc.tables.get("steps", [])
        if tuple(r["step"] for r in steps) != CHAIN[1:]:
            return "steps table does not list the chain in order"
        for r in steps:
            if not float(r["residual"]) < RESIDUAL_MAX:
                return f"step {r['step']}: residual {r['residual']} >= {RESIDUAL_MAX}"
        if doc.payload.get("passed") != ("false" if hook else "true"):
            return f"passed = {doc.payload.get('passed')} with hook {hook}"
        variants = doc.tables.get("variants", [])
        if [(r["variant"], r["base"]) for r in variants] != list(VARIANT_BASE.items()):
            return "variants table does not list the variants with their bases"
        hook_at = CHAIN.index(hook) if hook else len(CHAIN)
        bad = self._claims(steps, "step", hook_at) or self._claims(variants, "variant", hook_at)
        if bad:
            return bad
        if not hook:
            if doc.payload.get("final_matches_n") != "true":
                return "derived chain does not end at N"
            flagged = [r["step"] for r in steps if self._flagged(r)]
            return f"unhooked chain flags {flagged}" if flagged else None
        for r in steps:
            if r["step"] == hook:
                return None if self._flagged(r) else f"hooked step {hook} not flagged"
            if self._flagged(r):
                return f"step {r['step']} before the hook {hook} is flagged"
        return f"hooked step {hook} missing"

    @staticmethod
    def _claims(rows: list[dict], key: str, hook_at: int) -> str | None:
        """The claimed column of verify-chain rows against the pinned verdicts.

        A row whose chain position lies at or after the hooked step is
        compared with a broken derivation, so it must read MISMATCH.
        """
        for r in rows:
            name = r[key]
            if CHAIN.index(VARIANT_BASE.get(name, name)) >= hook_at:
                want = ("MISMATCH", r["mismatch_entries"])
            elif name in DAMAGED:
                want = ("MISMATCH", DAMAGED[name])
            else:
                want = ("match", "-")
            if (r["claimed"], r["mismatch_entries"]) != want:
                return f"{name}: claimed {r['claimed']} {r['mismatch_entries']}, want {' '.join(want)}"
        return None

    @staticmethod
    def _flagged(row: dict) -> bool:
        # Claimed transcriptions of Q, H and G carry known step typos, so a
        # broken substitution shows as a head mismatch, a failed identity
        # or an error.
        return (
            row["symbolic"] != "pass"
            or "head" in row["mismatch_entries"].split(";")
            or row["error"] != "-"
        )

    def _catalog(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        rows = doc.tables.get("catalog", [])
        if "stages" in doc.payload and int(doc.payload["stages"]) != len(rows):
            return f"stages = {doc.payload['stages']} but {len(rows)} rows"
        by_name = {r["name"]: r for r in rows}
        missing = [n for n in CHAIN + tuple(f"{s}.derived" for s in CHAIN[1:]) if n not in by_name]
        if missing:
            return f"missing stages {missing}"
        k = 7  # any index: both sides are exact polynomial maps
        apery = _matrix_at(_parse_matrix(by_name["APERY"]["step"]), k)
        beta = 34 * k**3 + 51 * k**2 + 27 * k + 5
        if not _proportional(apery, (beta, -((k + 1) ** 6), 1, 0)):
            return "APERY step is not Apery's recurrence"
        nes = _matrix_at(_parse_matrix(by_name["N"]["step"]), k)
        block = (1, 0, 0, 1)  # N_k = b1 + a1/(b2 + a2/(b3 + a3/(b4 + a4/N_{k+1})))
        for b, a in ((2 * k + 2, (k + 1) * (k + 2)), (2 * k + 4, (k + 1) ** 2),
                     (2 * k + 3, (k + 2) ** 2), (2 * k + 2, (k + 1) * (k + 2))):
            block = _mat_mul(block, (b, a, 1, 0))
        if not _proportional(nes, block):
            return "N step is not Nesterenko's four-level block"
        for r in rows:
            if r["kind"] == "claimed":
                name = r["name"]
                derived = by_name[VARIANT_BASE.get(name, name) + ".derived"]
                ours = "match" if _same_stage(r, derived) else "MISMATCH"
                want = "MISMATCH" if name in DAMAGED else "match"
                if r["status"] != ours or ours != want:
                    return f"stage {name}: status {r['status']}, ours {ours}, want {want}"
            elif r["status"] != "normative":
                return f"stage {r['name']}: status {r['status']}, want normative"
            if r["status"] in ("normative", "match"):
                err = self._stage_error(r)
                if err is not None:
                    return err
        if not _same_stage(by_name["N"], by_name["N.derived"]):
            return "derived chain does not end at N"
        return None

    def _stage_error(self, row: dict) -> str | None:
        """Run the printed stage backward from depth CATALOG_DEPTH."""
        head = _parse_matrix(row["head"])
        step = _parse_matrix(row["step"])
        a, _, c, _ = _matrix_at(step, CATALOG_DEPTH)
        x = (a, c)  # step_depth(infinity)
        for k in range(CATALOG_DEPTH - 1, -1, -1):
            m = _matrix_at(step, k)
            x = (m[0] * x[0] + m[1] * x[1], m[2] * x[0] + m[3] * x[1])
        h = _matrix_at(head, 0)
        num, den = h[0] * x[0] + h[1] * x[1], h[2] * x[0] + h[3] * x[1]
        if den == 0:
            return f"stage {row['name']}: pole"
        prec = 60
        limit = Fraction(TARGET_SCALE[row["target"]] * self.oracle.zeta3(prec), 10**prec)
        if abs(num / den - limit) > Fraction(1, 10**40):
            return f"stage {row['name']} does not evaluate to {row['target']}"
        return None

    # -- certified-digits ------------------------------------------------

    def _ref(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        digits = int(opts["digits"])
        p = doc.payload
        zeta = self.oracle.zeta3_trunc(1, digits)
        if p.get("digits") != str(digits):
            return f"digits = {p.get('digits')}"
        if p.get("zeta3") != zeta:
            return "zeta3 digits wrong"
        if p.get("deep_cf") != zeta:
            return "deep_cf digits wrong"
        if p.get("two_zeta3") != self.oracle.zeta3_trunc(2, digits):
            return "two_zeta3 digits wrong"
        if p.get("oracles_agree") != "true" or p.get("oracles") != "SERIES,DEEP_CF":
            return "oracle agreement not reported"
        return None

    def _eval(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        stage, depth = pos[0], int(opts.get("depth", 10))
        digits = int(opts.get("digits", 12))
        if stage in FRACTIONS:
            num, den, _ = self.oracle.reduced(stage, depth)
            value, method = Fraction(num, den), "forward-convergent"
        else:
            value, method = self.oracle.backward_value(stage, depth), "backward-truncation"
        p = doc.payload
        if (p.get("stage"), p.get("depth"), p.get("method"), p.get("target")) != (
            stage, str(depth), method, "TWO_ZETA3"
        ):
            return "stage, depth, method or target wrong"
        if p.get("fraction") != _frac_str(value.numerator, value.denominator):
            return "fraction wrong"
        decimal, exact = trunc_decimal(value.numerator, value.denominator, digits)
        if p.get("decimal") != decimal or p.get("exact") != _plain(exact):
            return "decimal wrong"
        # abs_error is |value - 2*ref| truncated to 3 figures, where the
        # CLI's reference has max(digits + 10, 30) digits and error below
        # 10**-(that + 3); accept exactly what that precision allows.
        ref_digits = max(digits + 10, 30)
        slack = Fraction(2, 10 ** (ref_digits + 3))
        prec = ref_digits + 10
        err = abs(value - Fraction(2 * self.oracle.zeta3(prec), 10**prec))
        err_slack = Fraction(4, 10**prec)
        printed = _sci(p.get("abs_error", ""))
        unit = Fraction(10) ** (int(p["abs_error"].partition("e")[2] or 0) - 2)
        if printed == 0:
            ok = err <= slack + err_slack
        else:
            ok = printed - slack - err_slack <= err < printed + unit + slack + err_slack
        return None if ok else f"abs_error {p['abs_error']} inconsistent with the error"

    def _rate(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        stage, n_max = pos[0], int(opts.get("n-max", 50))
        lo, hi = n_max // 5 + 1, n_max
        points = doc.tables.get("points", [])
        if [int(r["n"]) for r in points] != list(range(n_max + 1)):
            return "points do not cover 0..n_max"
        prec = int(3.2 * n_max) + 60
        two_zeta = 2 * self.oracle.zeta3(prec)
        ours = []
        for r in points:
            n = int(r["n"])
            p, q = self.oracle.pq(stage, n)
            gap = abs(p * 10**prec - two_zeta * q)
            d = _log10_int(abs(q)) + prec - _log10_int(gap)
            if not _truncates_to(d, r["accurate_digits"]):
                return f"accurate_digits at n={n}: {r['accurate_digits']}, ours {d:.6f}"
            ours.append((n, d))
        if doc.payload.get("window") != f"{lo}:{hi}":
            return f"window {doc.payload.get('window')}"
        pts = [(n, d) for n, d in ours if lo <= n <= hi]
        mean_n = sum(n for n, _ in pts) / len(pts)
        mean_d = sum(d for _, d in pts) / len(pts)
        slope = sum((n - mean_n) * (d - mean_d) for n, d in pts) / sum(
            (n - mean_n) ** 2 for n, _ in pts
        )
        printed = doc.payload.get("slope", "")
        if not _truncates_to(slope, printed):
            return f"slope {printed}, ours {slope:.6f}"
        band = SLOPE_BAND[stage]
        if not band[0] <= float(printed) <= band[1]:
            return f"slope {printed} outside {band}"
        return None

    # -- convergent-tables -----------------------------------------------

    def _convergents(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        stage, n_max = pos[0], int(opts.get("n-max", 10))
        digits = int(opts.get("digits", 12))
        rows = doc.tables.get("convergents", [])
        if len(rows) != n_max + 1:
            return f"{len(rows)} rows for n_max {n_max}"
        for n, r in enumerate(rows):
            bad = self._convergent_row(stage, n, digits, r)
            if bad:
                return bad
        return None

    def _convergent_row(self, stage, n, digits, r) -> str | None:
        p, q = self.oracle.pq(stage, n)
        p_str, q_str, value = self.oracle.strings(stage, n)
        if str(r["n"]) != str(n):
            return f"row {n} labelled {r['n']}"
        if not (_same(r["p"], p, p_str) and _same(r["q"], q, q_str)):
            return f"p_{n} or q_{n} wrong"
        if r["value"] != value:
            return f"value at n={n} wrong"
        if r["decimal"] != trunc_decimal(p, q, digits)[0]:
            return f"decimal at n={n} wrong"
        return None

    def _gutnik(self, code, doc, pos, opts):
        bad = self._expect_status(doc, code, 0, "ok")
        if bad:
            return bad
        v_max = int(opts.get("v-max", 10))
        rows = doc.tables.get("alignment", [])
        if "rows_equal" in doc.payload and doc.payload["rows_equal"] != "true":
            return "rows_equal is not true"
        if len(rows) != v_max:
            return f"{len(rows)} rows for v_max {v_max}"
        off_nes, off_apery = int(doc.payload["offset_nes"]), int(doc.payload["offset_apery"])
        for v, r in enumerate(rows, start=1):
            bad = self._gutnik_row(v, off_nes, off_apery, r)
            if bad:
                return bad
        return None

    def _gutnik_row(self, v, off_nes, off_apery, r) -> str | None:
        i, j = 4 * v - 2 + off_nes, v + off_apery
        if (str(r["v"]), str(r["nes_index"]), str(r["apery_index"])) != (str(v), str(i), str(j)):
            return f"row {v}: indices wrong"
        if r["equal"] != "true":
            return f"row {v}: not equal"
        num, den, _ = self.oracle.reduced("APERY", j)
        apery = self.oracle.strings("APERY", j)[2]
        if r["apery_value"] != apery or r["nes_value"] != apery:
            return f"row {v}: values wrong"
        p, q = self.oracle.pq("N", i)
        nes_num, nes_den, g = self.oracle.reduced("N", i)
        if (nes_num, nes_den) != (num, den):
            return f"row {v}: Nesterenko x_{i} differs from Apery x_{j}"
        if str(r["nes_gcd"]) != str(g):
            return f"row {v}: nes_gcd wrong"
        return None


def _truncates_to(x: float, printed: str) -> bool:
    """True if `printed` is x truncated toward zero to its decimals."""
    places = len(printed.partition(".")[2])
    unit = 10.0**-places
    y = float(printed)
    eps = 1e-6
    if x >= 0:
        return y - eps <= x < y + unit + eps
    return y - unit - eps < x <= y + eps
