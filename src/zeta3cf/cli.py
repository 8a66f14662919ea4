"""Command-line surface: evaluate, verify, measure, inspect.

Subcommands: eval, convergents, verify-chain, rate, gutnik, catalog, ref.
Every command emits one envelope {command, format, status, payload} in the
chosen format (text, json, csv).  Output is deterministic: fixed key order,
truncated decimals, no timestamps.

Exit codes: 0 = success / all checks pass; 1 = checks ran and found a
violation; 2 = usage or operational error.

The argument parser is built once, when this module is imported; `main`
only parses, so a program that calls it many times builds no parser per call.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from functools import cache

from . import engine, stages, verify
from .rational import decimal_int_str, ratio_to_decimal, sci_string, to_decimal, truncate_float

# Upper bounds on the size flags, so that no input runs without bound.  Each
# admits every size the docs, tests and benchmark use; a run at the cap takes
# seconds (README).  MAX_REF_DIGITS bounds both `ref --digits` and
# `rate --ref-digits`; MAX_DIGITS bounds `--digits` for the other commands.
MAX_REF_DIGITS = 1000
MAX_DIGITS = 10_000
MAX_DEPTH = 10_000
MAX_N_MAX = 2_000
MAX_V_MAX = 1_000
# Each size flag's (floor, cap): below the floor a size means nothing;
# `rate` lifts a `--ref-digits` from 1 to 29 to 30.
_BOUNDS = {
    "digits": (1, MAX_DIGITS),
    "depth": (0, MAX_DEPTH),
    "n_max": (0, MAX_N_MAX),
    "v_max": (1, MAX_V_MAX),
    "ref_digits": (1, MAX_REF_DIGITS),
}


class CommandError(Exception):
    """Operational failure; rendered as a status=error envelope, exit 2."""


def _check_caps(args) -> None:
    for name, (floor, cap) in _BOUNDS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        cap = MAX_REF_DIGITS if (name, args.command) == ("digits", "ref") else cap
        flag = "--" + name.replace("_", "-")
        if value > cap:
            raise CommandError(f"{flag} must be at most {cap}")
        if value < floor:
            raise CommandError(f"{flag} must be at least {floor}")


def _resolve_numeric_stage(name: str) -> stages.Stage:
    """Stage used for numeric work: derived form for chain positions,
    the literal transcription for presentational variants."""
    cat = stages.catalog()
    if name not in cat:
        base, _, suffix = name.partition(".")
        if suffix == "derived" and base in stages.CHAIN_ORDER[1:]:
            raise CommandError(f"unknown stage {name!r}; eval {base} evaluates the derived"
                               f" stage of chain position {base}")
        known = ", ".join(cat)
        raise CommandError(f"unknown stage {name!r}; known stages: {known}")
    if name != "N" and name in stages.CHAIN_ORDER:
        return verify.derived_chain()[name]
    return cat[name]


def _int_str_limit() -> int:
    """This interpreter's int-str digit limit, 0 for none."""
    return sys.get_int_max_str_digits()


def _ratio_str(num: int, den: int) -> str:
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError as exc:  # str() of an int raises it only past the limit
        # The cell is a string in every format, so the error names no format.
        raise CommandError(_too_long(_int_str_limit(), "text")) from exc


# ---------------------------------------------------------------------------
# Command payload builders.  Each returns (status, payload, tables) where
# status is "ok" or "fail", payload is an ordered mapping and tables maps
# name -> (header, rows).
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> tuple[str, dict, dict]:
    stage = _resolve_numeric_stage(args.stage)
    ref = engine.zeta3_reference(max(args.digits + 10, 30))
    target_value = ref.value(stage.target)
    try:
        flat = stages.flatten(stage)
        value = engine.last_convergent(flat, args.depth)
        method = "forward-convergent"
    except stages.HeadNotFlattenable:
        value = engine.truncation_value(stage, args.depth)
        method = "backward-truncation"
    decimal, exact = to_decimal(value, args.digits)
    payload = {
        "stage": stage.name,
        "kind": stage.kind,
        "method": method,
        "depth": args.depth,
        "fraction": _ratio_str(value.numerator, value.denominator),
        "decimal": decimal,
        "exact": exact,
        "target": stage.target.name,
        "abs_error": sci_string(abs(value - target_value)),
    }
    return "ok", payload, {}


def _cmd_convergents(args) -> tuple[str, dict, dict]:
    stage = _resolve_numeric_stage(args.stage)
    flat = stages.flatten(stage)
    rows = [
        [n, p, q, _ratio_str(num, den), ratio_to_decimal(num, den, args.digits)[0]]
        for n, p, q, num, den in engine.reduced_convergents(flat, args.n_max)
    ]
    payload = {"stage": stage.name, "target": stage.target.name, "n_max": args.n_max}
    tables = {"convergents": (["n", "p", "q", "value", "decimal"], rows)}
    return "ok", payload, tables


def _cmd_verify_chain(args) -> tuple[str, dict, dict]:
    override = None
    if args.hook_break_sigma is not None:
        override = {args.hook_break_sigma: verify.PolyMobius(1, 1, 0, 1)}
    report = verify.verify_chain(sigma_override=override)
    rows = []
    for s in report.steps:
        rows.append(
            [
                s.step_name,
                "pass" if s.symbolic_pass else "FAIL",
                "match" if s.claimed_matches else "MISMATCH",
                ";".join(s.mismatches) or "-",
                s.numeric_residual,
                s.error or "-",
            ]
        )
    variant_rows = [
        [v.name, v.base, "match" if v.matches_derived else "MISMATCH",
         ";".join(v.mismatches) or "-"]
        for v in report.variants
    ]
    payload = {
        "final_matches_n": report.final_matches_n,
        "final_head_ok": report.final_head_ok,
        "passed": report.passed,
    }
    tables = {
        "steps": (
            ["step", "symbolic", "claimed", "mismatch_entries", "residual", "error"],
            rows,
        ),
        "variants": (["variant", "base", "claimed", "mismatch_entries"], variant_rows),
    }
    return "ok" if report.passed else "fail", payload, tables


def _cmd_rate(args) -> tuple[str, dict, dict]:
    stage = _resolve_numeric_stage(args.stage)
    flat = stages.flatten(stage)
    if args.window:
        try:
            lo_s, hi_s = args.window.split(":")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise CommandError(f"bad window {args.window!r}; expected LO:HI") from exc
        # The curve has points n = 0 .. n_max only; a wider window would be
        # echoed but fit over fewer points.
        if lo < 0 or hi > args.n_max:
            raise CommandError(f"window {lo}:{hi} is outside 0:{args.n_max}")
    else:
        lo, hi = args.n_max // 5 + 1, args.n_max
    ref = engine.zeta3_reference(max(args.ref_digits, 30))
    curve = engine.error_curve(flat, stage.target, args.n_max, ref)
    slope = engine.digits_per_term(curve, lo, hi)
    payload = {
        "stage": stage.name,
        "target": stage.target.name,
        "n_max": args.n_max,
        "window": f"{lo}:{hi}",
        "slope": truncate_float(slope, 3),
    }
    rows = [[n, truncate_float(d, 3)] for n, d in curve.points]
    tables = {"points": (["n", "accurate_digits"], rows)}
    return "ok", payload, tables


def _cmd_gutnik(args) -> tuple[str, dict, dict]:
    nes = stages.flatten(stages.lookup("N"))
    apery = stages.flatten(stages.lookup("APERY"))
    if args.hook_perturb:
        apery = stages.perturbed(apery, 1, 1)
    report = verify.gutnik_alignment(nes, apery, args.v_max)
    # nes_gcd is an integral Decimal, printed in linear time.  Past the
    # int-str limit it prints in no format, with the error of an int cell.
    limit = _int_str_limit()
    if limit and any(r.nes_gcd.adjusted() >= limit for r in report.entries):
        raise CommandError(_too_long(limit, args.format))
    rows = []
    for r in report.entries:
        nes_value = _ratio_str(*r.nes_ratio)
        apery_value = nes_value if r.equal else _ratio_str(*r.apery_ratio)
        rows.append(
            [
                r.v,
                r.nes_index,
                r.apery_index,
                "true" if r.equal else "false",
                nes_value,
                apery_value,
                r.nes_gcd,
            ]
        )
    # The index map (4v - 2, v) has no offset on either side.
    payload = {"offset_nes": 0, "offset_apery": 0, "rows_equal": report.all_equal}
    tables = {
        "alignment": (
            ["v", "nes_index", "apery_index", "equal", "nes_value", "apery_value", "nes_gcd"],
            rows,
        )
    }
    return "ok" if report.all_equal else "fail", payload, tables


def _cmd_catalog(args) -> tuple[str, dict, dict]:
    rows = [list(row) for row in _catalog_rows()]
    payload = {"stages": len(rows)}
    tables = {
        "catalog": (
            ["name", "kind", "target", "head", "step", "levels", "status", "note"],
            rows,
        )
    }
    return "ok", payload, tables


@cache
def _catalog_rows() -> tuple[tuple, ...]:
    # Status compares each claimed stage with the derived stage of its chain
    # position, as verify-chain does, without that command's proofs.
    derived = verify.derived_chain()
    base_of = {name: base for base, names in stages.VARIANTS.items() for name in names}
    rows = []
    for stage in stages.catalog().values():
        if stage.kind == "normative":
            status = "normative"
        else:
            base = derived[base_of.get(stage.name, stage.name)]
            status = "MISMATCH" if verify.diff_stages(stage, base) else "match"
        rows.append(_catalog_row(stage.name, stage, status))
    for name in stages.CHAIN_ORDER[1:]:
        rows.append(_catalog_row(f"{name}.derived", derived[name], "normative"))
    return tuple(rows)


def _catalog_row(name: str, stage: stages.Stage, status: str) -> tuple:
    levels = ";".join(f"(b={lv.b}|a={lv.a})" for lv in stage.levels) if stage.levels else "-"
    head, step = str(stage.head), str(stage.step)
    return name, stage.kind, stage.target.name, head, step, levels, status, stage.note or "-"


def _cmd_ref(args) -> tuple[str, dict, dict]:
    agree, series, deep = engine.oracles_agree(args.digits)
    payload = {
        "digits": args.digits,
        "zeta3": series.decimal,
        "two_zeta3": series.decimal_for(stages.Target.TWO_ZETA3),
        "oracles": "SERIES,DEEP_CF",
        "oracles_agree": agree,
        "deep_cf": deep.decimal,
    }
    return "ok" if agree else "fail", payload, {}


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _emit_text(command, status, payload, tables, out) -> None:
    """The payload as `key: value` lines, then each table with its columns
    padded to their widest cell.  Each cell renders once to print and, unless
    it is a Decimal, once more to be measured; a Decimal's width is read off
    its exponent, so the long p_n, q_n texts exist one row at a time."""
    print(f"command: {command}", file=out)
    for key, value in payload.items():
        print(f"{key}: {_plain(value)}", file=out)
    for name, (header, rows) in tables.items():
        if not rows:
            continue
        print(f"[{name}]", file=out)
        widths = [max(len(h), max(_width(r[i]) for r in rows)) for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
        for row in rows:
            print("  ".join(_plain(c).ljust(w) for c, w in zip(row, widths)), file=out)
    print(f"status: {status}", file=out)


def _emit_json(command, status, payload, tables, out) -> None:
    """The envelope as json.dumps(doc, indent=2) would write it, with
    Decimal cells as bare integers.  The whole text is built before anything
    is written: a Decimal cell longer than this interpreter's int-str limit
    raises CommandError first, since json.loads could not read it back.  An
    int cell is an index or a capped size, far inside the lowest limit."""
    # Imported here, so that only json output pays for importing json.
    from json import dumps
    from json.encoder import encode_basestring_ascii as quoted

    limit = _int_str_limit()

    def text(value) -> str:
        if isinstance(value, str):
            return quoted(value)
        if isinstance(value, Decimal):
            if limit and value.adjusted() >= limit:
                raise CommandError(_too_long(limit, "json", decimal=True))
            return decimal_int_str(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return int.__repr__(value)
        return dumps(value)

    # The envelope has one shape: scalars, and each table a list of row
    # objects, in a payload object.  As in a dict, a table replaces a
    # payload entry of its name, and a repeated column keeps its last cell.
    body = dict(payload)
    for name, (header, rows) in tables.items():
        body[name] = [dict(zip(header, row)) for row in rows]
    chunks = [f'{{\n  "command": {quoted(command)},\n  "format": "json",\n'
              f'  "status": {quoted(status)},\n  "payload": ']
    sep = "{"
    for key, value in body.items():
        chunks.append(f"{sep}\n    {quoted(key)}: ")
        sep = ","
        if not isinstance(value, list):
            chunks.append(text(value))
            continue
        row_sep = "["
        for row in value:
            chunks.append(f"{row_sep}\n      ")
            row_sep, cell_sep = ",", "{"
            for head, cell in row.items():
                chunks += f"{cell_sep}\n        {quoted(head)}: ", text(cell)
                cell_sep = ","
            chunks.append("\n      }" if row else "{}")
        chunks.append("\n    ]" if value else "[]")
    chunks.append("\n  }\n}\n" if body else "{}\n}\n")
    out.write("".join(chunks))


def _too_long(limit: int, fmt: str, decimal: bool = False) -> str:
    """The error for an integer past the int-str limit in the format `fmt`.
    Only a Decimal cell (p_n, q_n) prints in text and csv, so only its json
    error names them."""
    if fmt != "json":
        return (
            f"an integer exceeds this interpreter's {limit}-digit int-str limit;"
            " set PYTHONINTMAXSTRDIGITS=0"
        )
    advice = " use --format text or csv, or" if decimal else ""
    return (
        f"a JSON integer exceeds this interpreter's {limit}-digit int-str limit, so"
        f" json.loads could not read it;{advice} set PYTHONINTMAXSTRDIGITS=0"
    )


def _emit_csv(command, status, payload, tables, out) -> None:
    # One table per invocation.  gutnik adds the two offsets to every row
    # and drops rows_equal; rate adds a slope record with its window and
    # drops stage, target and n_max; verify-chain adds a row per variant and
    # a (chain) row with passed and final_matches_n, and drops final_head_ok.
    # Other commands with tables print them alone (convergents drops stage,
    # target and n_max; catalog drops stages), and a command without one
    # prints its payload as a header and a row.
    if command == "gutnik" and "alignment" in tables:
        header, rows = tables["alignment"]
        header = header + ["offset_nes", "offset_apery"]
        extra = [payload["offset_nes"], payload["offset_apery"]]
        rows = [row + extra for row in rows]
        _print_table(header, rows, out)
    elif command == "rate" and "points" in tables:
        _, rows = tables["points"]
        out_rows = [["point", n, d] for n, d in rows]
        out_rows.append(["slope", payload["window"], payload["slope"]])
        _print_table(["record", "n", "value"], out_rows, out)
    elif command == "verify-chain" and "steps" in tables:
        header, rows = tables["steps"]
        rows = list(rows)
        for name, base, claimed, mism in tables["variants"][1]:
            rows.append([f"variant:{name}", "-", claimed, mism, "-", f"base={base}"])
        rows.append(
            [
                "(chain)",
                "pass" if payload["passed"] else "FAIL",
                "match" if payload["final_matches_n"] else "MISMATCH",
                "-",
                "-",
                "-",
            ]
        )
        _print_table(header, rows, out)
    elif tables:
        for _, (header, rows) in tables.items():
            _print_table(header, rows, out)
    else:
        print(",".join(payload.keys()), file=out)
        print(",".join(_plain(v) for v in payload.values()), file=out)


def _print_table(header, rows, out) -> None:
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(_plain(c) for c in row), file=out)


def _width(cell) -> int:
    """len(_plain(cell)), read off the exponent for an integral Decimal."""
    if isinstance(cell, Decimal):
        return cell.adjusted() + 1 + (cell < 0)
    return len(_plain(cell))


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Decimal):
        return decimal_int_str(value)
    return str(value)


def _render(args, command, status, payload, tables, out) -> None:
    if args.format == "json":
        _emit_json(command, status, payload, tables, out)
    elif args.format == "csv":
        _emit_csv(command, status, payload, tables, out)
    else:
        _emit_text(command, status, payload, tables, out)


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Shared flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a pre-subcommand value from being overwritten.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    shared.add_argument(
        "--digits", type=int, default=argparse.SUPPRESS,
        help="decimal digits for rendered values (default: 12)",
    )

    parser = argparse.ArgumentParser(
        prog="zeta3cf",
        parents=[shared],
        description=(
            "Exact continued-fraction engine and derivation verifier for the "
            "chain from Apery's fraction for 2*zeta(3) to Nesterenko's expansion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[shared], help="evaluate one stage at a truncation depth"
    )
    p_eval.add_argument("stage")
    p_eval.add_argument("--depth", type=int, default=10)

    p_conv = sub.add_parser("convergents", parents=[shared], help="exact convergent table")
    p_conv.add_argument("stage")
    p_conv.add_argument("--n-max", type=int, default=10)

    p_chain = sub.add_parser(
        "verify-chain", parents=[shared], help="prove every derivation step"
    )
    p_chain.add_argument("--hook-break-sigma", metavar="STEP", help=argparse.SUPPRESS)

    p_rate = sub.add_parser(
        "rate", parents=[shared], help="error curve and digits-per-term slope"
    )
    p_rate.add_argument("stage")
    p_rate.add_argument("--n-max", type=int, default=50)
    p_rate.add_argument("--window", help="fit window LO:HI (default: n_max/5..n_max)")
    p_rate.add_argument("--ref-digits", type=int, default=120)

    p_gut = sub.add_parser(
        "gutnik", parents=[shared], help="convergent-coincidence alignment table"
    )
    p_gut.add_argument("--v-max", type=int, default=10)
    p_gut.add_argument("--hook-perturb", action="store_true", help=argparse.SUPPRESS)

    sub.add_parser("catalog", parents=[shared], help="list claimed and derived stages")

    sub.add_parser("ref", parents=[shared], help="reference zeta(3) and 2*zeta(3)")

    return parser


_PARSER = build_parser()

_COMMANDS = {
    "eval": _cmd_eval,
    "convergents": _cmd_convergents,
    "verify-chain": _cmd_verify_chain,
    "rate": _cmd_rate,
    "gutnik": _cmd_gutnik,
    "catalog": _cmd_catalog,
    "ref": _cmd_ref,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as stop:  # --help, or a usage error argparse has printed
        return stop.code
    # Shared flags use SUPPRESS defaults so either position wins; fill here.
    args.format = getattr(args, "format", "text")
    args.digits = getattr(args, "digits", 12)
    command = args.command
    try:
        _check_caps(args)
        status, payload, tables = _COMMANDS[command](args)
    except (CommandError, ValueError, KeyError, ArithmeticError) as exc:
        status, payload, tables = "error", {"error": str(exc)}, {}
    try:
        try:
            _render(args, command, status, payload, tables, out)
        except CommandError as exc:  # raised by an emitter before it writes
            status = "error"
            _render(args, command, status, {"error": str(exc)}, {}, out)
        out.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered raises nothing.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return {"ok": 0, "fail": 1, "error": 2}[status]


if __name__ == "__main__":
    sys.exit(main())
