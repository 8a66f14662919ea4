from __future__ import annotations

import argparse
import ast
import contextlib
import decimal
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta3cf import cli, engine, stages
from zeta3cf.cli import (
    _BOUNDS,
    _COMMANDS,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_N_MAX,
    MAX_REF_DIGITS,
    MAX_V_MAX,
    CommandError,
    _emit_csv,
    _emit_json,
    _emit_text,
    _plain,
    build_parser,
    main,
)
from zeta3cf.polynomial import Poly

from golden import STDOUT_GOLDEN
from golden import main as run_golden
from test_engine import _flat_from_families, random_integer_cfs

INT_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--format", "json"])
    return code, json.loads(text)


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    return [line.split(",") for line in lines]


def test_eval_n_depth_6():
    code, doc = run_json(["eval", "N", "--depth", "6", "--digits", "10"])
    assert code == 0
    payload = doc["payload"]
    assert payload["fraction"] == "351/146"
    assert payload["decimal"] == "2.4041095890"
    assert payload["target"] == "TWO_ZETA3"


def test_eval_apery_depth_1():
    code, doc = run_json(["eval", "APERY", "--depth", "1", "--digits", "10"])
    assert code == 0
    assert doc["payload"]["fraction"] == "12/5"
    assert doc["payload"]["decimal"] == "2.4000000000"


def test_eval_unknown_stage_exits_2():
    code, text = run(["eval", "BOGUS"])
    assert code == 2
    assert "unknown stage" in text
    assert "status: error" in text


def test_eval_derived_stage_backward_path():
    code, doc = run_json(["eval", "U", "--depth", "12", "--digits", "12"])
    assert code == 0
    assert doc["payload"]["method"] == "backward-truncation"
    assert doc["payload"]["kind"] == "derived"


def test_convergents_table():
    code, doc = run_json(["convergents", "N", "--n-max", "6", "--digits", "8"])
    assert code == 0
    rows = doc["payload"]["convergents"]
    assert rows[2]["p"] == 24 and rows[2]["q"] == 10
    assert rows[6]["value"] == "351/146"
    assert rows[6]["decimal"] == "2.40410958"


def test_verify_chain_exit_0():
    code, doc = run_json(["verify-chain"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["passed"] is True
    steps = doc["payload"]["steps"]
    assert [s["step"] for s in steps] == ["A5", "W", "U", "P", "Q", "Z", "H", "G", "N"]
    assert all(s["symbolic"] == "pass" for s in steps)


def test_verify_chain_injected_sigma_exit_1():
    code, doc = run_json(["verify-chain", "--hook-break-sigma", "W"])
    assert code == 1
    assert doc["status"] == "fail"


@pytest.mark.parametrize("step", ["BOGUS", "APERY", ""])
def test_verify_chain_unknown_injected_step_exit_2(step):
    # A step the chain does not have injects nothing, so it is an error, not
    # a passing proof; the envelope names the nine steps.
    code, doc = run_json(["verify-chain", "--hook-break-sigma", step])
    assert code == 2
    assert doc["status"] == "error"
    steps = ", ".join(s.name for s in stages.substitution_chain())
    assert steps == "A5, W, U, P, Q, Z, H, G, N"
    assert doc["payload"]["error"] == f"unknown step {step!r}; chain steps: {steps}"


def test_rate_apery():
    code, doc = run_json(["rate", "APERY", "--n-max", "25", "--window", "5:25"])
    assert code == 0
    slope = float(doc["payload"]["slope"])
    assert 2.9 <= slope <= 3.2


def test_rate_n_window():
    code, doc = run_json(
        ["rate", "N", "--n-max", "100", "--window", "20:100", "--ref-digits", "120"]
    )
    assert code == 0
    slope = float(doc["payload"]["slope"])
    assert 0.70 <= slope <= 0.85


def test_rate_insufficient_data_exits_2():
    code, text = run(["rate", "N", "--n-max", "1"])
    assert code == 2
    assert "status: error" in text


def test_rate_unflattenable_exits_2():
    code, text = run(["rate", "Q", "--n-max", "10"])
    assert code == 2


def test_gutnik_50_rows_exit_0():
    code, doc = run_json(["gutnik", "--v-max", "50"])
    assert code == 0
    rows = doc["payload"]["alignment"]
    assert len(rows) == 50
    assert all(r["equal"] == "true" for r in rows)


def test_gutnik_csv_header_plus_rows():
    code, text = run(["gutnik", "--v-max", "2", "--format", "csv"])
    assert code == 0
    rows = csv_rows(text)
    assert rows[0] == [
        "v", "nes_index", "apery_index", "equal", "nes_value", "apery_value",
        "nes_gcd", "offset_nes", "offset_apery",
    ]
    assert len(rows) == 3
    assert rows[1][4] == "12/5" and rows[2][4] == "351/146"


def test_gutnik_perturbed_exit_1():
    code, _ = run(["gutnik", "--v-max", "3", "--hook-perturb"])
    assert code == 1
    code, text = run(["gutnik", "--v-max", "3", "--hook-perturb", "--format", "csv"])
    assert code == 1
    rows = csv_rows(text)
    assert rows[0][-2:] == ["offset_nes", "offset_apery"]
    assert [row[:4] for row in rows[1:]] == [
        ["1", "2", "1", "false"], ["2", "6", "2", "false"], ["3", "10", "3", "false"]
    ]
    assert rows[1][4:6] == ["12/5", "13/5"]
    assert all(row[-2:] == ["0", "0"] for row in rows[1:])


def test_ref_seven_digits():
    code, doc = run_json(["ref", "--digits", "7"])
    assert code == 0
    assert doc["payload"]["zeta3"] == "1.2020569"
    assert doc["payload"]["two_zeta3"] == "2.4041138"
    assert doc["payload"]["oracles_agree"] is True


def test_ref_guard_exits_2():
    for digits in ("0", "1001"):
        code, _ = run(["ref", "--digits", digits])
        assert code == 2


def test_catalog_lists_all_stages():
    code, doc = run_json(["catalog"])
    assert code == 0
    names = [row["name"] for row in doc["payload"]["catalog"]]
    for name in ("APERY", "A5", "A6", "W", "U", "U4", "P", "Q", "Q12",
                 "Z", "H", "G", "G16", "G17", "N"):
        assert name in names
    assert "N.derived" in names
    byname = {row["name"]: row for row in doc["payload"]["catalog"]}
    assert byname["Q12"]["status"] == "MISMATCH"
    assert byname["U4"]["status"] == "match"
    assert "T" in byname["W"]["note"]


def test_catalog_status_agrees_with_verify_chain():
    # catalog and verify-chain decide apart whether a transcription matches
    # its derived stage; every non-normative stage gets one verdict from both.
    _, cat_doc = run_json(["catalog"])
    _, chain_doc = run_json(["verify-chain"])
    chain = chain_doc["payload"]
    verdicts = {s["step"]: s["claimed"] for s in chain["steps"]}
    verdicts.update({v["variant"]: v["claimed"] for v in chain["variants"]})
    status = {r["name"]: r["status"] for r in cat_doc["payload"]["catalog"]}
    claimed = {name: s for name, s in status.items() if s != "normative"}
    assert set(verdicts) - set(claimed) == {"N"} and status["N"] == "normative"
    assert claimed == {name: verdicts[name] for name in claimed}
    assert "MISMATCH" in claimed.values() and "match" in claimed.values()


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["eval", "N", "--depth"], MAX_DEPTH),
        (["eval", "N", "--digits"], MAX_DIGITS),
        (["convergents", "N", "--digits"], MAX_DIGITS),
        (["convergents", "N", "--n-max"], MAX_N_MAX),
        (["rate", "N", "--n-max"], MAX_N_MAX),
        (["rate", "N", "--ref-digits"], MAX_REF_DIGITS),
        (["gutnik", "--v-max"], MAX_V_MAX),
        (["gutnik", "--digits"], MAX_DIGITS),
        (["catalog", "--digits"], MAX_DIGITS),
        (["ref", "--digits"], MAX_REF_DIGITS),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else None,
)
def test_size_flag_at_cap_plus_one_exits_2_before_the_command_runs(monkeypatch, argv, cap):
    # A stub stands in for the command, so no run of either size starts: at
    # the cap and at the floor the stub runs, at cap + 1 and at floor - 1 the
    # error envelope comes first.
    started = []
    monkeypatch.setitem(_COMMANDS, argv[0], lambda args: started.append(args) or ("ok", {}, {}))
    floor, _ = _BOUNDS[argv[-1][2:].replace("-", "_")]
    bounds = [(cap, cap + 1, "at most"), (floor, floor - 1, "at least")]
    for bound, past, word in bounds:
        assert run([*argv, str(bound)])[0] == 0
        code, doc = run_json([*argv, str(past)])
        assert code == 2 and doc["status"] == "error"
        assert doc["payload"]["error"] == f"{argv[-1]} must be {word} {bound}"
    assert len(started) == len(bounds)


def test_caps_admit_every_size_in_use():
    # The largest sizes that the docs, the golden digests, CI and the
    # benchmark ask for.
    caps = (MAX_DIGITS, MAX_DEPTH, MAX_N_MAX, MAX_V_MAX, MAX_REF_DIGITS)
    assert all(cap >= used for cap, used in zip(caps, (5000, 1600, 1000, 700, 510)))


def test_format_equivalence_eval():
    _, text = run(["eval", "N", "--depth", "6", "--digits", "10"])
    _, doc = run_json(["eval", "N", "--depth", "6", "--digits", "10"])
    code, csv_text = run(["eval", "N", "--depth", "6", "--digits", "10", "--format", "csv"])
    assert code == 0
    payload = doc["payload"]
    assert f"fraction: {payload['fraction']}" in text
    assert f"decimal: {payload['decimal']}" in text
    rows = csv_rows(csv_text)
    record = dict(zip(rows[0], rows[1]))
    assert record["fraction"] == payload["fraction"]
    assert record["decimal"] == payload["decimal"]
    assert record["abs_error"] == payload["abs_error"]


def test_gutnik_unequal_rows_render_both_values(monkeypatch):
    # Redirect the negative-control hook to a_10, so the table carries
    # nine equal rows before the unequal ones.
    bump = stages.perturbed
    monkeypatch.setattr(stages, "perturbed", lambda flat, n, delta: bump(flat, 10, delta))
    code, text = run(["gutnik", "--v-max", "12", "--hook-perturb", "--format", "csv"])
    assert code == 1
    rows = csv_rows(text)[1:]
    assert [row[3] for row in rows] == ["true"] * 9 + ["false"] * 3
    for row in rows:
        assert (row[4] == row[5]) == (row[3] == "true")
    apery = stages.flatten(stages.lookup("APERY"))
    values = [c.value for c in engine.convergents(bump(apery, 10, 1), 12)]
    assert [row[5] for row in rows] == [
        f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
        for x in values[1:]
    ]


def test_format_equivalence_gutnik():
    _, doc = run_json(["gutnik", "--v-max", "3"])
    _, csv_text = run(["gutnik", "--v-max", "3", "--format", "csv"])
    rows = csv_rows(csv_text)
    json_rows = doc["payload"]["alignment"]
    for csv_row, json_row in zip(rows[1:], json_rows):
        record = dict(zip(rows[0], csv_row))
        assert record["nes_value"] == json_row["nes_value"]
        assert record["apery_value"] == json_row["apery_value"]
        assert int(record["nes_gcd"]) == json_row["nes_gcd"]
        assert int(record["offset_nes"]) == doc["payload"]["offset_nes"]


def test_format_equivalence_rate():
    _, doc = run_json(["rate", "APERY", "--n-max", "12", "--window", "3:12"])
    _, csv_text = run(
        ["rate", "APERY", "--n-max", "12", "--window", "3:12", "--format", "csv"]
    )
    rows = csv_rows(csv_text)
    assert rows[0] == ["record", "n", "value"]
    slope_rows = [r for r in rows if r[0] == "slope"]
    assert len(slope_rows) == 1
    assert slope_rows[0][2] == doc["payload"]["slope"]
    point_rows = [r for r in rows if r[0] == "point"]
    json_points = doc["payload"]["points"]
    assert [r[2] for r in point_rows] == [p["accurate_digits"] for p in json_points]


def test_format_equivalence_verify_chain():
    _, doc = run_json(["verify-chain"])
    _, csv_text = run(["verify-chain", "--format", "csv"])
    rows = csv_rows(csv_text)
    by_step = {r[0]: r for r in rows[1:]}
    assert by_step["(chain)"][1] == "pass"
    for step in doc["payload"]["steps"]:
        assert by_step[step["step"]][4] == step["residual"]
    for variant in doc["payload"]["variants"]:
        assert by_step[f"variant:{variant['variant']}"][2] == variant["claimed"]


def test_json_output_byte_stable():
    _, first = run(["verify-chain", "--format", "json"])
    _, second = run(["verify-chain", "--format", "json"])
    assert first == second
    _, third = run(["catalog", "--format", "json"])
    _, fourth = run(["catalog", "--format", "json"])
    assert third == fourth


def test_global_flags_accepted_before_subcommand():
    code, doc = run(["--format", "json", "ref", "--digits", "7"])
    assert code == 0
    assert json.loads(doc)["payload"]["zeta3"] == "1.2020569"


def test_hooks_hidden_from_help():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "zeta3cf.cli", "verify-chain", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "hook" not in result.stdout


# One cheap request of each of the seven commands.
ONE_OF_EACH = (
    "eval N --depth 6",
    "convergents N --n-max 5",
    "verify-chain",
    "rate N --n-max 20",
    "gutnik --v-max 5",
    "catalog",
    "ref --digits 7",
)


def test_main_builds_no_parser_per_call(monkeypatch):
    # The parser is built once, at import; a request only parses.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for request in ONE_OF_EACH:
        code, _ = run(request.split())
        assert code == 0, request
    assert built == []


def test_shared_parser_carries_no_state_between_calls():
    first = run(["ref", "--digits", "7"])
    assert run(["--format", "json", "ref", "--digits", "9"])[0] == 0
    assert run(["rate", "N", "--window", "3:9", "--n-max", "20"])[0] == 0
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["eval"]) == (2, "")
    assert run(["ref", "--digits", "7"]) == first
    # Neither an earlier --format, --digits nor --window carries over.
    code, text = run(["eval", "N", "--depth", "6"])
    assert code == 0 and "decimal: 2.404109589041\n" in text
    code, text = run(["rate", "N", "--n-max", "20"])
    assert code == 0 and "window: 5:20\n" in text


def _parser_output(call, argv) -> tuple[object, str, str]:
    """What `call(argv)` returned or raised, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as stop:
            result = stop
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[command, "--help"] for command in _COMMANDS]
    + [["eval"], ["rate", "N", "--n-max", "x"], ["--format", "xml", "ref"], ["bogus"]],
)
def test_help_and_usage_match_a_freshly_built_parser(argv):
    # argparse's help text differs between Python versions, so the shared
    # parser is compared with a new one in the same interpreter: main returns
    # the code with which the new parser exits, and prints the same text.
    code, *text = _parser_output(main, argv)
    stop, *fresh_text = _parser_output(build_parser().parse_args, argv)
    assert type(code) is int and isinstance(stop, SystemExit)
    assert (code, text) == (stop.code, fresh_text)
    assert code == (0 if argv[-1] == "--help" else 2)
    assert text[0 if code == 0 else 1].startswith("usage: zeta3cf")


def test_stdout_golden_digests():
    for argv, code, digest in STDOUT_GOLDEN:
        got_code, text = run(argv.split())
        assert (got_code, hashlib.sha256(text.encode()).hexdigest()) == (code, digest), argv


def test_golden_runner_passes_a_real_entry(capsys):
    _, text = run(["ref", "--digits", "1"])
    entry = ("ref --digits 1", 0, hashlib.sha256(text.encode()).hexdigest())
    assert run_golden([entry]) == 0
    assert capsys.readouterr().out == "1 golden entries run, 0 failed\n"


def test_golden_runner_reports_each_wrong_entry(capsys):
    # Negative control: a wrong digest, a wrong exit code and a run that
    # writes to stderr (a usage error, whose stdout is empty) each fail.
    _, text = run(["ref", "--digits", "1"])
    digest = hashlib.sha256(text.encode()).hexdigest()
    entries = [
        ("ref --digits 1", 0, "0" * 64),
        ("ref --digits 1", 1, digest),
        ("eval", 2, hashlib.sha256(b"").hexdigest()),
    ]
    assert run_golden(entries) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "3 golden entries run, 3 failed"
    assert [line.split(":")[0] for line in lines[:-1]] == [argv for argv, _, _ in entries]
    assert f"exit 0, stdout sha256 {digest}, 0 stderr bytes;" in lines[0]
    assert "want exit 1" in lines[1]
    assert "exit 2," in lines[2] and "0 stderr bytes" not in lines[2]


def test_golden_runner_imports_only_the_standard_library():
    # CI runs it with a bare venv's interpreter, which has no test tools; the
    # package under test runs only in the runner's child processes.
    with open(os.path.join(os.path.dirname(__file__), "golden.py")) as source:
        tree = ast.parse(source.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module.split(".")[0])
    assert modules and modules <= sys.stdlib_module_names


def test_eval_digits_beyond_int_str_limit():
    code, text = run(["eval", "N", "--depth", "10", "--digits", "5000"])
    assert code == 0
    assert "Exceeds the limit" not in text


def test_convergents_past_the_int_str_limit(apery_flat):
    # Text and csv print p_n, q_n of any length.  JSON integers longer than
    # the interpreter's limit would not load back: exit 2 with one error
    # envelope and nothing written before it.
    code, text = run(["convergents", "APERY", "--n-max", "600", "--format", "csv"])
    assert code == 0
    n, p, q = csv_rows(text)[-1][:3]
    conv = engine.convergents(apery_flat, 600)[-1]
    assert n == "600" and len(p) > 4300
    assert (Decimal(p), Decimal(q)) == (conv.p, conv.q)
    code, text = run(["convergents", "APERY", "--n-max", "600", "--format", "json"])
    if 0 < INT_STR_LIMIT < len(p):
        assert code == 2
        doc = json.loads(text)
        assert doc["status"] == "error"
        assert "PYTHONINTMAXSTRDIGITS=0" in doc["payload"]["error"]
    else:
        assert code == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str limit")
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv", [["eval", "APERY", "--depth", "300"], ["convergents", "APERY", "--n-max", "300"]]
)
def test_long_fraction_cells_name_the_setting_a_user_can_change(argv, fmt):
    # The fraction (eval) and value (convergents) cells are strings in every
    # format; past the limit they end in an exit-2 envelope naming
    # PYTHONINTMAXSTRDIGITS=0, not CPython's advice to call a function.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, text = run(argv + ["--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    error = "an integer exceeds this interpreter's 640-digit int-str limit; set PYTHONINTMAXSTRDIGITS=0"
    assert error in text and "set_int_max_str_digits" not in text


LOWEST_LIMIT_REQUESTS = (
    "eval G --depth 300",
    "convergents N --n-max 400",
    "verify-chain",
    "rate APERY --n-max 150 --ref-digits 495",
    "gutnik --v-max 100",
    "catalog",
    "ref --digits 1000",
)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str limit")
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("request_", LOWEST_LIMIT_REQUESTS)
def test_lowest_int_str_limit_changes_no_printed_byte(request_, fmt):
    # 640 digits is the lowest limit CPython accepts.  Every int cell is an
    # index or a capped size, so no request fails on one: each ends in an
    # exit code of its own, and one that succeeds prints what it prints
    # under the interpreter's limit.
    argv = request_.split() + ["--format", fmt]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, text = run(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in (0, 1, 2)
    if code == 0:
        assert run(argv) == (0, text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str limit")
@pytest.mark.parametrize(
    "argv, formats_print",
    [(["gutnik", "--v-max", "700"], False), (["convergents", "APERY", "--n-max", "600"], True)],
)
def test_json_limit_error_names_other_formats_only_when_they_print(argv, formats_print):
    # Only Decimal cells (p_n, q_n) print past the limit in text and csv; an
    # int cell such as gutnik's nes_gcd fails there too, so its error names
    # only the setting.
    result = subprocess.run(
        [sys.executable, "-m", "zeta3cf.cli", *argv, "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert result.returncode == 2
    error = json.loads(result.stdout)["payload"]["error"]
    assert "set PYTHONINTMAXSTRDIGITS=0" in error
    assert ("use --format text or csv" in error) == formats_print


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str limit")
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_gutnik_past_the_int_str_limit_prints_only_the_error_envelope(fmt):
    # nes_gcd at v = 700 is longer than 4300 digits.  Every format ends in
    # one exit-2 error envelope with nothing written before it, byte for byte
    # the envelope recorded when the emitters failed on the gcd as an int.
    result = subprocess.run(
        [sys.executable, "-m", "zeta3cf.cli", "gutnik", "--v-max", "700", "--format", fmt],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    error = (
        "an integer exceeds this interpreter's 4300-digit int-str limit;"
        " set PYTHONINTMAXSTRDIGITS=0"
    )
    if fmt == "json":
        error = (
            "a JSON integer exceeds this interpreter's 4300-digit int-str limit, so"
            " json.loads could not read it; set PYTHONINTMAXSTRDIGITS=0"
        )
        want = json.dumps(
            {"command": "gutnik", "format": "json", "status": "error", "payload": {"error": error}},
            indent=2,
        )
    elif fmt == "csv":
        want = f"error\n{error}"
    else:
        want = f"command: gutnik\nerror: {error}\nstatus: error"
    assert result.stdout == want + "\n"


def test_closed_stdout_exits_2_without_traceback():
    # The table is far larger than a pipe buffer, so the CLI is still
    # writing when the reader closes its end after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "zeta3cf.cli", "convergents", "N", "--n-max", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"command: convergents\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert b"Traceback" not in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_error_envelope_to_a_closed_pipe_exits_2(fmt):
    # Error and result envelopes share one write path: a reader that has
    # gone ends either in exit 2, not in a traceback.
    assert main(["eval", "NOPE", "--format", fmt], out=_ClosedPipe()) == 2
    assert main(["ref", "--digits", "1", "--format", fmt], out=_ClosedPipe()) == 2


def test_convergents_table_ignores_the_ambient_decimal_context(apery_flat):
    argv = ["convergents", "APERY", "--n-max", "200", "--format", "csv"]
    _, want = run(argv)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert run(argv)[1] == want
    with decimal.localcontext() as ctx:
        ctx.clear_traps()
        ctx.rounding = decimal.ROUND_FLOOR  # x + (-x) is -0 here
        assert run(argv)[1] == want
    # Negative control: plain operators under prec=5 round such a column.
    p = next(c.p for c in engine.convergents(apery_flat, 200) if len(str(c.p)) >= 600)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert Decimal(p) * 1 + 0 != p


json_scalars = (
    st.text()
    | st.text(st.characters(max_codepoint=0x1F) | st.characters(min_codepoint=0x80))
    | st.booleans()
    | st.none()
    | st.integers()
    | st.sampled_from([0, -1, 10**3000 + 7, -(10**2999) - 3])
)
json_tables = st.lists(st.text(), max_size=3).flatmap(
    lambda header: st.tuples(
        st.just(header),
        st.lists(st.lists(json_scalars, min_size=len(header), max_size=len(header)), max_size=3),
    )
)


@settings(max_examples=300, deadline=None)
@given(
    st.text(),
    st.sampled_from(["ok", "fail", "error"]),
    st.dictionaries(st.text(), json_scalars, max_size=4),
    st.dictionaries(st.text(), json_tables, max_size=2),
)
def test_emit_json_matches_json_dumps(command, status, payload, tables):
    body = dict(payload)
    for name, (header, rows) in tables.items():
        body[name] = [dict(zip(header, row)) for row in rows]
    doc = {"command": command, "format": "json", "status": status, "payload": body}
    out = io.StringIO()
    _emit_json(command, status, payload, tables, out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_emit_json_leaves_no_cycle(monkeypatch):
    # The emitter recurses through its own closure; that cycle would keep a
    # document's chunks alive until a full collection, on success or error.
    monkeypatch.setattr(cli, "_int_str_limit", lambda: 10)
    for cell in (Decimal(7), Decimal(10**10)):
        tables = {"t": (["x"], [[Decimal(7)]] * 100 + [[cell]])}
        gc.collect()
        gc.disable()
        try:
            with contextlib.suppress(CommandError):
                _emit_json("c", "ok", {}, tables, io.StringIO())
                assert cell == 7
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=300, deadline=None)
@given(random_integer_cfs, st.integers(0, 40))
# b0 = 0, a_1 = 0 and b_2, a_2 < 0 give p_2 = (-2)(0) + (-1)(0) = Decimal("-0").
@example(_flat_from_families(0, [(Poly([-1]), Poly([0])), (Poly([-2]), Poly([-1]))]), 6)
def test_decimal_cells_render_as_ints(flat, n_max):
    rows = []
    try:
        for n, p, q, _, _ in engine.reduced_convergents(flat, n_max):
            rows.append([n, p, q])
    except engine.DegenerateConvergent:
        pass
    ints = [[c.n, c.p, c.q] for c in engine.convergents(flat, len(rows) - 1)]
    assert [[_plain(cell) for cell in row] for row in rows] == [
        [str(cell) for cell in row] for row in ints
    ]
    header = ["n", "p", "q"]
    for emit in (_emit_text, _emit_csv, _emit_json):
        got, want = io.StringIO(), io.StringIO()
        emit("convergents", "ok", {}, {"convergents": (header, rows)}, got)
        emit("convergents", "ok", {}, {"convergents": (header, ints)}, want)
        assert got.getvalue() == want.getvalue()
