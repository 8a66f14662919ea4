from __future__ import annotations

import argparse
import contextlib
import decimal
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

from zeta3cf import engine, stages
from zeta3cf.cli import (
    _COMMANDS,
    _FLOORS,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_N_MAX,
    MAX_REF_DIGITS,
    MAX_V_MAX,
    _emit_csv,
    _emit_json,
    _emit_text,
    _plain,
    build_parser,
    main,
)
from zeta3cf.polynomial import Poly

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
    floor = _FLOORS.get(argv[-1][2:].replace("-", "_"))
    bounds = [(cap, cap + 1, "at most")]
    if floor is not None:
        bounds.append((floor, floor - 1, "at least"))
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


# sha256 of stdout and the exit code for fixed argvs, recorded before
# stage terms and step entries were evaluated in integer Horner form: any
# change to the numeric kernels must leave every byte of stdout as it was.
# `rate N --n-max 200` was re-recorded when error_curve began sizing its
# reference from the convergent gap: it used to exit 2 on a too-short one.
# The ref/eval/rate shapes from 900 digits up were recorded before the two
# oracles and to_decimal moved off per-term and per-digit loops.  The
# gutnik json/csv, gutnik --v-max 300 and convergents APERY --n-max 300
# shapes were recorded before the tables stopped reducing each row with a
# full-size gcd.  The verify-chain and catalog shapes were recorded before
# the Gutnik offset search and the DEEP_CF depth escalation were deleted.
# The last four rate shapes were recorded before error_curve measured each
# row from the residual column instead of reducing x_n - L.  The
# convergents N --n-max 1000 and APERY --n-max 500 shapes, the largest
# tables the benchmark prints, were recorded before the printed p_n, q_n
# columns were walked as Decimals and json.dumps gave way to _emit_json.
# The last four gutnik shapes were recorded before the Nesterenko side
# stopped only at the printed rows and nes_gcd became a Decimal.  The four
# verify-chain shapes were re-recorded when the residual reference grew from
# 40 to 100 digits: each residual cell used to print the reference's own
# error, 2.15e-45, and now prints the stage's; no other byte changed.
# The thirteen eval shapes whose abs_error prints the reference's own error
# (A5 .. G at depth 300, APERY and N at 900 digits, G at 1377, A5 at 1001
# and N at 794 digits) were re-recorded when SERIES moved to Amdeberhan's
# series, floored once over 10**(digits+5): that error fell, 1.81e-35 to
# 1.52e-36 at 30 digits, and no other byte changed.
# The nine fault-injected verify-chain shapes, one per chain step with the
# formats cycled as the benchmark cycles them, were recorded before the
# symbolic column stopped building normal forms and began checking each
# identity at integer points.
# eval APERY --depth 300 --digits 900 and eval N --depth 1200 --digits 900
# were re-recorded when SERIES moved to Amdeberhan & Zeilberger's series:
# their abs_error prints the 910-digit reference's own error, which went
# from 1.03e-916 and 1.05e-916 to 2.10e-915 for both (the new floor is one
# ulp lower, still within 1.25 * 10**-915 of zeta(3)); no other byte changed.
STDOUT_GOLDEN = (
    ("eval A5 --depth 300", 0, "d48096fef8a81c6b8fd11e8bf345d08fbd3e2c70d0210fcf0fa1d08ac92bb992"),
    ("eval W --depth 300", 0, "f207484bbc56c6674352e657688686edac5a48ede3bb92ab6b5cf70f44a9432b"),
    ("eval U --depth 300", 0, "adac415aca87a371f6059b934123b0bcd7edb06b2544bf31f884c776a63a9cd7"),
    ("eval P --depth 300", 0, "b7771e4b31cec3cf0eb2a722ed02c04a12656fbfb4732c5743a02bc5ebacb3ae"),
    ("eval Q --depth 300", 0, "269fcc2f43108b6e6a7df8cf76ffbf00e71f26fbb79521f37c4a9526a281c1fd"),
    ("eval Z --depth 300", 0, "c88d0ae5cedcf2c67a8dbb8856710cf6b31511dda55c0091841466b278636e0f"),
    ("eval H --depth 300", 0, "ede6d567469e78ff96a2829d0b545dc6f7d28c411fd87867f416dd72b345fb7e"),
    ("eval G --depth 300", 0, "f67beb2413a175c5d7a5e028a63f101014fecd80ddc2699875833c26b2cc7354"),
    ("convergents N --n-max 200 --format text", 0, "bf71591341d02bb3f6a1a89b74629cba1b0b3b9a356305b45129d094073a8856"),
    ("convergents APERY --n-max 100 --format text", 0, "b2c8ec3e22278875e217fe2b5730769e69197989866b508447204a2889f370f5"),
    ("convergents N --n-max 200 --format json", 0, "015eb58b8b2d378de11fae837f263aa6069bf75038589898edc9560a1db5c61b"),
    ("convergents APERY --n-max 100 --format json", 0, "3c33ed915dedbc31cac8b4c8af63c6abf74514ef79fe544a210dccfcae41c606"),
    ("convergents N --n-max 200 --format csv", 0, "ca869fbe291c1624ac8dad93c851a0a5f08dd9b59657ced7bd19b15ecca66597"),
    ("convergents APERY --n-max 100 --format csv", 0, "4fed03ce6074b8ba10a5a707415966a9454094d99cb970c687c2bb7ab4d156c4"),
    ("ref --digits 500", 0, "bb9764beaadc9841bc94bc1ee0a3453267a46cf6810a888c0f152ff8024044b9"),
    ("rate N --n-max 200", 0, "13818299638596a889e804e56ae451651e9464d8b46e124f0fdd4d6eabb83341"),
    ("gutnik --v-max 100", 0, "553e43747f8fb1a7e63797ebdc39e7f186a1b22fca69a2521f662a32ede58601"),
    ("ref --digits 1000 --format text", 0, "e1b43526fffe8220c3f27570a3da066f7981894c2988fda92bd7f428d1a4344f"),
    ("ref --digits 1000 --format json", 0, "73a8a0cbe0b064e6ecc9b25c2cf96b80dbe7dd9cdedd76b2608eb4972d256323"),
    ("ref --digits 1000 --format csv", 0, "e6566f0ca0fea3252f9826cc9d95d563dd3e73056ff4f3def8c8b718e4e570a2"),
    ("eval APERY --depth 300 --digits 900", 0, "da726f48e231bbd5fcc85113e03e5c9a6db6a469b1ab213f0ad2220495fe33a5"),
    ("eval N --depth 1200 --digits 900", 0, "b9e66daa8b08a11bf3df24eae7bfb7c417e34c35832f0c6735b7f1417e1c5c63"),
    ("rate N --n-max 600 --ref-digits 510", 0, "964c16f679cdcb3c9ef7949538abcba3b98d9201fca0cf5d270eae0bc686ecc4"),
    ("eval N --depth 10 --digits 5000", 0, "27a322beed40c8fc6a1a950c980e21277cd0891ea96e5d2d5875b1339c04de9e"),
    ("gutnik --v-max 100 --format json", 0, "d12302f780d7f7d3b0f7c805be8bd340489e8deedd7d44f15f70b96fcbcdb0ec"),
    ("gutnik --v-max 100 --format csv", 0, "8c95bf01c0534af81c1d26d8a732eea745f77958d4c7df2e9fc381526920297c"),
    ("gutnik --v-max 300", 0, "51d699ff3b52a5ccee0a5342688ac501786dc5afbe8880078f3f2fbafd361386"),
    ("convergents APERY --n-max 300 --format text", 0, "2da2a104222b7012397e94f3971c0c17ef0e3b7614750428fc48d0725005041f"),
    ("convergents APERY --n-max 300 --format json", 0, "a70183936ec2c4ff562089dc625f7bb9590f41d428a02cadcc8d194334edc070"),
    ("convergents APERY --n-max 300 --format csv", 0, "a9278ed3011752c230e8f1240a40291f2dbe4d4bac83401e78277510582f2024"),
    ("verify-chain --format text", 0, "36cf249748a32859f580f1755f8706cd4f59e725c0a730d31f9301d0e9645f9d"),
    ("verify-chain --format json", 0, "ad764a52a90cea6fc6df8442771bdbb38ecade2120fca8ad1f1280d82d9abb82"),
    ("verify-chain --format csv", 0, "720d223423429cbb78a0c0f06dd5aaa8c35f4b38030a9f27ac49cc7d5108ae2b"),
    ("catalog --format text", 0, "07df7d2256fb244bce96b32092196e40b9a96ac66a962973cc2c1c99ddbf8bd3"),
    ("catalog --format json", 0, "d8646431e5d5c5229a4b0446d0055e16a85ee9e816392d1d2bb0f48b756df6c7"),
    ("catalog --format csv", 0, "d44472dd74b9125a5427ca1d6166d893c555c22a697f1d68112919fc67a65e1d"),
    ("verify-chain --hook-break-sigma W", 1, "c3b2eb6be7672dbc44273725896fcaaa7cbf26dd475adc270828ac7a71ef1360"),
    ("verify-chain --hook-break-sigma A5 --format text", 1, "bb70d7245a80bb9c186e1f5cfaece2bffebce4fb1d84ad249bab30f3ecf58a2c"),
    ("verify-chain --hook-break-sigma W --format json", 1, "fe6301ab6d6117e71ab7aee10f5452d555269aef5a3b288cdc6893f2a0af0d0e"),
    ("verify-chain --hook-break-sigma U --format csv", 1, "93cf31df2a44b1e0461a69379d10a81e1c7e80395edc24845a49a66a992968ad"),
    ("verify-chain --hook-break-sigma P --format text", 1, "34ce879bba1061d4692614da59b90a86690296177c6f6a6b738093e413e19b2a"),
    ("verify-chain --hook-break-sigma Q --format json", 1, "2ad5dec2effd9f6228be32783286c5396b9473f29540d8bb1710070ba5a67bd1"),
    ("verify-chain --hook-break-sigma Z --format csv", 1, "fdc640b5745945adb55e2d74e64ed972f759fc0777966338d6aa76e3fd8e3d45"),
    ("verify-chain --hook-break-sigma H --format text", 1, "0b97c20f3a47256e1d9a7b15104c0540e28e67532cbc8ba405a8a743490041d9"),
    ("verify-chain --hook-break-sigma G --format json", 1, "a9511ee5ecc4bd27a96fa40782c08df4b81fd5829ac695b3b9129ba80a1c7d6f"),
    ("verify-chain --hook-break-sigma N --format csv", 1, "6285eb168cedfc7d584017305a0309ffe9e82d89aa6f9cdad089422e8b53b87c"),
    ("rate APERY --n-max 150 --ref-digits 495 --format json", 0, "72148efb4ba87073ca1f5dc6454a28933280b7a44ee5d8bba928907af3c995fc"),
    ("rate N --n-max 531 --ref-digits 454 --format csv", 0, "31484994829a5f045cee5ec89da19c6f807fe956821bc5e21e66352f807578db"),
    ("rate APERY --n-max 25 --window 5:25", 0, "4ea22b7ceb5a41c31ca43beda048add832ae7e716feb060d62215aff8fb9033d"),
    ("rate N --n-max 300 --ref-digits 30", 0, "78f86b35aa64e5bf65746c7394603e3d19bad060b15b21d3a587a04de979f901"),
    ("convergents N --n-max 1000 --format text", 0, "2036accaed4385512c814f404954b2d74659fd0df3180bbb5ae93239e98f97f3"),
    ("convergents N --n-max 1000 --format json", 0, "7138795c751ea68b4515b38aa5c50753588d0a9005fa21a4b6656f827a2f283c"),
    ("convergents N --n-max 1000 --format csv", 0, "9275b807224b82f27e58add75f1dc795718ee3cd415c033c44c7c303bd0d239f"),
    ("convergents APERY --n-max 500 --format text", 0, "c8092eeb4ac2db688724bd6baa879d8626f0b0057a6f56e3fa606a0b6f6cb94d"),
    ("convergents APERY --n-max 500 --format json", 0, "416929bfb0419e9361a6f282bf119c15ccfcb52ea768ceadaa183d4853bb1780"),
    ("convergents APERY --n-max 500 --format csv", 0, "cbec634cef7586896449caa57d02e10ef8c5cc8643db4b39e690e48bd8c1f7ac"),
    ("eval G --depth 1377", 0, "2873b247a6a1f750242c9ba45c3ef2223ac9c37922526118542ec91a1bfd875f"),
    ("eval A5 --depth 1001", 0, "c4e5173283eb8710b081f5bb7bcf78a29f55cc995a2ec27881f80e0b0dbb3737"),
    ("eval Q --depth 0", 0, "3f2a3a4fe26e9c24a3ce4bc7c0256ed6a683e52a4fbb77a58e9aef8e86eeeb70"),
    ("eval Q --depth 1", 0, "4b4cb9f4c1fb89ea586e937d0d124ad434feb169f4b18dd82a051d8c5341dc80"),
    ("eval Q --depth 2", 0, "ee37e83235186459c70efd5eab2719a4142e7918198f8f5a0a3c1b851a1f9a9f"),
    ("eval G16 --depth 400", 0, "19ab2133a89bfe50f5bdce447e1078d210024b7eed1bc6ed6dffcd8db16e9f6b"),
    ("eval N --depth 1059 --digits 794 --format json", 0, "592919928c0e1e43fe7e3515f65d944c1cbd7f55ca58d6e466a21ef9918c896b"),
    ("gutnik --v-max 476 --format json", 0, "aae3f002b678824aa78cff49d08f0428f2c11c855d112595d4d32af5f6aa8ccd"),
    ("gutnik --v-max 300 --format csv", 0, "d9f0432529e1293c922888069b05e03d73ee8458df41071cc0056fc987a455b5"),
    ("gutnik --hook-perturb --v-max 60", 1, "f0511c3fc33e0e7b85b5121e1d49df8692225ba172164fb6aff65be2aa19f0d3"),
    ("gutnik --hook-perturb --v-max 60 --format json", 1, "99b6129a42e4cba220b14a754b5c7e76b78b7ff2b68010fffa5f184e06ad39c7"),
)


def test_stdout_golden_digests():
    for argv, code, digest in STDOUT_GOLDEN:
        got_code, text = run(argv.split())
        assert (got_code, hashlib.sha256(text.encode()).hexdigest()) == (code, digest), argv


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
