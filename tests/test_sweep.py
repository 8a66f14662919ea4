from __future__ import annotations

import os
from pathlib import Path

import zeta3cf

import sweep


def test_sweep_families_and_fuzz_pass(monkeypatch, capsys):
    # Every family's digest is the recorded one, and the seeded fuzz
    # requests exit 0, 1 or 2 with nothing on stderr but usage text.
    src = str(Path(zeta3cf.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert sweep.main([]) == 0, capsys.readouterr().out


def test_fuzz_fault_names_each_broken_outcome():
    assert sweep.fuzz_fault(["ref"], 0, "") is None
    assert sweep.fuzz_fault(["eval"], 2, "usage: zeta3cf ...") is None
    assert sweep.fuzz_fault(["verify-chain", "--hook-break-sigma", "W"], 1, "") is None
    assert sweep.fuzz_fault(["gutnik", "--hook-perturb", "--v-max", "2"], 1, "") is None
    assert sweep.fuzz_fault(["ref"], "raised", "Traceback") == "exit 'raised'"
    assert sweep.fuzz_fault(["gutnik", "--v-max", "2"], 1, "") == "exit 1 from a command that cannot fail"
    assert sweep.fuzz_fault(["ref"], 2, "Traceback (most recent call last)").startswith("stderr ")


def test_fuzz_requests_are_one_seeded_sequence():
    # A larger count extends the same requests, and every command is drawn.
    assert sweep.fuzz_requests(100)[:50] == sweep.fuzz_requests(50)
    assert set(sweep.FUZZ_COMMANDS) <= {argv[0] for argv in sweep.fuzz_requests(400) if argv}
