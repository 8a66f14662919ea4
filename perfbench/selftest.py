"""Smoke self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

1. The independent checks accept real output of every command in every
   format, and reject a copy with one value corrupted.
2. Every workload runs end to end at tiny sizes, untraced and traced, is
   correct, and reports exactly the metrics BENCHMARK.json names.
3. Without the zeta3cf package next to it, the benchmark exits non-zero
   and prints no result.

Exits non-zero at the first failure.  Takes about a minute.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (argv, text in the real output, replacement that makes it wrong)
MUTATIONS = (
    ("verify-chain --format json", '"passed": true', '"passed": false'),
    ("verify-chain --hook-break-sigma U --format csv", "d;head,", "d,"),
    ("verify-chain --hook-break-sigma G", "passed: false", "passed: true"),
    ("verify-chain --format json", '"claimed": "MISMATCH"', '"claimed": "match"'),
    ("verify-chain --format csv", "variant:Q12,-,MISMATCH,step.a;step.c,", "variant:Q12,-,match,-,"),
    ("verify-chain --hook-break-sigma Z --format csv", "variant:Q12,-,MISMATCH,step.a;step.c,",
     "variant:Q12,-,MISMATCH,step.a;step.b;step.c;step.d,"),
    ("catalog --format csv", ",MISMATCH,", ",match,"),
    ("catalog", "34k^3+51k^2", "35k^3+51k^2"),
    ("catalog --format csv", "N.derived,derived,TWO_ZETA3,[[2, 1]", "N.derived,derived,TWO_ZETA3,[[2, 2]"),
    ("catalog --format json", '"stages": 24', '"stages": 23'),
    ("ref --digits 120 --format csv", ",true,", ",false,"),
    ("ref --digits 120", "zeta3: 1.2020569", "zeta3: 1.2020568"),
    ("ref --digits 120 --format json", '"two_zeta3": "2.4', '"two_zeta3": "2.5'),
    ("eval N --depth 40 --digits 30 --format json", '"abs_error": "', '"abs_error": "9'),
    ("eval APERY --depth 12 --digits 36 --format csv", ",false,", ",true,"),
    ("eval Q --depth 50", "fraction: 1", "fraction: 2"),
    ("rate N --n-max 60 --ref-digits 80 --format csv", "point,30,", "point,30,1"),
    ("rate APERY --n-max 20 --ref-digits 90", "slope: 3.0", "slope: 3.1"),
    ("convergents N --n-max 30 --format json", '"p": 2,', '"p": 3,'),
    ("convergents APERY --n-max 20", "\n20 ", "\n21 "),
    ("gutnik --v-max 12 --format csv", "12,46,12,true", "12,46,12,false"),
    ("gutnik --v-max 12", "288", "289"),
)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from zeta3cf import cli

    checker = checks.Checker()

    def verdict(argv, code, out):
        return checker.check(argv, code, None, out, hashlib.sha256(out.encode()).digest())

    for request, old, new in MUTATIONS:
        for fmt in ("text", "json", "csv"):
            argv = request.split()
            if "--format" in argv:
                argv = argv[: argv.index("--format")]
            argv += ["--format", fmt]
            buf = io.StringIO()
            code = cli.main(argv, out=buf)
            bad = verdict(argv, code, buf.getvalue())
            if bad:
                fail(f"{' '.join(argv)} rejected: {bad}")
        buf = io.StringIO()
        code = cli.main(request.split(), out=buf)
        out = buf.getvalue()
        if old not in out:
            fail(f"{request}: mutation target {old!r} not in output")
        if verdict(request.split(), code, out.replace(old, new, 1)) is None:
            fail(f"{request}: corrupted output accepted ({old!r} -> {new!r})")
    print(f"ok: checks accept {len(MUTATIONS) * 3} real outputs, reject {len(MUTATIONS)} corrupted")


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                fail(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace {trace}: {proc.stdout[-2000:]}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                fail(f"{name} trace {trace}: metrics differ from BENCHMARK.json {kind}")
            print(f"ok: {name} trace {trace}: {result['attempted']} requests, correct")


def check_bare_directory() -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "chain-proof", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    print("ok: without the package the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    check_checks()
    check_bare_directory()
    check_runs()
    print("selftest passed")
