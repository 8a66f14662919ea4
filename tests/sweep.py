"""Byte sweeps and a seeded argv fuzz of the zeta3cf command line.

Run with the interpreter whose zeta3cf is under test:

    PYTHONPATH=src python tests/sweep.py                     # everything
    PYTHONPATH=src python tests/sweep.py --family ref        # one family
    PYTHONPATH=src python tests/sweep.py --family eval --list
    PYTHONPATH=src python tests/sweep.py --family ref --fuzz 50000

A family is a list of argvs built in code below.  All requests of a run go
to one child process of this interpreter, which calls `zeta3cf.cli.main` on
each in turn and reports its exit code, the sha256 of its stdout and its
stderr.  A family's digest is the sha256 of its request lines,
`argv<TAB>exit<TAB>stdout sha256`, each ending in a newline; it passes when
it equals its `SWEEP_DIGESTS` entry and no request wrote to stderr.

The fuzz requests are the first N of one seeded sequence (2000 by default,
none with --family or --list), so every run makes the same requests.  Each
passes when it exits 0, 1 or 2 with no exception escaping, exits 1 only
from `verify-chain` or `gutnik --hook-perturb`, and writes nothing to
stderr but argparse's usage text.

The runner prints one line per failing family or fuzz request and a count,
and exits 1 if any failed.  `--list` prints the request lines of the chosen
families instead, so the requests that moved can be found by running the
same command at a parent commit and diffing the two outputs.  The stdout
sha256 of a request is the one `tests/golden.py` records for the same argv.
Like that runner, this file imports only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys

FORMATS = ("text", "json", "csv")
EVAL_DEPTHS = (0, 1, 2, 3, 4, 5, 6, 7, 25, 99, 400, 1401)
EVAL_STAGES = (
    "APERY", "A5", "A6", "W", "U", "U4", "P", "Q", "Q12", "Z", "H", "G", "G16", "G17", "N",
)


def _formats(argvs):
    return [f"{argv} --format {fmt}" for argv in argvs for fmt in FORMATS]


# Each family is a tuple of argvs, split on whitespace.
FAMILIES = {
    # Every catalog stage at short and deep truncations (forward convergents
    # and backward evaluation through the product tree), plus four stages
    # at a wider rendering.
    "eval": tuple(
        _formats(f"eval {stage} --depth {depth}" for stage in EVAL_STAGES for depth in EVAL_DEPTHS)
        + _formats(
            f"eval {stage} --depth {depth} --digits 40"
            for stage in ("APERY", "N", "G16", "G17")
            for depth in EVAL_DEPTHS
        )
    ),
    # Both oracles, SERIES and DEEP_CF's projective product, on a ladder.
    "ref": tuple(_formats(f"ref --digits {digits}" for digits in range(100, 1001, 100))),
    # The primitive walk every step (convergents) and between stops (gutnik).
    "convergents": tuple(
        _formats(
            f"convergents {stage} --n-max {n}"
            for stage in ("APERY", "N")
            for n in (0, 1, 2, 3, 7, 50, 200, 450)
        )
    ),
    "gutnik": tuple(
        _formats(f"gutnik --v-max {v}" for v in (1, 2, 3, 5, 10, 40, 100, 200, 300, 476))
        + _formats(f"gutnik --hook-perturb --v-max {v}" for v in (1, 2, 40))
    ),
    # The literal recurrence and the last gap's projective product.
    "rate": tuple(
        _formats(
            f"rate {stage} --n-max {n}" for stage in ("APERY", "N") for n in (10, 25, 100, 300)
        )
        + _formats(("rate APERY --n-max 25 --window 5:25", "rate N --n-max 200 --ref-digits 400"))
    ),
    # The chain's proofs and residuals, whole and with each step broken.
    "chain": tuple(
        _formats(
            ["verify-chain", "catalog"]
            + [f"verify-chain --hook-break-sigma {step}"
               for step in ("A5", "W", "U", "P", "Q", "Z", "H", "G", "N")]
        )
    ),
}

# sha256 of each family's request lines, recorded before backward evaluation
# shed content in alternate rounds of the product tree.
SWEEP_DIGESTS = {
    "eval": "734e31be5f2b124227b31cf18eb7f2f03dc965f1fb1c1da44ee95cdeb1f81e55",
    "ref": "5944580aca5c8284f097e4d5ec912cc98add27f4c4368efa428846653eb098e8",
    "convergents": "cdf2de652addd5382feb36a982d85cee27e9cca0fd1f5ce7f93be54832373098",
    "gutnik": "1aac646d8313b8f72ab351a032863d76fee22df35a531c458924ef743def3dcd",
    "rate": "3994fcf6df35ba7f5c4969476481cc7b6f1db442d94533f558d24044b9796608",
    "chain": "90a64c52504063732dfa00a5d89e5a37e302393b65c9d38a1a8dd5bfa255c53e",
}

# The seeded argv fuzzer: every command and an unknown one, each with its
# own flags and now and then another command's, sizes at and around each
# floor and cap (an in-range size stays small), and malformed values.
FUZZ_REQUESTS = 2000
FUZZ_STAGES = (*EVAL_STAGES, "G.derived", "nope", "")
FUZZ_VALUES = {
    "--depth": (-1, 0, 1, 2, 7, 99, 400, 10_001, "x", "1.5"),
    "--digits": (-1, 0, 1, 5, 40, 300, 1000, 1001, 10_001, "abc"),
    "--n-max": (-1, 0, 1, 2, 50, 300, 2001, "z"),
    "--v-max": (-1, 0, 1, 2, 40, 100, 1001, ""),
    "--ref-digits": (-1, 0, 1, 30, 200, 1001, "q"),
    "--window": ("5:25", "0:0", "3:2", "-1:5", "a:b", "5", "0:10", "10:60"),
    "--format": ("text", "json", "csv", "xml"),
    "--hook-break-sigma": ("A5", "W", "U", "P", "Q", "Z", "H", "G", "N", "APERY", "X"),
    "--hook-perturb": (None,),
}
FUZZ_COMMANDS = {
    "eval": ("--depth",),
    "convergents": ("--n-max",),
    "verify-chain": ("--hook-break-sigma",),
    "rate": ("--n-max", "--window", "--ref-digits"),
    "gutnik": ("--v-max", "--hook-perturb"),
    "catalog": (),
    "ref": (),
    "bogus": (),
}


def fuzz_requests(count: int) -> list[list[str]]:
    """The first `count` requests of the fuzzer's one seeded sequence."""
    rng = random.Random(0)
    requests = []
    for _ in range(count):
        command = rng.choice(list(FUZZ_COMMANDS))
        own = {*FUZZ_COMMANDS[command], "--format", "--digits"}
        argv = [command] if rng.random() > 0.02 else []
        if command in ("eval", "convergents", "rate") and rng.random() > 0.05:
            argv.append(rng.choice(FUZZ_STAGES))
        for flag, values in FUZZ_VALUES.items():
            if rng.random() < (0.5 if flag in own else 0.02):
                value = rng.choice(values)
                argv += [flag] if value is None else [flag, str(value)]
        requests.append(argv)
    return requests


def fuzz_fault(argv: list[str], code, err: str) -> str | None:
    """What is wrong with a fuzz request's outcome, or None."""
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 1 and not (argv[:1] == ["verify-chain"] or argv[:1] == ["gutnik"] and "--hook-perturb" in argv):
        return "exit 1 from a command that cannot fail"
    if err and not err.startswith("usage: "):
        return f"stderr {err[:80]!r}"
    return None


CHILD = """
import hashlib, io, json, sys, traceback
from zeta3cf import cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(json.loads(line))
    except Exception:
        code = 'raised'
        err.write(traceback.format_exc())
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(json.dumps([code, digest, err.getvalue()]), flush=True)
"""


def run_requests(argvs) -> list[tuple]:
    """(exit code, stdout sha256, stderr text) of each argv, a list of
    strings, in order, from one child process of this interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", CHILD], input="".join(json.dumps(argv) + "\n" for argv in argvs),
        capture_output=True, text=True,
    )
    results = [tuple(json.loads(line)) for line in run.stdout.splitlines()]
    if len(results) != len(argvs):
        raise RuntimeError(f"child answered {len(results)} of {len(argvs)} requests: {run.stderr[-2000:]}")
    return results


def request_lines(argvs, results) -> list[str]:
    return [f"{argv}\t{code}\t{digest}\n" for argv, (code, digest, _) in zip(argvs, results)]


def family_digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", action="append", choices=FAMILIES, help="run only this family")
    parser.add_argument("--list", action="store_true", help="print each request's line")
    parser.add_argument("--fuzz", type=int, metavar="N",
                        help=f"fuzz requests (default: {FUZZ_REQUESTS}, none with --family or --list)")
    args = parser.parse_args(argv)
    names = args.family or list(FAMILIES)
    fuzz = args.fuzz if args.fuzz is not None else 0 if args.family or args.list else FUZZ_REQUESTS
    argvs = [request for name in names for request in FAMILIES[name]]
    fuzzed = fuzz_requests(fuzz)
    results = iter(run_requests([argv.split() for argv in argvs] + fuzzed))
    failed = 0
    for name in names:
        family = FAMILIES[name]
        mine = [next(results) for _ in family]
        lines = request_lines(family, mine)
        if args.list:
            print("".join(lines), end="")
            continue
        noisy = [argv for argv, (_, _, err) in zip(family, mine) if err]
        got, want = family_digest(lines), SWEEP_DIGESTS.get(name)
        if got != want or noisy:
            failed += 1
            print(f"{name}: sha256 {got}, want {want}; {len(noisy)} requests wrote to stderr"
                  + (f", first {noisy[0]!r}" if noisy else ""))
    codes = {}
    for request, (code, _, err) in zip(fuzzed, results):
        codes[code] = codes.get(code, 0) + 1
        if fault := fuzz_fault(request, code, err):
            failed += 1
            print(f"fuzz {' '.join(request)!r}: {fault}")
    if not args.list:
        print(f"{len(names)} sweep families run ({len(argvs)} requests),"
              f" {fuzz} fuzz requests (exit codes {dict(sorted(codes.items(), key=str))}),"
              f" {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
