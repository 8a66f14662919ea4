"""zeta3cf benchmark: four CLI request workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

For each workload, set-up time is measured first: fresh interpreters that
import zeta3cf and build the stage catalog, as every CLI call does.  Then
one fresh child process (child.py) replays the workload's seeded request
sequence as a closed loop with one client and checks every output against
independent ground truth (checks.py).  Workloads run one after another,
never in parallel.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run.  Every metric is printed by name with its unit and
sample count; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A fuller record (raw and
host-normalized times, stdout sha256, edge-request outcomes, git rev,
Python version, nproc, seed) goes to perfbench/out/.

Times are normalized to a reference host speed; see calib.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
RUN_LIMIT_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
)


def git_rev() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Pin glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
    # rises after the first large free, and whether a later multi-megabyte
    # buffer lands in the heap then depends on sizes to the byte: peak RSS
    # flipped between 36 and 42 MiB for requests 0.5% apart.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Cold set-ups (import + catalog) in fresh interpreters: normalized and raw."""
    cmd = [sys.executable, str(BENCH / "coldstart.py")]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True)  # writes bytecode caches
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True, text=True)
        elapsed, speed = map(float, proc.stdout.split())
        raw.append(elapsed)
        norm.append(elapsed * speed)
    return norm, raw


def run_workload(name: str, args, env: dict[str, str], deadline: float) -> dict:
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_rev": git_rev(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "scale": args.scale,
    }
    if not args.trace:
        norm, record["raw_setup_s"] = measure_setup(env)
        record["setup_s"] = statistics.median(norm)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {name}: child exited {proc.returncode}")
    record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return record


def report(record: dict) -> dict[str, dict]:
    """Print the metrics with units and sample counts; return the metrics."""
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  rev={record['git_rev']}  "
          f"python={record['python']}  nproc={record['nproc']}")
    print(f"   stdout sha256 {record['stdout_sha256']}  stable across passes: "
          f"{record['stdout_stable']}")
    edges = ", ".join(f"{' '.join(e['argv'][:2])}={e['outcome']}" for e in record["edges"])
    print(f"   failed_share {record['failed_share']:.4f} of {record['distinct_requests']} "
          f"distinct requests; edge requests: {edges}")
    for reason in record["failures"]:
        print(f"   FAILED {reason}")
    if record["trace"]:
        metrics = record["per_layer"]
        print(f"   per layer, per pass, over {record['traced_passes']} traced passes "
              f"({record['spans_kept']} spans kept, {record['spans_dropped']} dropped):")
        for key, m in metrics.items():
            print(f"   {key:40s} {m['value']:14.6g} {m['unit']}")
        return metrics
    each = (f"{record['requests_per_pass']} requests, each the median of its "
            f"{record['passes']} passes ({record['samples']} timed runs)")
    counts = {
        "setup_s": f"median of {len(record['raw_setup_s'])} cold set-ups",
        "wall_s": f"sum over {each}",
        "req_p50_ms": f"median of {each}",
        "req_p90_ms": f"p90 of {each}",
        "peak_rss_mb": "1 child process",
        "ok_share": f"{record['distinct_requests']} distinct requests",
    }
    metrics = {}
    for key, unit in END_TO_END:
        metrics[key] = {"value": record[key], "unit": unit}
        print(f"   {key:12s} {record[key]:12.6g} {unit:5s} (n = {counts[key]})")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink sizes and counts (self-test only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "zeta3cf" / "__init__.py").is_file():
        print(f"no zeta3cf package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    OUT.mkdir(exist_ok=True)
    env = child_env()
    results, records = {}, []
    for name in names:
        record = run_workload(name, args, env, deadline)
        records.append(record)
        out_file = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=1) + "\n")
        for key, m in report(record).items():
            results[key if len(names) == 1 else f"{name}.{key}"] = m
    summary = {
        "correct": all(r["failed"] == 0 and r["stdout_stable"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": results,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
