"""One workload run in a fresh interpreter; started by run.py.

The child imports zeta3cf, builds the stage catalog, then replays the
workload's request sequence as a closed loop (one client, one thread, each
request sent when the previous one returned), pass after pass, until the
time budget is spent and at least MIN_SAMPLES requests were timed.  Each
request is a real argv handed to `zeta3cf.cli.main(argv, out=buffer)`;
only that call is timed, and each request is reported at the median of
its passes.  Its output is then hashed and checked by checks.py, outside the
timing.  In untraced runs the first pass is only hashed: peak RSS is read
after it, before the checker allocates anything, and its outputs must
match those of the checked passes byte for byte.  Afterwards the
known-defect edge requests run once.  The child prints one JSON object on
stdout.

With --trace 1 the budget is split: the first half runs untraced, the
second half with trace.Tracer installed; the per-layer metrics come from
the traced passes and trace.overhead_ratio compares the two halves.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import checks
import trace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SAMPLES = 100  # timed runs, so the requests beyond p90 have at least 10
HARD_LIMIT_S = 120.0  # stop starting passes after this, whatever else holds
MAX_REASONS = 5


@dataclass
class Timings:
    """Latencies of every timed run of each request, over passes."""

    latency: dict[tuple, list[float]] = field(default_factory=dict)  # reference-host s
    raw: dict[tuple, list[float]] = field(default_factory=dict)  # wall-clock s
    passes: int = 0
    samples: int = 0

    def add(self, argv, latency: float, raw: float) -> None:
        self.latency.setdefault(tuple(argv), []).append(latency)
        self.raw.setdefault(tuple(argv), []).append(raw)
        self.samples += 1

    def per_request(self, seq, raw: bool = False) -> list[float]:
        """The median of its runs (one per pass) for each request of the pass.

        Percentiles pooled over all runs would fall on the boundary between
        two request types of the fixed sequence and jump with noise; the
        median of a request's own runs is robust to host hiccups either way.
        """
        runs = self.raw if raw else self.latency
        return [statistics.median(runs[tuple(argv)]) for argv in seq]


class Runner:
    def __init__(self, cli, checker: checks.Checker, weights: dict[str, float]) -> None:
        self.cli = cli
        self.checker = checker
        self.weights = weights
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.bad: set[tuple[str, ...]] = set()  # distinct requests that failed
        self.outputs: dict[tuple[str, ...], bytes] = {}  # request -> output sha256
        self.stable = True
        self.unchecked: list[tuple] = []
        self.stdout = hashlib.sha256()  # first pass + edge requests
        self.first_pass = True

    def execute(self, argv: list[str]):
        buf = io.StringIO()
        code = exc = None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv, out=buf)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
        except Exception as err:  # an escaping error fails the request, not the run
            exc = err
        elapsed = time.perf_counter() - t0
        return code, exc, buf.getvalue(), elapsed

    def _fail(self, argv, reason: str) -> None:
        self.failed += 1
        self.bad.add(tuple(argv))
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{' '.join(argv)}: {reason}")

    def run_passes(self, timings: Timings, seq, budget: float, min_passes: int,
                   tracer=None, check: bool = True) -> None:
        """Timed passes over `seq` until `budget` seconds and `min_passes` passed.

        With check=False outputs are only hashed; `resolve_unchecked` later
        matches them against checked runs of the same requests.
        """
        passes = 0
        start = time.perf_counter()
        speed = calib.speed(self.weights)
        while True:
            pass_start = time.perf_counter()
            for argv in seq:
                if tracer is not None:
                    tracer.request_id += 1
                code, exc, out, elapsed = self.execute(argv)
                speed_after = calib.speed(self.weights)
                timings.add(argv, elapsed * (speed + speed_after) / 2, elapsed)
                speed = speed_after
                request = hashlib.sha256()
                size = _hash_into(out, [request] + ([self.stdout] if self.first_pass else []))
                key = tuple(argv)
                if self.outputs.setdefault(key, request.digest()) != request.digest():
                    self.stable = False
                if tracer is not None:
                    tracer.add_units("cli", size)
                self.attempted += 1
                if check:
                    bad = self.checker.check(argv, code, exc, out, request.digest())
                    if bad:
                        self._fail(argv, bad)
                else:
                    self.unchecked.append((argv, code, exc, request.digest()))
                del out
            self.first_pass = False
            passes += 1
            timings.passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > HARD_LIMIT_S:
                break
            if passes >= min_passes and now - start + (now - pass_start) > budget:
                break

    def resolve_unchecked(self) -> None:
        """A run passes if a checked run gave the same exit and output."""
        for argv, code, exc, digest in self.unchecked:
            verdict = self.checker.known(argv, code, exc, digest)
            if verdict is not None:
                self._fail(argv, verdict)
        self.unchecked.clear()

    def run_edges(self) -> list[dict]:
        """Run the known-defect requests once; classify each outcome."""
        outcomes = []
        for argv in workloads.EDGE_REQUESTS:
            code, exc, out, _ = self.execute(argv)
            request = hashlib.sha256()
            _hash_into(out, (request, self.stdout))
            self.attempted += 1
            if exc is not None:
                # The reproduced defects raise ValueError at the int->str limit.
                outcome = "defect" if isinstance(exc, ValueError) else "wrong"
            elif code == 2:
                outcome = "defect"
            elif code == 0 and self.checker.check(argv, code, None, out, request.digest()) is None:
                outcome = "ok"
            else:
                outcome = "wrong"
            if outcome == "wrong":
                self._fail(argv, f"edge request: exit {code}, {type(exc).__name__ if exc else 'no exception'}")
            outcomes.append({
                "argv": argv,
                "outcome": outcome,
                "exit": code,
                "exception": f"{type(exc).__name__}: {str(exc)[:100]}" if exc else None,
            })
        return outcomes


def _hash_into(out: str, hashers) -> int:
    """Feed the UTF-8 bytes of `out` to every hasher, 1 MiB at a time; return the size."""
    size = 0
    for start in range(0, len(out), 1 << 20):
        chunk = out[start : start + (1 << 20)].encode()
        size += len(chunk)
        for h in hashers:
            h.update(chunk)
    return size


def _decile(values: list[float], q: int) -> float:
    """The q-th decile (exclusive method), as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import zeta3cf.cli as cli
    from zeta3cf import stages

    tracer = trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    stages.catalog()
    if tracer:
        tracer.uninstall()
        setup_agg = dict(tracer.agg)
        tracer.reset()

    ordered, seq = workloads.sequence(args.workload, args.seed, args.scale)
    runner = Runner(cli, checks.Checker(), workloads.CALIBRATION[args.workload])
    result = {"workload": args.workload, "seed": args.seed, "requests_per_pass": len(seq)}
    # The first pass runs in generation order, so that neither the peak RSS
    # nor the stdout digest depends on the shuffle.  Untraced, it also runs
    # unchecked, so that the peak is the program's own and not the
    # checker's parsing of large outputs.
    t0 = time.perf_counter()
    timings = Timings()
    runner.run_passes(timings, ordered, 0, 1, check=tracer is not None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    budget = args.seconds if tracer is None else args.seconds / 2
    min_passes = math.ceil(MIN_SAMPLES / len(seq)) - 1 if tracer is None else 1
    runner.run_passes(timings, seq, budget - (time.perf_counter() - t0), max(1, min_passes))
    runner.resolve_unchecked()
    if tracer is not None:
        traced = Timings()
        tracer.install()
        runner.run_passes(traced, seq, args.seconds / 2, 1, tracer)
        tracer.uninstall()
        scale = statistics.median(
            lat / raw for key in traced.raw
            for lat, raw in zip(traced.latency[key], traced.raw[key]) if raw > 0
        )
        overhead = sum(traced.per_request(seq)) / sum(timings.per_request(seq))
        result["per_layer"] = trace.layer_metrics(tracer, traced.passes, scale, setup_agg, overhead)
        result["traced_passes"] = traced.passes
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        tracer.write_spans(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    edges = runner.run_edges()

    # failed_share counts distinct requests, not attempted runs: how many
    # passes fit in the budget depends on host speed, and a denominator of
    # runs would make the share move with it.
    distinct = {tuple(argv) for argv in seq}
    n_distinct = len(distinct) + len(edges)
    n_bad = len(runner.bad & distinct) + sum(e["outcome"] != "ok" for e in edges)
    typical, raw = timings.per_request(seq), timings.per_request(seq, raw=True)
    result.update({
        "passes": timings.passes,
        "samples": timings.samples,
        "wall_s": sum(typical),
        "req_p50_ms": statistics.median(typical) * 1000,
        "req_p90_ms": _decile(typical, 9) * 1000,
        "raw_wall_s": sum(raw),
        "raw_req_p50_ms": statistics.median(raw) * 1000,
        "latency_s": {" ".join(k): v for k, v in timings.latency.items()},
        "ok_share": (n_distinct - n_bad) / n_distinct,
        "failed_share": n_bad / n_distinct,
        "distinct_requests": n_distinct,
        "stdout_sha256": runner.stdout.hexdigest(),
        "stdout_stable": runner.stable,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.reasons,
        "edges": edges,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
