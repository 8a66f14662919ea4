"""Runtime tracing of zeta3cf's layers, for the per-layer metrics.

`Tracer.install` wraps public functions and methods of the package in
spans.  A module-level function is replaced in every zeta3cf module that
bound it (verify binds `convergents` from engine, mobius binds `poly_gcd`,
cli binds `to_decimal`, ...), and a method under every class attribute
that aliases it (`__rmul__`, `__matmul__`).  Each span records its name,
start, end, parent span and request id; spans stay in memory (up to
SPAN_CAP) and are written out when the run ends.  Self time and counts are
aggregated as spans close, so they cover every traced request even past
the cap.  `uninstall` restores every original object.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 100_000


def _reference_span(args, kwargs) -> str:
    oracle = args[1] if len(args) > 1 else kwargs.get("oracle", "SERIES")
    return "engine.reference.deep_cf" if oracle == "DEEP_CF" else "engine.reference.series"


# (module, attribute, span name or naming function, unit-counting argument)
TARGETS = (
    ("polynomial", "Poly.__mul__", "polynomial.mul", None),
    ("polynomial", "Poly.divmod", "polynomial.divmod", None),
    ("polynomial", "poly_gcd", "polynomial.gcd", None),
    ("polynomial", "Poly.shift", "polynomial.shift", None),
    ("polynomial", "Poly.__call__", "polynomial.eval", None),
    ("mobius", "PolyMobius.__post_init__", "mobius.new", None),
    ("mobius", "PolyMobius.compose", "mobius.compose", None),
    ("mobius", "PolyMobius.proj_eq", "mobius.proj_eq", None),
    ("mobius", "PolyMobius.apply", "mobius.apply", None),
    ("stages", "FlatCF.a_term", "stages.term", None),
    ("stages", "FlatCF.b_term", "stages.term", None),
    ("stages", "flatten", "stages.flatten", None),
    ("stages", "catalog", "stages.catalog", None),
    ("engine", "convergents", "engine.convergents", (1, "n_max")),
    ("engine", "truncation_value", "engine.truncation", (1, "depth")),
    ("engine", "zeta3_reference", _reference_span, (0, "digits")),
    ("engine", "error_curve", "engine.error_curve", None),
    ("verify", "verify_chain", "verify.verify_chain", None),
    ("verify", "derive_stage", "verify.derive_stage", None),
    ("verify", "derived_chain", "verify.derived_chain", None),
    ("verify", "gutnik_alignment", "verify.gutnik", None),
    ("rational", "to_decimal", "rational.to_decimal", (1, "digits")),
    ("rational", "sci_string", "rational.sci_string", None),
    ("rational", "log10_fraction", "rational.log10", None),
    ("cli", "main", "cli", None),
)


class Tracer:
    def __init__(self) -> None:
        self.request_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh aggregate: name -> [calls, self seconds, units]."""
        self.agg: dict[str, list] = {}
        self.pairs: dict[tuple[str | None, str], int] = {}
        self._stack: list[list] = []
        self._next_id = 0

    def add_units(self, name: str, units: int) -> None:
        self.agg.setdefault(name, [0, 0.0, 0])[2] += units

    def install(self) -> None:
        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "zeta3cf" or name.startswith("zeta3cf.")
        }
        for module, attr, name, unit_arg in TARGETS:
            mod = package[f"zeta3cf.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                wrapper = self._wrap(original, name, unit_arg)
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(original, name, unit_arg)
                for other in package.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name, unit_arg):
        tracer = self
        clock = time.perf_counter
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [span, tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg = tracer.agg.get(span)
                if agg is None:
                    agg = tracer.agg[span] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur - frame[2]
                if unit_arg is not None:
                    i, kw = unit_arg
                    agg[2] += args[i] if len(args) > i else kwargs[kw]
                if parent is not None:
                    parent[2] += dur
                pkey = (parent[0] if parent else None, span)
                tracer.pairs[pkey] = tracer.pairs.get(pkey, 0) + 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[1], parent[1] if parent else -1, span, t0, t1, tracer.request_id)
                    )
                else:
                    tracer.dropped += 1

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# span_id parent_id name start end request_id\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics: (name, unit, span, field) with field one of calls,
# self_s or units; span None marks a metric derived below.
PER_LAYER = (
    ("polynomial.mul.calls", "count", "polynomial.mul", "calls"),
    ("polynomial.mul.self_s", "s", "polynomial.mul", "self_s"),
    ("polynomial.divmod.calls", "count", "polynomial.divmod", "calls"),
    ("polynomial.divmod.self_s", "s", "polynomial.divmod", "self_s"),
    ("polynomial.gcd.calls", "count", "polynomial.gcd", "calls"),
    ("polynomial.gcd.self_s", "s", "polynomial.gcd", "self_s"),
    ("polynomial.shift.calls", "count", "polynomial.shift", "calls"),
    ("polynomial.shift.self_s", "s", "polynomial.shift", "self_s"),
    ("polynomial.eval.calls", "count", "polynomial.eval", "calls"),
    ("polynomial.eval.self_s", "s", "polynomial.eval", "self_s"),
    ("mobius.new.calls", "count", "mobius.new", "calls"),
    ("mobius.new.self_s", "s", "mobius.new", "self_s"),
    ("mobius.compose.calls", "count", "mobius.compose", "calls"),
    ("mobius.compose.self_s", "s", "mobius.compose", "self_s"),
    ("mobius.proj_eq.calls", "count", "mobius.proj_eq", "calls"),
    ("mobius.proj_eq.self_s", "s", "mobius.proj_eq", "self_s"),
    ("mobius.apply.calls", "count", "mobius.apply", "calls"),
    ("mobius.apply.self_s", "s", "mobius.apply", "self_s"),
    ("stages.term.calls", "count", "stages.term", "calls"),
    ("stages.term.self_s", "s", "stages.term", "self_s"),
    ("stages.flatten.calls", "count", "stages.flatten", "calls"),
    ("stages.catalog.self_s", "s", None, None),
    ("engine.convergents.calls", "count", "engine.convergents", "calls"),
    ("engine.convergents.terms", "count", "engine.convergents", "units"),
    ("engine.convergents.self_s", "s", "engine.convergents", "self_s"),
    ("engine.truncation.calls", "count", "engine.truncation", "calls"),
    ("engine.truncation.depth", "count", "engine.truncation", "units"),
    ("engine.truncation.self_s", "s", "engine.truncation", "self_s"),
    ("engine.reference.series.self_s", "s", "engine.reference.series", "self_s"),
    ("engine.reference.series.digits", "count", "engine.reference.series", "units"),
    ("engine.reference.deep_cf.self_s", "s", "engine.reference.deep_cf", "self_s"),
    ("engine.reference.deep_cf.escalations", "count", None, None),
    ("engine.error_curve.self_s", "s", "engine.error_curve", "self_s"),
    ("engine.error_curve.ref_extensions", "count", None, None),
    ("verify.verify_chain.self_s", "s", "verify.verify_chain", "self_s"),
    ("verify.derive_stage.calls", "count", "verify.derive_stage", "calls"),
    ("verify.derive_stage.self_s", "s", "verify.derive_stage", "self_s"),
    ("verify.derived_chain.calls", "count", "verify.derived_chain", "calls"),
    ("verify.gutnik.self_s", "s", "verify.gutnik", "self_s"),
    ("rational.to_decimal.calls", "count", "rational.to_decimal", "calls"),
    ("rational.to_decimal.digits", "count", "rational.to_decimal", "units"),
    ("rational.to_decimal.self_s", "s", "rational.to_decimal", "self_s"),
    ("rational.sci_string.self_s", "s", "rational.sci_string", "self_s"),
    ("rational.log10.calls", "count", "rational.log10", "calls"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("cli.out_bytes", "bytes", "cli", "units"),
    ("trace.overhead_ratio", "ratio", None, None),
)


def layer_metrics(tracer: Tracer, passes: int, scale: float, setup: dict,
                  overhead_ratio: float) -> dict[str, dict]:
    """Per-pass per-layer metrics; times scaled to the reference host."""
    agg, pairs = tracer.agg, tracer.pairs

    def field(span: str, what: str) -> float:
        calls, self_s, units = agg.get(span, (0, 0.0, 0))
        if what == "calls":
            return calls / passes
        if what == "units":
            return units / passes
        return self_s * scale / passes

    derived = {
        "stages.catalog.self_s": setup.get("stages.catalog", (0, 0.0, 0))[1] * scale,
        "engine.reference.deep_cf.escalations": (
            pairs.get(("engine.reference.deep_cf", "engine.convergents"), 0)
            - agg.get("engine.reference.deep_cf", (0,))[0]
        ) / passes,
        "engine.error_curve.ref_extensions": sum(
            n for (parent, span), n in pairs.items()
            if parent == "engine.error_curve" and span.startswith("engine.reference.")
        ) / passes,
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, unit, span, what in PER_LAYER:
        value = derived[name] if span is None else field(span, what)
        out[name] = {"value": value, "unit": unit}
    return out
