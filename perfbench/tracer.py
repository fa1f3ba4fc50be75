"""Span tracing of the qfa layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that opens a span for the duration of the call.  The wrapper is put
into every ``qfa`` module that holds a reference to the original function, so
calls through ``from .linalg import apply`` and ``linalg.apply`` are both seen.
Spans aggregate on the fly into calls, busy time and self time (busy time
minus the time of child spans); the raw spans of one task are kept for the
trace file.  Nothing in ``qfa`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "constructions", "semantics", "linalg", "automata", "analysis", "serialize")

# The CLI layer is entered through main(); its command handlers are the layer's
# own work, so wrapping only main() makes cli.main.self_ms all CLI time.
CLI_ENTRY = ("main",)

# Coercions and accessors whose body is cheaper than a span.  Wrapping them
# would add spans inside every structured apply and distort its self time.
UNWRAPPED = {
    "linalg": {"as_matrix", "as_state_vector", "operator_dim", "norm_squared"},
}

APPLY_TYPES = ("ndarray", "TensorPowerOp", "BlockDiagOp", "PermutationOp",
               "PlaneRotationOp", "ComposedOp", "IdentityOp")


class Tracer:
    """In-memory span aggregator; one per process."""

    def __init__(self, span_cap: int = 20000):
        self.stats = {}        # span name -> [calls, busy_s, self_s]
        self.counters = {}     # counter name -> total
        self.stack = []        # open spans: [name, start, child_s, span_id]
        self.depth = {}        # span name -> open count (busy time counts the outermost only)
        self.enabled = True
        self.recording = False
        self.spans = []        # [id, parent id, task, name, start_s, end_s]
        self.span_cap = span_cap
        self.dropped = 0
        self.task = None
        self._next_id = 0
        self._originals = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self._next_id += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def leave(self):
        end = time.perf_counter()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        depth = self.depth[name] - 1
        self.depth[name] = depth
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        if depth == 0:
            entry[1] += dur
        entry[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if self.recording:
            if len(self.spans) < self.span_cap:
                parent = self.stack[-1][3] if self.stack else None
                self.spans.append([span_id, parent, self.task, name, start, end])
            else:
                self.dropped += 1

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def paused(self):
        return _Paused(self)

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qfa" or name.startswith("qfa.")]
        for layer in LAYERS:
            module = sys.modules[f"qfa.{layer}"]
            for fname, fn in vars(module).copy().items():
                if not _is_public_function(module, fname, fn):
                    continue
                if layer == "cli" and fname not in CLI_ENTRY:
                    continue
                if fname in UNWRAPPED.get(layer, ()):
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for holder in modules:
                    for attr, value in vars(holder).copy().items():
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._originals.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._originals):
            setattr(holder, attr, fn)
        self._originals.clear()

    def _wrap(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        extra = _EXTRAS.get(name)
        tracer = self

        if name == "linalg.apply":
            names = {}

            @functools.wraps(fn)
            def apply_wrapper(m, v):
                if not tracer.enabled:
                    return fn(m, v)
                kind = type(m)
                span = names.get(kind)
                if span is None:
                    span = names[kind] = f"linalg.apply.{kind.__name__}"
                tracer.enter(span)
                try:
                    return fn(m, v)
                finally:
                    tracer.leave()

            return apply_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        return wrapper


class _Paused:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.before = self.tracer.enabled
        self.tracer.enabled = False

    def __exit__(self, *exc):
        self.tracer.enabled = self.before
        return False


def _is_public_function(module, fname, fn):
    return (not fname.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _symbols(scans_of):
    def extra(tracer, args, kwargs, result):
        word = _arg(args, kwargs, 1, "word")
        tracer.count("semantics.symbols_applied", scans_of(args, kwargs) * (len(word) + 2))
    return extra


def _file_bytes(index, key, name):
    def extra(tracer, args, kwargs, result):
        tracer.count(name, os.path.getsize(_arg(args, kwargs, index, key)))
    return extra


# Counts taken at the boundary from a call's arguments or result.
_EXTRAS = {
    "semantics.run_measure_many": _symbols(lambda a, k: 1),
    "semantics.run_measure_once": _symbols(lambda a, k: 1),
    "semantics.run_multiscan": _symbols(lambda a, k: _arg(a, k, 2, "max_scans")),
    "analysis.transition_monoid":
        lambda t, a, k, r: t.count("analysis.transition_monoid.elements", len(r)),
    "analysis.reversibilize":
        lambda t, a, k, r: t.count("analysis.reversibilize.states_out", r.n_states),
    "serialize.save": _file_bytes(1, "path", "serialize.save.bytes"),
    "serialize.load": _file_bytes(0, "path", "serialize.load.bytes"),
}


# Per-layer metrics reported by a traced run, in BENCHMARK.json order:
# (metric name, unit, how it is read from the aggregates).
def _layer_metrics():
    out = [("linalg.apply.calls", "count", ("apply_calls",))]
    for t in APPLY_TYPES:
        out.append((f"linalg.apply.{t}.calls", "count", ("calls", f"linalg.apply.{t}")))
        out.append((f"linalg.apply.{t}.self_ms", "ms", ("self", f"linalg.apply.{t}")))
    out += [
        ("linalg.complete_unitary.ms", "ms", ("busy", "linalg.complete_unitary")),
        ("linalg.unitarity_defect.ms", "ms", ("busy", "linalg.unitarity_defect")),
        ("semantics.run_measure_many.calls", "count", ("calls", "semantics.run_measure_many")),
        ("semantics.run_measure_many.ms", "ms", ("busy", "semantics.run_measure_many")),
        ("semantics.run_measure_many.self_ms", "ms", ("self", "semantics.run_measure_many")),
        ("semantics.symbols_applied", "count", ("counter", "semantics.symbols_applied")),
        ("semantics.run_measure_once.ms", "ms", ("busy", "semantics.run_measure_once")),
        ("semantics.run_multiscan.ms", "ms", ("busy", "semantics.run_multiscan")),
        ("semantics.run_prfa.ms", "ms", ("busy", "semantics.run_prfa")),
    ]
    for f in ("equality_qfa", "modp_qfa_amplified", "modp_qfa", "random_prfa", "block_dfa"):
        out.append((f"constructions.{f}.ms", "ms", ("busy", f"constructions.{f}")))
    for f in ("prfa_to_qfa", "validate", "validate_classical", "is_reversible"):
        out.append((f"automata.{f}.ms", "ms", ("busy", f"automata.{f}")))
    out += [
        ("analysis.minimize_dfa.ms", "ms", ("busy", "analysis.minimize_dfa")),
        ("analysis.find_forbidden_construction.ms", "ms",
         ("busy", "analysis.find_forbidden_construction")),
        ("analysis.transition_monoid.ms", "ms", ("busy", "analysis.transition_monoid")),
        ("analysis.transition_monoid.elements", "count",
         ("counter", "analysis.transition_monoid.elements")),
        ("analysis.find_prfa_forbidden_construction.self_ms", "ms",
         ("self", "analysis.find_prfa_forbidden_construction")),
        ("analysis.reversibilize.ms", "ms", ("busy", "analysis.reversibilize")),
        ("analysis.reversibilize.states_out", "count",
         ("counter", "analysis.reversibilize.states_out")),
        ("analysis.to_plain_dfa.ms", "ms", ("busy", "analysis.to_plain_dfa")),
        ("analysis.dfa_equivalent.ms", "ms", ("busy", "analysis.dfa_equivalent")),
        ("serialize.save.ms", "ms", ("busy", "serialize.save")),
        ("serialize.save.bytes", "bytes", ("counter", "serialize.save.bytes")),
        ("serialize.load.ms", "ms", ("busy", "serialize.load")),
        ("serialize.load.bytes", "bytes", ("counter", "serialize.load.bytes")),
        ("cli.main.calls", "count", ("calls", "cli.main")),
        ("cli.main.self_ms", "ms", ("self", "cli.main")),
    ]
    return out


LAYER_METRICS = _layer_metrics()


def layer_report(tracer: Tracer, tasks: int) -> dict:
    """Every per-layer metric as a per-task mean ({name: (value, unit)})."""
    report = {}
    for metric, unit, (kind, *key) in LAYER_METRICS:
        if kind == "apply_calls":
            total = sum(v[0] for k, v in tracer.stats.items() if k.startswith("linalg.apply."))
        elif kind == "counter":
            total = tracer.counters.get(key[0], 0)
        else:
            entry = tracer.stats.get(key[0], (0, 0.0, 0.0))
            total = {"calls": entry[0], "busy": entry[1] * 1e3, "self": entry[2] * 1e3}[kind]
        report[metric] = (total / tasks, unit)
    return report
