"""Spans around darksteady's public functions, recorded from outside.

``Tracer.install`` replaces every module binding of a public darksteady
function (``linalg.expm``, and also ``experiments.expm``, which
``from .linalg import expm`` made a separate binding) with a wrapper that
records a span: name, start, end, parent span and operation.  Spans stay
in memory until the run ends.  ``uninstall`` puts the original functions
back, so untraced operations run the program exactly as shipped.

A span's self time is its duration minus the durations of its direct
children; the layer of a span is the darksteady module that defines the
function.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "model", "engine", "pulses", "config", "experiments", "cli")
OBSERVE = ("engine.fidelity", "engine.purity", "engine.stationarity_residual")
# Functions whose distinct inputs are counted (useful share of their calls).
DISTINCT = ("linalg.expm", "model.build_operators")
OP_SPAN = "op"

PER_LAYER = (
    ("linalg.expm.calls", "count", "lower"),
    ("linalg.expm.self_s", "s", "lower"),
    ("linalg.expm.distinct_ratio", "ratio", "higher"),
    ("linalg.eig_full.calls", "count", "lower"),
    ("linalg.eig_full.self_s", "s", "lower"),
    ("model.build_operators.calls", "count", "lower"),
    ("model.build_operators.distinct_ratio", "ratio", "higher"),
    ("model.self_s", "s", "lower"),
    ("engine.build_liouvillian.calls", "count", "lower"),
    ("engine.build_liouvillian.self_s", "s", "lower"),
    ("engine.evolve_fixed_step.self_s", "s", "lower"),
    ("engine.rk4_steps", "count", "lower"),
    ("engine.steady_state.self_s", "s", "lower"),
    ("engine.observe.calls", "count", "lower"),
    ("engine.observe.self_s", "s", "lower"),
    ("pulses.run_sequence.self_s", "s", "lower"),
    ("pulses.sample_cycles", "count", "lower"),
    ("config.self_s", "s", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _rk4_steps(bound):
    t_end, dt = float(bound.arguments["t_end"]), float(bound.arguments["dt"])
    return max(1, int(math.ceil(t_end / dt - 1e-12)))


def _sample_cycles(bound):
    args = bound.arguments
    quasi = args["noise_mode"] == "quasistatic" and args["p"].t2_star is not None
    return args["seq"].cycles * (int(args["noise_samples"]) if quasi else 1)


# Work counts taken from a call's arguments, as the functions document them.
COUNTERS = {"engine.evolve_fixed_step": _rk4_steps, "pulses.run_sequence": _sample_cycles}


def _input_key(args, kwargs):
    h = hashlib.blake2b(digest_size=16)
    for value in list(args) + sorted(kwargs.items()):
        if isinstance(value, np.ndarray):
            h.update(repr((value.dtype.str, value.shape)).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.digest()


class Tracer:
    """Wraps darksteady's module bindings and collects spans per operation."""

    def __init__(self, package):
        self.modules = [package] + [getattr(package, name) for name in LAYERS]
        self.spans = []  # (name, start, end, parent index, op index, work count)
        self.inputs = []  # (name, args, kwargs) of DISTINCT calls, keyed after the op
        self.distinct = []  # per traced op: {name: (calls, distinct inputs)}
        self._stack = []
        self._op = -1
        self._originals = []

    def install(self):
        wrappers = {}
        for module in self.modules:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("darksteady.")):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._originals.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        keep_inputs = name in DISTINCT
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            work = 0
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = counter(bound)
            if keep_inputs:
                self.inputs.append((name, args, kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, work)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_index, call):
        """Run ``call()`` inside a root span; returns its result."""
        self._op = op_index
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, op_index, 0)
            counts = defaultdict(lambda: [0, set()])
            for name, args, kwargs in self.inputs:
                counts[name][0] += 1
                counts[name][1].add(_input_key(args, kwargs))
            self.distinct.append({n: (c, len(keys)) for n, (c, keys) in counts.items()})
            self.inputs = []

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_layer(self, overhead_s):
        """Per-operation averages of the PER_LAYER metrics."""
        ops = max(1, len(self.distinct))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        work = defaultdict(int)
        for (name, _, _, _, _, count), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            work[name] += count

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def ratio(name):
            # 0 calls waste nothing: the useful share is then 1.
            shares = [c[name][1] / c[name][0] if name in c else 1.0 for c in self.distinct]
            return sum(shares) / len(shares) if shares else 1.0

        values = {
            "linalg.expm.calls": calls["linalg.expm"] / ops,
            "linalg.expm.self_s": self_s["linalg.expm"] / ops,
            "linalg.expm.distinct_ratio": ratio("linalg.expm"),
            "linalg.eig_full.calls": calls["linalg.eig_full"] / ops,
            "linalg.eig_full.self_s": self_s["linalg.eig_full"] / ops,
            "model.build_operators.calls": calls["model.build_operators"] / ops,
            "model.build_operators.distinct_ratio": ratio("model.build_operators"),
            "model.self_s": layer_self("model") / ops,
            "engine.build_liouvillian.calls": calls["engine.build_liouvillian"] / ops,
            "engine.build_liouvillian.self_s": self_s["engine.build_liouvillian"] / ops,
            "engine.evolve_fixed_step.self_s": self_s["engine.evolve_fixed_step"] / ops,
            "engine.rk4_steps": work["engine.evolve_fixed_step"] / ops,
            "engine.steady_state.self_s": self_s["engine.steady_state"] / ops,
            "engine.observe.calls": sum(calls[n] for n in OBSERVE) / ops,
            "engine.observe.self_s": sum(self_s[n] for n in OBSERVE) / ops,
            "pulses.run_sequence.self_s": self_s["pulses.run_sequence"] / ops,
            "pulses.sample_cycles": work["pulses.run_sequence"] / ops,
            "config.self_s": layer_self("config") / ops,
            "experiments.run_experiment.self_s": self_s["experiments.run_experiment"] / ops,
            "cli.main.self_s": self_s["cli.main"] / ops,
            "trace.overhead_s": overhead_s,
        }
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def write_spans(self, path):
        """One line per span: op, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")
