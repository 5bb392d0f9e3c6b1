"""In-memory span tracer that wraps the scbf public API from outside.

A span is ``(name, start, end, parent, op)``: wall-clock start and end in
seconds, the index of the enclosing span (-1 at top level) and the id of the
benchmark operation that caused it.  Spans are kept in a list while the run
goes and written out once, when it ends.

``Tracer.install`` replaces every public function of each layer module, in
every scbf namespace that holds a reference to it (the package, the layer
module itself and each module that imported the name), with a wrapper that
records a span named ``<layer>.<function>``.  It also wraps the ``drift``,
``diffusion`` and ``contains`` callables on model instances and the
``inputs`` method of the Monte Carlo controllers.  ``uninstall`` restores
every original.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "systems", "semigroup", "spectral", "safety_filter", "montecarlo")
NAMESPACES = ("scbf",) + tuple(f"scbf.{m}" for m in LAYERS + ("cli",))
CONTROLLERS = ("FixedPolicyController", "ScbfQpController", "OpenLoopController")
STATUSES = ("unmodified", "modified", "backup", "infeasible_fallback")
REGIMES = ("affine", "quadratic", "nonaffine")
CLI_COMMANDS = ("synthesize", "verify", "simulate", "filter", "export-plot")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns_per_node"):
        return "ns"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_frac") or ".status_frac." in metric:
        return "ratio"
    return "count"


def filter_regime(sys_model) -> str:
    """The filter's structure dispatch, read from the model's probed flags."""
    f = sys_model.flags
    if f.input_affine and (f.sigma_u_independent or f.sigma_zero):
        return "affine"
    if f.input_affine and f.sigma_gram_quadratic and sys_model.n_u == 1:
        return "quadratic"
    return "nonaffine"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = Counter()  # counters recorded at span boundaries
        self._stack = []
        self._op = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def new_op(self) -> int:
        self._op += 1
        return self._op

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one currently open."""
        if len(self._stack) < 2:
            return None
        return self.spans[self._stack[-2]][0]

    def wrap(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, kwargs, out)
                return out
            finally:
                tracer._close(idx)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _count_curve(self, args, kwargs, curve):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.counts["montecarlo.scheduled_trial_steps"] += cfg.trials * cfg.n_steps
        self.counts["montecarlo.alive_trial_steps"] += int(curve.alive_counts[:-1].sum())

    def _count_statuses(self, spec, codes_or_status):
        regime = filter_regime(spec.sys)
        for status in codes_or_status:
            self.counts[f"status.{regime}.{status}"] += 1

    def _count_batch(self, args, kwargs, out):
        from scbf.safety_filter import STATUS_BY_CODE

        spec, X = args[0], args[1]
        self.counts["safety_filter.batch_rows"] += len(X)
        self._count_statuses(spec, [STATUS_BY_CODE[c].value for c in out[1]])

    def _count_scalar(self, args, kwargs, out):
        # Rows the batch filter hands to the scalar path are counted once,
        # in the batch's own statuses.
        if self.parent_name() != "safety_filter.filter_input_batch":
            self._count_statuses(args[0], [out[1].value])

    def _count_written(self, args, kwargs, out):
        self.counts["grid.fld_bytes"] += os.path.getsize(args[1])

    def _count_read(self, args, kwargs, out):
        self.counts["grid.fld_bytes"] += os.path.getsize(args[0])

    # -- patching ------------------------------------------------------------

    def _setattr(self, obj, attr, value):
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def instrument_model(self, model):
        """Wrap the callables one model instance exposes to the numerics."""
        if getattr(model.drift, "__wrapped_by_tracer__", False):
            return model
        for attr in ("drift", "diffusion", "contains"):
            self._setattr(model, attr, self.wrap(f"systems.{attr}", getattr(model, attr)))
        return model

    def install(self, models=()):
        import importlib

        mods = {name: importlib.import_module(name) for name in NAMESPACES}
        hooks = {
            "montecarlo.estimate_safety_curve": self._count_curve,
            "safety_filter.filter_input_batch": self._count_batch,
            "safety_filter.filter_input": self._count_scalar,
            "grid.write_field": self._count_written,
            "grid.read_field": self._count_read,
        }
        for layer in LAYERS:
            mod = mods[f"scbf.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    continue
                span_name = f"{layer}.{fname}"
                if span_name == "systems.make_benchmark":
                    make = self.wrap(span_name, fn)
                    wrapper = functools.wraps(fn)(
                        lambda *a, _make=make, **k: self.instrument_model(_make(*a, **k)))
                else:
                    wrapper = self.wrap(span_name, fn, hooks.get(span_name))
                for ns in mods.values():
                    if getattr(ns, fname, None) is fn:
                        self._setattr(ns, fname, wrapper)
        mc = mods["scbf.montecarlo"]
        for cls_name in CONTROLLERS:
            cls = getattr(mc, cls_name)
            self._setattr(cls, "inputs", self.wrap("montecarlo.controller_inputs", cls.inputs))
        for model in models:
            self.instrument_model(model)

    def uninstall(self):
        while self._undo:
            obj, attr, had, old = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, first_round_op: int) -> dict:
    """Per-layer metrics from the spans and counters: one traced set-up
    (ops before ``first_round_op``) plus the mean over ``rounds`` traced
    rounds.  Counters are only recorded in rounds."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_layer = defaultdict(float)
    iterations = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        w = 1.0 if op < first_round_op else 1.0 / rounds
        dur = (end - start) * w
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "safety_filter.filter_input" and parent_name == "safety_filter.filter_input_batch":
            name = "safety_filter.filter_input.in_batch"
        total[name] += dur
        calls[name] += w
        layer = name.split(".", 1)[0]
        if name != "montecarlo.controller_inputs":
            self_by_layer[layer] += dur - child[i] * w
        if (name in ("semigroup.propagate", "semigroup.propagate_optimal")
                and parent_name in ("spectral.power_iteration", "spectral.power_policy_iteration")):
            iterations += w
    c = {k: v / rounds for k, v in tracer.counts.items()}
    c = defaultdict(float, c)
    scheduled = c["montecarlo.scheduled_trial_steps"]
    out = {
        "semigroup.propagate_optimal_s": total["semigroup.propagate_optimal"],
        "semigroup.propagate_optimal_calls": calls["semigroup.propagate_optimal"],
        "semigroup.propagate_s": total["semigroup.propagate"],
        "semigroup.propagate_calls": calls["semigroup.propagate"],
        "spectral.iterations": iterations,
        "spectral.self_s": self_by_layer["spectral"],
        "spectral.eigen_residual_s": total["spectral.eigen_residual"],
        "systems.callback_s": total["systems.drift"] + total["systems.diffusion"],
        "systems.callback_calls": calls["systems.drift"] + calls["systems.diffusion"],
        "systems.contains_s": total["systems.contains"],
        "systems.contains_calls": calls["systems.contains"],
        "systems.make_s": total["systems.make_benchmark"],
        "grid.classify_s": total["grid.classify_nodes"],
        "grid.write_field_s": total["grid.write_field"],
        "grid.read_field_s": total["grid.read_field"],
        "grid.fld_bytes": c["grid.fld_bytes"],
        "montecarlo.estimate_s": total["montecarlo.estimate_safety_curve"],
        "montecarlo.controller_s": total["montecarlo.controller_inputs"],
        "montecarlo.self_s": self_by_layer["montecarlo"],
        "montecarlo.alive_trial_steps": c["montecarlo.alive_trial_steps"],
        "montecarlo.scheduled_trial_steps": scheduled,
        "montecarlo.useful_frac": c["montecarlo.alive_trial_steps"] / scheduled if scheduled else 0.0,
        "safety_filter.filter_input_s": total["safety_filter.filter_input"],
        "safety_filter.filter_input_calls": calls["safety_filter.filter_input"],
        "safety_filter.batch_s": total["safety_filter.filter_input_batch"],
        "safety_filter.batch_rows": c["safety_filter.batch_rows"],
        "safety_filter.scalar_rows_in_batch": calls["safety_filter.filter_input.in_batch"],
        "cli.self_s": self_by_layer["cli"],
        "cli.exit_nonzero": c["cli.exit_nonzero"],
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd.replace('-', '_')}_s"] = total[f"cli.{cmd}"]
    for regime in REGIMES:
        n = sum(c[f"status.{regime}.{s}"] for s in STATUSES)
        for s in STATUSES:
            out[f"safety_filter.status_frac.{regime}.{s}"] = c[f"status.{regime}.{s}"] / n if n else 0.0
    return out
