"""Outside-in span tracer for the espritsim modules.

The tracer rebinds every public function of the traced modules (and the
``HankelBlockOperator`` constructors) to a wrapper that records one span per
call: name, start, end, parent span, thread and trial id. Every module
namespace of the package that holds the original function gets the wrapper,
so ``from .kernels import svd_thin`` call sites are traced too. The
program's source is never touched; ``uninstall`` restores every binding.

Trials: a call to ``channel.observe_and_estimate`` starts a new trial on the
calling thread, and a call to one of ``CONFIG_LEVEL`` ends it, so per-SNR
work that the harness does between trials (noise level, analytic rows,
perfect-CSI rate) is not charged to the last trial of the SNR.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

TRACED_MODULES = ("channel", "esprit", "fastsvd", "shift", "kernels",
                  "tensor_esprit", "slac", "perturbation", "harness")

TRIAL_START = "channel.observe_and_estimate"

# Calls that belong to a config or an SNR point, never to one trial.
CONFIG_LEVEL = frozenset({
    "channel.params_from_geometry", "channel.scenario_transforms",
    "channel.synth_beamspace_tensor", "channel.n0_for_snr_db",
    "perturbation.build_kit", "perturbation.analytic_param_rmse",
    "perturbation.analytic_pos_rmse", "slac.effective_rate",
    "harness.run_experiment",
})

CLASS_METHODS = (("fastsvd", "HankelBlockOperator", ("from_tensor", "from_vector",
                                                     "from_smoothed")),)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    trial: int | None
    thread: int
    error: str | None
    summary: dict | None = None   # counters read from the result

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "self_s": self.self_s, "parent": self.parent,
                "trial": self.trial, "thread": self.thread, "error": self.error,
                "summary": self.summary}


# Spans whose return value (or exception) carries a counter; the tracer keeps
# a small summary of it instead of the object itself.
def _summarise(name, args, kwargs, result, exc):
    if name == "esprit.auto_pair":
        if exc is not None:
            draws = len(getattr(exc, "diagnostics", {}).get("separations", ()))
            return {"draws": draws, "paired": 0, "beta_redraws": max(draws - 1, 0)}
        if result[1].shape[0] < 2:      # one path: nothing to pair, no draw
            return {"draws": 0, "paired": 0, "beta_redraws": 0}
        redraws = int(result[2].get("beta_redraws", 0))
        return {"draws": redraws + 1, "paired": 1, "beta_redraws": redraws}
    if exc is not None:
        return None
    if name == "fastsvd.lanczos_bidiag":
        return {"steps": len(result.a)}
    if name == "tensor_esprit.cp_als":
        return {"iterations": int(result.iterations)}
    if name == "slac.rate_terms":
        scenario = args[2] if len(args) > 2 else kwargs["scenario"]
        m1, m2, m3, m4, m5 = scenario.m
        # two dense element-space channel stacks of complex128 entries
        return {"bytes": 2 * m5 * (m3 * m4) * (m1 * m2) * 16}
    return None


class Tracer:
    """Records spans from wrapped package functions; install/uninstall rebinding."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.errors = []          # (module, class name) per exception origin
        self._ids = itertools.count(1)
        self._trials = itertools.count(0)
        self._local = threading.local()
        self._patches = []        # (namespace dict or class, attr, original)
        self._outer = None        # outermost open span on the installing thread
        self._owner = None

    # -- recording -------------------------------------------------------
    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []        # frames: [sid, child seconds]
            loc.trial = None
        return loc

    def _wrap(self, name, fn):
        tracer = self
        module = name.split(".", 1)[0]
        if name == TRIAL_START:
            mark = "start"
        elif name in CONFIG_LEVEL:
            mark = "end"
        else:
            mark = None

        def wrapper(*args, **kwargs):
            loc = tracer._state()
            thread = threading.get_ident()
            owner = thread == tracer._owner
            if mark == "start":
                loc.trial = next(tracer._trials)
            elif mark == "end" and len(loc.stack) <= (1 if owner else 0):
                loc.trial = None
            sid = next(tracer._ids)
            if loc.stack:
                parent = loc.stack[-1][0]
            else:
                # a pool worker's top-level call was caused by the owner's
                # outermost open span (the sweep that submitted it)
                parent = None if owner else tracer._outer
                if owner:
                    tracer._outer = sid
            trial = loc.trial
            frame = [sid, 0.0]
            loc.stack.append(frame)
            error = None
            caught = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                caught = exc
                if not getattr(exc, "_perfbench_seen", False):
                    tracer.errors.append((module, error))
                    try:
                        exc._perfbench_seen = True
                    except AttributeError:
                        pass
                raise
            finally:
                end = time.perf_counter()
                loc.stack.pop()
                dur = end - start
                if loc.stack:
                    loc.stack[-1][1] += dur
                elif owner:
                    tracer._outer = None
                tracer.spans.append(Span(sid, name, start, end, dur - frame[1],
                                         parent, trial, thread, error,
                                         _summarise(name, args, kwargs, result, caught)))

        return functools.wraps(fn)(wrapper)

    # -- installation ----------------------------------------------------
    def install(self):
        """Rebind the public functions of every traced module to wrappers."""
        self._owner = threading.get_ident()
        pkg = self.package.__name__
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if m is not None and (n == pkg or n.startswith(pkg + "."))]
        replacements = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{pkg}.{short}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replacements[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = hit[1]
        for short, cls_name, methods in CLASS_METHODS:
            cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
            for meth in methods:
                raw = vars(cls).get(meth)
                if not isinstance(raw, classmethod):
                    continue
                wrapped = classmethod(self._wrap(f"{short}.{cls_name}.{meth}",
                                                 raw.__func__))
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()


SETUP_FUNCTIONS = ("channel.params_from_geometry", "channel.scenario_transforms",
                   "channel.synth_beamspace_tensor", "channel.n0_for_snr_db")

# (module, exception class) pairs reported by name; anything else is counted
# under ``errors.other`` and listed by name in the result file.
ERROR_KEYS = (
    ("esprit", "PairingFailureError"),
    ("tensor_esprit", "DecompositionFailureError"),
    ("channel", "OutOfDomainError"),
    ("slac", "DegenerateLocalizationError"),
    ("kernels", "NumericFailureError"),
    ("kernels", "InvalidInputError"),
    ("fastsvd", "NumericFailureError"),
)

# (function, kind): kind "ms" is inclusive and "self_ms" self time, each the
# median over the trials that call the function; "calls" is the (lower)
# median number of calls in those trials.
TRIAL_METRICS = (
    ("slac.rate_terms", "ms"), ("slac.localize", "ms"),
    ("fastsvd.hankel_matvec", "ms"), ("fastsvd.hankel_matvec", "calls"),
    ("fastsvd.lanczos_bidiag", "self_ms"),
    ("fastsvd.HankelBlockOperator.from_tensor", "ms"),
    ("fastsvd.fast_signal_subspace", "self_ms"),
    ("shift.lifted_selectors", "ms"), ("shift.lifted_selectors", "calls"),
    ("esprit.gamma_n", "ms"), ("esprit.auto_pair", "ms"),
    ("esprit.estimate_gains", "ms"), ("esprit.esprit_pipeline", "self_ms"),
    ("esprit.spatial_smooth", "ms"),
    ("kernels.svd_thin", "ms"), ("kernels.svd_thin", "calls"),
    ("kernels.eig_general", "ms"),
    ("kernels.lstsq_pinv", "ms"), ("kernels.lstsq_pinv", "calls"),
    ("tensor_esprit.cp_als", "ms"),
    ("tensor_esprit.tensor_esprit_pipeline", "self_ms"),
    ("channel.observe_and_estimate", "ms"),
    ("harness.match_paths", "ms"),
)

# counter name -> (function whose summary holds it, summary key); the lower
# median over the trials that call the function of the per-trial sum.
TRIAL_COUNTERS = {
    "fastsvd.lanczos_steps": ("fastsvd.lanczos_bidiag", "steps"),
    "tensor_esprit.cp_iterations": ("tensor_esprit.cp_als", "iterations"),
    "slac.rate_terms.bytes_computed": ("slac.rate_terms", "bytes"),
}


def _median(values, count=False):
    """Median, 0 when empty; for counts the lower median, an observed value."""
    if not values:
        return 0
    return statistics.median_low(values) if count else statistics.median(values)


def layer_metrics(tracer, n_trials):
    """Per-layer metrics from the recorded spans (see README for definitions)."""
    per_trial = {}                 # trial -> name -> [incl s, self s, calls, counters]
    config = {}                    # name -> [spans] outside any trial
    names = {s.sid: s.name for s in tracer.spans}
    for s in tracer.spans:
        if s.trial is None:
            config.setdefault(s.name, []).append(s)
            continue
        acc = per_trial.setdefault(s.trial, {}).setdefault(s.name, [0.0, 0.0, 0, {}])
        acc[0] += s.end - s.start
        acc[1] += s.self_s
        acc[2] += 1
        for key, val in (s.summary or {}).items():
            acc[3][key] = acc[3].get(key, 0) + val

    def over_trials(name):
        return [t[name] for t in per_trial.values() if name in t]

    out = {}
    for name, kind in TRIAL_METRICS:
        rows = over_trials(name)
        if kind == "ms":
            val = 1e3 * _median([r[0] for r in rows])
        elif kind == "self_ms":
            val = 1e3 * _median([r[1] for r in rows])
        else:
            val = _median([r[2] for r in rows], count=True)
        out[f"{name}.{kind}"] = val
    for metric, (name, key) in TRIAL_COUNTERS.items():
        out[metric] = _median([r[3].get(key, 0) for r in over_trials(name)], count=True)

    # one config = one sweep call, or the benchmark's own set-up when the
    # workload calls the library directly
    n_configs = max(len(config.get("harness.run_experiment", [])), 1)
    setup_s = sum(s.end - s.start for name in SETUP_FUNCTIONS
                  for s in config.get(name, []) if names.get(s.parent) not in SETUP_FUNCTIONS)
    out["channel.setup.ms"] = 1e3 * setup_s / n_configs
    out["perturbation.build_kit.ms"] = 1e3 * _median(
        [s.end - s.start for s in config.get("perturbation.build_kit", [])])
    out["harness.run_experiment.self_ms"] = 1e3 * sum(
        s.self_s for s in config.get("harness.run_experiment", [])) / max(n_trials, 1)

    pairs = [s.summary for s in tracer.spans
             if s.name == "esprit.auto_pair" and s.summary]
    draws = sum(p["draws"] for p in pairs)
    out["esprit.auto_pair.beta_redraws"] = sum(p["beta_redraws"] for p in pairs)
    out["esprit.auto_pair.first_draw_ratio"] = (
        sum(p["paired"] for p in pairs) / draws if draws else 0.0)

    known = set(ERROR_KEYS)
    for module, cls in ERROR_KEYS:
        out[f"{module}.errors.{cls}"] = sum(1 for e in tracer.errors if e == (module, cls))
    out["errors.other"] = sum(1 for e in tracer.errors if e not in known)
    return out
