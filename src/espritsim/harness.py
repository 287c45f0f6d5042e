"""Monte-Carlo experiment engine: trial orchestration, metrics, CSV emission.

Determinism contract: every trial draws from its own RNG substream keyed by
(seed, snr index, trial index); per-trial results come back in task order
and are reduced in a fixed order, so outputs are byte-identical across
repeat runs and across worker counts. The workers are ``threads`` forked
processes, so trials run off the parent's interpreter lock; they inherit the
sweep's inputs, which the parent builds once before the fork. The
perturbation kit and the perfect-CSI rate terms, which only the parent reads,
are built in the parent while the workers run trials; an exception raised in
the parent cancels the queued trials before it propagates. ``threads = 1``
runs every trial in process.

Each trial yields one record; ``TRIAL_DIAGNOSTICS`` names the estimate
diagnostics it keeps, which are also the diagnostic columns of trials.csv.
Monte-Carlo and analytic rows share one RMSE-row builder, and every metric
CSV has the header ``METRIC_COLUMNS``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import multiprocessing
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import channel, esprit, perturbation, slac, tensor_esprit
from .kernels import EstimationError, InvalidInputError

ALL_METHODS = ("matrix_dense", "matrix_fast", "tensor", "analytic")

ANGLE_KEYS = ("rmse_phi_az", "rmse_phi_el", "rmse_theta_az", "rmse_theta_el")

FIGURE_FILES = {
    "3a": "fig3a_angles.csv",
    "3b": "fig3b_delay.csv",
    "3c": "fig3c_gain.csv",
    "4": "fig4_position.csv",
    "5": "fig5_rate.csv",
    "6": "fig6_runtime.csv",
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class TrialFailureRateError(RuntimeError):
    """More than the tolerated fraction of trials failed."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: channel.Scenario
    snr_grid_db: tuple
    trials: int = 200
    methods: tuple = ("matrix_dense", "analytic")
    l5: int | None = None               # None: balanced ceil((M5+1)/2)
    outputs: str | None = None
    seed: int = 0
    threads: int = 1
    dump_trials: bool = False
    max_failure_rate: float = 0.05

    def __post_init__(self):
        ints = (self.trials, self.seed, self.threads, 1 if self.l5 is None else self.l5)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in ints):
            raise ConfigError("trials, seed, threads and l5 must be integers")
        if not isinstance(self.dump_trials, bool):
            raise ConfigError(f"dump_trials={self.dump_trials!r} must be true or false")
        if self.scenario.weights not in slac.WEIGHT_KINDS:
            raise ConfigError(f"unknown weight kind {self.scenario.weights!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not (isinstance(self.max_failure_rate, numbers.Real)
                and 0 <= self.max_failure_rate <= 1):
            raise ConfigError(f"max_failure_rate={self.max_failure_rate!r} outside [0, 1]")
        if not self.snr_grid_db:
            raise ConfigError("snr grid must be nonempty")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not all(np.isfinite(self.snr_grid_db)):
            raise ConfigError(f"snr_grid_db entries must be finite: {self.snr_grid_db}")
        if self.outputs is not None and not isinstance(self.outputs, (str, os.PathLike)):
            raise ConfigError(f"outputs={self.outputs!r} must be null or a directory path")
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ConfigError(f"unknown methods: {sorted(bad)}")
        repeated = sorted({m for m in self.methods if list(self.methods).count(m) > 1})
        if repeated:
            raise ConfigError(f"repeated methods: {repeated}")
        # a noisy estimate of the LOS path alone never meets localize's
        # direct-path test, so every such trial would fail
        per_trial = sorted(set(self.methods) - {"analytic"})
        if self.scenario.num_paths == 1 and per_trial:
            raise ConfigError(f"the scenario has a single path (no scatterers), which "
                              f"{per_trial} cannot localize; add a scatterer")
        m5 = self.scenario.m[4]
        if self.l5 is not None and not 1 <= self.l5 <= m5:
            raise ConfigError(f"l5={self.l5} outside [1, {m5}]")
        # every method but tensor smooths over K5 = M5 + 1 - l5 windows
        smoothing = sorted(set(self.methods) - {"tensor"})
        l5 = self.l5 or esprit.default_l5(m5)
        if l5 == m5 and smoothing:
            raise ConfigError(f"l5={l5} leaves K5 = M5 + 1 - l5 = 1 window; "
                              f"{smoothing} need K5 >= 2")
        # the smoothed stack has l5 columns, so it holds at most l5 paths
        if l5 < self.scenario.num_paths and smoothing:
            raise ConfigError(f"l5={l5} is below the {self.scenario.num_paths} paths; "
                              f"{smoothing} need l5 >= the path count")
        object.__setattr__(self, "methods", tuple(self.methods))

    @classmethod
    def from_dict(cls, d):
        try:
            d = dict(d)
            unknown = sorted(set(d) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(f"unknown config keys: {unknown}")
            scenario = channel.Scenario.from_dict(d.pop("scenario"))
            cfg = cls(scenario=scenario, **d)
            smoothing = sorted(set(cfg.methods) & {"matrix_dense", "matrix_fast", "analytic"})
            if smoothing:
                # loading builds the kit once, so that its own rank test refuses
                # paths no smoothing estimator can tell apart before any trial
                # runs; only the analytic method needs the rest of the kit
                paths = channel.params_from_geometry(scenario)
                try:
                    perturbation.build_kit(paths, channel.scenario_transforms(scenario, paths),
                                           scenario, cfg.l5 or esprit.default_l5(scenario.m[4]),
                                           with_position="analytic" in cfg.methods)
                except perturbation.IllPosedScenarioError as exc:
                    raise ConfigError(f"{smoothing}: {exc}; no smoothed stack separates these "
                                      f"paths (two paths coincide where a scatterer lies on "
                                      f"the line of sight)") from exc
                except perturbation.SingularParameterizationError:
                    # a singular angle map stops the analytic RMSEs, not the estimators
                    if "analytic" in cfg.methods:
                        raise
            return cfg
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class MetricRow:
    method: str
    snr_db: float
    path_class: str        # los | nlos | all
    metric: str
    value: float
    trials: int
    failures: int

    def as_csv_row(self):
        return [self.method, repr(float(self.snr_db)), self.path_class,
                self.metric, repr(float(self.value)), str(self.trials),
                str(self.failures)]


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRow))   # the metric CSV header


def match_paths(estimated, truth):
    """Minimum-cost assignment of estimated to true paths.

    Cost between two frequency 5-vectors is the sum of squared wrapped
    angular distances. The total cost is additive over pairs, so the
    Hungarian solution (``linear_sum_assignment``) is exact for every L.
    Returns ``perm`` with estimated[perm[i]] matched to truth[i].
    """
    est = np.stack([f.omega if isinstance(f, channel.AngularFreqs) else np.asarray(f)
                    for f in estimated])
    tru = np.stack([f.omega if isinstance(f, channel.AngularFreqs) else np.asarray(f)
                    for f in truth])
    if est.shape != tru.shape:
        raise InvalidInputError("path lists must have equal lengths")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(tru))):
        raise InvalidInputError("path frequencies must be finite")
    n = est.shape[0]
    cost = np.sum(channel.wrap_angle(est[:, None, :] - tru[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(n, dtype=int)
    perm[cols] = rows
    return perm


# (name, kind) of each estimate diagnostic that trials.csv carries, in column
# order; see _dump_cell for how a kind is written.
TRIAL_DIAGNOSTICS = (
    ("lanczos_steps", int),         # matrix_fast only
    ("lanczos_stop", str),          # converged | breakdown | cap
    ("rotation_residual", float),   # matrix pipelines only
    ("subspace_gap", float),        # matrix pipelines, when reported
    ("cp_fit", float),              # tensor only
    ("cp_iterations", int),         # tensor only: the winning restart
    ("pairing_separation", float),  # matrix pipelines: inf for one path
    ("beta_redraws", int),          # matrix pipelines only
    ("gain_matrix_condition", float),
)


@dataclass
class _TrialOutput:
    ok: bool
    sq_angle: np.ndarray | None = None     # (L, 4) squared angle errors
    sq_tau: np.ndarray | None = None       # (L,)
    sq_gain: np.ndarray | None = None      # (L,)
    sq_pos: float | None = None
    rate_terms: tuple | None = None        # (U, I), each (M5,)
    runtime: float = 0.0
    error: str = ""
    diagnostics: dict = field(default_factory=dict)   # TRIAL_DIAGNOSTICS names


def _run_single_trial(method, noisy, transforms, scenario, truth_paths,
                      truth_omega, l5, rng):
    if method not in ("matrix_dense", "matrix_fast", "tensor"):
        raise InvalidInputError(f"not a per-trial method: {method}")
    n_paths = len(truth_paths)
    t0 = time.perf_counter()
    est, error = None, ""
    try:
        if method == "tensor":
            est = tensor_esprit.tensor_esprit_pipeline(
                noisy, transforms, n_paths, scenario.delta_f, rng=rng)
        else:
            est = esprit.esprit_pipeline(
                noisy, transforms, n_paths, l5, scenario.delta_f,
                method="dense" if method == "matrix_dense" else "fast", rng=rng)
    # every failure a module classifies is an EstimationError; numpy's own
    # LAPACK calls outside kernels (auto_pair's solve) raise LinAlgError
    except (EstimationError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    reported = est.diagnostics if est is not None else {}
    out = _TrialOutput(ok=False, error=error,
                       runtime=reported.get("runtime_s", time.perf_counter() - t0),
                       diagnostics={name: reported.get(name)
                                    for name, _ in TRIAL_DIAGNOSTICS})
    if est is None:
        return out
    values = [est.omega, est.gains] + [np.append(p.angles(), [p.tau, p.gamma])
                                       for p in est.params]
    if not all(np.all(np.isfinite(v)) for v in values):
        out.error = "non-finite estimate"
        return out

    perm = match_paths(est.freqs, [channel.AngularFreqs(om) for om in truth_omega])
    params = [est.params[p] for p in perm]
    gains = est.gains[perm]
    sq_angle = np.empty((n_paths, 4))
    sq_tau = np.empty(n_paths)
    sq_gain = np.empty(n_paths)
    for i, (tp, ep) in enumerate(zip(truth_paths, params)):
        sq_angle[i] = (np.asarray(ep.angles()) - np.asarray(tp.angles())) ** 2
        sq_tau[i] = (ep.tau - tp.tau) ** 2
        sq_gain[i] = np.abs(gains[i] - tp.gamma) ** 2

    try:
        loc = slac.localize_scenario(params, scenario)
    except slac.DegenerateLocalizationError as exc:
        out.error = f"localize: {exc}"
        return out
    sq_pos = float(np.sum((loc.p_hat - scenario.p_r) ** 2))
    rate_terms = slac.rate_terms(params, truth_paths, scenario)
    if not all(np.all(np.isfinite(v)) for v in (sq_angle, sq_tau, sq_gain, sq_pos,
                                                 *rate_terms)):
        out.error = "non-finite metrics"
        return out
    out.ok = True
    out.sq_angle, out.sq_tau, out.sq_gain = sq_angle, sq_tau, sq_gain
    out.sq_pos, out.rate_terms = sq_pos, rate_terms
    return out


@dataclass(frozen=True)
class _Sweep:
    """What every trial of one sweep reads, built once before the workers fork."""
    cfg: ExperimentConfig
    paths: list
    transforms: tuple
    truth_omega: np.ndarray
    tensor: np.ndarray
    l5: int
    n0: tuple                  # noise level per SNR point


def _trial(sweep, method, si, t):
    """Trial ``t`` of ``method`` at SNR point ``si``: its own noise draw from the
    (seed, si, t) substream, then the estimate chain."""
    cfg = sweep.cfg
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(si, t)))
    noisy = channel.observe_and_estimate(sweep.tensor, cfg.scenario, rng,
                                         n0=sweep.n0[si])
    return _run_single_trial(method, noisy, sweep.transforms, cfg.scenario,
                             sweep.paths, sweep.truth_omega, sweep.l5, rng)


_worker_sweep = None   # set by _init_worker in forked pool workers only


def _init_worker(sweep):
    global _worker_sweep
    _worker_sweep = sweep


def _worker_trial(task):
    return _trial(_worker_sweep, *task)


@contextlib.contextmanager
def _worker_pool(sweep, workers):
    """``workers`` forked processes that inherit ``sweep``, or None for one.

    An exception raised in the parent inside the block cancels the queued
    trials before it propagates, instead of waiting for them to run.
    """
    if workers < 2:
        yield None
        return
    # fork, not spawn: workers inherit the sweep's arrays instead of unpickling them
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(sweep,)) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _path_classes(n_paths):
    classes = {"los": [0], "all": list(range(n_paths))}
    if n_paths > 1:
        classes["nlos"] = list(range(1, n_paths))
    return classes


def _rmse_rows(row, sq_angle, sq_tau, sq_gain, sq_pos):
    """Per-path-class RMSE rows from squared errors over (draws, paths):
    ``sq_angle`` is (D, L, 4), ``sq_tau`` and ``sq_gain`` (D, L), ``sq_pos``
    (D,). ``row(path_class, metric, value)`` builds one MetricRow."""
    rows = []
    for cls, idx in _path_classes(sq_tau.shape[1]).items():
        for k, key in enumerate(ANGLE_KEYS):
            rows.append(row(cls, key, float(np.sqrt(sq_angle[:, idx, k].mean()))))
        rows.append(row(cls, "rmse_tau_m", float(np.sqrt(sq_tau[:, idx].mean())
                                                 * channel.SPEED_OF_LIGHT)))
        rows.append(row(cls, "rmse_gamma", float(np.sqrt(sq_gain[:, idx].mean()))))
    rows.append(row("all", "rmse_pos_m", float(np.sqrt(np.mean(sq_pos)))))
    return rows


def _rows_from_trials(method, snr_db, outputs, scenario, n0, n_attempted):
    good = [t for t in outputs if t.ok]
    failures = n_attempted - len(good)
    if not good:
        return [], failures
    row = functools.partial(MetricRow, method, snr_db, trials=len(good),
                            failures=failures)
    rows = _rmse_rows(row, np.stack([t.sq_angle for t in good]),
                      np.stack([t.sq_tau for t in good]),
                      np.stack([t.sq_gain for t in good]),
                      np.array([t.sq_pos for t in good]))
    rate, _ = slac.batch_rate([t.rate_terms for t in good], scenario, n0)
    rows.append(row("all", "rate_bps_hz", rate))
    rows.append(row("all", "runtime_s", float(np.median([t.runtime for t in good]))))
    return rows, failures


def _analytic_rows(kit, snr_db, n0):
    """The analytic RMSE rows: one draw of the closed-form mean squares."""
    per_path = perturbation.analytic_param_rmse(kit, n0)
    pos = perturbation.analytic_pos_rmse(kit, n0)
    return _rmse_rows(functools.partial(MetricRow, "analytic", snr_db, trials=0,
                                        failures=0),
                      np.array([[[p[key] ** 2 for key in ANGLE_KEYS] for p in per_path]]),
                      np.array([[p["rmse_tau"] ** 2 for p in per_path]]),
                      np.array([[p["rmse_gamma"] ** 2 for p in per_path]]),
                      np.array([pos ** 2]))


def run_experiment(cfg):
    """Run the Monte-Carlo sweep and return (rows, csv file map).

    Per (method, SNR): ``cfg.trials`` independent trials with derived RNG
    streams. The analytic method builds the perturbation kit once per sweep,
    which holds the norms of its sensitivities (taken from their Tucker
    pieces, with no J-long row written); each SNR point only scales them.
    With ``cfg.threads > 1`` the trials of every (SNR, method) run on one
    pool of that many forked worker processes, built once the trials' inputs
    exist; the kit is built while they run. A method whose
    failed-trial fraction exceeds ``cfg.max_failure_rate`` raises
    TrialFailureRateError after the sweep.
    """
    scenario = cfg.scenario
    paths = channel.params_from_geometry(scenario)
    transforms = channel.scenario_transforms(scenario, paths)
    truth_omega = np.stack([channel.to_angular(p, scenario.delta_f).omega
                            for p in paths])
    tensor = channel.synth_beamspace_tensor(paths, transforms, scenario)
    l5 = cfg.l5 if cfg.l5 else esprit.default_l5(scenario.m[4])

    n0 = tuple(channel.n0_for_snr_db(paths, transforms, scenario, snr_db)
               for snr_db in cfg.snr_grid_db)
    sweep = _Sweep(cfg, paths, transforms, truth_omega, tensor, l5, n0)

    per_method = [m for m in cfg.methods if m != "analytic"]
    tasks = [(method, si, t) for si in range(len(n0)) for method in per_method
             for t in range(cfg.trials)]
    with _worker_pool(sweep, min(cfg.threads, len(tasks))) as pool:
        results = (pool.map(_worker_trial, tasks) if pool is not None
                   else (_trial(sweep, *task) for task in tasks))
        # only the parent reads the kit and the perfect-CSI rate terms (which
        # do not depend on SNR: truth is its own estimate), so they are built
        # while the workers run
        kit = (perturbation.build_kit(paths, transforms, scenario, l5)
               if "analytic" in cfg.methods else None)
        u_perf, _ = slac.rate_terms(paths, paths, scenario)
        rows = []
        trial_dump = []
        worst = {}
        for si, snr_db in enumerate(cfg.snr_grid_db):
            for method in per_method:
                # results arrive in task order: the next cfg.trials are this pair's
                outputs = list(itertools.islice(results, cfg.trials))
                new_rows, failures = _rows_from_trials(
                    method, snr_db, outputs, scenario, n0[si], cfg.trials)
                rows.extend(new_rows)
                worst[method] = max(worst.get(method, 0.0), failures / cfg.trials)
                if cfg.dump_trials:
                    trial_dump.extend((method, snr_db, t, out)
                                      for t, out in enumerate(outputs))

            if kit is not None:
                rows.extend(_analytic_rows(kit, snr_db, n0[si]))

            rows.append(MetricRow("perfect_csi", snr_db, "all", "rate_bps_hz",
                                  slac.effective_rate(u_perf, np.zeros(scenario.m[4]),
                                                      scenario, n0[si]), 0, 0))

    files = {}
    if cfg.outputs:
        files = write_figures(rows, cfg.outputs)
        if cfg.dump_trials:
            files["trials"] = _write_trial_dump(trial_dump, cfg.outputs)

    breaches = {m: r for m, r in worst.items() if r > cfg.max_failure_rate}
    if breaches:
        raise TrialFailureRateError(
            f"failure rate breached {cfg.max_failure_rate * 100:g}% cap: {breaches}")
    return rows, files


FIGURE_METRICS = {
    "3a": ANGLE_KEYS,
    "3b": ("rmse_tau_m",),
    "3c": ("rmse_gamma",),
    "4": ("rmse_pos_m",),
    "5": ("rate_bps_hz",),
    "6": ("runtime_s",),
}


def write_figures(rows, outdir):
    """Write one CSV per figure analog; returns {figure: path}."""
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for fig, metrics in FIGURE_METRICS.items():
        path = os.path.join(outdir, FIGURE_FILES[fig])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_COLUMNS)
            writer.writerows(r.as_csv_row() for r in rows if r.metric in metrics)
        files[fig] = path
    return files


def _dump_cell(kind, value):
    """A diagnostic's trials.csv cell: empty when not reported, a float's repr."""
    return "" if value is None else repr(float(value)) if kind is float else value


def _write_trial_dump(dump, outdir):
    path = os.path.join(outdir, "trials.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "snr_db", "trial", "ok", "sq_pos", "runtime_s",
                         *(name for name, _ in TRIAL_DIAGNOSTICS), "error"])
        for method, snr_db, t, out in dump:
            writer.writerow([method, repr(float(snr_db)), t, int(out.ok),
                             repr(float(out.sq_pos)) if out.ok else "",
                             repr(float(out.runtime)),
                             *(_dump_cell(kind, out.diagnostics.get(name))
                               for name, kind in TRIAL_DIAGNOSTICS),
                             out.error])
    return path
