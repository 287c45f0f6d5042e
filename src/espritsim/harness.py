"""Monte-Carlo experiment engine: trial orchestration, metrics, CSV emission.

Determinism contract: every trial draws from its own RNG substream keyed by
(seed, snr index, trial index); per-trial results come back in task order
and are reduced in a fixed order, so outputs are byte-identical across
repeat runs and across process counts. The parent runs trials next to
``threads - 1`` forked helper processes, which inherit the sweep's inputs
(built once before the fork); every process claims the next trial from one
shared counter, and each helper sends its outputs back through its own pipe.
The parent first builds the perturbation kit and the perfect-CSI rate terms,
which only it reads, then runs trials and drains the pipes between them. An
exception raised in the parent exhausts the counter, so no queued trial
starts, and joins the helpers before it propagates; a helper's programming
error is re-raised in the parent, and a helper that exits without sending a
trial it claimed raises ``TrialLostError``. ``threads = 1`` runs every trial
in the parent. numpy's OpenBLAS runs one thread for the sweep, so the
bytes do not depend on the caller's BLAS threading either.

Each trial yields one frozen ``TrialRecord``, which the helpers send
through their pipes as is; its leading fields are the columns of
trials.csv, whose header ``TRIAL_COLUMNS`` derives from them.
Monte-Carlo and analytic rows share one RMSE-row builder, and every metric
CSV has the header ``METRIC_COLUMNS``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import numbers
import os
import time
import traceback
from dataclasses import dataclass, fields

import numpy as np

from . import channel, esprit, kernels, perturbation, slac, tensor_esprit
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


class TrialLostError(RuntimeError):
    """A forked helper exited without sending back a trial it had claimed."""


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
        rate = self.max_failure_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise ConfigError(f"max_failure_rate={rate!r} must be a number")
        if not 0 <= rate <= 1:
            raise ConfigError(f"max_failure_rate={rate!r} outside [0, 1]")
        # a JSON string or boolean would otherwise load as digits or as 0/1
        grid = self.snr_grid_db
        if not (isinstance(grid, (list, tuple)) and all(
                isinstance(s, numbers.Real) and not isinstance(s, bool) for s in grid)):
            raise ConfigError(f"snr_grid_db={grid!r} must be a list of numbers")
        if not grid:
            raise ConfigError("snr grid must be nonempty")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not all(np.isfinite(self.snr_grid_db)):
            raise ConfigError(f"snr_grid_db entries must be finite: {self.snr_grid_db}")
        if self.outputs is not None and not isinstance(self.outputs, (str, os.PathLike)):
            raise ConfigError(f"outputs={self.outputs!r} must be null or a directory path")
        if not (isinstance(self.methods, (list, tuple))
                and all(isinstance(m, str) for m in self.methods)):
            raise ConfigError(f"methods={self.methods!r} must be a list of method names")
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
            if smoothing or "tensor" in cfg.methods:
                paths = channel.params_from_geometry(scenario)
                transforms = channel.scenario_transforms(scenario, paths)
            if smoothing:
                # loading builds the kit once, so that its own rank test refuses
                # paths no smoothing estimator can tell apart before any trial
                # runs; only the analytic method needs the rest of the kit
                try:
                    perturbation.build_kit(paths, transforms, scenario,
                                           cfg.l5 or esprit.default_l5(scenario.m[4]),
                                           with_position="analytic" in cfg.methods)
                except perturbation.IllPosedScenarioError as exc:
                    raise ConfigError(f"{smoothing}: {exc}; no smoothed stack separates these "
                                      f"paths ({_closest_paths(paths, scenario)})") from exc
                except perturbation.SingularParameterizationError:
                    # a singular angle map stops the analytic RMSEs, not the estimators
                    if "analytic" in cfg.methods:
                        raise
            if "tensor" in cfg.methods:
                # CP-ALS fits a rank-L model, and none exists when KR(A_n) has
                # rank below L, as when two paths coincide in every mode
                s = channel.khatri_rao_core(channel.beamspace_factors(
                    paths, transforms, scenario))[1].singular_values
                if kernels._numerical_rank(s) < scenario.num_paths:
                    raise ConfigError(
                        f"['tensor']: KR(A_n) has sigma_min/sigma_max = {s[-1] / s[0]:.1e}, so "
                        f"no rank-{scenario.num_paths} CP model exists "
                        f"({_closest_paths(paths, scenario)})")
            return cfg
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _closest_paths(paths, scenario):
    """The two paths whose angular frequencies lie closest, named as in the
    config, and the largest wrapped difference between their frequencies: a
    refusal by a rank test names them rather than guess at a cause."""
    omega = channel.path_omegas(paths, scenario.delta_f)
    gap = np.abs(channel.wrap_angle(omega[:, None] - omega[None])).max(axis=2)
    gap[np.diag_indices_from(gap)] = np.inf
    a, b = np.unravel_index(np.argmin(gap), gap.shape)
    names = ["the line of sight"] + [f"scatterers[{i}]" for i in range(len(paths) - 1)]
    closest = (f"{names[a]} and {names[b]} differ by at most {gap[a, b]:.1e} rad "
               f"in every frequency")
    return ("two paths coincide: " if gap[a, b] == 0.0 else "closest paths: ") + closest


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


def _min_cost_assignment(cost):
    """Exact minimum-cost perfect matching of the square matrix ``cost``.

    Shortest augmenting paths over reduced costs with dual potentials
    (Kuhn-Munkres in the Jonker-Volgenant form of Crouse, IEEE TAES 2016,
    which scipy's ``linear_sum_assignment`` implements, ties broken alike):
    each row joins by one Dijkstra-like search, O(n^2), so O(n^3) in all.
    Returns ``row4col``, the row assigned to each column. The loops run over
    Python lists, whose element access is cheaper than numpy's.
    """
    rows = cost.tolist()
    n = len(rows)
    u, v = [0.0] * n, [0.0] * n               # row and column potentials
    row4col, col4row, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        dist = [math.inf] * n                 # shortest path cost to each column
        remaining = list(range(n - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows.append(i)
            row, ui = rows[i], u[i]
            lowest, index = math.inf, -1
            for k, j in enumerate(remaining):
                d = min_val + row[j] - ui - v[j]
                if d < dist[j]:
                    path[j], dist[j] = i, d
                else:
                    d = dist[j]
                # on a tie prefer a free column: it ends the path
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest, index = d, k
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            seen_cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - dist[j]
        j = sink                              # augment along the path
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return row4col


def match_paths(estimated, truth):
    """Minimum-cost assignment of estimated to true paths.

    Cost between two frequency 5-vectors is the sum of squared wrapped
    angular distances. The total cost is additive over pairs, so the
    Hungarian solution, computed in-package by ``_min_cost_assignment``,
    is exact for every L. Both arguments are (L, 5) arrays, or lists of
    5-vectors. Returns the int array ``perm`` with estimated[perm[i]]
    matched to truth[i].
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.ndim != 2 or est.shape[1] != 5 or est.shape != tru.shape:
        raise InvalidInputError(f"need two equal (L, 5) arrays, not {est.shape} and {tru.shape}")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(tru))):
        raise InvalidInputError("path frequencies must be finite")
    cost = np.sum(channel.wrap_angle(est[:, None, :] - tru[None, :, :]) ** 2, axis=2)
    return np.array(_min_cost_assignment(cost), dtype=int)


@dataclass(frozen=True)
class TrialRecord:
    """One trial. The fields up to ``error`` are its trials.csv row, in column
    order; a diagnostic the estimate did not report is None. The per-path
    squared errors and rate terms after them feed the metric rows only."""
    method: str
    snr_db: float
    trial: int
    ok: bool
    sq_pos: float | None = None
    runtime_s: float = 0.0
    lanczos_steps: int | None = None         # matrix_fast only
    lanczos_stop: str | None = None          # converged | breakdown | cap
    rotation_residual: float | None = None   # matrix pipelines only
    subspace_gap: float | None = None        # matrix pipelines, when reported
    cp_fit: float | None = None              # tensor only
    cp_iterations: int | None = None         # tensor only: the winning restart
    pairing_separation: float | None = None  # matrix pipelines: inf for one path
    beta_redraws: int | None = None          # matrix pipelines only
    gain_matrix_condition: float | None = None
    error: str = ""
    sq_angle: np.ndarray | None = None       # (L, 4) squared angle errors
    sq_tau: np.ndarray | None = None         # (L,)
    sq_gain: np.ndarray | None = None        # (L,)
    rate_terms: tuple | None = None          # (U, I), each (M5,)

    def as_csv_row(self):
        """None is an empty cell, a bool 0/1, a float its repr."""
        return ["" if v is None else int(v) if isinstance(v, bool)
                else repr(float(v)) if isinstance(v, float) else v
                for v in (getattr(self, name) for name in TRIAL_COLUMNS)]


_RECORD_FIELDS = [f.name for f in fields(TrialRecord)]
TRIAL_COLUMNS = tuple(_RECORD_FIELDS[:_RECORD_FIELDS.index("error") + 1])   # trials.csv header
_DIAGNOSTICS = TRIAL_COLUMNS[TRIAL_COLUMNS.index("runtime_s") + 1:-1]


def _run_single_trial(method, snr_db, trial, noisy, transforms, scenario, truth_paths,
                      truth_omega, l5, rng):
    if method not in ("matrix_dense", "matrix_fast", "tensor"):
        raise InvalidInputError(f"not a per-trial method: {method}")
    n_paths = len(truth_paths)
    est, error = None, ""
    t0 = time.perf_counter()
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
    runtime = time.perf_counter() - t0     # the estimate's one timer, failed or not
    reported = est.diagnostics if est is not None else {}
    record = functools.partial(TrialRecord, method, snr_db, trial, runtime_s=runtime,
                               **{name: reported.get(name) for name in _DIAGNOSTICS})
    if est is None:
        return record(ok=False, error=error)
    values = [est.omega, est.gains] + [np.append(p.angles(), [p.tau, p.gamma])
                                       for p in est.params]
    if not all(np.all(np.isfinite(v)) for v in values):
        return record(ok=False, error="non-finite estimate")

    perm = match_paths(est.omega, truth_omega)
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
        return record(ok=False, error=f"localize: {exc}")
    sq_pos = float(np.sum((loc.p_hat - scenario.p_r) ** 2))
    rate_terms = slac.rate_terms(params, truth_paths, scenario)
    if not all(np.all(np.isfinite(v)) for v in (sq_angle, sq_tau, sq_gain, sq_pos,
                                                 *rate_terms)):
        return record(ok=False, error="non-finite metrics")
    return record(ok=True, sq_pos=sq_pos, sq_angle=sq_angle, sq_tau=sq_tau,
                  sq_gain=sq_gain, rate_terms=rate_terms)


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS, the one BLAS the package runs on, at one thread
    inside the block, and the caller's count back after it. Forked helpers
    inherit the count."""
    saved = kernels._get_blas_threads()
    kernels._set_blas_threads(1)
    try:
        yield
    finally:
        kernels._set_blas_threads(saved)


@dataclass(frozen=True)
class _Sweep:
    """What every trial of one sweep reads, built once before the helpers fork."""
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
    return _run_single_trial(method, cfg.snr_grid_db[si], t, noisy, sweep.transforms,
                             cfg.scenario, sweep.paths, sweep.truth_omega, sweep.l5, rng)


def _task_name(task):
    method, si, t = task
    return f"{method} trial {t} at SNR point {si}"


class _RemoteTraceback(Exception):
    """A helper's traceback text, chained as the cause of its re-raised exception."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _helper(sweep, tasks, claim, conn, inherited):
    """A forked helper: claim, run and send back trials until none are left.
    A programming error goes back with its traceback text and ends the helper."""
    # the read ends of its own and earlier helpers' pipes are the parent's:
    # held open here, a full pipe would block this helper's send forever
    # once the parent stops reading
    for other in inherited:
        other.close()
    try:
        while (i := claim()) < len(tasks):
            try:
                out = _trial(sweep, *tasks[i])
            except Exception as exc:
                conn.send((i, exc, traceback.format_exc()))
                return
            conn.send((i, out, None))
    except BrokenPipeError:
        pass                     # the parent stopped reading: it is unwinding
    finally:
        conn.close()


@contextlib.contextmanager
def _trial_loop(sweep, tasks, helpers):
    """Yields an iterator over the outputs of ``tasks``, in task order.

    ``helpers`` forked processes, which inherit ``sweep``, and the parent all
    claim the next task from one shared counter. Each helper sends its
    outputs back through its own pipe; the parent runs a trial of its own
    whenever the output next due has not arrived, and drains the pipes
    between its trials. On exit, also by an exception raised in the parent
    inside the block, the counter is exhausted, so no queued trial starts,
    and the helpers are joined.
    """
    ctx = multiprocessing.get_context("fork")
    next_task = ctx.Value("q", 0)
    held = ctx.RawArray("q", [-1] * helpers)     # the task each helper claimed last
    sent = [-1] * helpers                        # the task each helper sent back last
    done = {}                                    # outputs not yet yielded, by task
    procs, live = [], {}                         # live: read end -> helper index

    def claim(h=None):
        with next_task.get_lock():
            i = next_task.value
            next_task.value = i + 1
            if h is not None:
                held[h] = i
        return i

    def receive(timeout):
        """Take what the helpers have sent, waiting up to ``timeout`` seconds."""
        for conn in multiprocessing.connection.wait(list(live), timeout):
            h = live[conn]
            try:
                i, out, tb = conn.recv()
            except EOFError:
                del live[conn]
                conn.close()
                procs[h].join()
                if held[h] != sent[h] and held[h] < len(tasks):
                    raise TrialLostError(
                        f"helper pid {procs[h].pid} exited with code {procs[h].exitcode} "
                        f"before sending {_task_name(tasks[held[h]])}") from None
                continue
            if tb is not None:
                raise out from _RemoteTraceback(tb)
            done[i], sent[h] = out, i

    def outputs():
        for due in range(len(tasks)):
            while due not in done:
                receive(0)                       # what has arrived, without waiting
                if due in done:
                    break
                if (i := claim()) < len(tasks):
                    done[i] = _trial(sweep, *tasks[i])
                elif live:
                    receive(None)
                else:
                    raise TrialLostError(f"{_task_name(tasks[due])} was never sent back")
            yield done.pop(due)

    try:
        for h in range(helpers):
            recv, send = ctx.Pipe(duplex=False)
            procs.append(ctx.Process(target=_helper, args=(
                sweep, tasks, functools.partial(claim, h), send, [*live, recv])))
            procs[-1].start()
            send.close()
            live[recv] = h
        yield outputs()
    finally:
        with next_task.get_lock():
            next_task.value = len(tasks)
        for conn in live:
            conn.close()
        for proc in procs:
            proc.join()


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


def _rows_from_trials(records, scenario, n0):
    """The Monte-Carlo rows of one (method, SNR) pair's records, and its failures."""
    good = [t for t in records if t.ok]
    failures = len(records) - len(good)
    if not good:
        return [], failures
    row = functools.partial(MetricRow, records[0].method, records[0].snr_db,
                            trials=len(good), failures=failures)
    rows = _rmse_rows(row, np.stack([t.sq_angle for t in good]),
                      np.stack([t.sq_tau for t in good]),
                      np.stack([t.sq_gain for t in good]),
                      np.array([t.sq_pos for t in good]))
    rate, _ = slac.batch_rate([t.rate_terms for t in good], scenario, n0)
    rows.append(row("all", "rate_bps_hz", rate))
    rows.append(row("all", "runtime_s", float(np.median([t.runtime_s for t in good]))))
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


@_one_blas_thread()
def run_experiment(cfg):
    """Run the Monte-Carlo sweep and return (rows, csv file map).

    Per (method, SNR): ``cfg.trials`` independent trials with derived RNG
    streams. The analytic method builds the perturbation kit once per sweep,
    which holds the norms of its sensitivities (taken from their Tucker
    pieces, with no J-long row written); each SNR point only scales them.
    The trials of every (SNR, method) run in the parent and in
    ``cfg.threads - 1`` helper processes, forked once the trials' inputs
    exist; the parent builds the kit first, then runs trials next to the
    helpers. A helper that exits without sending back a trial it claimed
    raises TrialLostError; a helper's programming error is re-raised with
    its traceback text as the cause. numpy's OpenBLAS runs one thread
    for the sweep. A method whose failed-trial fraction exceeds
    ``cfg.max_failure_rate`` raises TrialFailureRateError after the sweep.
    """
    scenario = cfg.scenario
    paths = channel.params_from_geometry(scenario)
    transforms = channel.scenario_transforms(scenario, paths)
    truth_omega = channel.path_omegas(paths, scenario.delta_f)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scenario)
    l5 = cfg.l5 if cfg.l5 else esprit.default_l5(scenario.m[4])

    n0 = channel.n0_for_snr_grid(paths, transforms, scenario, cfg.snr_grid_db)
    sweep = _Sweep(cfg, paths, transforms, truth_omega, tensor, l5, n0)

    per_method = [m for m in cfg.methods if m != "analytic"]
    tasks = [(method, si, t) for si in range(len(n0)) for method in per_method
             for t in range(cfg.trials)]
    with _trial_loop(sweep, tasks, max(min(cfg.threads, len(tasks)) - 1, 0)) as results:
        # only the parent reads the kit and the perfect-CSI rate terms (which
        # do not depend on SNR: truth is its own estimate), so it builds them
        # while the helpers run the first trials
        kit = (perturbation.build_kit(paths, transforms, scenario, l5)
               if "analytic" in cfg.methods else None)
        u_perf, _ = slac.rate_terms(paths, paths, scenario)
        rows = []
        trial_dump = []
        worst = {}
        for si, snr_db in enumerate(cfg.snr_grid_db):
            for method in per_method:
                # results arrive in task order: the next cfg.trials are this pair's
                records = list(itertools.islice(results, cfg.trials))
                new_rows, failures = _rows_from_trials(records, scenario, n0[si])
                rows.extend(new_rows)
                worst[method] = max(worst.get(method, 0.0), failures / cfg.trials)
                if cfg.dump_trials:
                    trial_dump.extend(records)

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


def _write_trial_dump(records, outdir):
    path = os.path.join(outdir, "trials.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        writer.writerows(r.as_csv_row() for r in records)
    return path
