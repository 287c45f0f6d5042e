"""Monte-Carlo experiment engine: trial orchestration, metrics, CSV emission.

Determinism contract: every trial draws from its own RNG substream keyed by
(seed, snr index, trial index); per-trial results land in preallocated slots
and are reduced in a fixed order, so outputs are byte-identical across
repeat runs and across worker counts.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import channel, esprit, perturbation, slac, tensor_esprit
from .kernels import InvalidInputError, NumericFailureError

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
    observation: str = "direct"
    max_failure_rate: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.snr_grid_db:
            raise ConfigError("snr grid must be nonempty")
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ConfigError(f"unknown methods: {sorted(bad)}")
        m5 = self.scenario.m[4]
        if self.l5 is not None and not 1 <= self.l5 <= m5:
            raise ConfigError(f"l5={self.l5} outside [1, {m5}]")
        # every method but tensor smooths over K5 = M5 + 1 - l5 windows
        smoothing = sorted(set(self.methods) - {"tensor"})
        l5 = self.l5 or esprit.default_l5(m5)
        if l5 == m5 and smoothing:
            raise ConfigError(f"l5={l5} leaves K5 = M5 + 1 - l5 = 1 window; "
                              f"{smoothing} need K5 >= 2")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "methods", tuple(self.methods))

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        try:
            scenario = channel.Scenario.from_dict(d.pop("scenario"))
            return cls(scenario=scenario,
                       snr_grid_db=tuple(d.pop("snr_grid_db")),
                       **{k: v for k, v in d.items()
                          if k in ("trials", "methods", "l5", "outputs", "seed",
                                   "threads", "dump_trials", "observation",
                                   "max_failure_rate")})
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


@dataclass
class _TrialOutput:
    ok: bool
    sq_angle: np.ndarray | None = None     # (L, 4) squared angle errors
    sq_tau: np.ndarray | None = None       # (L,)
    sq_gain: np.ndarray | None = None      # (L,)
    sq_pos: float | None = None
    rate_u: np.ndarray | None = None       # (M5,)
    rate_i: np.ndarray | None = None       # (M5,)
    runtime: float = 0.0
    error: str = ""
    lanczos_steps: int | None = None       # matrix_fast only
    lanczos_stop: str = ""                 # converged | breakdown | cap
    rotation_residual: float | None = None  # matrix pipelines only
    subspace_gap: float | None = None       # matrix pipelines, when reported
    cp_fit: float | None = None             # tensor only
    cp_iterations: int | None = None        # tensor only: the winning restart


def _run_single_trial(method, noisy, transforms, scenario, truth_paths,
                      truth_omega, l5, rng, n0):
    if method not in ("matrix_dense", "matrix_fast", "tensor"):
        raise InvalidInputError(f"not a per-trial method: {method}")
    n_paths = len(truth_paths)
    t0 = time.perf_counter()
    try:
        if method == "tensor":
            est = tensor_esprit.tensor_esprit_pipeline(
                noisy, transforms, n_paths, scenario.delta_f, rng=rng)
        else:
            est = esprit.esprit_pipeline(
                noisy, transforms, n_paths, l5, scenario.delta_f,
                method="dense" if method == "matrix_dense" else "fast", rng=rng)
    except (esprit.PairingFailureError, tensor_esprit.DecompositionFailureError,
            channel.OutOfDomainError, np.linalg.LinAlgError,
            NumericFailureError, InvalidInputError) as exc:
        return _TrialOutput(ok=False, error=f"{type(exc).__name__}: {exc}",
                            runtime=time.perf_counter() - t0)
    runtime = est.diagnostics.get("runtime_s", time.perf_counter() - t0)
    diag = {"lanczos_steps": est.diagnostics.get("lanczos_steps"),
            "lanczos_stop": est.diagnostics.get("lanczos_stop", ""),
            "rotation_residual": est.diagnostics.get("rotation_residual"),
            "subspace_gap": est.diagnostics.get("subspace_gap"),
            "cp_fit": est.diagnostics.get("cp_fit"),
            "cp_iterations": est.diagnostics.get("cp_iterations")}
    values = [est.omega, est.gains] + [np.append(p.angles(), [p.tau, p.gamma])
                                       for p in est.params]
    if not all(np.all(np.isfinite(v)) for v in values):
        return _TrialOutput(ok=False, error="non-finite estimate", runtime=runtime,
                            **diag)

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

    tx_sign, rx_sign = channel.array_axis_signs(scenario)
    try:
        loc = slac.localize(params, scenario.p_t,
                            slac.path_weights(params, scenario.weights),
                            tx_sign, rx_sign)
        sq_pos = float(np.sum((loc.p_hat - scenario.p_r) ** 2))
    except slac.DegenerateLocalizationError as exc:
        return _TrialOutput(ok=False, error=f"localize: {exc}", runtime=runtime,
                            **diag)

    rate_u, rate_i = slac.rate_terms(params, truth_paths, scenario)
    if not (np.all(np.isfinite(sq_angle)) and np.all(np.isfinite(sq_tau))
            and np.all(np.isfinite(sq_gain)) and np.isfinite(sq_pos)
            and np.all(np.isfinite(rate_u)) and np.all(np.isfinite(rate_i))):
        return _TrialOutput(ok=False, error="non-finite metrics", runtime=runtime,
                            **diag)
    return _TrialOutput(ok=True, sq_angle=sq_angle, sq_tau=sq_tau,
                        sq_gain=sq_gain, sq_pos=sq_pos, rate_u=rate_u,
                        rate_i=rate_i, runtime=runtime, **diag)


def _path_classes(n_paths):
    classes = {"los": [0], "all": list(range(n_paths))}
    if n_paths > 1:
        classes["nlos"] = list(range(1, n_paths))
    return classes


def _rows_from_trials(method, snr_db, outputs, scenario, n0, n_attempted):
    good = [t for t in outputs if t.ok]
    failures = n_attempted - len(good)
    rows = []
    if not good:
        return rows, failures
    n_paths = good[0].sq_angle.shape[0]
    classes = _path_classes(n_paths)
    sq_angle = np.stack([t.sq_angle for t in good])   # (T, L, 4)
    sq_tau = np.stack([t.sq_tau for t in good])
    sq_gain = np.stack([t.sq_gain for t in good])
    for cls, idx in classes.items():
        for k, key in enumerate(ANGLE_KEYS):
            rows.append(MetricRow(method, snr_db, cls, key,
                                  float(np.sqrt(sq_angle[:, idx, k].mean())),
                                  len(good), failures))
        rows.append(MetricRow(method, snr_db, cls, "rmse_tau_m",
                              float(np.sqrt(sq_tau[:, idx].mean())
                                    * channel.SPEED_OF_LIGHT), len(good), failures))
        rows.append(MetricRow(method, snr_db, cls, "rmse_gamma",
                              float(np.sqrt(sq_gain[:, idx].mean())),
                              len(good), failures))
    rows.append(MetricRow(method, snr_db, "all", "rmse_pos_m",
                          float(np.sqrt(np.mean([t.sq_pos for t in good]))),
                          len(good), failures))
    mean_i2 = np.mean(np.abs(np.stack([t.rate_i for t in good])) ** 2, axis=0)
    rates = [slac.effective_rate(t.rate_u, mean_i2, scenario, n0) for t in good]
    rows.append(MetricRow(method, snr_db, "all", "rate_bps_hz",
                          float(np.mean(rates)), len(good), failures))
    rows.append(MetricRow(method, snr_db, "all", "runtime_s",
                          float(np.median([t.runtime for t in good])),
                          len(good), failures))
    return rows, failures


def _analytic_rows(kit, snr_db, n0, scenario):
    per_path = perturbation.analytic_param_rmse(kit, n0)
    pos = perturbation.analytic_pos_rmse(kit, n0)
    n_paths = len(per_path)
    rows = []
    for cls, idx in _path_classes(n_paths).items():
        for key in ANGLE_KEYS:
            val = np.sqrt(np.mean([per_path[i][key] ** 2 for i in idx]))
            rows.append(MetricRow("analytic", snr_db, cls, key, float(val),
                                  0, 0))
        tau = np.sqrt(np.mean([per_path[i]["rmse_tau"] ** 2 for i in idx]))
        rows.append(MetricRow("analytic", snr_db, cls, "rmse_tau_m",
                              float(tau * channel.SPEED_OF_LIGHT), 0, 0))
        gam = np.sqrt(np.mean([per_path[i]["rmse_gamma"] ** 2 for i in idx]))
        rows.append(MetricRow("analytic", snr_db, cls, "rmse_gamma",
                              float(gam), 0, 0))
    rows.append(MetricRow("analytic", snr_db, "all", "rmse_pos_m", float(pos),
                          0, 0))
    return rows


def run_experiment(cfg):
    """Run the Monte-Carlo sweep and return (rows, csv file map).

    Per (method, SNR): ``cfg.trials`` independent trials with derived RNG
    streams; the analytic method evaluates the perturbation kit once per
    SNR. A method whose failed-trial fraction exceeds
    ``cfg.max_failure_rate`` raises TrialFailureRateError after the sweep.
    """
    scenario = cfg.scenario
    paths = channel.params_from_geometry(scenario)
    transforms = channel.scenario_transforms(scenario, paths)
    truth_omega = np.stack([channel.to_angular(p, scenario.delta_f).omega
                            for p in paths])
    tensor = channel.synth_beamspace_tensor(paths, transforms, scenario)
    l5 = cfg.l5 if cfg.l5 else esprit.default_l5(scenario.m[4])

    kit = None
    if "analytic" in cfg.methods:
        kit = perturbation.build_kit(paths, transforms, scenario, l5)

    # perfect-CSI rate terms do not depend on SNR: truth is its own estimate
    u_perf, _ = slac.rate_terms(paths, paths, scenario)

    rows = []
    trial_dump = []
    worst = {}
    for si, snr_db in enumerate(cfg.snr_grid_db):
        n0 = channel.n0_for_snr_db(paths, transforms, scenario, snr_db)
        per_method = [m for m in cfg.methods if m != "analytic"]
        if per_method:
            def _make_noisy(t):
                rng = np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(si, t)))
                return channel.observe_and_estimate(
                    tensor, scenario, rng, mode=cfg.observation, n0=n0), rng

            for method in per_method:
                outputs = [None] * cfg.trials

                def _work(t, method=method):
                    noisy, rng = _make_noisy(t)
                    return _run_single_trial(method, noisy, transforms, scenario,
                                             paths, truth_omega, l5, rng, n0)

                if cfg.threads > 1:
                    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                        for t, out in enumerate(pool.map(_work, range(cfg.trials))):
                            outputs[t] = out
                else:
                    for t in range(cfg.trials):
                        outputs[t] = _work(t)

                new_rows, failures = _rows_from_trials(
                    method, snr_db, outputs, scenario, n0, cfg.trials)
                rows.extend(new_rows)
                rate = failures / cfg.trials
                worst[method] = max(worst.get(method, 0.0), rate)
                if cfg.dump_trials:
                    for t, out in enumerate(outputs):
                        trial_dump.append((method, snr_db, t, out))

        if kit is not None:
            rows.extend(_analytic_rows(kit, snr_db, n0, scenario))

        rows.append(MetricRow("perfect_csi", snr_db, "all", "rate_bps_hz",
                              slac.effective_rate(u_perf, np.zeros(scenario.m[4]),
                                                  scenario, n0), 0, 0))

    files = {}
    if cfg.outputs:
        files = write_figures(rows, cfg.outputs)
        if cfg.dump_trials:
            files["trials"] = _write_trial_dump(trial_dump, cfg.outputs)

    breaches = {m: r for m, r in worst.items() if r > cfg.max_failure_rate}
    if breaches:
        raise TrialFailureRateError(
            f"failure rate breached 5% cap: {breaches}")
    return rows, files


FIGURE_METRICS = {
    "3a": ANGLE_KEYS,
    "3b": ("rmse_tau_m",),
    "3c": ("rmse_gamma",),
    "4": ("rmse_pos_m",),
    "5": ("rate_bps_hz",),
    "6": ("runtime_s",),
}


def write_figures(rows, outdir, which=None):
    """Write one CSV per figure analog; returns {figure: path}."""
    import os

    os.makedirs(outdir, exist_ok=True)
    files = {}
    for fig, metrics in FIGURE_METRICS.items():
        if which and fig not in which:
            continue
        path = os.path.join(outdir, FIGURE_FILES[fig])
        sel = [r for r in rows if r.metric in metrics]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "snr_db", "path_class", "metric",
                             "value", "trials", "failures"])
            for row in sel:
                writer.writerow(row.as_csv_row())
        files[fig] = path
    return files


def _write_trial_dump(dump, outdir):
    import os

    path = os.path.join(outdir, "trials.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "snr_db", "trial", "ok", "sq_pos",
                         "runtime_s", "lanczos_steps", "lanczos_stop",
                         "rotation_residual", "subspace_gap", "cp_fit",
                         "cp_iterations", "error"])
        for method, snr_db, t, out in dump:
            writer.writerow([method, repr(float(snr_db)), t, int(out.ok),
                             repr(float(out.sq_pos)) if out.ok else "",
                             repr(float(out.runtime)),
                             "" if out.lanczos_steps is None else out.lanczos_steps,
                             out.lanczos_stop]
                            + ["" if v is None else repr(float(v))
                               for v in (out.rotation_residual, out.subspace_gap,
                                         out.cp_fit)]
                            + ["" if out.cp_iterations is None else out.cp_iterations,
                               out.error])
    return path

