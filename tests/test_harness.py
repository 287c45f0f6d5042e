import csv
import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espritsim import channel, cli, esprit, harness, perturbation
from espritsim.kernels import EstimationError, InvalidInputError, NumericFailureError

ROOT = Path(__file__).resolve().parents[1]


def desk_config(tmp_path=None, **overrides):
    doc = {
        "scenario": {
            "carrier_hz": 30e9, "delta_f_hz": 1.875e6, "m": [8, 8, 8, 8, 64],
            "n": [4, 4, 4, 4], "n_p": 32, "e_s": 1.0,
            "p_t": [20, 5, 8], "p_r": [0, 5, 1.5],
            "scatterers": [[10, 2.5, 0]], "beam_kind": "dft", "seed": 11,
            "n_c": 600,
        },
        "snr_grid_db": [30.0], "trials": 4,
        "methods": ["matrix_dense", "analytic"], "seed": 3,
    }
    doc.update(overrides)
    if tmp_path is None:
        return doc
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestMatchPaths:
    def test_identity(self):
        freqs = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [-0.5, 0.9, -0.1, 0.0, 1.2]])
        assert list(harness.match_paths(freqs, freqs)) == [0, 1]

    def test_swap(self):
        a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        b = np.array([-0.5, 0.9, -0.1, 0.0, 1.2])
        assert list(harness.match_paths([b, a], [a, b])) == [1, 0]

    def test_matches_brute_force_l4(self, rng):
        truth = rng.uniform(-np.pi, np.pi, (4, 5))
        est = truth + 0.05 * rng.standard_normal((4, 5))
        est = est[[2, 0, 3, 1]]
        perm = harness.match_paths(est, truth)
        from itertools import permutations

        cost = np.sum(channel.wrap_angle(est[:, None] - truth[None]) ** 2, axis=2)
        best = min(permutations(range(4)),
                   key=lambda p: sum(cost[p[i], i] for i in range(4)))
        assert list(perm) == list(best)

    def test_hungarian_above_six(self, rng):
        truth = rng.uniform(-np.pi, np.pi, (7, 5))
        est = truth[::-1] + 1e-3 * rng.standard_normal((7, 5))
        perm = harness.match_paths(est, truth)
        assert list(perm) == list(range(6, -1, -1))

    def test_non_finite_frequency_rejected(self):
        good = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        bad = good.copy()
        bad[2] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            harness.match_paths([bad], [good])
        with pytest.raises(InvalidInputError, match="finite"):
            harness.match_paths([good], [bad])

    @pytest.mark.parametrize("est_shape, truth_shape", [((2, 4), (2, 4)), ((2, 5), (3, 5)),
                                                        ((5,), (5,))],
                             ids=["four-frequencies", "unequal-lengths", "one-vector"])
    def test_refuses_anything_but_two_equal_l_by_5_arrays(self, est_shape, truth_shape):
        with pytest.raises(InvalidInputError, match=r"two equal \(L, 5\)"):
            harness.match_paths(np.zeros(est_shape), np.zeros(truth_shape))


def random_cost(n, integer, seed):
    """An n x n cost matrix; integer-valued costs make ties likely."""
    rng = np.random.default_rng(seed)
    if integer:
        return rng.integers(0, 4, (n, n)).astype(float)
    return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)


def total_cost(cost, perm):
    """Total cost of the assignment of row perm[j] to column j."""
    return cost[np.asarray(perm), np.arange(len(perm))].sum()


def scipy_assignment(cost):
    """scipy's linear_sum_assignment as ``perm`` (row perm[j] to column j): a test oracle."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(rows), dtype=int)
    perm[cols] = rows
    return perm


def optimum_is_unique(cost, perm, tol):
    """Whether every other assignment costs more than ``perm`` by over ``tol``.

    Any other assignment leaves out at least one pair of ``perm``, so the
    optimum is unique exactly when forbidding each pair in turn raises the
    minimum by more than ``tol``.
    """
    best = total_cost(cost, perm)
    forbidden = 2 * np.abs(cost).sum() + 1.0
    for j, i in enumerate(perm):
        masked = cost.copy()
        masked[i, j] = forbidden
        if total_cost(masked, scipy_assignment(masked)) <= best + tol:
            return False
    return True


class TestMinCostAssignment:
    """The in-package exact solver behind match_paths."""

    def check_against_scipy(self, cost):
        perm = harness._min_cost_assignment(cost)
        n = cost.shape[0]
        assert sorted(perm) == list(range(n))
        tol = 1e-12 * n * np.abs(cost).max()      # 1e-12 of the scale of a total
        oracle = scipy_assignment(cost)
        assert abs(total_cost(cost, perm) - total_cost(cost, oracle)) <= tol
        if optimum_is_unique(cost, oracle, 1e6 * tol):
            assert list(perm) == list(oracle)
        return perm, tol

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.booleans(), st.integers(0, 2**31))
    def test_optimal_against_brute_force(self, n, integer, seed):
        cost = random_cost(n, integer, seed)
        perm, tol = self.check_against_scipy(cost)
        if n <= 7:
            best = min(total_cost(cost, p) for p in itertools.permutations(range(n)))
            assert abs(total_cost(cost, perm) - best) <= tol

    @settings(max_examples=60, deadline=None)
    @given(st.integers(9, 40), st.booleans(), st.integers(0, 2**31))
    def test_optimal_against_scipy(self, n, integer, seed):
        self.check_against_scipy(random_cost(n, integer, seed))

    def test_all_equal_costs(self):
        assert sorted(harness._min_cost_assignment(np.full((6, 6), 0.25))) == list(range(6))

    def test_one_by_one(self):
        assert list(harness._min_cost_assignment(np.array([[2.5]]))) == [0]

    def test_match_paths_returns_int_array(self):
        a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        perm = harness.match_paths([a], [a])
        assert perm.dtype == np.dtype(int) and list(perm) == [0]


def estimation_error_names():
    """Names of every class of the failure taxonomy (subclasses of EstimationError)."""
    names, todo = set(), [EstimationError]
    while todo:
        for sub in todo.pop().__subclasses__():
            names.add(sub.__name__)
            todo.append(sub)
    return names


class TestTrialFailureContainment:
    """Faults run through one trial of each per-trial method on the desk scene.

    Every call returns; a failed trial names a class of the failure taxonomy
    at the head of its error, and the trials of a scoring fault score.
    """

    METHODS = ("matrix_dense", "matrix_fast", "tensor")

    @staticmethod
    def run_trial(desk_setup, method, tensor, paths=None, l5=None, seed=1):
        scen, true_paths, transforms, _, _ = desk_setup
        paths = true_paths if paths is None else paths
        truth = channel.path_omegas(paths, scen.delta_f)
        out = harness._run_single_trial(
            method, tensor, transforms, scen, paths, truth,
            l5 or esprit.default_l5(scen.m[4]), np.random.default_rng(seed))
        if not out.ok:
            assert out.error.split(": ", 1)[0] in estimation_error_names(), out.error
        return out

    @pytest.mark.parametrize("method, error", [
        ("matrix_fast", "NumericFailureError"),     # Lanczos: zero operator
        ("matrix_dense", "PairingFailureError"),    # all eigenvalues collide
        ("tensor", "InvalidInputError"),            # no CP decomposition
    ])
    def test_zero_tensor(self, desk_setup, method, error):
        out = self.run_trial(desk_setup, method, np.zeros_like(desk_setup[3]))
        assert not out.ok
        assert out.error.startswith(error + ": ")

    @pytest.mark.parametrize("tap", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_tap(self, desk_setup, method, tap):
        tensor = desk_setup[3].copy()
        tensor[1, 2, 3, 0, 5] = tap
        out = self.run_trial(desk_setup, method, tensor)
        assert not out.ok
        assert out.error.startswith("InvalidInputError: ")

    @pytest.mark.parametrize("method", METHODS)
    def test_coincident_paths(self, desk_setup, method):
        # the LOS path twice, with two gains: a noiseless tensor of rank 1
        scen, paths, transforms, _, _ = desk_setup
        twins = [paths[0], dataclasses.replace(paths[0], gamma=0.5j * paths[0].gamma)]
        tensor = channel.synth_beamspace_tensor(twins, transforms, scen)
        out = self.run_trial(desk_setup, method, tensor, paths=twins)
        if method == "matrix_fast":     # Lanczos breaks down after one step
            assert out.error.startswith("NumericFailureError: subspace of rank 1")

    @pytest.mark.parametrize("method", METHODS)
    def test_window_below_path_count(self, desk_setup, method):
        # config loading refuses it; a direct call still fails classified
        out = self.run_trial(desk_setup, method, desk_setup[3], l5=1)
        if method != "tensor":          # the tensor pipeline does not smooth
            assert out.error.startswith("InvalidInputError: more paths than")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("snr_db, l5", [(-20.0, None), (20.0, 63)],
                             ids=["minus-20db", "l5-m5-minus-1"])
    def test_trials_score(self, desk_setup, method, snr_db, l5):
        scen, paths, transforms, tensor, _ = desk_setup
        n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
        for seed in range(2):
            noisy = channel.observe_and_estimate(tensor, scen,
                                                 np.random.default_rng(seed), n0=n0)
            out = self.run_trial(desk_setup, method, noisy, l5=l5, seed=seed)
            assert out.ok, out.error


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = desk_config(tmp_path)
        cfg = harness.ExperimentConfig.from_json(path)
        assert cfg.trials == 4
        assert cfg.scenario.m == (8, 8, 8, 8, 64)

    def test_rejects_unknown_method(self):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(desk_config(methods=["nope"]))

    def test_rejects_empty_grid(self):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(desk_config(snr_grid_db=[]))

    @pytest.mark.parametrize("overrides, message", [
        ({"snr_grid_db": "30"}, "snr_grid_db='30' must be a list of numbers"),
        ({"snr_grid_db": [True, 20]}, "snr_grid_db=[True, 20] must be a list of numbers"),
        ({"snr_grid_db": 30}, "snr_grid_db=30 must be a list of numbers"),
        ({"max_failure_rate": True}, "max_failure_rate=True must be a number"),
        ({"methods": "tensor"}, "methods='tensor' must be a list of method names"),
    ], ids=["string-grid", "bool-in-grid", "number-grid", "bool-failure-cap",
            "string-methods"])
    def test_rejects_wrongly_typed_value(self, overrides, message):
        # a string is not taken one character at a time, nor a boolean as 0/1
        with pytest.raises(harness.ConfigError) as info:
            harness.ExperimentConfig.from_dict(desk_config(**overrides))
        assert message in str(info.value)

    @pytest.mark.parametrize("l5", [0, 65, 200])
    def test_rejects_l5_outside_subcarriers(self, l5):
        with pytest.raises(harness.ConfigError, match="outside"):
            harness.ExperimentConfig.from_dict(desk_config(l5=l5))

    @pytest.mark.parametrize("l5", [1, 64])
    def test_accepts_l5_at_the_ends(self, l5):
        # l5 = M5 leaves one window and l5 = 1 holds one path: only the
        # tensor method, which does not smooth, may run there
        cfg = harness.ExperimentConfig.from_dict(desk_config(l5=l5, methods=["tensor"]))
        assert cfg.l5 == l5

    @pytest.mark.parametrize("method", ["matrix_dense", "matrix_fast", "analytic"])
    def test_rejects_l5_below_path_count(self, method):
        # the desk scene has two paths; an l5-column smoothed stack holds l5
        cfg = harness.ExperimentConfig.from_dict(desk_config(l5=2, methods=[method]))
        assert cfg.l5 == 2
        with pytest.raises(harness.ConfigError, match="l5=1 is below the 2 paths"):
            harness.ExperimentConfig.from_dict(desk_config(l5=1, methods=["tensor", method]))

    @pytest.mark.parametrize("method", ["matrix_dense", "matrix_fast", "analytic"])
    def test_rejects_l5_at_m5_for_smoothing_methods(self, method):
        with pytest.raises(harness.ConfigError, match="K5 >= 2"):
            harness.ExperimentConfig.from_dict(
                desk_config(l5=64, methods=["tensor", method]))

    @pytest.mark.parametrize("section", ["top", "scenario"])
    def test_rejects_unknown_keys(self, section):
        doc = desk_config()
        (doc if section == "top" else doc["scenario"])["trails"] = 1
        with pytest.raises(harness.ConfigError, match="'trails'"):
            harness.ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("rate", [0, 0.05, 1.0])
    def test_accepts_failure_cap_in_unit_interval(self, rate):
        cfg = harness.ExperimentConfig.from_dict(desk_config(max_failure_rate=rate))
        assert cfg.max_failure_rate == rate

    @pytest.mark.parametrize("doc", [5, [1], "x"])
    def test_rejects_non_object(self, doc):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(doc)


class TestRunExperiment:
    def test_noiseless_end_to_end(self):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(snr_grid_db=[200.0], trials=1,
                        methods=["matrix_dense"]))
        rows, _ = harness.run_experiment(cfg)
        table = {(r.metric, r.path_class): r.value for r in rows
                 if r.method == "matrix_dense"}
        assert table[("rmse_phi_az", "all")] < 1e-8
        assert table[("rmse_tau_m", "all")] < 1e-8 * channel.SPEED_OF_LIGHT
        assert table[("rmse_pos_m", "all")] < 1e-6

    # figure 6 holds wall-clock timings and is exempt from byte identity
    DETERMINISTIC_FIGS = ("3a", "3b", "3c", "4", "5")

    def test_determinism_across_threads(self, tmp_path):
        cfg1 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "a"), threads=1))
        cfg4 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "b"), threads=4))
        _, files1 = harness.run_experiment(cfg1)
        _, files4 = harness.run_experiment(cfg4)
        for fig in self.DETERMINISTIC_FIGS:
            b1 = Path(files1[fig]).read_bytes()
            b4 = Path(files4[fig]).read_bytes()
            assert b1 == b4

    def test_fast_path_determinism_across_threads(self, tmp_path):
        files = []
        for threads in (1, 2):
            cfg = harness.ExperimentConfig.from_dict(desk_config(
                outputs=str(tmp_path / f"fast{threads}"), threads=threads,
                methods=["matrix_fast"]))
            files.append(harness.run_experiment(cfg)[1])
        for fig in self.DETERMINISTIC_FIGS:
            assert Path(files[0][fig]).read_bytes() == Path(files[1][fig]).read_bytes()

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg1 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "r1")))
        cfg2 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "r2")))
        _, f1 = harness.run_experiment(cfg1)
        _, f2 = harness.run_experiment(cfg2)
        for fig in self.DETERMINISTIC_FIGS:
            assert Path(f1[fig]).read_bytes() == Path(f2[fig]).read_bytes()

    def test_dump_recompute_matches(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "d"), dump_trials=True,
                        methods=["matrix_dense"]))
        rows, files = harness.run_experiment(cfg)
        import csv

        with open(files["trials"]) as fh:
            dump = [r for r in csv.DictReader(fh) if r["method"] == "matrix_dense"]
        sq = [float(r["sq_pos"]) for r in dump if r["ok"] == "1"]
        want = next(r.value for r in rows
                    if r.method == "matrix_dense" and r.metric == "rmse_pos_m")
        assert np.sqrt(np.mean(sq)) == pytest.approx(want, rel=1e-12)

    def test_dump_carries_lanczos_steps_and_stop(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "d"), dump_trials=True, trials=2,
                        methods=["matrix_dense", "matrix_fast", "tensor"]))
        _, files = harness.run_experiment(cfg)
        import csv

        with open(files["trials"]) as fh:
            dump = list(csv.DictReader(fh))
        assert {r["method"] for r in dump} == {"matrix_dense", "matrix_fast", "tensor"}
        for r in dump:
            if r["method"] == "matrix_fast":
                # 30 dB, true order: the top-2 Ritz triplets converge early
                assert r["lanczos_stop"] == "converged"
                assert 2 < int(r["lanczos_steps"]) < 20
            else:
                assert r["lanczos_steps"] == r["lanczos_stop"] == ""

    def test_dump_carries_rotation_residual_and_subspace_gap(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "d"), dump_trials=True, trials=2,
                        methods=["matrix_dense", "matrix_fast", "tensor"]))
        _, files = harness.run_experiment(cfg)
        import csv

        with open(files["trials"]) as fh:
            dump = list(csv.DictReader(fh))
        assert {r["method"] for r in dump} == {"matrix_dense", "matrix_fast", "tensor"}
        for r in dump:
            # every method solves for the gains
            assert float(r["gain_matrix_condition"]) >= 1.0
            if r["method"] == "tensor":
                assert r["rotation_residual"] == r["subspace_gap"] == ""
                assert r["pairing_separation"] == r["beta_redraws"] == ""
            else:
                # noisy data: a real residual, and a gap sigma_2 / sigma_3 > 1
                assert 0.0 < float(r["rotation_residual"]) < 1.0
                assert float(r["subspace_gap"]) > 1.0
                assert 0.0 < float(r["pairing_separation"]) < np.inf
                assert int(r["beta_redraws"]) >= 0

    def test_dump_writes_single_path_separation_as_inf(self, tmp_path):
        # one path: nothing to pair, and the separation is reported as inf.
        # The diagnostics are kept whether or not the trial is scored. A config
        # refuses one path for these methods, so the trials are run directly.
        doc = desk_config()
        doc["scenario"]["scatterers"] = []
        scen = channel.Scenario.from_dict(doc["scenario"])
        paths = channel.params_from_geometry(scen)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        truth = channel.path_omegas(paths, scen.delta_f)
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 30.0)
        trials = []
        for method in ("matrix_dense", "matrix_fast"):
            for t in range(2):
                rng = np.random.default_rng(t)
                noisy = channel.observe_and_estimate(tensor, scen, rng, n0=n0)
                trials.append((method, 30.0, t, harness._run_single_trial(
                    method, noisy, transforms, scen, paths, truth,
                    esprit.default_l5(scen.m[4]), rng)))
        with open(harness._write_trial_dump(trials, tmp_path)) as fh:
            dump = list(csv.DictReader(fh))
        assert len(dump) == 4
        for r in dump:
            assert r["pairing_separation"] == "inf"
            assert r["beta_redraws"] == "0"

    def test_dump_carries_cp_fit_and_iterations(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "d"), dump_trials=True, trials=2,
                        methods=["matrix_fast", "tensor"]))
        _, files = harness.run_experiment(cfg)
        import csv

        with open(files["trials"]) as fh:
            dump = list(csv.DictReader(fh))
        assert {r["method"] for r in dump} == {"matrix_fast", "tensor"}
        for r in dump:
            if r["method"] == "tensor":
                # 30 dB: the residual is the noise, and ALS stops well short of its cap
                assert 0.0 < float(r["cp_fit"]) < 0.1
                assert 1 <= int(r["cp_iterations"]) < 500
            else:
                assert r["cp_fit"] == r["cp_iterations"] == ""

    def test_analytic_rows_present(self):
        cfg = harness.ExperimentConfig.from_dict(desk_config())
        rows, _ = harness.run_experiment(cfg)
        metrics = {r.metric for r in rows if r.method == "analytic"}
        assert {"rmse_phi_az", "rmse_tau_m", "rmse_gamma",
                "rmse_pos_m"} <= metrics
        assert any(r.method == "perfect_csi" and r.metric == "rate_bps_hz"
                   for r in rows)

    def test_failure_rate_breach_raises(self, monkeypatch):
        # failed trials are counted per method and a >5% rate aborts the run
        real = harness._run_single_trial
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                return harness._TrialOutput(ok=False, error="forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "_run_single_trial", flaky)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=4, methods=["matrix_dense"]))
        with pytest.raises(harness.TrialFailureRateError, match="breached 5% cap"):
            harness.run_experiment(cfg)
        # the message states the cap in force
        cfg = dataclasses.replace(cfg, max_failure_rate=0.25)
        with pytest.raises(harness.TrialFailureRateError, match="breached 25% cap"):
            harness.run_experiment(cfg)

    def test_failures_reported_in_rows(self, monkeypatch):
        real = harness._run_single_trial
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return harness._TrialOutput(ok=False, error="forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "_run_single_trial", flaky)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=30, methods=["matrix_dense"]))
        rows, _ = harness.run_experiment(cfg)   # 1/30 < 5%: no breach
        row = next(r for r in rows if r.method == "matrix_dense")
        assert row.failures == 1
        assert row.trials == 29

    def test_non_finite_estimate_counted_as_failure(self, monkeypatch):
        # a NaN gain must not reach the rate SVD and abort the sweep
        real = esprit.esprit_pipeline
        calls = {"n": 0}

        def nan_gain(*args, **kwargs):
            est = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                est.gains[0] = np.nan
                est.params[0] = dataclasses.replace(est.params[0],
                                                    gamma=complex(np.nan))
            return est

        monkeypatch.setattr(esprit, "esprit_pipeline", nan_gain)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=20, methods=["matrix_fast"]))
        rows, _ = harness.run_experiment(cfg)
        for row in (r for r in rows if r.method == "matrix_fast"):
            assert (row.trials, row.failures) == (19, 1)
            assert np.isfinite(row.value)

    def test_csv_header_and_columns(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "h")))
        _, files = harness.run_experiment(cfg)
        with open(files["3a"]) as fh:
            head = fh.readline().strip()
        assert head == "method,snr_db,path_class,metric,value,trials,failures"


def trials_without_runtime(path):
    """trials.csv as rows of fields, without the wall-clock runtime_s column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_s")
    return [row[:col] + row[col + 1:] for row in rows]


@pytest.mark.usefixtures("hang_guard")
class TestProcessPool:
    """threads > 1 runs the trials in forked workers, which inherit any fault
    a test installs before the sweep."""

    def test_trials_dump_identical_across_worker_counts(self, tmp_path):
        dumps = []
        for threads in (1, 2):
            cfg = harness.ExperimentConfig.from_dict(desk_config(
                outputs=str(tmp_path / f"w{threads}"), threads=threads, trials=3,
                snr_grid_db=[10.0, 30.0], methods=["matrix_fast", "tensor"],
                dump_trials=True))
            dumps.append(trials_without_runtime(harness.run_experiment(cfg)[1]["trials"]))
        assert len(dumps[0]) == 1 + 2 * 2 * 3
        assert dumps[0] == dumps[1]

    def test_programming_error_reraises_in_parent(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken pipeline")

        monkeypatch.setattr(esprit, "esprit_pipeline", broken)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=3, methods=["matrix_fast"], threads=2))
        with pytest.raises(RuntimeError, match="broken pipeline") as info:
            harness.run_experiment(cfg)
        assert info.type is RuntimeError
        assert multiprocessing.active_children() == []

    def test_classified_failure_counted_as_in_process(self, monkeypatch, tmp_path):
        real = esprit.esprit_pipeline

        def failing(*args, rng, **kwargs):
            # keyed on the trial's own RNG stream, so the same trials fail in
            # every process
            if rng.bit_generator.state["state"]["state"] % 2:
                raise NumericFailureError("injected")
            return real(*args, rng=rng, **kwargs)

        monkeypatch.setattr(esprit, "esprit_pipeline", failing)
        counts, dumps = [], []
        for threads in (1, 2):
            cfg = harness.ExperimentConfig.from_dict(desk_config(
                outputs=str(tmp_path / f"w{threads}"), threads=threads, trials=4,
                snr_grid_db=[10.0, 30.0], methods=["matrix_fast"],
                dump_trials=True, max_failure_rate=1.0))
            rows, files = harness.run_experiment(cfg)
            counts.append([(r.snr_db, r.trials, r.failures) for r in rows
                           if r.method == "matrix_fast" and r.metric == "rmse_pos_m"])
            dumps.append(trials_without_runtime(files["trials"]))
        failed = [row for row in dumps[0][1:] if row[3] == "0"]
        assert 0 < len(failed) < 8
        assert all(row[-1] == "NumericFailureError: injected" for row in failed)
        assert sum(f for _, _, f in counts[0]) == len(failed)
        assert counts[0] == counts[1]
        assert dumps[0] == dumps[1]

    def test_parent_failure_cancels_queued_trials(self, monkeypatch):
        # the parent builds the kit while the workers run trials: its failure
        # must drop the queued trials, not wait for them
        ran = multiprocessing.Value("i", 0)     # shared with the forked workers
        real = esprit.esprit_pipeline

        def counting(*args, **kwargs):
            with ran.get_lock():
                ran.value += 1
            return real(*args, **kwargs)

        def ill_posed(*args, **kwargs):
            raise perturbation.IllPosedScenarioError("injected kit failure")

        queued = 100
        # loading builds the kit once too, so the failure is injected after it
        cfg = harness.ExperimentConfig.from_dict(desk_config(
            trials=queued, methods=["matrix_fast", "analytic"], threads=2))
        monkeypatch.setattr(esprit, "esprit_pipeline", counting)
        monkeypatch.setattr(perturbation, "build_kit", ill_posed)
        with pytest.raises(perturbation.IllPosedScenarioError, match="injected") as info:
            harness.run_experiment(cfg)
        assert info.type is perturbation.IllPosedScenarioError
        assert ran.value < queued // 4
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_sweep(self):
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=3, methods=["matrix_fast"], threads=2))
        rows, _ = harness.run_experiment(cfg)
        assert any(r.method == "matrix_fast" for r in rows)
        assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("hang_guard")
class TestTrialLoop:
    """The parent runs trials next to threads - 1 forked helpers; a helper's
    failure reaches the parent, and no helper is left behind."""

    def only_in_helpers(self, monkeypatch, fault):
        """Patch the matrix pipeline to call ``fault`` in every process but this one."""
        parent = os.getpid()
        real = esprit.esprit_pipeline

        def pipeline(*args, **kwargs):
            if os.getpid() != parent:
                fault()
            return real(*args, **kwargs)

        monkeypatch.setattr(esprit, "esprit_pipeline", pipeline)

    def test_dead_helper_raises_lost_task(self, monkeypatch):
        self.only_in_helpers(monkeypatch, lambda: os._exit(3))
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=20, methods=["matrix_fast"], threads=2))
        with pytest.raises(harness.TrialLostError,
                           match=r"exited with code 3 before sending matrix_fast "
                                 r"trial \d+ at SNR point 0"):
            harness.run_experiment(cfg)
        assert multiprocessing.active_children() == []

    def test_helper_error_carries_its_traceback(self, monkeypatch):
        def fault():
            raise RuntimeError("broken in a helper")

        self.only_in_helpers(monkeypatch, fault)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=20, methods=["matrix_fast"], threads=2))
        with pytest.raises(RuntimeError, match="broken in a helper") as info:
            harness.run_experiment(cfg)
        assert info.type is RuntimeError
        remote = str(info.value.__cause__)
        assert "Traceback (most recent call last)" in remote
        assert "in fault" in remote and "RuntimeError: broken in a helper" in remote
        assert multiprocessing.active_children() == []

    def test_parent_failure_with_a_full_pipe_joins_the_helper(self, monkeypatch):
        # a desk trial's output pickles to ~3 kB, so the helper fills its pipe
        # while the kit sleeps; its blocked send must fail once the parent
        # stops reading, or the join would wait forever
        def slow_ill_posed(*args, **kwargs):
            time.sleep(0.6)
            raise perturbation.IllPosedScenarioError("injected kit failure")

        cfg = harness.ExperimentConfig.from_dict(desk_config(
            trials=400, methods=["matrix_fast", "analytic"], threads=2))
        monkeypatch.setattr(perturbation, "build_kit", slow_ill_posed)
        with pytest.raises(perturbation.IllPosedScenarioError, match="injected"):
            harness.run_experiment(cfg)
        assert multiprocessing.active_children() == []

    def test_more_threads_than_tasks_matches_one_thread(self, tmp_path):
        results = []
        for threads in (1, 5):
            cfg = harness.ExperimentConfig.from_dict(desk_config(
                outputs=str(tmp_path / f"t{threads}"), threads=threads, trials=2,
                methods=["matrix_fast"], dump_trials=True))
            rows, files = harness.run_experiment(cfg)
            results.append(([r.as_csv_row() for r in rows if r.metric != "runtime_s"],
                            trials_without_runtime(files["trials"])))
        assert results[0] == results[1]
        assert multiprocessing.active_children() == []


class TestBlasThreads:
    """run_experiment runs every loaded OpenBLAS at one thread and restores
    the caller's counts after the sweep."""

    def fake_blas(self, monkeypatch, start=4):
        counts = [start, start]
        controls = tuple((functools.partial(counts.__getitem__, i),
                          functools.partial(counts.__setitem__, i)) for i in range(2))
        monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: controls)
        return counts

    def test_pinned_during_sweep_restored_after_error(self, monkeypatch):
        counts = self.fake_blas(monkeypatch)
        seen = []

        def broken(*args, **kwargs):
            seen.append(list(counts))
            raise RuntimeError("broken pipeline")

        monkeypatch.setattr(esprit, "esprit_pipeline", broken)
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=1, methods=["matrix_fast"]))
        with pytest.raises(RuntimeError, match="broken pipeline"):
            harness.run_experiment(cfg)
        assert seen == [[1, 1]]
        assert counts == [4, 4]

    def test_no_openblas_found_runs_unpinned(self, monkeypatch):
        monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: ())
        cfg = harness.ExperimentConfig.from_dict(
            desk_config(trials=2, methods=["matrix_fast", "analytic"], threads=2))
        rows, _ = harness.run_experiment(cfg)
        assert {r.method for r in rows} == {"matrix_fast", "analytic", "perfect_csi"}

    def test_real_counts_restored_after_sweep(self):
        # in a subprocess: the thread counts are process-wide state
        script = textwrap.dedent("""
            import json, sys
            from espritsim import esprit, harness
            controls = harness._openblas_thread_controls()
            for _, set_ in controls:
                set_(3)
            seen = []
            real = esprit.esprit_pipeline
            def spy(*args, **kwargs):
                seen.append([get() for get, _ in controls])
                return real(*args, **kwargs)
            esprit.esprit_pipeline = spy
            harness.run_experiment(harness.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
            print(json.dumps({"during": seen, "after": [get() for get, _ in controls]}))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps(desk_config(trials=2, methods=["matrix_fast"]))],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        if not out["after"]:
            pytest.skip("no OpenBLAS is loaded")
        assert out["during"] == [[1] * len(out["after"])] * 2
        assert out["after"] == [3] * len(out["after"])


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "espritsim.cli", *args],
                              capture_output=True, text=True)

    def test_validate_ok(self, tmp_path):
        path = desk_config(tmp_path)
        res = self.run_cli("validate-config", str(path))
        assert res.returncode == 0

    def test_validate_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"snr_grid_db": [10]}))
        res = self.run_cli("validate-config", str(path))
        assert res.returncode == 2

    def test_config_error_is_reported_once(self, tmp_path, capsys):
        # a ConfigError raised while loading is not wrapped a second time
        path = desk_config(tmp_path, snr_grid_db="30")
        assert cli.main(["validate-config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: snr_grid_db='30' must be a list of numbers\n")

    def test_validate_rejects_out_of_range_l5(self, tmp_path, capsys):
        path = desk_config(tmp_path, l5=200)
        assert cli.main(["validate-config", str(path)]) == 2
        assert "l5=200 outside [1, 64]" in capsys.readouterr().err

    def test_validate_rejects_l5_at_m5(self, tmp_path):
        path = desk_config(tmp_path, l5=64)
        res = self.run_cli("validate-config", str(path))
        assert res.returncode == 2
        assert "K5 >= 2" in res.stderr

    @pytest.mark.parametrize("scenario, message", [
        ({"m": [4, 8, 8, 8, 64], "n": [6, 4, 4, 4]}, "more beams than elements"),
        ({"beam_kind": "custom"}, "beam kind 'custom'"),
        ({"weights": "bogus"}, "unknown weight kind 'bogus'"),
        ({"nlos_power_scale": -1}, "nlos_power_scale=-1.0 must be finite and > 0"),
        ({"e_s": 0}, "e_s=0.0 must be finite and > 0"),
        ({"n_c": 16}, "n_c=16 < n_p=32"),
        ({"n_p": 32.7}, "scenario n_p=32.7 must be an integer"),
        ({"n_c": 600.9}, "scenario n_c=600.9 must be an integer"),
        ({"seed": 7.5}, "scenario seed=7.5 must be an integer"),
        ({"seed": True}, "scenario seed=True must be an integer"),
        ({"m": [8, 8.5, 8, 8, 64]}, "scenario m[1]=8.5 must be an integer"),
        ({"scatterers": []}, "single path"),
        ({"delta_f_hz": 0}, "scenario delta_f_hz=0.0 must be finite and > 0"),
        ({"carrier_hz": 0}, "scenario carrier_hz=0.0 must be finite and > 0"),
        ({"p_t": [20, 5]}, "scenario p_t=[20, 5] must be a finite 3-vector"),
        ({"scatterers": [[10, 2.5]]}, "scenario scatterers[0]=[10, 2.5] must be a finite 3-vector"),
        ({"scatterers": [[20, 2.5, 0]]}, "path endpoint in an array's broadside plane"),
        ({"scatterers": [[30, 2.5, 0]]}, "paths straddle both azimuth half-spaces"),
        ({"p_r": [20, 5, 8]}, "transmitter and receiver coincide"),
        ({"n": [2, 4, 4, 4]}, "scenario n[0]=2 is below the 3 beams"),
        ({"n0": 0.0}, "unknown scenario keys: ['n0']"),
        ({"scatterers": [[10, 5, 4.75]]}, "two paths coincide"),
        ({"beam_kind": {"tx": "dft", "rx": "dft", "typo": "directional"}},
         "beam_kind keys ['rx', 'tx', 'typo']"),
        ({"beam_kind": {"tx": "dft"}}, "beam_kind keys ['tx']"),
        # a string or a boolean is not taken as a real number
        ({"e_s": "2"}, "scenario e_s='2' must be a real number"),
        ({"delta_f_hz": "1.875e6"}, "scenario delta_f_hz='1.875e6' must be a real number"),
        ({"nlos_power_scale": "0.1"}, "scenario nlos_power_scale='0.1' must be a real number"),
        ({"carrier_hz": True}, "scenario carrier_hz=True must be a real number"),
        ({"e_s": False}, "scenario e_s=False must be a real number"),
        ({"p_r": [0, 5, True]}, "scenario p_r=[0, 5, True] must be a finite 3-vector"),
        ({"p_t": ["20", 5, 8]}, "scenario p_t=['20', 5, 8] must be a finite 3-vector"),
        ({"p_t": "abc"}, "scenario p_t='abc' must be a finite 3-vector"),
    ])
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_unbuildable_scenario_exit_code_2(self, tmp_path, capsys, command,
                                              scenario, message):
        # set-up cannot build these transforms: reject at load, not mid-run
        doc = desk_config()
        doc["scenario"].update(scenario)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = [str(path)] if command == "validate-config" else ["--config", str(path)]
        assert cli.main([command, *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"trials": 2.5}, "must be integers"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.5}, "must be integers"),
        ({"l5": 3.5}, "must be integers"),
        ({"threads": 0}, "threads must be >= 1"),
        ({"threads": -2}, "threads must be >= 1"),
        ({"threads": True}, "must be integers"),
        ({"observation": "direct"}, "unknown config keys: ['observation']"),
        ({"max_failure_rate": -1}, "outside [0, 1]"),
        ({"max_failure_rate": 1.5}, "outside [0, 1]"),
        ({"outputs": 5}, "outputs=5 must be null or a directory path"),
        ({"snr_grid_db": [float("nan")]}, "entries must be finite"),
        ({"snr_grid_db": [10.0, float("inf")]}, "entries must be finite"),
        ({"methods": ["matrix_fast", "matrix_fast", "analytic"]},
         "repeated methods: ['matrix_fast']"),
        ({"dump_trials": "no"}, "dump_trials='no' must be true or false"),
    ], ids=["float-trials", "negative-seed", "float-seed", "float-l5", "zero-threads",
            "negative-threads", "bool-threads", "unknown-observation",
            "negative-failure-cap", "failure-cap-above-one", "int-outputs",
            "nan-snr", "inf-snr", "repeated-method", "string-dump-trials"])
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_bad_value_exit_code_2(self, tmp_path, capsys, command, overrides, message):
        # rejected at load time, before any trial runs
        path = desk_config(tmp_path, **overrides)
        args = [str(path)] if command == "validate-config" else ["--config", str(path)]
        assert cli.main([command, *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["desk.json", "fullscale.json"])
    def test_shipped_configs_are_valid(self, name, capsys):
        assert cli.main(["validate-config", str(ROOT / "configs" / name)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_los_scatterer_refused_for_every_smoothing_method(self, tmp_path, capsys):
        # the kit's rank test runs at load for matrix_fast alone too: the
        # scatterer's path repeats the LOS path, so no smoothed stack
        # separates the two
        doc = json.loads((ROOT / "configs" / "desk.json").read_text())
        doc["scenario"]["scatterers"] = [[10, 5, 4.75]]
        doc["methods"] = ["matrix_fast"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate-config", str(path)]) == 2
        assert "['matrix_fast']: J1 P rank deficient" in capsys.readouterr().err

    def test_single_path_analytic_only_is_valid(self, tmp_path, capsys):
        # only the per-trial methods need a path to localize from
        doc = desk_config(methods=["analytic"])
        doc["scenario"]["scatterers"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate-config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_zero_threads_flag_exit_code_2(self, tmp_path, capsys):
        path = desk_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_run_and_figures(self, tmp_path):
        path = desk_config(tmp_path, trials=2)
        out = tmp_path / "out"
        res = self.run_cli("run", "--config", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "fig3a_angles.csv").exists()
        res = self.run_cli("figures", "--which", "5", "--config", str(path))
        assert res.returncode == 0
        assert "rate_bps_hz" in res.stdout

    def test_trials_header_matches_readme(self, tmp_path):
        # the README's column list is the one copy of the header outside the code
        text = (ROOT / "README.md").read_text()
        paragraph = text.split("Columns of trials.csv:", 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"`([^`]+)`", paragraph)
        path = desk_config(tmp_path, trials=1, methods=["matrix_fast"])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--dump-trials"]) == 0
        with open(out / "trials.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert len(set(documented)) == len(documented)
        assert set(header) == set(documented)

    def test_failure_breach_exit_code_3(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise harness.TrialFailureRateError("forced breach")

        monkeypatch.setattr(harness, "run_experiment", boom)
        path = desk_config(tmp_path, trials=2)
        assert cli.main(["run", "--config", str(path)]) == 3
