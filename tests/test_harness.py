import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from espritsim import channel, cli, esprit, harness
from espritsim.kernels import InvalidInputError


def desk_config(tmp_path=None, **overrides):
    doc = {
        "scenario": {
            "carrier_hz": 30e9, "delta_f_hz": 1.875e6, "m": [8, 8, 8, 8, 64],
            "n": [4, 4, 4, 4], "n_p": 32, "e_s": 1.0, "n0": 0.0,
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
        freqs = [channel.AngularFreqs(np.array([0.1, 0.2, 0.3, 0.4, 0.5])),
                 channel.AngularFreqs(np.array([-0.5, 0.9, -0.1, 0.0, 1.2]))]
        assert list(harness.match_paths(freqs, freqs)) == [0, 1]

    def test_swap(self):
        a = channel.AngularFreqs(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        b = channel.AngularFreqs(np.array([-0.5, 0.9, -0.1, 0.0, 1.2]))
        assert list(harness.match_paths([b, a], [a, b])) == [1, 0]

    def test_matches_brute_force_l4(self, rng):
        truth = rng.uniform(-np.pi, np.pi, (4, 5))
        est = truth + 0.05 * rng.standard_normal((4, 5))
        est = est[[2, 0, 3, 1]]
        perm = harness.match_paths([channel.AngularFreqs(e) for e in est],
                                   [channel.AngularFreqs(t) for t in truth])
        from itertools import permutations

        cost = np.sum(channel.wrap_angle(est[:, None] - truth[None]) ** 2, axis=2)
        best = min(permutations(range(4)),
                   key=lambda p: sum(cost[p[i], i] for i in range(4)))
        assert list(perm) == list(best)

    def test_hungarian_above_six(self, rng):
        truth = rng.uniform(-np.pi, np.pi, (7, 5))
        est = truth[::-1] + 1e-3 * rng.standard_normal((7, 5))
        perm = harness.match_paths([channel.AngularFreqs(e) for e in est],
                                   [channel.AngularFreqs(t) for t in truth])
        assert list(perm) == list(range(6, -1, -1))

    def test_non_finite_frequency_rejected(self):
        good = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        bad = good.copy()
        bad[2] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            harness.match_paths([bad], [good])
        with pytest.raises(InvalidInputError, match="finite"):
            harness.match_paths([good], [bad])


class TestTrialFailureContainment:
    """Estimator failures become counted failed trials, never a crash."""

    @staticmethod
    def run_trial(desk_setup, method, tensor):
        scen, paths, transforms, _, truth = desk_setup
        return harness._run_single_trial(
            method, tensor, transforms, scen, paths, truth,
            esprit.default_l5(scen.m[4]), np.random.default_rng(1), 1e-3)

    @pytest.mark.parametrize("method, error", [
        ("matrix_fast", "NumericFailureError"),     # Lanczos: zero operator
        ("matrix_dense", "PairingFailureError"),    # all eigenvalues collide
        ("tensor", "InvalidInputError"),            # no CP decomposition
    ])
    def test_zero_tensor(self, desk_setup, method, error):
        out = self.run_trial(desk_setup, method, np.zeros_like(desk_setup[3]))
        assert not out.ok
        assert out.error.startswith(error + ": ")

    @pytest.mark.parametrize("method", ["matrix_fast", "matrix_dense", "tensor"])
    def test_nan_tap(self, desk_setup, method):
        tensor = desk_setup[3].copy()
        tensor[1, 2, 3, 0, 5] = np.nan
        out = self.run_trial(desk_setup, method, tensor)
        assert not out.ok
        assert out.error.startswith("InvalidInputError: ")


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

    @pytest.mark.parametrize("l5", [0, 65, 200])
    def test_rejects_l5_outside_subcarriers(self, l5):
        with pytest.raises(harness.ConfigError, match="outside"):
            harness.ExperimentConfig.from_dict(desk_config(l5=l5))

    @pytest.mark.parametrize("l5", [1, 64])
    def test_accepts_l5_at_the_ends(self, l5):
        # l5 = M5 leaves one window: only the tensor method, which does not
        # smooth, may run there
        methods = ["tensor"] if l5 == 64 else ["matrix_dense", "analytic"]
        cfg = harness.ExperimentConfig.from_dict(desk_config(l5=l5, methods=methods))
        assert cfg.l5 == l5

    @pytest.mark.parametrize("method", ["matrix_dense", "matrix_fast", "analytic"])
    def test_rejects_l5_at_m5_for_smoothing_methods(self, method):
        with pytest.raises(harness.ConfigError, match="K5 >= 2"):
            harness.ExperimentConfig.from_dict(
                desk_config(l5=64, methods=["tensor", method]))


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
            b1 = open(files1[fig], "rb").read()
            b4 = open(files4[fig], "rb").read()
            assert b1 == b4

    def test_fast_path_determinism_across_threads(self, tmp_path):
        files = []
        for threads in (1, 2):
            cfg = harness.ExperimentConfig.from_dict(desk_config(
                outputs=str(tmp_path / f"fast{threads}"), threads=threads,
                methods=["matrix_fast"]))
            files.append(harness.run_experiment(cfg)[1])
        for fig in self.DETERMINISTIC_FIGS:
            assert open(files[0][fig], "rb").read() == open(files[1][fig], "rb").read()

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg1 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "r1")))
        cfg2 = harness.ExperimentConfig.from_dict(
            desk_config(outputs=str(tmp_path / "r2")))
        _, f1 = harness.run_experiment(cfg1)
        _, f2 = harness.run_experiment(cfg2)
        for fig in self.DETERMINISTIC_FIGS:
            assert open(f1[fig], "rb").read() == open(f2[fig], "rb").read()

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
            if r["method"] == "tensor":
                assert r["rotation_residual"] == r["subspace_gap"] == ""
            else:
                # noisy data: a real residual, and a gap sigma_2 / sigma_3 > 1
                assert 0.0 < float(r["rotation_residual"]) < 1.0
                assert float(r["subspace_gap"]) > 1.0

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
        with pytest.raises(harness.TrialFailureRateError):
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
        head = open(files["3a"]).readline().strip()
        assert head == "method,snr_db,path_class,metric,value,trials,failures"


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

    def test_validate_rejects_out_of_range_l5(self, tmp_path, capsys):
        path = desk_config(tmp_path, l5=200)
        assert cli.main(["validate-config", str(path)]) == 2
        assert "l5=200 outside [1, 64]" in capsys.readouterr().err

    def test_validate_rejects_l5_at_m5(self, tmp_path):
        path = desk_config(tmp_path, l5=64)
        res = self.run_cli("validate-config", str(path))
        assert res.returncode == 2
        assert "K5 >= 2" in res.stderr

    def test_run_and_figures(self, tmp_path):
        path = desk_config(tmp_path, trials=2)
        out = tmp_path / "out"
        res = self.run_cli("run", "--config", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "fig3a_angles.csv").exists()
        res = self.run_cli("figures", "--which", "5", "--config", str(path))
        assert res.returncode == 0
        assert "rate_bps_hz" in res.stdout

    def test_failure_breach_exit_code_3(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise harness.TrialFailureRateError("forced breach")

        monkeypatch.setattr(harness, "run_experiment", boom)
        path = desk_config(tmp_path, trials=2)
        assert cli.main(["run", "--config", str(path)]) == 3
