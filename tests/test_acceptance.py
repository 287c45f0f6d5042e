"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 8 anchor two externally reported absolute values on top of
their structural checks. This implementation satisfies every structural and
internal-consistency check at full precision but computes different absolute
values for those two anchors under the stated SNR definition; the tests run
them as written and print measured-vs-reference numbers, so the mismatches
stay visible instead of being tuned away.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from espritsim import channel, esprit, fastsvd, harness, perturbation, shift, slac
from espritsim import tensor_esprit
from espritsim.kernels import PINV_RTOL
from tests.conftest import (kit_rows, match_rows, projector_gap, selector_products,
                            synthetic_paths)

ANGLE_KEYS = ("rmse_phi_az", "rmse_phi_el", "rmse_theta_az", "rmse_theta_el")


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def fullscale_scenario(m5, delta_f=120e3, beam="dft"):
    return channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(8, 8, 8, 8, m5), n=(4, 4, 4, 4), delta_f=delta_f, f_c=30e9,
        n_p=32, n_c=600, e_s=1.0, seed=7,
        beam_kind_tx=beam, beam_kind_rx=beam)


def desk_config(**overrides):
    doc = {
        "scenario": {
            "carrier_hz": 30e9, "delta_f_hz": 1.875e6, "m": [8, 8, 8, 8, 64],
            "n": [4, 4, 4, 4], "n_p": 32, "e_s": 1.0,
            "p_t": [20, 5, 8], "p_r": [0, 5, 1.5],
            "scatterers": [[10, 2.5, 0]], "beam_kind": "dft", "seed": 7,
            "n_c": 600,
        },
        "snr_grid_db": [20.0, 30.0, 40.0], "trials": 200,
        "methods": ["matrix_dense", "analytic"], "seed": 29,
    }
    doc.update(overrides)
    return harness.ExperimentConfig.from_dict(doc)


@pytest.fixture(scope="module")
def desk():
    scen = fullscale_scenario(64, delta_f=1.875e6)
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    l5 = esprit.default_l5(scen.m[4])
    kit = perturbation.build_kit(paths, transforms, scen, l5)
    return scen, paths, transforms, tensor, l5, kit


def test_criterion_1_noiseless_exactness():
    scen = fullscale_scenario(64)  # full numerology with M5 reduced to 64
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    truth = channel.path_omegas(paths, scen.delta_f)
    gains = np.array([p.gamma for p in paths])
    l5 = esprit.default_l5(scen.m[4])
    worst_omega, worst_gain, worst_time = 0.0, 0.0, 0.0
    for method in ("dense", "fast"):
        t0 = time.perf_counter()
        est = esprit.esprit_pipeline(tensor, transforms, 2, l5, scen.delta_f,
                                     method=method,
                                     rng=np.random.default_rng(1))
        dt = time.perf_counter() - t0
        om, perm = match_rows(est.omega, truth)
        worst_omega = max(worst_omega,
                          np.abs(channel.wrap_angle(om - truth)).max())
        worst_gain = max(worst_gain,
                         np.abs(est.gains[perm] - gains).max()
                         / np.abs(gains).max())
        worst_time = max(worst_time, dt)
    ok = worst_omega < 1e-8 and worst_gain < 1e-8 and worst_time < 5.0
    report(1, ok, f"max |omega err| {worst_omega:.2e} rad (<1e-8), "
                  f"gain rel err {worst_gain:.2e} (<1e-8), "
                  f"runtime {worst_time:.2f} s (<5)")


def test_criterion_2_perturbation_formula_validation(desk):
    scen, paths, transforms, tensor, l5, kit = desk
    k5 = kit.k5
    om = kit.omega
    facs = channel.beamspace_factors(paths, transforms, scen)
    p_mat = channel.khatri_rao(facs[:4] + [channel.steering_matrix(k5, om[:, 4])])
    chi = np.linalg.pinv(channel.steering_matrix(l5, om[:, 4]).T, rtol=PINV_RTOL).conj()
    sel = shift.selectors_for_transforms(transforms, k5)
    rows = kit_rows(kit)            # the kit's own Tucker rows, written out
    r = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        dh = r.standard_normal(tensor.size) + 1j * r.standard_normal(tensor.size)
        blocks = dh.reshape(-1, scen.m[4])
        win = np.lib.stride_tricks.sliding_window_view(blocks, k5, axis=1)
        dmat = np.ascontiguousarray(np.swapaxes(win, 1, 2)).reshape(-1, l5)
        l, n = trial % 2, trial % 5
        pair = sel[n]
        row = np.linalg.pinv(selector_products(pair, p_mat)[0], rtol=PINV_RTOL)[l]
        j1d, j2d = selector_products(pair, dmat)
        matrix_form = row @ (j2d - kit.phi[l, n] * j1d) \
            @ chi[:, l].conj() / kit.gains[l]
        vector_form = rows["xi"][l, n].conj() @ dh / kit.gains[l]
        worst = max(worst, abs(matrix_form - vector_form) / abs(vector_form))

    # finite-difference Richardson check of the kappa linearizations
    d = r.standard_normal(tensor.size) + 1j * r.standard_normal(tensor.size)
    d /= np.linalg.norm(d)

    def run(eps):
        slopes = []
        for sign in (+1, -1):
            est = esprit.esprit_pipeline(tensor + sign * eps * d.reshape(tensor.shape),
                                         transforms, 2, l5, scen.delta_f,
                                         rng=np.random.default_rng(5))
            omx, perm = match_rows(est.omega, kit.omega)
            params = [est.params[p] for p in perm]
            ang = np.stack([p.angles() for p in params])
            tau = np.array([p.tau for p in params])[:, None]
            slopes.append(np.concatenate([ang, tau], axis=1))
        return (slopes[0] - slopes[1]) / (2 * eps)

    eps = 1e-6 * np.linalg.norm(tensor)
    slope = (4 * run(eps) - run(2 * eps)) / 3
    predicted = np.imag(np.einsum("lij,j->li", rows["kappa"].conj(), d))
    fd_err = np.abs(slope - predicted) / np.abs(predicted)
    ok = worst <= 1e-10 and fd_err.max() < 0.01
    report(2, ok, f"matrix-vs-vector equivalence {worst:.2e} (<=1e-10), "
                  f"kappa Richardson error {fd_err.max():.3%} (<1%)")


def test_criterion_3_analytic_vs_simulation_desk():
    t0 = time.perf_counter()
    cfg = desk_config()
    rows, _ = harness.run_experiment(cfg)
    table = {(r.method, r.snr_db, r.path_class, r.metric): r.value for r in rows}
    checks = []
    for snr in (20.0, 30.0, 40.0):
        for cls in ("los", "nlos"):
            for metric in ANGLE_KEYS + ("rmse_tau_m", "rmse_gamma"):
                sim = table[("matrix_dense", snr, cls, metric)]
                ana = table[("analytic", snr, cls, metric)]
                checks.append((snr, cls, metric, sim / ana))
    ratios = np.array([c[3] for c in checks])
    elapsed = time.perf_counter() - t0
    offenders = [c for c in checks if not 0.8 < c[3] < 1.25]
    ok = not offenders and elapsed < 900
    report(3, ok, f"{len(checks)} sim/analytic ratios in "
                  f"[{ratios.min():.3f}, {ratios.max():.3f}] (need [0.8, 1.25]), "
                  f"runtime {elapsed:.0f} s (<900); offenders={offenders[:4]}")


def test_criterion_4_reference_point_analytic():
    scen = fullscale_scenario(500)
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    n0 = channel.n0_for_snr_db(paths, transforms, scen, 40.0)
    kit = perturbation.build_kit(paths, transforms, scen,
                                 esprit.default_l5(scen.m[4]),
                                 with_position=False)
    row = perturbation.analytic_param_rmse(kit, n0)[0]
    angle = np.sqrt(np.mean([row[k] ** 2 for k in ANGLE_KEYS]))
    target = 2.4485e-5
    rel = abs(angle / target - 1)
    report(4, rel <= 1e-4,
           f"analytic LOS angle RMSE {angle:.6e} rad vs reference "
           f"{target:.4e} (rel diff {rel:.3e}, need <=1e-4)")


@pytest.mark.fullscale
def test_criterion_4_reference_point_simulation():
    scen = fullscale_scenario(500)
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    n0 = channel.n0_for_snr_db(paths, transforms, scen, 40.0)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    truth_angles = paths[0].angles()
    truth = channel.path_omegas(paths, scen.delta_f)
    l5 = esprit.default_l5(scen.m[4])
    sq = 0.0
    trials = 500
    for ss in np.random.SeedSequence(71).spawn(trials):
        r = np.random.default_rng(ss)
        noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
        est = esprit.esprit_pipeline(noisy, transforms, 2, l5, scen.delta_f,
                                     method="fast", rng=r)
        _, perm = match_rows(est.omega, truth)
        sq += np.sum((est.params[perm[0]].angles() - truth_angles) ** 2)
    sim = np.sqrt(sq / (4 * trials))
    target = 2.474e-5
    ok = abs(sim / target - 1) <= 0.15
    report("4 (sim)", ok, f"simulated LOS angle RMSE {sim:.6e} rad vs "
                          f"reference {target:.3e} (need within 15%)")


def test_criterion_5_fast_svd_equivalence_and_complexity(desk, rng):
    scen, paths, transforms, tensor, l5, kit = desk
    # (a) subspace equivalence on noiseless data
    u_d, _ = esprit.signal_subspace(tensor, 2, l5, method="dense")
    u_f, _ = esprit.signal_subspace(tensor, 2, l5, method="fast")
    principal_gap = projector_gap(u_f, u_d)

    # (b) Hankel matvec equals dense
    op = fastsvd.HankelBlockOperator.from_tensor(tensor, l5)
    dense = op.to_dense()
    x = rng.standard_normal(l5) + 1j * rng.standard_normal(l5)
    mv_err = np.linalg.norm(fastsvd.hankel_matvec(op, x) - dense @ x) \
        / np.linalg.norm(dense @ x)

    # (c) runtime grows <= 1.5x when L doubles (fixed-margin Lanczos)
    big = fullscale_scenario(256)
    big_paths = channel.params_from_geometry(big)
    big_transforms = channel.scenario_transforms(big, big_paths)
    big_tensor = channel.synth_beamspace_tensor(big_paths, big_transforms, big)
    big_op = fastsvd.HankelBlockOperator.from_tensor(
        big_tensor, esprit.default_l5(big.m[4]))

    def best_time(n_paths):
        fastsvd.fast_signal_subspace(big_op, n_paths)  # warm up
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            fastsvd.fast_signal_subspace(big_op, n_paths)
            best = min(best, time.perf_counter() - t0)
        return best

    # the timed sections run at one BLAS thread, as every sweep does
    with harness._one_blas_thread():
        growth = best_time(6) / best_time(3)

    # (d) proposed beats the tensor baseline at L = 6 by >= 5x, measured
    # at full scale where the decomposition cost dominates, both at defaults
    scen6 = channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5],
        scatterers=[[10, 2.5, 0], [6, 7, 1], [14, 1, 2], [8, 4.5, 0.5],
                    [12, 6, 1.5]],
        m=(8, 8, 8, 8, 500), n=(4, 4, 4, 4), delta_f=120e3, f_c=30e9,
        n_p=32, n_c=600, e_s=1.0, seed=13)
    paths6 = channel.params_from_geometry(scen6)
    transforms6 = channel.scenario_transforms(scen6, paths6)
    tensor6 = channel.synth_beamspace_tensor(paths6, transforms6, scen6)
    n06 = channel.n0_for_snr_db(paths6, transforms6, scen6, 20.0)
    l56 = esprit.default_l5(scen6.m[4])
    t_fast, t_tensor = [], []
    with harness._one_blas_thread():
        for ss in np.random.SeedSequence(43).spawn(2):
            r = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor6, scen6, r, n0=n06)
            t0 = time.perf_counter()
            try:
                esprit.esprit_pipeline(noisy, transforms6, 6, l56, scen6.delta_f,
                                       method="fast", rng=r)
            except esprit.PairingFailureError:
                pass
            t_fast.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                tensor_esprit.tensor_esprit_pipeline(noisy, transforms6, 6,
                                                     scen6.delta_f, rng=r)
            except (tensor_esprit.DecompositionFailureError,
                    esprit.PairingFailureError):
                pass
            t_tensor.append(time.perf_counter() - t0)
    speedup = np.median(t_tensor) / np.median(t_fast)

    ok = (principal_gap < 1e-8 and mv_err < 1e-10 and growth <= 1.5
          and speedup >= 5.0)
    report(5, ok, f"subspace gap {principal_gap:.2e} (<1e-8), "
                  f"matvec err {mv_err:.2e} (<1e-10), "
                  f"L-doubling growth x{growth:.2f} (<=1.5), "
                  f"tensor/proposed speedup x{speedup:.1f} (>=5)")


def test_criterion_6_auto_pairing_stress():
    scen = channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(4, 4, 4, 4, 8), n=(3, 3, 3, 3), delta_f=8e6, f_c=30e9,
        n_p=16, n_c=600, e_s=1.0, seed=5)
    om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                   [0.5, 0.4, -1.0, 0.7, -0.4]])  # dim 1 collides exactly
    paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    l5 = esprit.default_l5(scen.m[4])
    good = 0
    trials = 200
    for ss in np.random.SeedSequence(59).spawn(trials):
        r = np.random.default_rng(ss)
        try:
            est = esprit.esprit_pipeline(tensor, transforms, 2, l5,
                                         scen.delta_f, rng=r)
        except esprit.PairingFailureError:
            continue
        got, _ = match_rows(est.omega, om)
        if np.abs(channel.wrap_angle(got - om)).max() < 1e-6:
            good += 1
    rate = good / trials
    report(6, rate >= 0.99,
           f"correct cross-dimension pairing in {good}/{trials} "
           f"beta-redraw trials ({rate:.1%}, need >=99%)")


def test_criterion_7_localization():
    # desk config keeping the full setup's 60 MHz sweep (64 x 937.5 kHz):
    # the second-order-dominated regime shows the expected decreasing trend
    scen = fullscale_scenario(64, delta_f=937.5e3)
    paths = channel.params_from_geometry(scen)
    res = slac.localize_scenario(paths, scen)
    exact_err = float(np.linalg.norm(res.p_hat - scen.p_r))

    # simulated-vs-analytic ratio across SNR, with common random numbers
    # across the grid so the systematic trend is not buried in per-level
    # sampling noise
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    l5 = esprit.default_l5(scen.m[4])
    kit = perturbation.build_kit(paths, transforms, scen, l5)
    truth = channel.path_omegas(paths, scen.delta_f)
    tx_sign, rx_sign = channel.array_axis_signs(scen)
    snrs = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials = 200
    noise = [None] * trials
    for t, ss in enumerate(np.random.SeedSequence(67).spawn(trials)):
        r = np.random.default_rng(ss)
        w = r.standard_normal(tensor.shape) + 1j * r.standard_normal(tensor.shape)
        noise[t] = w / np.sqrt(2)
    ratios = []
    for snr in snrs:
        n0 = channel.n0_for_snr_db(paths, transforms, scen, snr)
        scale = np.sqrt(n0 / (scen.n_p * scen.e_s))
        sq = 0.0
        for t in range(trials):
            est = esprit.esprit_pipeline(tensor + scale * noise[t], transforms,
                                         2, l5, scen.delta_f,
                                         rng=np.random.default_rng((t, 5)))
            _, perm = match_rows(est.omega, truth)
            params = [est.params[p] for p in perm]
            loc = slac.localize(params, scen.p_t, None, tx_sign, rx_sign)
            sq += np.sum((loc.p_hat - scen.p_r) ** 2)
        sim = np.sqrt(sq / trials)
        ratios.append(sim / perturbation.analytic_pos_rmse(kit, n0))
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = exact_err < 1e-9 and monotone
    report(7, ok, f"exact-input position error {exact_err:.2e} m (<1e-9); "
                  f"sim/analytic ratio over SNR {np.round(ratios, 3).tolist()} "
                  f"monotone={monotone}")


def test_criterion_8_rate():
    # desk-scale estimated-CSI gap
    scen = fullscale_scenario(64, delta_f=1.875e6)
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    l5 = esprit.default_l5(scen.m[4])
    worst_gap = 0.0
    for snr in (10.0, 20.0, 30.0, 40.0):
        n0 = channel.n0_for_snr_db(paths, transforms, scen, snr)
        ests = []
        for ss in np.random.SeedSequence(83).spawn(12):
            r = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
            est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                         scen.delta_f, rng=r)
            ests.append(est.params)
        r_perfect, _ = slac.rate(paths, paths, scen, n0)
        r_est, _ = slac.rate(ests, paths, scen, n0)
        worst_gap = max(worst_gap, r_perfect - r_est)

    # full-scale perfect-CSI anchor
    scen_p = fullscale_scenario(500)
    paths_p = channel.params_from_geometry(scen_p)
    transforms_p = channel.scenario_transforms(scen_p, paths_p)
    n0_p = channel.n0_for_snr_db(paths_p, transforms_p, scen_p, 40.0)
    r_perf, _ = slac.rate(paths_p, paths_p, scen_p, n0_p)
    ok = worst_gap < 0.1 and abs(r_perf - 17.93) <= 0.05
    report(8, ok, f"desk estimated-CSI gap {worst_gap:.4f} bit/s/Hz (<0.1); "
                  f"full-scale perfect-CSI rate {r_perf:.3f} vs reference "
                  f"17.93 (need +-0.05)")


def test_criterion_9_determinism(tmp_path):
    base = dict(trials=6, snr_grid_db=[15.0], methods=["matrix_dense"])
    cfg1 = desk_config(outputs=str(tmp_path / "one"), threads=1, **base)
    cfg4 = desk_config(outputs=str(tmp_path / "four"), threads=4, **base)
    _, f1 = harness.run_experiment(cfg1)
    _, f4 = harness.run_experiment(cfg4)
    same = all(Path(f1[k]).read_bytes() == Path(f4[k]).read_bytes()
               for k in ("3a", "3b", "3c", "4", "5"))
    report(9, same, "metric CSVs byte-identical across 1-thread and 4-thread "
                    "runs (wall-clock figure 6 exempt)")
