import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from espritsim import channel, esprit, slac
from tests.conftest import synthetic_paths


class TestLocalize:
    def test_exact_parameters_recover_position(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        res = slac.localize_scenario(paths, desk_scenario)
        assert np.linalg.norm(res.p_hat - desk_scenario.p_r) < 1e-9
        assert res.per_path[0].direct
        assert not res.per_path[1].direct

    def test_single_los_on_ray(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)[:1]
        res = slac.localize_scenario(paths, desk_scenario)
        # the direct path pins the position completely
        assert np.linalg.norm(res.p_hat - desk_scenario.p_r) < 1e-9
        # consistency: p_hat sits on the ray p_T + c tau f_T (global frame)
        tx_sign, _ = channel.array_axis_signs(desk_scenario)
        f_t = channel.direction_from_angles(paths[0].phi_az, paths[0].phi_el,
                                            tx_sign)
        ct = channel.SPEED_OF_LIGHT * paths[0].tau
        assert np.linalg.norm(desk_scenario.p_t + ct * f_t - res.p_hat) < 1e-9

    def test_weight_scale_invariance(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        tx_sign, rx_sign = channel.array_axis_signs(desk_scenario)
        a = slac.localize(paths, desk_scenario.p_t, np.array([1.0, 2.0]),
                          tx_sign, rx_sign)
        b = slac.localize(paths, desk_scenario.p_t, np.array([10.0, 20.0]),
                          tx_sign, rx_sign)
        assert np.allclose(a.p_hat, b.p_hat, atol=1e-12)

    def test_many_scatterers_exact(self):
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5],
            scatterers=[[10, 2.5, 0], [6, 7, 1], [14, 1, 2]],
            m=(8, 8, 8, 8, 16), n=(4, 4, 4, 4), delta_f=3e6, f_c=30e9,
            n_p=32, n_c=600, e_s=1.0, seed=3)
        paths = channel.params_from_geometry(scen)
        res = slac.localize_scenario(paths, scen)
        assert np.linalg.norm(res.p_hat - scen.p_r) < 1e-9

    def test_collinear_only_paths_degenerate(self):
        # two scatterer paths sharing the same constraint direction
        p = channel.PathParams(phi_az=0.1, phi_el=1.4, theta_az=0.2,
                               theta_el=1.5, tau=5e-8, gamma=1.0)
        with pytest.raises(slac.DegenerateLocalizationError):
            slac.localize([p, p], np.array([0.0, 0.0, 0.0]))

    def test_gain_weights(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        w = slac.path_weights(paths, "gain")
        assert w[0] > w[1] > 0


class TestRate:
    def test_perfect_csi_deterministic(self, desk_setup):
        scen, paths, transforms, _, _ = desk_setup
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 30.0)
        r1, _ = slac.rate(paths, paths, scen, n0)
        r2, _ = slac.rate(paths, paths, scen, n0)
        assert r1 == r2 > 0

    def test_no_data_blocks_zero_rate(self, desk_setup):
        scen, paths, _, _, _ = desk_setup
        scen0 = dataclasses.replace(scen, n_c=scen.n_p)
        r, _ = slac.rate(paths, paths, scen0, 1e-9)
        assert r == 0.0

    def test_perfect_upper_bounds_estimated(self, desk_setup, rng):
        scen, paths, transforms, tensor, truth = desk_setup
        from espritsim import esprit

        n0 = channel.n0_for_snr_db(paths, transforms, scen, 10.0)
        l5 = esprit.default_l5(scen.m[4])
        ests = []
        for ss in np.random.SeedSequence(5).spawn(12):
            r = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
            est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                         scen.delta_f, rng=r)
            ests.append(est.params)
        r_perfect, _ = slac.rate(paths, paths, scen, n0)
        r_est, _ = slac.rate(ests, paths, scen, n0)
        assert r_est <= r_perfect
        assert r_perfect - r_est < 0.1  # near-optimal CSI at 10 dB

    def test_rate_decreases_with_noise(self, desk_setup):
        scen, paths, _, _, _ = desk_setup
        r_hi, _ = slac.rate(paths, paths, scen, 1e-12)
        r_lo, _ = slac.rate(paths, paths, scen, 1e-9)
        assert r_hi > r_lo

    def test_reconstruction_matches_tensor_slice(self, desk_setup):
        # element-space reconstruction agrees with an explicit eq-8 product
        scen, paths, _, _, _ = desk_setup
        h = element_space_channels(paths, scen)
        m5 = 7
        want = np.zeros((64, 64), dtype=complex)
        for p in paths:
            w = channel.to_angular(p, scen.delta_f).omega
            a_t = np.kron(channel.steering_vector(8, w[0]),
                          channel.steering_vector(8, w[1]))
            a_r = np.kron(channel.steering_vector(8, w[2]),
                          channel.steering_vector(8, w[3]))
            want += p.gamma * np.exp(1j * m5 * w[4]) * np.outer(a_r, a_t)
        assert np.allclose(h[m5], want, atol=1e-10 * np.linalg.norm(want))


def element_space_channels(params, scenario):
    """Dense oracle: element-space channels (M5, M3 M4, M1 M2) from parameters."""
    a_r, a_t, weighted = slac._path_factors(params, scenario)
    return np.einsum("ml,rl,tl->mrt", weighted, a_r, a_t, optimize=True)


def dense_rate_terms(est_params, true_params, scenario):
    """Reference (U, I): dense channels and one SVD per subcarrier."""
    h_hat = element_space_channels(est_params, scenario)
    h_true = element_space_channels(true_params, scenario)
    u_vecs, svals, v_hs = np.linalg.svd(h_hat, full_matrices=False)
    w = u_vecs[:, :, 0]
    f = v_hs[:, 0, :].conj()
    i_term = np.einsum("mr,mrt,mt->m", w.conj(), h_hat - h_true, f)
    return svals[:, 0], i_term, svals


def assert_rate_terms_match_dense(est_params, true_params, scenario):
    u, i = slac.rate_terms(est_params, true_params, scenario)
    u_ref, i_ref, _ = dense_rate_terms(est_params, true_params, scenario)
    tol = 1e-12 * np.max(u_ref)
    assert u.shape == i.shape == (scenario.m[4],)
    assert np.max(np.abs(np.abs(u) - u_ref)) <= tol
    assert np.max(np.abs(np.abs(i) - np.abs(i_ref))) <= tol
    return u, i


def _noisy_estimate(scen, snr_db, seed):
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
    r = np.random.default_rng(seed)
    noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
    est = esprit.esprit_pipeline(noisy, transforms, len(paths),
                                 esprit.default_l5(scen.m[4]), scen.delta_f,
                                 method="fast", rng=r)
    return est.params, paths


def _perturbed(paths, scale, seed):
    r = np.random.default_rng(seed)
    return [dataclasses.replace(
        p, phi_az=p.phi_az + scale * r.standard_normal(),
        theta_el=p.theta_el + scale * r.standard_normal(),
        tau=p.tau * (1 + scale * r.standard_normal()),
        gamma=p.gamma * (1 + scale * complex(*r.standard_normal(2))))
        for p in paths]


class TestRateTermsOracle:
    """The rank-L evaluation against dense channels and per-subcarrier SVDs."""

    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_desk_estimate(self, desk_scenario, snr_db):
        est, paths = _noisy_estimate(desk_scenario, snr_db, seed=8)
        _, i = assert_rate_terms_match_dense(est, paths, desk_scenario)
        assert np.all(np.abs(i) > 0)

    def test_tiny_estimate(self, tiny_scenario):
        est, paths = _noisy_estimate(tiny_scenario, 10.0, seed=9)
        assert_rate_terms_match_dense(est, paths, tiny_scenario)

    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_synthetic_paths(self, tiny_scenario, rng, n_paths):
        omegas = np.array([[0.3, -0.4, 0.8, 0.1, 1.1],
                           [-0.9, 0.6, -0.2, -0.7, -2.0],
                           [0.5, 1.2, 0.4, 0.9, 0.3]])[:n_paths]
        gains = [1.0, 0.4 - 0.3j, -0.2 + 0.5j][:n_paths]
        truth = synthetic_paths(omegas, gains, tiny_scenario.delta_f)
        est = synthetic_paths(omegas + 0.05 * rng.standard_normal(omegas.shape),
                              np.array(gains) * 1.1, tiny_scenario.delta_f)
        assert_rate_terms_match_dense(est, truth, tiny_scenario)

    def test_coincident_paths_rank_below_l(self, desk_scenario):
        # equal spatial angles: A_R and A_T have rank 1 < L = 2
        paths = channel.params_from_geometry(desk_scenario)
        twin = dataclasses.replace(paths[0], tau=paths[1].tau,
                                   gamma=paths[1].gamma)
        assert_rate_terms_match_dense([paths[0], twin], paths, desk_scenario)
        # identical in every dimension: every Hhat_m has rank 1
        same = dataclasses.replace(paths[0], gamma=0.5 * paths[0].gamma)
        assert_rate_terms_match_dense([paths[0], same], paths, desk_scenario)

    def test_perfect_csi_no_interference(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        u, i = assert_rate_terms_match_dense(paths, paths, desk_scenario)
        assert np.all(np.abs(i) <= 1e-12 * np.abs(u))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_tiny_geometries(self, seed):
        r = np.random.default_rng(seed)
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[],
            m=tuple(int(v) for v in r.integers(2, 5, 4)) + (int(r.integers(2, 9)),),
            n=(2, 2, 2, 2), delta_f=8e6, f_c=30e9, n_p=16, n_c=600,
            e_s=1.0, seed=seed)
        n_paths = int(r.integers(1, 4))
        truth = [channel.PathParams(
            phi_az=r.uniform(-1.4, 1.4), phi_el=r.uniform(0.2, np.pi - 0.2),
            theta_az=r.uniform(-1.4, 1.4), theta_el=r.uniform(0.2, np.pi - 0.2),
            tau=r.uniform(0, 1 / scen.delta_f),
            gamma=complex(*r.standard_normal(2))) for _ in range(n_paths)]
        est = _perturbed(truth, 10.0 ** r.uniform(-4, 0), seed)
        _, _, svals = dense_rate_terms(est, truth, scen)
        if n_paths > 1:
            # the dominant vectors are undefined at a sigma_1 = sigma_2 tie
            assume(np.all(svals[:, 0] - svals[:, 1] > 1e-3 * svals[:, 0]))
        assert_rate_terms_match_dense(est, truth, scen)
