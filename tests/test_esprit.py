import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from espritsim import channel, esprit, fastsvd, kernels, perturbation, shift
from tests.conftest import (identity_transforms, match_rows, projector_gap, selector_products,
                            synthetic_paths)


class TestSpatialSmooth:
    def test_hand_hankel(self):
        t = np.arange(1.0, 4.0).reshape(1, 1, 1, 1, 3)  # taps h1..h3
        sm = esprit.spatial_smooth(t, 2)
        assert sm.k5 == 2
        assert np.allclose(sm.values, [[1, 2], [2, 3]])

    def test_l5_equals_m5_single_column(self, rng):
        t = rng.standard_normal((2, 2, 2, 2, 6)) + 0j
        sm = esprit.spatial_smooth(t, 6)
        assert sm.values.shape == (16, 6)
        assert sm.k5 == 1
        assert np.allclose(sm.values.reshape(-1), t.reshape(-1))

    def test_factorization_oracle(self, tiny_scenario):
        scen = tiny_scenario
        om = np.array([[0.4, -0.9, 0.6, -0.3, 1.0],
                       [-0.6, 0.5, -1.0, 0.7, -0.4]])
        gains = np.array([1.0 - 0.5j, 0.3 + 0.8j])
        paths = synthetic_paths(om, gains, scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        l5 = 4
        sm = esprit.spatial_smooth(tensor, l5)
        k5 = sm.k5
        facs = channel.beamspace_factors(paths, transforms, scen)
        p_mat = channel.khatri_rao(facs[:4]
                                   + [channel.steering_matrix(k5, om[:, 4])])
        g_mat = channel.steering_matrix(l5, om[:, 4])
        recon = p_mat @ np.diag(gains) @ g_mat.T
        assert np.linalg.norm(sm.values - recon) < 1e-10 * np.linalg.norm(recon)

    @pytest.mark.parametrize("l5", [1, 2, 33, 63, 64])
    def test_values_are_the_operator_stack(self, desk_setup, l5):
        # one builder: the same bits as the operator's stack and as the
        # C-ordered window copy, laid out as the transpose of a C-ordered
        # (L5, B*K5) buffer, which geqrf factors in place
        tensor = desk_setup[3]
        values = esprit.spatial_smooth(tensor, l5).values
        dense = fastsvd.HankelBlockOperator.from_tensor(tensor, l5).to_dense()
        windows = np.lib.stride_tricks.sliding_window_view(tensor, tensor.shape[-1] + 1 - l5,
                                                           axis=-1)
        want = np.ascontiguousarray(np.swapaxes(windows, -1, -2)).reshape(-1, l5)
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (values, dense, want)]
        assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[2])
        assert values.T.flags.c_contiguous and dense.T.flags.c_contiguous

    def test_bad_window_rejected(self, rng):
        t = rng.standard_normal((1, 1, 1, 1, 4)) + 0j
        with pytest.raises(kernels.InvalidInputError, match="outside"):
            esprit.spatial_smooth(t, 5)


class TestSignalSubspace:
    def test_noiseless_rank(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        sm = esprit.spatial_smooth(tensor, esprit.default_l5(scen.m[4]))
        s = np.linalg.svd(sm.values, compute_uv=False)
        assert s[2] < 1e-10 * s[0]

    def test_identity_projector(self):
        # L5 = M5 leaves one row per beam index: the stack is the 6 x 6 identity
        u, _ = esprit.signal_subspace(np.eye(6, dtype=complex).reshape(1, 1, 1, 6, 6),
                                      3, 6)
        proj = u @ u.conj().T
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        assert np.linalg.matrix_rank(proj, tol=1e-10) == 3

    def test_dense_vs_fast_projector(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        u_d, _ = esprit.signal_subspace(tensor, 2, l5, method="dense")
        u_f, _ = esprit.signal_subspace(tensor, 2, l5, method="fast")
        assert projector_gap(u_f, u_d) < 1e-8

    def test_fast_rank_below_model_order_raises(self, desk_setup):
        # noiseless desk data has rank 2: Lanczos breaks down with a rank-2
        # core, which cannot supply three paths (dense pads with noise-space
        # vectors); a short basis would silently drop a path
        scen, paths, transforms, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        with pytest.raises(kernels.NumericFailureError, match="rank 2 below 3"):
            esprit.signal_subspace(tensor, 3, l5, method="fast")
        with pytest.raises(kernels.NumericFailureError):
            esprit.esprit_pipeline(tensor, transforms, 3, l5, scen.delta_f,
                                   method="fast", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("method", ["dense", "fast"])
    def test_returns_n_paths_orthonormal_columns(self, desk_setup, method):
        scen, paths, transforms, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        rows = int(np.prod(tensor.shape[:4])) * (scen.m[4] + 1 - l5)
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 10.0)
        noisy = channel.observe_and_estimate(tensor, scen, np.random.default_rng(4),
                                             n0=n0)
        for n_paths in (1, 2, 3):
            u, _ = esprit.signal_subspace(noisy, n_paths, l5, method=method)
            assert u.shape == (rows, n_paths)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n_paths)) < 1e-10

    @pytest.mark.parametrize("noisy, n_paths, stop, steps", [
        (True, 2, "converged", None),   # true order: top-2 triplets converge
        (False, 2, "breakdown", 2),     # rank-2 data: invariant subspace at step 2
        (True, 3, "cap", 22),           # over-specified: no gap after theta_3
    ])
    def test_reports_lanczos_stop(self, desk_setup, noisy, n_paths, stop, steps):
        scen, paths, transforms, tensor, _ = desk_setup
        if noisy:
            n0 = channel.n0_for_snr_db(paths, transforms, scen, 10.0)
            tensor = channel.observe_and_estimate(tensor, scen,
                                                  np.random.default_rng(4), n0=n0)
        _, diag = esprit.signal_subspace(tensor, n_paths, esprit.default_l5(scen.m[4]),
                                         method="fast")
        assert diag["lanczos_stop"] == stop
        if steps is None:
            assert diag["lanczos_steps"] < 2 * n_paths + 16
        else:
            assert diag["lanczos_steps"] == steps

    @pytest.mark.parametrize("snr_db, nlos_db", [
        (-40.0, 0.0), (-10.0, 0.0), (0.0, 0.0), (30.0, 0.0), (40.0, 0.0),
        (30.0, -40.0),      # NLOS gain 40 dB below the reference scene's
    ])
    def test_dense_matches_thin_svd_oracle(self, desk_setup, snr_db, nlos_db):
        # the dense branch applies Q to L columns only; the thin SVD forms Q
        scen, paths, transforms, tensor, _ = desk_setup
        if nlos_db:
            paths = [paths[0], replace(paths[1], gamma=paths[1].gamma * 10 ** (nlos_db / 20))]
            tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        l5 = esprit.default_l5(scen.m[4])
        n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
        noisy = channel.observe_and_estimate(tensor, scen, np.random.default_rng(9), n0=n0)
        u, diag = esprit.signal_subspace(noisy, 2, l5, method="dense")
        ref = kernels.svd_thin(esprit.spatial_smooth(noisy, l5).values)
        assert projector_gap(u, ref.left[:, :2]) <= 1e-12
        s = ref.singular_values
        assert diag["subspace_gap"] == pytest.approx(s[1] / s[2], rel=1e-12, abs=0)


class TestGammaN:
    def _setup(self, scen, omegas, gains):
        paths = synthetic_paths(omegas, gains, scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        l5 = esprit.default_l5(scen.m[4])
        u_s, _ = esprit.signal_subspace(tensor, len(paths), l5)
        pairs = shift.selectors_for_transforms(transforms, scen.m[4] + 1 - l5)
        return u_s, pairs

    def test_single_source_scalar(self, tiny_scenario):
        om = np.array([[0.4, -0.9, 0.6, -0.3, 1.0]])
        u_s, pairs = self._setup(tiny_scenario, om, [1.0])
        for n, pair in enumerate(pairs):
            g, _ = esprit.gamma_n(u_s, pair)
            assert g.shape == (1, 1)
            assert np.angle(g[0, 0]) == pytest.approx(om[0, n], abs=1e-9)
            assert abs(g[0, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_similarity_invariance(self, tiny_scenario, rng):
        om = np.array([[0.4, -0.9, 0.6, -0.3, 1.0],
                       [-0.6, 0.5, -1.0, 0.7, -0.4]])
        u_s, pairs = self._setup(tiny_scenario, om, [1.0, 0.7])
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        g1, _ = esprit.gamma_n(u_s, pairs[0])
        g2, _ = esprit.gamma_n(u_s @ q, pairs[0])
        ev1 = np.sort_complex(np.linalg.eigvals(g1))
        ev2 = np.sort_complex(np.linalg.eigvals(g2))
        assert np.allclose(ev1, ev2, atol=1e-10)

    def test_residual_matches_two_pass(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        rng = np.random.default_rng(8)
        noisy = tensor + 0.05 * np.abs(tensor).max() * (
            rng.standard_normal(tensor.shape) + 1j * rng.standard_normal(tensor.shape))
        l5 = esprit.default_l5(scen.m[4])
        u_s, _ = esprit.signal_subspace(noisy, 2, l5)
        two_pass = []
        for pair in shift.selectors_for_transforms(transforms, scen.m[4] + 1 - l5):
            gam, residual = esprit.gamma_n(u_s, pair)
            lhs, rhs = selector_products(pair, u_s)
            two_pass.append(np.linalg.norm(lhs @ gam - rhs) / np.linalg.norm(rhs))
            assert residual == pytest.approx(two_pass[-1], rel=1e-12)
        est = esprit.esprit_pipeline(noisy, transforms, 2, l5, scen.delta_f,
                                     rng=np.random.default_rng(1))
        assert est.diagnostics["rotation_residual"] == pytest.approx(
            max(two_pass), rel=1e-12)
        assert max(two_pass) > 1e-6     # noise makes it a real residual

    def test_eigenvalue_multiset(self, tiny_scenario):
        om = np.array([[0.4, -0.9, 0.6, -0.3, 1.0],
                       [-0.6, 0.5, -1.0, 0.7, -0.4]])
        u_s, pairs = self._setup(tiny_scenario, om, [1.0, 0.7 + 0.2j])
        for n, pair in enumerate(pairs):
            ev = np.linalg.eigvals(esprit.gamma_n(u_s, pair)[0])
            got = np.sort(np.angle(ev))
            want = np.sort(om[:, n])
            assert np.allclose(got, want, atol=1e-9)

    def test_noiseless_residuals_vanish(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        u_s, _ = esprit.signal_subspace(tensor, 2, l5, method="fast")
        pairs = shift.selectors_for_transforms(transforms, scen.m[4] + 1 - l5)
        _, residuals = esprit.rotation_factors(u_s, pairs)
        assert max(residuals) <= 1e-13

    def test_single_window_raises(self, rng):
        # L5 = M5 leaves K5 = 1: the frequency windows are empty
        dims = (2, 3, 2, 2)
        u = random_complex(rng, 24, 2)
        with pytest.raises(kernels.InvalidInputError, match="K5 >= 2"):
            esprit.gamma_n(u, shift.lifted_selectors(5, dims, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan),
                                     complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imag-nan", "imag-inf"])
    def test_nonfinite_subspace_raises_before_any_qr(self, desk_setup, bad):
        scen, paths, transforms, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        u_s, _ = esprit.signal_subspace(tensor, 2, l5, method="fast")
        u_s = u_s.copy()
        u_s[u_s.shape[0] // 2, 1] = bad
        pairs = shift.selectors_for_transforms(transforms, scen.m[4] + 1 - l5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in pairs:
                with pytest.raises(kernels.InvalidInputError,
                                   match="subspace contains non-finite"):
                    esprit.rotation_factors(u_s, [pair])


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _drawn_selectors(rng, kind, n):
    if kind == "element" and n > 1:
        return np.eye(n)[:-1], np.eye(n)[1:]
    rows = n - 1 if kind == "short" and n > 1 else n
    return random_complex(rng, rows, n), random_complex(rng, rows, n)


@settings(max_examples=60, deadline=None)
@given(beam_dims=st.tuples(*[st.integers(1, 4)] * 4), k5=st.integers(2, 5),
       n_paths=st.integers(1, 4),
       kinds=st.tuples(*[st.sampled_from(["square", "short", "element"])] * 4),
       seed=st.integers(0, 2**31))
@example(beam_dims=(4, 1, 1, 1), k5=2, n_paths=4, kinds=("short",) * 4, seed=0)
@example(beam_dims=(2, 2, 2, 2), k5=2, n_paths=4, kinds=("square",) * 4, seed=1)
def test_compressed_rotation_matches_two_pass(beam_dims, k5, n_paths, kinds, seed):
    # unit beam counts make wide unfoldings (other-mode count below N_n L)
    # and wide frequency stacks; U need not be orthonormal
    rng = np.random.default_rng(seed)
    u = random_complex(rng, int(np.prod(beam_dims)) * k5, n_paths)
    pairs = [shift.lifted_selectors(n + 1, beam_dims, k5,
                                    *_drawn_selectors(rng, kind, beam_dims[n]))
             for n, kind in enumerate(kinds)]
    pairs.append(shift.lifted_selectors(5, beam_dims, k5))
    u_before = u.copy()
    gammas, residuals = esprit.rotation_factors(u, pairs)
    assert np.array_equal(u, u_before)      # the in-place QRs work on copies
    for pair, gam, residual in zip(pairs, gammas, residuals):
        lhs, rhs = selector_products(pair, u)
        want = kernels.lstsq_pinv(lhs, rhs)
        want_residual = np.linalg.norm(lhs @ want - rhs) / np.linalg.norm(rhs)
        assert np.abs(gam - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        assert abs(residual - want_residual) <= 1e-10 * want_residual + 1e-13


class TestAutoPair:
    def test_trivial_single_path(self, rng):
        gammas = [np.array([[np.exp(1j * w)]]) for w in (0.3, -0.5, 0.9, 0.1, -1.2)]
        _, om, _ = esprit.auto_pair(gammas, rng=rng)
        assert np.allclose(om[0], [0.3, -0.5, 0.9, 0.1, -1.2], atol=1e-12)

    def test_collision_in_one_dimension(self, tiny_scenario, rng):
        # identical omega_1, separated elsewhere: pairing must stay coherent
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [0.5, 0.4, -1.0, 0.7, -0.4]])
        paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        est = esprit.esprit_pipeline(tensor, transforms, 2,
                                     esprit.default_l5(scen.m[4]),
                                     scen.delta_f, rng=rng)
        got, _ = match_rows(est.omega, om)
        assert np.abs(channel.wrap_angle(got - om)).max() < 1e-9

    def test_three_path_recovery(self, tiny_scenario, rng):
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [-0.4, 0.4, -1.0, 0.7, -0.4],
                       [1.1, 1.3, 0.1, -1.2, 2.0]])
        paths = synthetic_paths(om, [1.0, 0.8, 0.5j], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        est = esprit.esprit_pipeline(tensor, transforms, 3,
                                     esprit.default_l5(scen.m[4]),
                                     scen.delta_f, rng=rng)
        got, _ = match_rows(est.omega, om)
        assert np.abs(channel.wrap_angle(got - om)).max() < 1e-9

    def test_persistent_collision_raises(self, rng):
        g = np.diag(np.exp(1j * np.array([0.4, 0.4])))  # truly identical
        with pytest.raises(esprit.PairingFailureError) as exc:
            esprit.auto_pair([g] * 5, rng=rng)
        # the first draw and every redraw
        assert len(exc.value.diagnostics["separations"]) == esprit.MAX_REDRAWS + 1


class TestEstimateGains:
    def test_noiseless_exact(self, desk_setup):
        scen, paths, transforms, tensor, truth = desk_setup
        gains = np.array([p.gamma for p in paths])
        got, diag = esprit.estimate_gains(truth, transforms, tensor.reshape(-1),
                                          scen.m[4])
        assert np.abs(got - gains).max() / np.abs(gains).max() < 1e-10
        assert diag["gain_matrix_condition"] >= 1

    def test_single_path_zero_freq_mean(self, tiny_scenario):
        scen = tiny_scenario
        m5 = scen.m[4]
        h = np.full(3 ** 4 * m5, 0.7 - 0.1j)
        got, _ = esprit.estimate_gains(np.zeros((1, 5)), identity_transforms(3), h, m5)
        assert got[0] == pytest.approx(0.7 - 0.1j)

    def test_sensitivity_to_small_frequency_error(self, desk_setup):
        scen, paths, transforms, tensor, truth = desk_setup
        gains = np.array([p.gamma for p in paths])
        base, _ = esprit.estimate_gains(truth, transforms, tensor.reshape(-1),
                                        scen.m[4])
        pert, _ = esprit.estimate_gains(truth + 1e-6, transforms,
                                        tensor.reshape(-1), scen.m[4])
        rel = np.abs(pert - gains).max() / np.abs(gains).max()
        assert rel < 1e-3  # continuous, no blow-up


def explicit_gains(omega, transforms, h_vec, m5):
    """Reference: ``lstsq_pinv`` on the explicit (B M5 x L) Khatri-Rao matrix."""
    b_hat = channel.khatri_rao(channel.steering_factors(omega, transforms, m5))
    s = np.linalg.svd(b_hat, compute_uv=False)
    return kernels.lstsq_pinv(b_hat, h_vec), s[0] / max(s[-1], 1e-300)


def noisy_case(scen, paths, snr_db, seed):
    transforms = channel.scenario_transforms(scen, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
    noisy = channel.observe_and_estimate(tensor, scen, np.random.default_rng(seed),
                                         n0=n0)
    return transforms, noisy


class TestStructuredGains:
    """Khatri-Rao structured gains against the explicit-matrix solve."""

    @staticmethod
    def check(omega, transforms, noisy, rank_deficient=False):
        h = noisy.reshape(-1)
        got, diag = esprit.estimate_gains(omega, transforms, h, noisy.shape[-1])
        want, cond = explicit_gains(omega, transforms, h, noisy.shape[-1])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        if rank_deficient:     # both beyond the 1 / rtol truncation
            assert min(diag["gain_matrix_condition"], cond) > 1e12
        else:
            assert diag["gain_matrix_condition"] == pytest.approx(cond, rel=1e-10)

    @pytest.mark.parametrize("m5, delta_f", [(64, 1.875e6), (500, 120e3)])
    def test_desk_and_full_size(self, m5, delta_f):
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
            m=(8, 8, 8, 8, m5), n=(4, 4, 4, 4), delta_f=delta_f, f_c=30e9,
            n_p=32, n_c=600, e_s=1.0, seed=7)
        paths = channel.params_from_geometry(scen)
        transforms, noisy = noisy_case(scen, paths, 10.0, 3)
        truth = channel.path_omegas(paths, delta_f)
        omega = truth + 1e-3 * np.random.default_rng(4).standard_normal(truth.shape)
        self.check(omega, transforms, noisy)

    def test_coincident_paths(self, desk_setup):
        scen, paths, _, _, truth = desk_setup
        transforms, noisy = noisy_case(scen, paths, 20.0, 5)
        self.check(np.stack([truth[0], truth[0]]), transforms, noisy,
                   rank_deficient=True)

    def test_more_paths_than_beams(self, tiny_scenario):
        # N_n = 3 < L = 4: every spatial R_n is 3 x 4
        scen = tiny_scenario
        om = np.array([[0.4, -0.9, 0.6, -0.3, 1.0],
                       [-0.6, 0.5, -1.0, 0.7, -0.4],
                       [1.1, 1.3, 0.1, -1.2, 2.0],
                       [-1.4, -0.2, 1.5, 0.3, -2.3]])
        paths = synthetic_paths(om, [1.0, 0.7j, -0.5, 0.3 + 0.3j], scen.delta_f)
        transforms, noisy = noisy_case(scen, paths, 10.0, 6)
        self.check(om, transforms, noisy)


class TestPipeline:
    def test_noiseless_exactness_both_methods(self, desk_setup, rng):
        scen, paths, transforms, tensor, truth = desk_setup
        gains = np.array([p.gamma for p in paths])
        l5 = esprit.default_l5(scen.m[4])
        for method in ("dense", "fast"):
            est = esprit.esprit_pipeline(tensor, transforms, 2, l5,
                                         scen.delta_f, method=method, rng=rng)
            got, perm = match_rows(est.omega, truth)
            assert np.abs(channel.wrap_angle(got - truth)).max() < 1e-8
            assert np.abs(est.gains[perm] - gains).max() / np.abs(gains).max() < 1e-8

    def test_scaling_invariance(self, desk_setup, rng):
        scen, paths, transforms, tensor, truth = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        est1 = esprit.esprit_pipeline(tensor, transforms, 2, l5, scen.delta_f,
                                      rng=np.random.default_rng(1))
        est2 = esprit.esprit_pipeline(5.0 * tensor, transforms, 2, l5,
                                      scen.delta_f,
                                      rng=np.random.default_rng(1))
        assert np.allclose(est1.omega, est2.omega, atol=1e-10)
        assert np.allclose(est2.gains, 5.0 * est1.gains, rtol=1e-9)

    def test_heavy_noise_clamps_not_raises(self, desk_setup):
        scen, paths, transforms, tensor, truth = desk_setup
        rng = np.random.default_rng(0)
        noisy = tensor + 100 * np.linalg.norm(tensor) / np.sqrt(tensor.size) * (
            rng.standard_normal(tensor.shape) + 1j * rng.standard_normal(tensor.shape))
        est = esprit.esprit_pipeline(noisy, transforms, 2,
                                     esprit.default_l5(scen.m[4]),
                                     scen.delta_f, rng=rng)
        assert np.all(np.isfinite(est.omega))


@st.composite
def lattice_scenes(draw):
    """A noiseless tiny scene of 1-3 paths on a 0.45 rad frequency lattice
    (|w| <= 1.8 in the angle modes, so both angle maps stay regular) and a
    window L5 in [L, M5 - 1]. The delays differ: paths of one delay give the
    L5-column window factor, and so the smoothed stack, a rank below L. One
    draw in four is wide: three beams per dimension (B = 81) and K5 = 2, so
    the B*K5 x L5 stack has no more rows than columns."""
    n_paths = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        beams, m5 = (3, 3, 3, 3), draw(st.integers(163, 170))
        l5 = m5 - 1
    else:
        beams, m5 = draw(st.tuples(*[st.integers(3, 4)] * 4)), draw(st.integers(4, 12))
        l5 = draw(st.integers(n_paths, m5 - 1))
    spatial = st.integers(-4, 4).map(lambda k: 0.45 * k)
    om = np.array([draw(st.tuples(*[spatial] * 4)) + (0.45 * k,)
                   for k in draw(st.lists(st.integers(-6, 6), min_size=n_paths,
                                          max_size=n_paths, unique=True))])
    gains = [draw(st.sampled_from([1.0, 0.5 - 0.7j, -0.8j, 2.0 + 0.3j]))
             for _ in range(n_paths)]
    scen = channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(4, 4, 4, 4, m5), n=beams, delta_f=8e6, f_c=30e9,
        n_p=16, n_c=600, e_s=1.0, seed=5)
    return scen, synthetic_paths(om, gains, scen.delta_f), l5


@settings(max_examples=40, deadline=None)
@given(scene=lattice_scenes())
def test_noiseless_exactness_property(scene):
    # criterion 1 over random tiny geometries: both backends recover omega
    # and the gains to 1e-8 wherever the kit's rank test finds the paths
    # identifiable
    scen, paths, l5 = scene
    transforms = channel.scenario_transforms(scen, paths)
    try:
        perturbation.build_kit(paths, transforms, scen, l5, with_position=False)
    except perturbation.IllPosedScenarioError:
        assume(False)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    truth = channel.path_omegas(paths, scen.delta_f)
    gains = np.array([p.gamma for p in paths])
    for method in ("dense", "fast"):
        est = esprit.esprit_pipeline(tensor, transforms, len(paths), l5, scen.delta_f,
                                     method=method, rng=np.random.default_rng(1))
        got, perm = match_rows(est.omega, truth)
        assert np.abs(channel.wrap_angle(got - truth)).max() < 1e-8, method
        assert np.abs(est.gains[perm] - gains).max() / np.abs(gains).max() < 1e-8, method


class TestMethodAgreement:
    def test_dense_vs_fast_rmse_under_noise(self, desk_setup):
        scen, paths, transforms, tensor, truth = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 0.0)
        sq = {"dense": 0.0, "fast": 0.0}
        for ss in np.random.SeedSequence(77).spawn(20):
            base = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor, scen, base, n0=n0)
            for method in ("dense", "fast"):
                est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                             scen.delta_f, method=method,
                                             rng=np.random.default_rng((1, 2)))
                got, _ = match_rows(est.omega, truth)
                sq[method] += np.sum(channel.wrap_angle(got - truth) ** 2)
        rmse = {k: np.sqrt(v / 20) for k, v in sq.items()}
        assert abs(rmse["fast"] / rmse["dense"] - 1) < 0.01

    def test_unitary_subspace_rotation_leaves_omega(self, desk_setup, rng):
        scen, paths, transforms, tensor, truth = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        u_s, _ = esprit.signal_subspace(tensor, 2, l5)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        pairs = shift.selectors_for_transforms(transforms, scen.m[4] + 1 - l5)
        _, om1, _ = esprit.auto_pair([esprit.gamma_n(u_s, p)[0] for p in pairs],
                                     rng=np.random.default_rng(1))
        _, om2, _ = esprit.auto_pair([esprit.gamma_n(u_s @ q, p)[0] for p in pairs],
                                     rng=np.random.default_rng(1))
        a, _ = match_rows(om1, truth)
        b, _ = match_rows(om2, truth)
        assert np.abs(channel.wrap_angle(a - b)).max() < 1e-10
