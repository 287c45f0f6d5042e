import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espritsim import channel, esprit, perturbation, shift, slac
from espritsim.kernels import PINV_RTOL, InvalidInputError, pinv
from tests.conftest import kit_rows, match_rows, selector_products, synthetic_paths


@pytest.fixture(scope="module")
def desk_kit():
    scen = channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(8, 8, 8, 8, 64), n=(4, 4, 4, 4), delta_f=1.875e6, f_c=30e9,
        n_p=32, n_c=600, e_s=1.0, seed=7)
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    l5 = esprit.default_l5(scen.m[4])
    kit = perturbation.build_kit(paths, transforms, scen, l5)
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    return scen, paths, transforms, l5, kit, tensor


def smoothed_error(dh, beam_dims, k5, l5):
    """S(dh): the smoothing operator applied to a vectorized error."""
    m5 = k5 + l5 - 1
    blocks = dh.reshape(int(np.prod(beam_dims)), m5)
    windows = np.lib.stride_tricks.sliding_window_view(blocks, k5, axis=1)
    return np.ascontiguousarray(np.swapaxes(windows, 1, 2)).reshape(-1, l5)


class TestXiUpsilon:
    def test_matrix_vs_vector_equivalence(self, desk_kit, rng):
        # lambda^H S(dh) chi^* equals xi^H dh for random errors
        scen, paths, transforms, l5, kit, _ = desk_kit
        k5 = kit.k5
        om = kit.omega
        facs = channel.beamspace_factors(paths, transforms, scen)
        p_mat = channel.khatri_rao(facs[:4]
                                   + [channel.steering_matrix(k5, om[:, 4])])
        g_mat = channel.steering_matrix(l5, om[:, 4])
        chi = pinv(g_mat.T).conj()
        sel = shift.selectors_for_transforms(transforms, k5)
        xi = kit_rows(kit)["xi"]
        for trial in range(100):
            dh = rng.standard_normal(xi.shape[-1]) + 1j * rng.standard_normal(xi.shape[-1])
            dmat = smoothed_error(dh, scen.n, k5, l5)
            l, n = trial % 2, trial % 5
            pair = sel[n]
            j1p_pinv = pinv(selector_products(pair, p_mat)[0])
            row = j1p_pinv[l]
            phi = kit.phi[l, n]
            j1d, j2d = selector_products(pair, dmat)
            matrix_form = row @ (j2d - phi * j1d) \
                @ chi[:, l].conj() / kit.gains[l]
            vector_form = xi[l, n].conj() @ dh / kit.gains[l]
            assert abs(matrix_form - vector_form) <= 1e-10 * max(abs(vector_form), 1e-30)

    def test_tiny_perturbation_linearity(self, desk_kit):
        scen, paths, transforms, l5, kit, tensor = desk_kit
        truth = kit.omega
        r = np.random.default_rng(3)
        dh = r.standard_normal(tensor.size) + 1j * r.standard_normal(tensor.size)
        dh *= 1e-8 * np.linalg.norm(tensor) / np.linalg.norm(dh)
        est = esprit.esprit_pipeline(tensor + dh.reshape(tensor.shape),
                                     transforms, 2, l5, scen.delta_f,
                                     rng=np.random.default_rng(5))
        got, _ = match_rows(est.omega, truth)
        measured = channel.wrap_angle(got - truth)
        predicted = np.imag(np.einsum("lnj,j->ln", kit_rows(kit)["upsilon"].conj(), dh))
        assert np.allclose(measured / predicted, 1.0, atol=2e-3)

    def test_pipeline_correlation_at_high_snr(self, desk_kit):
        scen, paths, transforms, l5, kit, tensor = desk_kit
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 40.0)
        truth = kit.omega
        upsilon = kit_rows(kit)["upsilon"]
        meas, pred = [], []
        for t, ss in enumerate(np.random.SeedSequence(17).spawn(60)):
            r = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
            dh = (noisy - tensor).reshape(-1)
            est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                         scen.delta_f, rng=r)
            got, _ = match_rows(est.omega, truth)
            meas.append(channel.wrap_angle(got - truth).reshape(-1))
            pred.append(np.imag(np.einsum("lnj,j->ln", upsilon.conj(), dh)).reshape(-1))
        meas = np.array(meas)
        pred = np.array(pred)
        for k in range(meas.shape[1]):
            c = np.corrcoef(meas[:, k], pred[:, k])[0, 1]
            assert c > 0.99

    def test_hand_computed_single_path_delay_dim(self):
        # single path, one beam per spatial dim, M5 = 4, L5 = 2 (K5 = 3):
        # the delay-dimension xi reduces to conv(lambda, chi) with
        # lambda = (J2 - Phi J1)^H (J1 a3)^{+H} and chi = conj((a2^T)^+),
        # all small enough to write out explicitly
        omega5 = -0.9
        gamma = 2.0 - 0.5j
        phi = np.exp(1j * omega5)
        a3 = np.exp(1j * omega5 * np.arange(3))      # P column (K5 = 3)
        a2 = np.exp(1j * omega5 * np.arange(2))      # G column (L5 = 2)
        j1 = np.eye(3)[:2]
        j2 = np.eye(3)[1:]
        u = np.linalg.pinv((j1 @ a3)[:, None])[0]    # b^T (J1 P)^+
        lam = (j2 - phi * j1).conj().T @ u.conj()
        chi = np.conj(np.linalg.pinv(a2[None, :]).reshape(-1))
        want_xi = np.convolve(lam, chi)

        pair = shift.lifted_selectors(5, (1, 1, 1, 1), 3)
        p_mat = a3[:, None]
        j1p_pinv = pinv(selector_products(pair, p_mat)[0])
        row = j1p_pinv[0].conj()
        j1h_row, j2h_row = selector_products(pair, row, adjoint=True)
        got_lam = j2h_row - np.conj(phi) * j1h_row
        got_xi = blockwise_convolve(got_lam[None, :], chi, 4)[0]
        assert np.allclose(got_lam, lam, atol=1e-12)
        assert np.allclose(got_xi, want_xi, atol=1e-12)
        assert np.allclose(phi * got_xi / np.conj(gamma),
                           phi * want_xi / np.conj(gamma), atol=1e-12)


class TestKappa:
    def test_boresight_elevation_scaling(self, tiny_scenario):
        # phi_el = pi/2: kappa_2 = -upsilon_2 / pi exactly
        scen = tiny_scenario
        om = np.array([[0.4, 0.0, 0.6, -0.3, 1.0],
                       [-0.6, 0.5, -1.0, 0.7, -0.4]])
        paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
        assert paths[0].phi_el == pytest.approx(np.pi / 2)
        transforms = channel.scenario_transforms(scen, paths)
        kit = perturbation.build_kit(paths, transforms, scen, 4, with_position=False)
        rows = kit_rows(kit)
        assert np.allclose(rows["kappa"][0, 1], -rows["upsilon"][0, 1] / np.pi, atol=1e-15)

    def test_finite_difference_richardson(self, desk_kit):
        scen, paths, transforms, l5, kit, tensor = desk_kit
        r = np.random.default_rng(11)
        d = r.standard_normal(tensor.size) + 1j * r.standard_normal(tensor.size)
        d /= np.linalg.norm(d)
        base = np.linalg.norm(tensor)
        truth_angles = np.stack([p.angles() for p in paths])
        truth_tau = np.array([p.tau for p in paths])

        def run(eps):
            out = np.empty((2, 5))
            for sign_idx, sign in enumerate((+1, -1)):
                noisy = tensor + sign * eps * d.reshape(tensor.shape)
                est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                             scen.delta_f,
                                             rng=np.random.default_rng(5))
                om, perm = match_rows(est.omega, kit.omega)
                params = [est.params[p] for p in perm]
                ang = np.stack([p.angles() for p in params])
                tau = np.array([p.tau for p in params])
                if sign > 0:
                    plus = np.concatenate([ang, tau[:, None]], axis=1)
                else:
                    minus = np.concatenate([ang, tau[:, None]], axis=1)
            return (plus - minus) / (2 * eps)

        eps = 1e-6 * base
        s1 = run(eps)
        s2 = run(2 * eps)
        slope = (4 * s1 - s2) / 3
        predicted = np.imag(np.einsum("lij,j->li", kit_rows(kit)["kappa"].conj(), d))
        rel = np.abs(slope - predicted) / np.abs(predicted)
        assert rel.max() < 0.01

    def test_gain_perturbation_matches_pipeline(self, desk_kit):
        scen, paths, transforms, l5, kit, tensor = desk_kit
        gains = kit.gains
        rows = kit_rows(kit)

        def mismatch(snr_db, trials=60):
            n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
            meas, pred = [], []
            for ss in np.random.SeedSequence(23).spawn(trials):
                r = np.random.default_rng(ss)
                noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
                dh = (noisy - tensor).reshape(-1)
                est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                             scen.delta_f, rng=r)
                _, perm = match_rows(est.omega, kit.omega)
                meas.append(est.gains[perm] - gains)
                dgam = rows["b_pinv"] @ dh
                for n in range(5):
                    v_n = rows["upsilon"][:, n, :].T
                    dgam = dgam - kit.upsilon_gain[n] @ np.imag(v_n.conj().T @ dh)
                pred.append(dgam)
            meas = np.array(meas)
            pred = np.array(pred)
            rms_err = np.sqrt(np.mean(np.abs(meas - pred) ** 2, axis=0))
            return rms_err / np.sqrt(np.mean(np.abs(meas) ** 2, axis=0))

        at40 = mismatch(40.0)
        at55 = mismatch(55.0)
        assert at40[0] < 0.02          # dominant path: first-order within 2%
        assert np.all(at55 < 0.02)     # both paths once second order recedes
        assert np.all(at55 < at40)     # residual shrinks with noise: 2nd order

    def test_singular_azimuth_raises(self, tiny_scenario):
        scen = tiny_scenario
        om = np.array([[np.pi * np.sin(np.pi / 2 - 1e-12), 0.0, 0.6, -0.3, 1.0]])
        paths = [channel.PathParams(phi_az=np.pi / 2 - 1e-12, phi_el=np.pi / 2,
                                    theta_az=0.3, theta_el=1.2, tau=1e-8,
                                    gamma=1.0)]
        transforms = channel.scenario_transforms(scen, paths)
        with pytest.raises(perturbation.SingularParameterizationError):
            perturbation.build_kit(paths, transforms, scen, 4, with_position=False)


class TestAnalyticRmse:
    def test_energy_homogeneity(self, desk_kit):
        scen, paths, transforms, l5, kit, _ = desk_kit
        rows1 = perturbation.analytic_param_rmse(kit, 1e-9)
        doubled = dataclasses.replace(kit, scenario=dataclasses.replace(scen, e_s=2 * scen.e_s))
        rows2 = perturbation.analytic_param_rmse(doubled, 1e-9)
        for a, b in zip(rows1, rows2):
            for key in a:
                assert b[key] == pytest.approx(a[key] / np.sqrt(2), rel=1e-12)

    def test_snr_scaling(self, desk_kit):
        scen, paths, transforms, l5, kit, _ = desk_kit
        pos1 = perturbation.analytic_pos_rmse(kit, 1e-9)
        pos2 = perturbation.analytic_pos_rmse(kit, 1e-8)
        assert pos2 == pytest.approx(pos1 * np.sqrt(10), rel=1e-12)

    def test_position_needs_a_position_kit(self, desk_kit):
        scen, paths, transforms, l5, _, _ = desk_kit
        kit = perturbation.build_kit(paths, transforms, scen, l5, with_position=False)
        assert kit.psi_norm is None
        with pytest.raises(InvalidInputError, match="with_position=False"):
            perturbation.analytic_pos_rmse(kit, 1e-9)

    def test_monte_carlo_agreement_40db(self, desk_kit):
        scen, paths, transforms, l5, kit, tensor = desk_kit
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 40.0)
        ana = perturbation.analytic_param_rmse(kit, n0)
        sq = np.zeros((2, 5))
        trials = 150
        for ss in np.random.SeedSequence(31).spawn(trials):
            r = np.random.default_rng(ss)
            noisy = channel.observe_and_estimate(tensor, scen, r, n0=n0)
            est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                         scen.delta_f, rng=r)
            _, perm = match_rows(est.omega, kit.omega)
            params = [est.params[p] for p in perm]
            for l, (tp, ep) in enumerate(zip(paths, params)):
                sq[l, :4] += (ep.angles() - tp.angles()) ** 2
                sq[l, 4] += (ep.tau - tp.tau) ** 2
        emp = np.sqrt(sq / trials)
        for l in range(2):
            for i, key in enumerate(perturbation.PARAM_KEYS):
                ratio = emp[l, i] / ana[l][key]
                assert 0.8 < ratio < 1.25, (l, key, ratio)


class TestPsi:
    def test_direct_path_projector_identity(self, desk_kit):
        # for an NLOS path, C-breve is proportional to the projector C_l
        scen, paths, transforms, l5, kit, _ = desk_kit
        tx_sign, rx_sign = channel.array_axis_signs(scen)
        geos = slac.localization_geometry(paths, scen.p_t, None, tx_sign, rx_sign)
        g = geos[1]
        mu, delta = g.mu, g.delta
        proj = mu @ (delta - scen.p_r)
        c_breve = (2 * proj * np.outer(mu, mu) / (mu @ mu) ** 2
                   - (proj * np.eye(3) + np.outer(mu, delta - scen.p_r)) / (mu @ mu))
        d_t = np.linalg.norm(scen.scatterers[0] - scen.p_t)
        ct = channel.SPEED_OF_LIGHT * paths[1].tau
        assert np.allclose(c_breve, (d_t / ct) * g.c_mat, atol=1e-12)

    def test_finite_difference_position(self):
        # the weighted LS is not differentiable at an exact direct path
        # (mu = 0 makes the projector direction jump), so the oracle runs on
        # a scatterer-only geometry where every mu is regular
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5],
            scatterers=[[10, 2.5, 0], [6, 7, 1]],
            m=(8, 8, 8, 8, 64), n=(4, 4, 4, 4), delta_f=1.875e6, f_c=30e9,
            n_p=32, n_c=600, e_s=1.0, seed=7)
        paths = channel.params_from_geometry(scen)[1:]   # drop the LOS path
        transforms = channel.scenario_transforms(scen, paths)
        l5 = esprit.default_l5(scen.m[4])
        kit = perturbation.build_kit(paths, transforms, scen, l5)
        tx_sign, rx_sign = channel.array_axis_signs(scen)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        exact = slac.localize(paths, scen.p_t, None, tx_sign, rx_sign)
        assert np.linalg.norm(exact.p_hat - scen.p_r) < 1e-9

        r = np.random.default_rng(41)
        d = r.standard_normal(tensor.size) + 1j * r.standard_normal(tensor.size)
        d /= np.linalg.norm(d)
        base = np.linalg.norm(tensor)

        def position(eps_signed):
            noisy = tensor + eps_signed * d.reshape(tensor.shape)
            est = esprit.esprit_pipeline(noisy, transforms, 2, l5,
                                         scen.delta_f,
                                         rng=np.random.default_rng(5))
            _, perm = match_rows(est.omega, kit.omega)
            params = [est.params[p] for p in perm]
            res = slac.localize(params, scen.p_t, None, tx_sign, rx_sign)
            return res.p_hat

        eps = 1e-6 * base
        s1 = (position(eps) - position(-eps)) / (2 * eps)
        s2 = (position(2 * eps) - position(-2 * eps)) / (4 * eps)
        slope = (4 * s1 - s2) / 3
        psi = per_path_psi(paths, kit_rows(kit)["kappa"], scen,
                           slac.path_weights(paths, scen.weights))
        predicted = np.imag(psi @ d)
        assert np.linalg.norm(slope - predicted) / np.linalg.norm(predicted) < 0.01

    def test_zero_weight_masks_nlos(self, desk_kit):
        # a zero-weight path adds nothing to the position map, so Psi lies in
        # the span of the LOS kappa rows only
        scen, paths, _, _, _, _ = desk_kit
        assert np.all(perturbation._position_map(paths, scen, weights=[1, 0])[:, 1] == 0)

    @pytest.mark.parametrize("scene", ["desk", "six-path", "nlos-weight"])
    def test_matches_per_path_loop(self, desk_kit, desk_scenario, scene):
        # ||Psi||, a quadratic form in the rows' Gram through the stacked
        # position map, agrees with Psi summed path by path to round-off;
        # "nlos-weight" weights the paths by |gamma|^2, so the map is not uniform
        scen, paths, transforms, l5, kit, _ = desk_kit
        if scene != "desk":
            scen = (dataclasses.replace(desk_scenario, scatterers=SIX_PATH_SCATTERERS, seed=13)
                    if scene == "six-path" else dataclasses.replace(desk_scenario, weights="gain"))
            paths = channel.params_from_geometry(scen)
            transforms = channel.scenario_transforms(scen, paths)
            kit = perturbation.build_kit(paths, transforms, scen, l5)
        want = per_path_psi(paths, kit_rows(kit)["kappa"], scen,
                            slac.path_weights(paths, scen.weights))
        assert kit.psi_norm == pytest.approx(np.linalg.norm(want), rel=1e-12)

    def test_position_rmse_scaling(self, desk_kit):
        scen, paths, transforms, l5, kit, _ = desk_kit
        a = perturbation.analytic_pos_rmse(kit, 2e-10)
        b = perturbation.analytic_pos_rmse(kit, 2e-9)
        assert b / a == pytest.approx(np.sqrt(10), rel=1e-12)


def per_path_psi(paths, kappa, scen, weights):
    """Psi accumulated path by path from conjugated kappa blocks (reference)."""
    p_r = scen.p_r
    tx_axis_sign, rx_axis_sign = channel.array_axis_signs(scen)
    geos = slac.localization_geometry(paths, scen.p_t, weights, tx_axis_sign, rx_axis_sign)
    c_inv = np.linalg.inv(sum(g.c_mat for g in geos))
    mirror_t = np.diag([tx_axis_sign, 1.0, 1.0])
    mirror_r = np.diag([rx_axis_sign, 1.0, 1.0])
    c = channel.SPEED_OF_LIGHT
    psi = np.zeros((3, kappa.shape[-1]), dtype=np.complex128)
    for l, (p, g, w) in enumerate(zip(paths, geos, weights)):
        omega_t = mirror_t @ perturbation._rotation_jacobian(p.phi_az, p.phi_el)
        omega_r = mirror_r @ perturbation._rotation_jacobian(p.theta_az, p.theta_el)
        d_breve = -c * c_inv @ g.c_mat @ np.column_stack([p.tau * omega_r, g.f_r])
        psi += d_breve @ kappa[l, 2:5].conj()
        if g.direct:
            continue
        mu, delta = g.mu, g.delta
        mu2 = mu @ mu
        proj = mu @ (delta - p_r)
        c_breve = w * (2 * proj * np.outer(mu, mu) / mu2 ** 2
                       - (proj * np.eye(3) + np.outer(mu, delta - p_r)) / mu2)
        e_breve = c * c_inv @ c_breve @ np.column_stack(
            [p.tau * omega_t, p.tau * omega_r, g.f_t + g.f_r])
        psi += e_breve @ kappa[l].conj()
    return psi


# -- reference construction on materialized products ------------------------

def blockwise_convolve(vec_blocks, kernel, m5):
    """Convolve each K5 block with the L5 kernel by FFT; returns (B, M5)."""
    nfft = 1 << (m5 - 1).bit_length()
    out = np.fft.ifft(np.fft.fft(vec_blocks, nfft, axis=1)
                      * np.fft.fft(kernel, nfft)[None, :], axis=1)
    return out[:, :m5]


def reference_kit(paths, transforms, scen, l5):
    """The kit's arrays built on materialized products, as a reference.

    J1 P is the (B K5) x L matrix and is pseudo-inverted as such, each xi row
    is an FFT blockwise convolution, and B^+ is the pinv of the J x L matrix
    B. Returns the arrays xi, upsilon, kappa, upsilon_gain, b_pinv and pi
    by name.
    """
    m5 = scen.m[4]
    k5 = m5 + 1 - l5
    gains = np.array([p.gamma for p in paths], dtype=np.complex128)
    omega = channel.path_omegas(paths, scen.delta_f)
    phi = np.exp(1j * omega)
    n_paths = len(paths)
    factors = channel.beamspace_factors(paths, transforms, scen)
    p_mat = channel.khatri_rao(factors[:4] + [channel.steering_matrix(k5, omega[:, 4])])
    chi = pinv(channel.steering_matrix(l5, omega[:, 4]).T).conj()
    n_blocks = int(np.prod([t.n for t in transforms]))
    xi = np.empty((n_paths, 5, n_blocks * m5), dtype=np.complex128)
    upsilon = np.empty_like(xi)
    for n, pair in enumerate(shift.selectors_for_transforms(transforms, k5)):
        j1p = selector_products(pair, p_mat)[0]
        s = np.linalg.svd(j1p, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise perturbation.IllPosedScenarioError(f"J1 P rank deficient in dimension {n + 1}")
        j1p_pinv = pinv(j1p)
        for l in range(n_paths):
            row = j1p_pinv[l].conj()
            j1h_row, j2h_row = selector_products(pair, row, adjoint=True)
            lam = j2h_row - np.conj(phi[l, n]) * j1h_row
            xi[l, n] = blockwise_convolve(lam.reshape(n_blocks, k5), chi[:, l], m5).reshape(-1)
            upsilon[l, n] = phi[l, n] * xi[l, n] / np.conj(gains[l])
    # two paths that share a delay leave the window factor rank deficient
    s = np.linalg.svd(channel.steering_matrix(l5, omega[:, 4]), compute_uv=False)
    if s[-1] <= PINV_RTOL * s[0]:
        raise perturbation.IllPosedScenarioError("window factor A5 rank deficient")
    kappa = np.empty_like(xi)
    for l, p in enumerate(paths):
        u = upsilon[l]
        sp_el, cp_el = np.sin(p.phi_el), np.cos(p.phi_el)
        st_el, ct_el = np.sin(p.theta_el), np.cos(p.theta_el)
        cp_az, sp_az = np.cos(p.phi_az), np.sin(p.phi_az)
        ct_az, st_az = np.cos(p.theta_az), np.sin(p.theta_az)
        kappa[l, 0] = u[0] / (np.pi * cp_az * sp_el) \
            + sp_az * cp_el * u[1] / (np.pi * cp_az * sp_el ** 2)
        kappa[l, 1] = -u[1] / (np.pi * sp_el)
        kappa[l, 2] = u[2] / (np.pi * ct_az * st_el) \
            + st_az * ct_el * u[3] / (np.pi * ct_az * st_el ** 2)
        kappa[l, 3] = -u[3] / (np.pi * st_el)
        kappa[l, 4] = -u[4] / (2 * np.pi * scen.delta_f)

    b_pinv = pinv(channel.khatri_rao(factors))
    upsilon_gain = np.empty((5, n_paths, n_paths), dtype=np.complex128)
    for n in range(5):
        m_n = factors[4].shape[0] if n == 4 else transforms[n].m
        deriv = 1j * np.arange(m_n)[:, None] * channel.steering_matrix(m_n, omega[:, n])
        if n < 4:
            deriv = transforms[n].t.conj().T @ deriv
        b_breve = channel.khatri_rao([deriv if i == n else factors[i] for i in range(5)])
        upsilon_gain[n] = (b_pinv @ b_breve) * gains[None, :]
    pi = np.empty((n_paths, 2, 2 * xi.shape[-1]))
    for l in range(n_paths):
        row = b_pinv[l]
        pi_l = np.block([[row.real[None, :], -row.imag[None, :]],
                         [row.imag[None, :], row.real[None, :]]])
        for n in range(5):
            coeff = upsilon_gain[n][l]
            vh = upsilon[:, n, :].conj()
            pi_l -= np.vstack([coeff.real, coeff.imag]) \
                @ np.concatenate([vh.imag, vh.real], axis=1)
        pi[l] = pi_l
    return {"xi": xi, "upsilon": upsilon, "kappa": kappa, "upsilon_gain": upsilon_gain,
            "b_pinv": b_pinv, "pi": pi}


KIT_ARRAYS = ("xi", "upsilon", "kappa", "upsilon_gain", "b_pinv")
# the six-path scene of criterion 5
SIX_PATH_SCATTERERS = [[10, 2.5, 0], [6, 7, 1], [14, 1, 2], [8, 4.5, 0.5], [12, 6, 1.5]]


def assert_kit_matches(kit, ref, rtol=1e-12):
    """Each of the kit's rows (``kit_rows``) and Upsilon_n within ``rtol`` of the
    reference, relative per last-axis row, and each stored norm within ``rtol``
    of the norm of the reference's kappa, Pi and (if given) Psi."""
    arrays = {**kit_rows(kit), "upsilon_gain": kit.upsilon_gain}
    for name in KIT_ARRAYS:
        got, want = arrays[name], ref[name]
        assert got.shape == want.shape and got.dtype == want.dtype, name
        got, want = got.reshape(-1, want.shape[-1]), want.reshape(-1, want.shape[-1])
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= rtol * np.linalg.norm(want, axis=1)), (name, err.max())
    norms = [(kit.kappa_norm, np.linalg.norm(ref["kappa"], axis=-1)),
             (kit.pi_norm, np.linalg.norm(ref["pi"], axis=(1, 2)))]
    if "psi" in ref:
        norms.append((kit.psi_norm, np.linalg.norm(ref["psi"])))
    else:
        assert kit.psi_norm is None
    for got, want in norms:
        assert np.all(np.abs(got - want) <= rtol * want), (got, want)


class TestAgainstMaterializedReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_paths=st.integers(1, 5),
           beams=st.tuples(*[st.integers(3, 4)] * 4))
    def test_tiny_geometries(self, data, n_paths, beams):
        # up to 5 paths on 3-4 beams: where a mode has fewer beams than paths
        # the rows' per-mode ranks differ, and the kit's Gram pads them
        m5 = data.draw(st.integers(max(4, n_paths + 1), 12), label="m5")
        l5 = data.draw(st.integers(n_paths, m5 - 1), label="l5")
        # frequencies on a 0.45 rad lattice, |w| <= 1.8 in the angle modes so
        # both angle maps stay regular; w5 over most of the circle
        spatial = st.integers(-4, 4).map(lambda k: 0.45 * k)
        om = np.array([data.draw(st.tuples(*[spatial] * 4, st.integers(-6, 6)))
                       for _ in range(n_paths)], dtype=float)
        om[:, 4] *= 0.45
        gains = [data.draw(st.sampled_from([1.0, 0.5 - 0.7j, -0.8j, 2.0 + 0.3j]))
                 for _ in range(n_paths)]
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
            m=(4, 4, 4, 4, m5), n=beams, delta_f=8e6, f_c=30e9,
            n_p=16, n_c=600, e_s=1.0, seed=5)
        paths = synthetic_paths(om, gains, scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        try:
            ref = reference_kit(paths, transforms, scen, l5)
        except perturbation.IllPosedScenarioError:
            with pytest.raises(perturbation.IllPosedScenarioError):
                perturbation.build_kit(paths, transforms, scen, l5, with_position=False)
            return
        kit = perturbation.build_kit(paths, transforms, scen, l5, with_position=False)
        assert_kit_matches(kit, ref)

    @staticmethod
    def check_scene(scen):
        paths = channel.params_from_geometry(scen)
        transforms = channel.scenario_transforms(scen, paths)
        l5 = esprit.default_l5(scen.m[4])
        kit = perturbation.build_kit(paths, transforms, scen, l5)
        ref = reference_kit(paths, transforms, scen, l5)
        ref["psi"] = per_path_psi(paths, ref["kappa"], scen,
                                  slac.path_weights(paths, scen.weights))
        assert_kit_matches(kit, ref)

    def test_six_path_desk(self, desk_scenario):
        # six paths on four beams: the spatial QR cores are 4 x 6 (rank below L)
        self.check_scene(dataclasses.replace(desk_scenario, scatterers=SIX_PATH_SCATTERERS,
                                             seed=13))

    @pytest.mark.fullscale
    @pytest.mark.parametrize("scatterers, seed", [([[10, 2.5, 0]], 7),
                                                  (None, 13)], ids=["full", "six-path"])
    def test_full_size(self, scatterers, seed):
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=scatterers or SIX_PATH_SCATTERERS,
            m=(8, 8, 8, 8, 500), n=(4, 4, 4, 4), delta_f=120e3, f_c=30e9,
            n_p=32, n_c=600, e_s=1.0, seed=seed)
        self.check_scene(scen)



class TestAnalyticNorms:
    def test_rows_equal_per_call_norms(self, desk_kit):
        # the stored norms come from the rows' Gram, so they give the norms of
        # the materialized reference's arrays to round-off
        scen, paths, transforms, l5, kit, _ = desk_kit
        ref = reference_kit(paths, transforms, scen, l5)
        psi = per_path_psi(paths, ref["kappa"], scen, slac.path_weights(paths, scen.weights))
        root = np.sqrt(1e-9 / (2 * scen.n_p * scen.e_s))
        for l, row in enumerate(perturbation.analytic_param_rmse(kit, 1e-9)):
            for i, key in enumerate(perturbation.PARAM_KEYS):
                assert row[key] == pytest.approx(
                    root * np.linalg.norm(ref["kappa"][l, i]), rel=1e-12)
            assert row["rmse_gamma"] == pytest.approx(
                root * np.linalg.norm(ref["pi"][l]), rel=1e-12)
        assert perturbation.analytic_pos_rmse(kit, 1e-9) == pytest.approx(
            root * np.linalg.norm(psi), rel=1e-12)

    def test_kit_holds_no_j_long_array(self, desk_scenario):
        scen = desk_scenario
        paths = channel.params_from_geometry(scen)
        transforms = channel.scenario_transforms(scen, paths)
        kit = perturbation.build_kit(paths, transforms, scen, esprit.default_l5(scen.m[4]))
        perturbation.analytic_param_rmse(kit, 1e-9)
        perturbation.analytic_pos_rmse(kit, 1e-9)
        assert largest_array(vars(kit)) < int(np.prod(scen.n)) * scen.m[4]
        for name in ("xi", "upsilon", "kappa", "b_pinv", "pi", "psi"):
            assert not hasattr(kit, name), name

    def test_six_path_kit_memory(self, desk_scenario):
        # the Gram expands no pairwise core: the six-path desk kit stays small
        scen = dataclasses.replace(desk_scenario, scatterers=SIX_PATH_SCATTERERS, seed=13)
        paths = channel.params_from_geometry(scen)
        transforms = channel.scenario_transforms(scen, paths)
        tracemalloc.start()
        try:
            perturbation.build_kit(paths, transforms, scen, esprit.default_l5(scen.m[4]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak


def largest_array(obj):
    """Entries of the largest numpy array reachable through containers and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((largest_array(v) for v in obj), default=0)
    return 0


class TestInputChecks:
    @pytest.mark.parametrize("gamma", [None, np.nan, np.inf, complex(1.0, np.nan), 0.0])
    def test_gain_must_be_finite_and_nonzero(self, desk_kit, gamma):
        scen, paths, transforms, l5, _, _ = desk_kit
        bad = [dataclasses.replace(paths[0], gamma=gamma)] + paths[1:]
        with pytest.raises(InvalidInputError, match="path gain"):
            perturbation.build_kit(bad, transforms, scen, l5)

    @pytest.mark.parametrize("n0", [-1e-9, np.nan, np.inf])
    @pytest.mark.parametrize("rmse", [perturbation.analytic_param_rmse,
                                      perturbation.analytic_pos_rmse])
    def test_noise_level_must_be_finite_and_nonnegative(self, desk_kit, rmse, n0):
        kit = desk_kit[4]
        with pytest.raises(InvalidInputError, match="n0"):
            rmse(kit, n0)


class TestRankCheck:
    @pytest.mark.parametrize("omegas, m5, l5", [
        # two paths with the same frequency in every mode: equal columns
        ([[0.4, 0.3, -0.6, 0.2, 1.0], [0.4, 0.3, -0.6, 0.2, 1.0]], 8, 4),
        # three paths sharing all four spatial frequencies over K5 = 2
        # windows: J1 P = b x A5 has rank 2
        ([[0.4, 0.3, -0.6, 0.2, 1.0], [0.4, 0.3, -0.6, 0.2, -0.5],
          [0.4, 0.3, -0.6, 0.2, 2.2]], 4, 3),
    ], ids=["coincident-paths", "shared-spatial-frequencies"])
    def test_rank_deficient_raises(self, tiny_scenario, omegas, m5, l5):
        scen = dataclasses.replace(tiny_scenario, m=(4, 4, 4, 4, m5))
        paths = synthetic_paths(omegas, [1.0, 0.6 - 0.2j, 0.9j][:len(omegas)], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        with pytest.raises(perturbation.IllPosedScenarioError, match="dimension 1"):
            perturbation.build_kit(paths, transforms, scen, l5, with_position=False)

    def test_shared_delay_raises(self, tiny_scenario):
        # J1 P has full rank, as the paths part in dimension 4, but their shared
        # delay leaves the L5-column window factor A5 with rank 1
        scen = dataclasses.replace(tiny_scenario, m=(4, 4, 4, 4, 163))
        paths = synthetic_paths([[0.0] * 5, [0.0, 0.0, 0.0, 0.45, 0.0]], [1.0, 0.6 - 0.2j],
                                scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        with pytest.raises(perturbation.IllPosedScenarioError, match="window factor"):
            perturbation.build_kit(paths, transforms, scen, 162, with_position=False)

    def test_window_below_path_count_raises(self, desk_kit):
        # an L5-column smoothed stack holds at most L5 paths: no estimator
        # the kit models can run, so it has no RMSE to predict
        scen, paths, transforms, _, _, _ = desk_kit
        with pytest.raises(perturbation.IllPosedScenarioError, match="l5=1"):
            perturbation.build_kit(paths, transforms, scen, 1)
