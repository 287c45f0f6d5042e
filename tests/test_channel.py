import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espritsim import channel, slac
from tests.conftest import identity_transforms, synthetic_paths


def pilot_observation(tensor, scen, rng, n0):
    """The pilot stage simulated per subcarrier: Y = H S + Z with S the first
    N1 N2 rows of a scaled N_P-point DFT (S S^H = N_P E_s I), correlated with
    S^H; ``observe_and_estimate`` draws the error this leaves directly."""
    n1, n2, n3, n4, m5 = tensor.shape
    s = np.sqrt(scen.e_s) * np.exp(
        -2j * np.pi * np.outer(np.arange(n1 * n2), np.arange(scen.n_p)) / scen.n_p)
    est = np.empty_like(tensor)
    for k in range(m5):
        h = tensor[..., k].reshape(n1 * n2, n3 * n4).T  # rows: RX beams
        z = rng.standard_normal((n3 * n4, scen.n_p)) \
            + 1j * rng.standard_normal((n3 * n4, scen.n_p))
        y = h @ s + np.sqrt(n0 / 2) * z
        est[..., k] = ((y @ s.conj().T) / (scen.n_p * scen.e_s)).T.reshape(n1, n2, n3, n4)
    return est


class TestSteeringVector:
    def test_zero_frequency(self):
        assert np.allclose(channel.steering_vector(4, 0.0), np.ones(4))

    def test_pi(self):
        assert np.allclose(channel.steering_vector(2, np.pi), [1, -1])

    def test_quarter_turn(self):
        assert np.allclose(channel.steering_vector(3, np.pi / 2), [1, 1j, -1])


class TestGeometry:
    def test_los_delay(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        d = np.linalg.norm(desk_scenario.p_r - desk_scenario.p_t)
        assert paths[0].tau == pytest.approx(d / channel.SPEED_OF_LIGHT, rel=1e-12)

    def test_horizontal_ray_elevations(self):
        scen = channel.Scenario(
            p_t=[0, 0, 2], p_r=[10, 0, 2], scatterers=[], m=(4, 4, 4, 4, 8),
            n=(3, 3, 3, 3), delta_f=1e6, f_c=30e9, n_p=16, n_c=600,
            e_s=1.0, seed=1)
        p = channel.params_from_geometry(scen)[0]
        assert p.phi_el == pytest.approx(np.pi / 2)
        assert p.theta_el == pytest.approx(np.pi / 2)

    def test_round_trip_localization(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        res = slac.localize_scenario(paths, desk_scenario)
        assert np.linalg.norm(res.p_hat - desk_scenario.p_r) < 1e-9

    def test_nlos_delay_is_two_leg(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        p_s = desk_scenario.scatterers[0]
        d = (np.linalg.norm(p_s - desk_scenario.p_t)
             + np.linalg.norm(desk_scenario.p_r - p_s))
        assert paths[1].tau == pytest.approx(d / channel.SPEED_OF_LIGHT, rel=1e-12)

    def test_gain_magnitudes_follow_path_loss(self, desk_scenario):
        paths = channel.params_from_geometry(desk_scenario)
        lam = desk_scenario.wavelength
        d_los = np.linalg.norm(desk_scenario.p_r - desk_scenario.p_t)
        assert abs(paths[0].gamma) == pytest.approx(lam / (4 * np.pi * d_los))
        d_n = paths[1].tau * channel.SPEED_OF_LIGHT
        expect = np.sqrt(desk_scenario.nlos_power_scale) * lam / (4 * np.pi * d_n)
        assert abs(paths[1].gamma) == pytest.approx(expect)

    def test_pole_elevation_raises(self):
        scen = channel.Scenario(
            p_t=[0, 0, 0], p_r=[1e-9, 0, 10], scatterers=[], m=(4, 4, 4, 4, 8),
            n=(3, 3, 3, 3), delta_f=1e6, f_c=30e9, n_p=16, n_c=600,
            e_s=1.0, seed=1)
        with pytest.raises(channel.DegenerateGeometryError):
            channel.params_from_geometry(scen)


class TestAngularMaps:
    def test_boresight(self):
        p = channel.PathParams(0.0, np.pi / 2, 0.0, np.pi / 2, 0.0, 1.0)
        w = channel.to_angular(p, 1e6).omega
        assert np.allclose(w[:2], 0.0, atol=1e-15)

    def test_quarter_delay(self):
        df = 1e6
        p = channel.PathParams(0.1, 1.5, 0.2, 1.6, 1 / (4 * df), 1.0)
        assert channel.to_angular(p, df).omega[4] == pytest.approx(-np.pi / 2)

    def test_zero_vector_inverse(self):
        p = channel.from_angular(channel.AngularFreqs(np.zeros(5)), 1e6)
        assert p.phi_el == pytest.approx(np.pi / 2)
        assert p.theta_el == pytest.approx(np.pi / 2)
        assert p.phi_az == p.theta_az == 0.0
        assert p.tau == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_property(self, seed):
        r = np.random.default_rng(seed)
        df = 1e6
        p = channel.PathParams(
            phi_az=r.uniform(-1.4, 1.4), phi_el=r.uniform(0.2, np.pi - 0.2),
            theta_az=r.uniform(-1.4, 1.4), theta_el=r.uniform(0.2, np.pi - 0.2),
            tau=r.uniform(0, 0.9 / df), gamma=1.0)
        q = channel.from_angular(channel.to_angular(p, df), df)
        assert q.phi_az == pytest.approx(p.phi_az, abs=1e-12)
        assert q.phi_el == pytest.approx(p.phi_el, abs=1e-12)
        assert q.theta_az == pytest.approx(p.theta_az, abs=1e-12)
        assert q.theta_el == pytest.approx(p.theta_el, abs=1e-12)
        assert q.tau == pytest.approx(p.tau, abs=1e-12 / df)

    def test_out_of_domain(self):
        with pytest.raises(channel.OutOfDomainError):
            channel.from_angular(channel.AngularFreqs([0, np.pi, 0, 0, 0]), 1e6)
        with pytest.raises(channel.OutOfDomainError):
            # elevation leaves only |w1| <= pi sin(el) ~ 0.93 of azimuth room
            channel.from_angular(channel.AngularFreqs([2.0, 3.0, 0, 0, 0]), 1e6)

    def test_phase_slope_oracle(self, desk_scenario):
        # LOS angular frequencies agree with a regression of the synthesized
        # element-space phases along each array axis
        paths = channel.params_from_geometry(desk_scenario)[:1]
        w = channel.to_angular(paths[0], desk_scenario.delta_f).omega
        m1 = desk_scenario.m[0]
        a1 = channel.steering_vector(m1, w[0])
        slope = np.angle(a1[1:] * a1[:-1].conj()).mean()
        assert slope == pytest.approx(w[0], abs=1e-12)


class TestBeamTransforms:
    def test_full_dft_unitary(self):
        grid = channel.wrap_angle(2 * np.pi * np.arange(4) / 4)
        t = channel.make_beam_transform(4, grid)
        assert np.allclose(t.t.conj().T @ t.t, np.eye(4), atol=1e-12)

    def test_shift_identity_any_grid(self, rng):
        grid = np.sort(rng.uniform(-2, 2, 3))
        t = channel.make_beam_transform(6, grid)
        assert np.linalg.norm(t.t[:-1] - t.t[1:] @ t.f) < 1e-12

    def test_duplicate_grid_rejected(self):
        with pytest.raises(channel.SingularTransformError):
            channel.make_beam_transform(8, [0.1, 0.1, 0.5])

    def test_dft_grid_spacing(self):
        t = channel.make_beam_transform(8, channel.dft_grid(8, 4, 0.3))
        assert np.allclose(np.diff(t.grid), np.pi / 4)

    def test_directional_grid_spacing(self):
        t = channel.make_beam_transform(8, channel.directional_grid(4, -0.7))
        assert np.allclose(np.diff(t.grid), np.pi / 8)
        assert np.mean(t.grid) == pytest.approx(-0.7)

    def test_per_side_beam_kinds(self):
        # the desk_scenario layout, loaded with a directional transmit side
        scen = channel.Scenario.from_dict({
            "p_t": [20, 5, 8], "p_r": [0, 5, 1.5], "scatterers": [[10, 2.5, 0]],
            "m": [8, 8, 8, 8, 64], "n": [4, 4, 4, 4], "delta_f_hz": 1.875e6,
            "carrier_hz": 30e9, "n_p": 32, "n_c": 600, "e_s": 1.0, "seed": 7,
            "beam_kind": {"tx": "directional", "rx": "dft"}})
        assert (scen.beam_kind_tx, scen.beam_kind_rx) == ("directional", "dft")
        paths = channel.params_from_geometry(scen)
        focus = channel.beam_focus(scen, paths)
        grids = ([channel.directional_grid(4, focus[i]) for i in (0, 1)]
                 + [channel.dft_grid(8, 4, focus[i]) for i in (2, 3)])
        for t, grid in zip(channel.scenario_transforms(scen, paths), grids, strict=True):
            assert np.array_equal(t.grid, grid)
            want = channel.make_beam_transform(8, grid).t
            assert np.array_equal(t.t.view(np.uint64), want.view(np.uint64))


class TestSynthesis:
    def test_single_path_identity_transform_constant(self):
        scen = channel.Scenario(
            p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[], m=(4, 4, 4, 4, 8),
            n=(4, 4, 4, 4), delta_f=1e6, f_c=30e9, n_p=16, n_c=600,
            e_s=1.0, seed=2)
        gamma = 0.3 - 0.4j
        paths = synthetic_paths(np.zeros((1, 5)), [gamma], scen.delta_f)
        tensor = channel.synth_beamspace_tensor(paths, identity_transforms(4), scen)
        assert np.allclose(tensor, gamma)

    def test_khatri_rao_identity(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        gains = np.array([p.gamma for p in paths])
        facs = channel.beamspace_factors(paths, transforms, scen)
        vec = channel.khatri_rao(facs) @ gains
        err = np.linalg.norm(vec - tensor.reshape(-1)) / np.linalg.norm(vec)
        assert err < 1e-12

    def test_elementwise_channel_oracle(self, desk_setup):
        # per-subcarrier slice equals the explicit W^H a_R a_T^T F product
        scen, paths, transforms, tensor, _ = desk_setup
        m5 = 3  # arbitrary subcarrier
        w_mat = np.kron(transforms[2].t, transforms[3].t)
        f_mat = np.kron(transforms[0].t, transforms[1].t).conj()
        h = np.zeros((scen.n[2] * scen.n[3], scen.n[0] * scen.n[1]),
                     dtype=complex)
        for p in paths:
            w = channel.to_angular(p, scen.delta_f).omega
            a_t = np.kron(channel.steering_vector(8, w[0]),
                          channel.steering_vector(8, w[1]))
            a_r = np.kron(channel.steering_vector(8, w[2]),
                          channel.steering_vector(8, w[3]))
            phase = np.exp(1j * m5 * w[4])
            h += p.gamma * phase * (w_mat.conj().T @ np.outer(a_r, a_t) @ f_mat)
        got = tensor[..., m5].reshape(scen.n[0] * scen.n[1], -1).T
        assert np.allclose(got, h, atol=1e-12 * np.linalg.norm(h))


class TestObservation:
    def test_zero_noise_identity(self, desk_setup, rng):
        scen, _, _, tensor, _ = desk_setup
        out = channel.observe_and_estimate(tensor, scen, rng, n0=0.0)
        assert np.array_equal(out, tensor)
        assert not np.shares_memory(out, tensor)

    def test_direct_draw_bit_exact(self, desk_setup):
        # the real and imaginary parts are added in place, in draw order, to
        # the same bits as tensor + sqrt(s / 2) (a + 1j b)
        scen, _, _, tensor, _ = desk_setup
        n0 = 3e-4
        before = tensor.copy()
        got = channel.observe_and_estimate(tensor, scen, np.random.default_rng(17), n0=n0)
        r = np.random.default_rng(17)
        a = r.standard_normal(tensor.shape)
        b = r.standard_normal(tensor.shape)
        want = tensor + np.sqrt(n0 / (scen.n_p * scen.e_s) / 2) * (a + 1j * b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(tensor.view(np.uint64), before.view(np.uint64))
        wide = np.zeros(tensor.shape[:4] + (2 * tensor.shape[4],), dtype=complex)
        wide[..., ::2] = tensor
        view = channel.observe_and_estimate(wide[..., ::2], scen,
                                            np.random.default_rng(17), n0=n0)
        assert np.array_equal(view.view(np.uint64), want.view(np.uint64))
        assert not np.any(wide[..., 1::2])

    def test_error_variance(self, tiny_scenario, rng):
        scen = tiny_scenario
        tensor = np.zeros((3, 3, 3, 3, 8), dtype=complex)
        n0 = 2.5e-3
        draws = channel.observe_and_estimate(tensor, scen, rng, n0=n0)
        for _ in range(40):
            draws = np.concatenate(
                [draws.reshape(-1),
                 channel.observe_and_estimate(tensor, scen, rng, n0=n0).reshape(-1)])
        var = np.mean(np.abs(draws) ** 2)
        expect = n0 / (scen.n_p * scen.e_s)
        assert var == pytest.approx(expect, rel=0.05)
        # circularity: pseudo-covariance vanishes
        pseudo = np.mean(draws ** 2)
        assert abs(pseudo) < 3 * expect / np.sqrt(draws.size)

    def test_pilot_mode_matches_direct_covariance(self, tiny_scenario, rng):
        scen = tiny_scenario
        tensor = np.zeros((3, 3, 3, 3, 8), dtype=complex)
        n0 = 1e-2
        trials = 400
        observe = {"direct": channel.observe_and_estimate, "pilot": pilot_observation}
        sums = {"direct": 0.0, "pilot": 0.0}
        sq = {"direct": 0.0, "pilot": 0.0}
        n = tensor.size * trials
        for mode in ("direct", "pilot"):
            for _ in range(trials):
                d = observe[mode](tensor, scen, rng, n0).reshape(-1)
                sums[mode] += d.sum()
                sq[mode] += np.sum(np.abs(d) ** 2)
        expect = n0 / (scen.n_p * scen.e_s)
        for mode in ("direct", "pilot"):
            var = sq[mode] / n
            assert var == pytest.approx(expect, rel=0.05)
            assert abs(sums[mode] / n) < 3 * np.sqrt(expect / n)


class TestLinkMetrics:
    def test_direct_sum_oracle(self, desk_setup):
        scen, paths, transforms, _, _ = desk_setup
        met = channel.link_metrics(paths, transforms, scen, n0=1.0)
        gains = np.array([p.gamma for p in paths])
        taus = np.array([p.tau for p in paths])
        om = np.stack([channel.to_angular(p, scen.delta_f).omega for p in paths])
        a_t = channel.khatri_rao([channel.steering_matrix(8, om[:, 0]),
                                  channel.steering_matrix(8, om[:, 1])])
        a_r = channel.khatri_rao([channel.steering_matrix(8, om[:, 2]),
                                  channel.steering_matrix(8, om[:, 3])])
        f_mat = np.kron(transforms[0].t, transforms[1].t).conj()
        total = 0.0
        for k in range(scen.m[4]):
            d = gains * np.exp(-2j * np.pi * k * scen.delta_f * taus)
            total += np.linalg.norm((a_r * d) @ a_t.T @ f_mat) ** 2
        assert met["signal_power"] == pytest.approx(total * scen.e_s, rel=1e-10)

    def test_infinite_noise_kills_snr(self, desk_setup):
        scen, paths, transforms, _, _ = desk_setup
        met = channel.link_metrics(paths, transforms, scen, n0=1e12)
        assert met["snr"] < 1e-15

    def test_doubling_energy_adds_3db(self, desk_setup):
        import dataclasses

        scen, paths, transforms, _, _ = desk_setup
        a = channel.link_metrics(paths, transforms, scen, n0=1e-9)
        scen2 = dataclasses.replace(scen, e_s=2.0)
        b = channel.link_metrics(paths, transforms, scen2, n0=1e-9)
        assert b["snr_db"] - a["snr_db"] == pytest.approx(3.0103, abs=1e-3)

    def test_snr_inversion(self, desk_setup):
        scen, paths, transforms, _, _ = desk_setup
        n0 = channel.n0_for_snr_db(paths, transforms, scen, 17.0)
        met = channel.link_metrics(paths, transforms, scen, n0=n0)
        assert met["snr_db"] == pytest.approx(17.0, abs=1e-9)


class TestScenarioIO:
    def test_json_round_trip(self, tmp_path):
        doc = {
            "carrier_hz": 30e9, "delta_f_hz": 120e3, "m": [8, 8, 8, 8, 500],
            "n": [4, 4, 4, 4], "n_p": 32, "e_s": 1.0,
            "p_t": [20, 5, 8], "p_r": [0, 5, 1.5],
            "scatterers": [[10, 2.5, 0]], "beam_kind": "dft", "seed": 9,
        }
        path = tmp_path / "scen.json"
        path.write_text(__import__("json").dumps(doc))
        scen = channel.Scenario.from_json(path)
        assert scen.m == (8, 8, 8, 8, 500)
        assert scen.beam_kind_tx == "dft"
        assert scen.seed == 9

    def test_pilot_shortage_rejected(self):
        with pytest.raises(channel.UnderdeterminedPilotError):
            channel.Scenario(
                p_t=[1, 0, 0], p_r=[0, 0, 0], scatterers=[], m=(8, 8, 8, 8, 16),
                n=(4, 4, 4, 4), delta_f=1e6, f_c=30e9, n_p=8, n_c=600,
                e_s=1.0, seed=0)
