import numpy as np
import pytest

from espritsim import channel, tensor_esprit
from tests.conftest import match_rows, synthetic_paths


def congruence(u, v):
    """Max-abs normalized inner product after column matching."""
    u = u / np.linalg.norm(u, axis=0)
    v = v / np.linalg.norm(v, axis=0)
    c = np.abs(u.conj().T @ v)
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(c.shape[0])):
        best = max(best, min(c[i, perm[i]] for i in range(c.shape[0])))
    return best


class TestCpAls:
    def test_rank_one_exact(self, rng):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for d in (3, 4, 2, 3, 5)]
        tensor = np.einsum("a,b,c,d,e->abcde", *vecs)
        model = tensor_esprit.cp_als(tensor, 1, rng=rng)
        assert model.fit < 1e-10
        for f, v in zip(model.factors, vecs):
            assert congruence(f, v[:, None]) > 1 - 1e-8

    def test_rank_two_recovers_factors(self, tiny_scenario, rng):
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [-0.7, 0.6, -1.2, 0.9, -0.8]])
        paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        model = tensor_esprit.cp_als(tensor, 2, rng=rng)
        assert model.fit < 1e-8
        facs = channel.beamspace_factors(paths, transforms, scen)
        for got, want in zip(model.factors, facs):
            assert congruence(got, want) > 1 - 1e-8

    def test_fit_monotone_under_noise(self, tiny_scenario, rng):
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [-0.7, 0.6, -1.2, 0.9, -0.8]])
        paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        noisy = tensor + 0.05 * np.linalg.norm(tensor) / np.sqrt(tensor.size) * (
            rng.standard_normal(tensor.shape) + 1j * rng.standard_normal(tensor.shape))
        model = tensor_esprit.cp_als(noisy, 2, rng=rng, restarts=1, max_iter=60)
        hist = np.array(model.fit_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_reconstruct(self, rng):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for d in (3, 3, 2, 2, 4)]
        tensor = np.einsum("a,b,c,d,e->abcde", *vecs)
        model = tensor_esprit.cp_als(tensor, 1, rng=rng)
        assert np.allclose(model.reconstruct(), tensor,
                           atol=1e-9 * np.linalg.norm(tensor))


class TestTensorPipeline:
    def test_single_path_exact(self, tiny_scenario, rng):
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0]])
        paths = synthetic_paths(om, [0.9 - 0.3j], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        est = tensor_esprit.tensor_esprit_pipeline(tensor, transforms, 1,
                                                   scen.delta_f, rng=rng)
        assert np.abs(channel.wrap_angle(est.omega[0] - om[0])).max() < 1e-8
        assert est.gains[0] == pytest.approx(0.9 - 0.3j, rel=1e-8)

    def test_unit_circle_eigenvalues(self, tiny_scenario, rng):
        from espritsim import shift
        from espritsim.kernels import lstsq_pinv

        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [-0.7, 0.6, -1.2, 0.9, -0.8]])
        paths = synthetic_paths(om, [1.0, 0.8], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        model = tensor_esprit.cp_als(tensor, 2, rng=rng)
        for n in range(5):
            u_n = model.factors[n]
            if n < 4:
                l1, l2 = transforms[n].l1, transforms[n].l2
            else:
                l1, l2 = shift.element_selectors(scen.m[4])
            ev = np.linalg.eigvals(lstsq_pinv(l1 @ u_n, l2 @ u_n))
            assert np.allclose(np.abs(ev), 1.0, atol=1e-6)

    def test_two_path_noiseless(self, tiny_scenario, rng):
        scen = tiny_scenario
        om = np.array([[0.5, -0.9, 0.6, -0.3, 1.0],
                       [-0.7, 0.6, -1.2, 0.9, -0.8]])
        gains = np.array([1.0, 0.6 + 0.5j])
        paths = synthetic_paths(om, gains, scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
        est = tensor_esprit.tensor_esprit_pipeline(tensor, transforms, 2,
                                                   scen.delta_f, rng=rng)
        got, perm = match_rows(est.omega, om)
        assert np.abs(channel.wrap_angle(got - om)).max() < 1e-6
        assert np.abs(est.gains[perm] - gains).max() < 1e-6

    def test_zero_tensor_rejected(self, rng):
        from espritsim.kernels import InvalidInputError

        with pytest.raises(InvalidInputError):
            tensor_esprit.cp_als(np.zeros((2, 2, 2, 2, 2)), 1, rng=rng)
