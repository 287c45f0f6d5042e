import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        model = tensor_esprit.cp_als(noisy, 2, rng=rng)
        hist = np.array(model.fit_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_restart_count_and_iteration_cap(self, desk_setup):
        scen, paths, transforms, tensor, _ = desk_setup
        rng = np.random.default_rng(2)
        noisy = channel.observe_and_estimate(
            tensor, scen, rng, n0=channel.n0_for_snr_db(paths, transforms, scen, 0.0))
        model = tensor_esprit.cp_als(noisy, 2, rng=rng)
        assert len(model.restart_iterations) == tensor_esprit.CP_RESTARTS
        assert len(model.restart_fits) == tensor_esprit.CP_RESTARTS
        assert all(1 <= n <= tensor_esprit.CP_MAX_ITER for n in model.restart_iterations)

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
                l1, l2 = np.eye(scen.m[4])[:-1], np.eye(scen.m[4])[1:]
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


def naive_mttkrp(tensor, factors, mode):
    """Oracle: mode unfolding times the conjugate Khatri-Rao of the other factors."""
    unfold = np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)
    others = [f for i, f in enumerate(factors) if i != mode]
    return unfold @ channel.khatri_rao(others).conj()


def svd_start(tensor, rank, rng):
    """Reference start: leading left singular vectors of each mode unfolding,
    padded with random unit columns where the unfolding has fewer than rank."""
    factors = []
    for mode in range(tensor.ndim):
        dim = tensor.shape[mode]
        unfold = np.moveaxis(tensor, mode, 0).reshape(dim, -1)
        f = np.linalg.svd(unfold, full_matrices=False)[0][:, :rank]
        if f.shape[1] < rank:
            extra = rng.standard_normal((dim, rank - f.shape[1])) \
                + 1j * rng.standard_normal((dim, rank - f.shape[1]))
            f = np.concatenate([f, extra / np.linalg.norm(extra, axis=0)], axis=1)
        factors.append(f)
    return factors


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSharedContraction:
    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=2, max_size=6),
           rank=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_every_mode_matches_naive_mttkrp(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        tensor = random_complex(rng, tuple(dims))
        factors = [random_complex(rng, (d, rank)) for d in dims]
        last = len(dims) - 1
        head = tensor.reshape(-1, dims[-1])
        got = dict(tensor_esprit._short_mode_mttkrps(head @ factors[last].conj(),
                                                     factors, 0, last))
        got[last] = head.T @ channel.khatri_rao(factors[:last]).conj()
        assert sorted(got) == list(range(len(dims)))
        for mode, mttkrp in got.items():
            want = naive_mttkrp(tensor, factors, mode)
            assert np.linalg.norm(mttkrp - want) <= 1e-12 * np.linalg.norm(want)

    def test_later_modes_see_updated_factors(self, rng):
        dims = (3, 4, 2, 3, 5)
        tensor = random_complex(rng, dims)
        factors = [random_complex(rng, (d, 2)) for d in dims]
        head = tensor.reshape(-1, dims[-1])
        for mode, mttkrp in tensor_esprit._short_mode_mttkrps(
                head @ factors[4].conj(), factors, 0, 4):
            want = naive_mttkrp(tensor, factors, mode)
            assert np.linalg.norm(mttkrp - want) <= 1e-12 * np.linalg.norm(want)
            factors[mode] = random_complex(rng, (dims[mode], 2))


class TestResidualWorkspace:
    # head shapes of the desk and the full-size scene: (N1 N2 N3 N4) x M5
    @pytest.mark.parametrize("rows, m5", [(256, 64), (256, 500)], ids=["desk", "full"])
    @pytest.mark.parametrize("rank", [1, 2, 6])
    def test_equals_the_two_temporary_form_bitwise(self, rows, m5, rank):
        rng = np.random.default_rng(rows + m5 + rank)
        head = random_complex(rng, (rows, m5))
        kr_head = random_complex(rng, (rows, rank))
        last = random_complex(rng, (m5, rank))
        norm_t = np.linalg.norm(head)
        work = np.full_like(head, np.nan)       # stale contents must not leak in
        got = tensor_esprit._residual(head, kr_head, last, norm_t, work)
        want = float(np.linalg.norm(head - kr_head @ last.T) / norm_t)
        assert got == want
        assert np.array_equal(work, head - kr_head @ last.T)


class TestStart:
    @pytest.mark.parametrize("dims, rank", [
        ((2, 1, 1, 1, 6), 3),     # mode 5 is longer than the rest together
        ((3, 4, 2, 3, 5), 5),     # rank above every short dim
        ((4, 4, 4, 4, 16), 2),
    ])
    def test_pads_like_the_unfolding_svd(self, dims, rank):
        tensor = random_complex(np.random.default_rng(7), dims)
        rng_ref, rng_new = np.random.default_rng(3), np.random.default_rng(3)
        ref = svd_start(tensor, rank, rng_ref)
        new = tensor_esprit._init_factors(tensor, rank, "svd", rng_new)
        for mode, (r, n) in enumerate(zip(ref, new)):
            k = min(dims[mode], tensor.size // dims[mode], rank)
            assert n.shape == r.shape == (dims[mode], rank)
            # singular vectors agree up to a unit phase per column
            overlap = np.abs(np.sum(r[:, :k].conj() * n[:, :k], axis=0))
            assert np.allclose(overlap, 1.0, atol=1e-12)
            assert np.array_equal(n[:, k:], r[:, k:])
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        after_ref = tensor_esprit._init_factors(tensor, rank, "random", rng_ref)
        after_new = tensor_esprit._init_factors(tensor, rank, "random", rng_new)
        for r, n in zip(after_ref, after_new):
            assert np.array_equal(r, n)


# (SNR dB, seed) -> per-restart iteration counts and fits on the desk
# scenario, as computed by the unfolding-SVD start and per-mode MTTKRPs
DESK_RESTARTS = [
    (0.0, 1, [3, 8, 5], [0.12524977690853292, 0.1252497769085319, 0.1252497769085318]),
    (0.0, 2, [3, 5, 89], [0.1264661224219873, 0.12646612242198496, 0.12646612242198474]),
    (20.0, 1, [3, 5, 5], [0.012622546472125983, 0.01262254647212599, 0.012622546472125976]),
    (20.0, 2, [3, 4, 11], [0.012744264798420913, 0.012744264798420899, 0.012744264798420907]),
    (40.0, 1, [3, 5, 6], [0.0012623378676924688, 0.0012623378676924685, 0.0012623378676924679]),
    (40.0, 2, [3, 4, 11], [0.0012744847454073543, 0.001274484745407361, 0.0012744847454073535]),
]


class TestRestarts:
    @pytest.mark.parametrize("snr_db, seed, iterations, fits", DESK_RESTARTS)
    def test_desk_restarts_pinned(self, desk_setup, snr_db, seed, iterations, fits):
        scen, paths, transforms, tensor, _ = desk_setup
        rng = np.random.default_rng(seed)
        noisy = channel.observe_and_estimate(
            tensor, scen, rng, n0=channel.n0_for_snr_db(paths, transforms, scen, snr_db))
        model = tensor_esprit.cp_als(noisy, 2, rng=rng)
        assert model.restart_iterations == iterations
        assert model.restart_fits == pytest.approx(fits, rel=1e-12, abs=0)
        assert model.fit == min(model.restart_fits)
        assert model.iterations == iterations[model.restart_fits.index(model.fit)]


def test_order_one_tensor_rejected(rng):
    from espritsim.kernels import InvalidInputError

    with pytest.raises(InvalidInputError, match="order"):
        tensor_esprit.cp_als(random_complex(rng, (5,)), 1, rng=rng)
