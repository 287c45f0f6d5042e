import numpy as np
import pytest

from espritsim import channel, shift
from tests.conftest import selector_products, synthetic_paths


def steering_transform(m, grid):
    return channel.steering_matrix(m, grid) / np.sqrt(m)


def least_squares_shift(t):
    """F minimizing ||J1 T - J2 T F||_F."""
    return np.linalg.lstsq(t[1:], t[:-1], rcond=None)[0]


class TestRestoreProjector:
    def test_unit_vector_generators(self):
        # force t_{:,M} = e1 and F^H t_{:,1} = e2
        t = np.zeros((4, 4), dtype=complex)
        t[-1] = np.array([1, 0, 0, 0])   # conj of last row is e1
        t[0] = np.array([0, 1, 0, 0])
        q = shift.restore_projector(t, np.eye(4))
        assert np.allclose(q, np.diag([0, 0, 1, 1]), atol=1e-12)

    def test_collinear_pair_single_deflation(self):
        t = np.zeros((4, 3), dtype=complex)
        t[-1] = np.array([1, 1, 0])
        t[0] = np.array([2, 2, 0])      # parallel generator
        q = shift.restore_projector(t, np.eye(3))
        assert np.linalg.matrix_rank(q, tol=1e-10) == 2

    def test_projector_properties(self, rng):
        grid = np.sort(rng.uniform(-2.5, 2.5, 4))
        t = steering_transform(8, grid)
        f = least_squares_shift(t)
        q = shift.restore_projector(t, f)
        assert np.linalg.norm(q - q.conj().T) < 1e-10
        assert np.linalg.norm(q @ q - q) < 1e-10
        assert np.linalg.norm(q @ t[-1].conj()) < 1e-10
        assert np.linalg.norm(q @ f.conj().T @ t[0].conj()) < 1e-10

    def test_too_few_beams(self):
        with pytest.raises(shift.InsufficientBeamsError):
            shift.restore_projector(np.ones((4, 2)), np.eye(2))

    def test_restored_identity_on_factors(self, rng):
        # L1 B Phi = L2 B for B = T^H A on a steering grid
        grid = np.array([-1.1, -0.3, 0.4, 1.2])
        t = channel.make_beam_transform(8, grid)
        omegas = np.array([-0.8, 0.15, 0.9])
        b = t.t.conj().T @ channel.steering_matrix(8, omegas)
        phi = np.diag(np.exp(1j * omegas))
        resid = np.linalg.norm(t.l1 @ b @ phi - t.l2 @ b)
        assert resid <= 1e-9 * np.linalg.norm(b)

    def test_approximate_f_degrades_monotonically(self, rng):
        grid = np.array([-1.0, -0.2, 0.5, 1.3])
        base = steering_transform(8, grid)
        noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
        omegas = np.array([-0.6, 0.3])
        a = channel.steering_matrix(8, omegas)
        phi = np.diag(np.exp(1j * omegas))
        resids = []
        for delta in (0.0, 1e-6, 1e-4, 1e-2):
            t = base + delta * noise
            f = least_squares_shift(t)
            q = shift.restore_projector(t, f)
            b = t.conj().T @ a
            resids.append(np.linalg.norm(q @ b @ phi - q @ f.conj().T @ b))
        assert all(np.diff(resids) > 0)


class TestLiftedSelectors:
    DIMS = (2, 3, 2, 3, 4)

    def _check_kronecker(self, pair, blocks, rng):
        # the reference itself: mode products equal I_pre (x) block (x) I_post,
        # forward and adjoint, on vector and matrix operands
        dims, n = self.DIMS, pair.dim
        pre, post = int(np.prod(dims[:n - 1])), int(np.prod(dims[n:]))
        dense = [np.kron(np.kron(np.eye(pre), b), np.eye(post)) for b in blocks]
        for cols in ((), (3,)):
            x = rng.standard_normal((dense[0].shape[1],) + cols) \
                + 1j * rng.standard_normal((dense[0].shape[1],) + cols)
            for got, want in zip(selector_products(pair, x), dense):
                assert np.allclose(got, want @ x, atol=1e-12)
            y = rng.standard_normal((dense[0].shape[0],) + cols) \
                + 1j * rng.standard_normal((dense[0].shape[0],) + cols)
            for got, want in zip(selector_products(pair, y, adjoint=True), dense):
                assert np.allclose(got, want.conj().T @ y, atol=1e-12)

    def test_dense_vs_implicit(self, rng):
        # spatial modes: the pair's own l1 / l2 blocks
        dims = self.DIMS
        for n in (1, 2, 3, 4):
            size = dims[n - 1]
            blocks = tuple(rng.standard_normal((size - 1, size))
                           + 1j * rng.standard_normal((size - 1, size)) for _ in range(2))
            pair = shift.lifted_selectors(n, dims[:4], dims[4], *blocks)
            self._check_kronecker(pair, blocks, rng)

    def test_frequency_windows(self, rng):
        # mode 5: the leading and the trailing K5 - 1 windows
        dims = self.DIMS
        pair = shift.lifted_selectors(5, dims[:4], dims[4])
        blocks = (np.eye(dims[4])[:-1], np.eye(dims[4])[1:])  # drop last / first tap
        self._check_kronecker(pair, blocks, rng)

    def test_khatri_rao_invariance_oracle(self, tiny_scenario, rng):
        # J1 P Phi_n = J2 P on P = B1 o..o B4 o A5^{K5}
        scen = tiny_scenario
        omegas = np.array([[0.3, -0.8, 0.5, -0.2, 0.9],
                           [-0.7, 0.4, -1.1, 0.8, -0.5]])
        paths = synthetic_paths(omegas, [1.0, 1.0], scen.delta_f)
        transforms = channel.scenario_transforms(scen, paths)
        k5 = 5
        facs = channel.beamspace_factors(paths, transforms, scen)
        p_mat = channel.khatri_rao(facs[:4]
                                   + [channel.steering_matrix(k5, omegas[:, 4])])
        pairs = shift.selectors_for_transforms(transforms, k5)
        for n, pair in enumerate(pairs):
            phi = np.diag(np.exp(1j * omegas[:, n]))
            j1p, j2p = selector_products(pair, p_mat)
            resid = np.linalg.norm(j1p @ phi - j2p)
            assert resid <= 1e-9 * np.linalg.norm(p_mat)
