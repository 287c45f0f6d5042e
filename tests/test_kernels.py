import numpy as np
import pytest

from espritsim import channel, esprit, kernels, slac, tensor_esprit
from tests.conftest import projector_gap


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("error, builtin", [
    (kernels.InvalidInputError, ValueError),
    (kernels.NumericFailureError, RuntimeError),
    (esprit.PairingFailureError, RuntimeError),
    (tensor_esprit.DecompositionFailureError, RuntimeError),
    (channel.OutOfDomainError, ValueError),
    (slac.DegenerateLocalizationError, ValueError),
], ids=lambda v: v.__name__)
def test_estimation_errors_keep_their_builtin_base(error, builtin):
    # one base a trial catches; the builtin base keeps config loading's
    # ValueError -> exit 2 and callers' own except clauses working
    assert issubclass(error, kernels.EstimationError)
    assert issubclass(error, builtin)


class TestSvdThin:
    def test_identity(self):
        res = kernels.svd_thin(np.eye(3))
        assert np.allclose(res.singular_values, [1, 1, 1])

    def test_diag_signed_permutation(self):
        res = kernels.svd_thin(np.diag([3.0, 0.0]))
        assert np.allclose(res.singular_values, [3, 0])
        # factors are signed permutations of the identity
        assert np.allclose(np.abs(res.left) @ np.abs(res.left).T, np.eye(2), atol=1e-12)

    def test_reconstruction_oracle(self, rng):
        a = random_complex(rng, 8, 4)
        res = kernels.svd_thin(a)
        recon = res.left @ np.diag(res.singular_values) @ res.right.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(res.left.conj().T @ res.left, np.eye(4), atol=1e-12)
        assert np.allclose(res.right.conj().T @ res.right, np.eye(4), atol=1e-12)
        assert np.all(np.diff(res.singular_values) <= 1e-12)

    def test_large_matrix_orthonormality(self, rng):
        a = random_complex(rng, 400, 60)
        res = kernels.svd_thin(a)
        recon = res.left @ (res.singular_values[:, None] * res.right.conj().T)
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_contract_envelope_10k_by_1k(self, rng):
        # the reconstruction/orthonormality contract at its stated size limit
        a = random_complex(rng, 10_000, 1_000)
        res = kernels.svd_thin(a)
        recon = res.left @ (res.singular_values[:, None] * res.right.conj().T)
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
        k = res.singular_values.size
        assert np.linalg.norm(res.left.conj().T @ res.left - np.eye(k)) < 1e-10
        assert np.linalg.norm(res.right.conj().T @ res.right - np.eye(k)) < 1e-10

    @pytest.mark.parametrize("m, n, rank", [
        (64000, 2, 2), (300, 7, 7), (6, 6, 6), (4, 9, 4),   # tall, square, wide
        (200, 5, 2), (5, 5, 3), (3, 40, 1), (50, 4, 0),     # rank-deficient
    ])
    def test_matches_lapack_svd(self, rng, m, n, rank):
        a = random_complex(rng, m, rank) @ random_complex(rng, rank, n)
        res = kernels.svd_thin(a)
        want = np.linalg.svd(a, compute_uv=False)
        k = min(m, n)
        assert res.left.shape == (m, k) and res.right.shape == (n, k)
        assert np.abs(res.singular_values - want).max() <= 1e-13 * max(want[0], 1.0)
        recon = res.left @ (res.singular_values[:, None] * res.right.conj().T)
        assert np.linalg.norm(recon - a) <= 1e-12 * max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(res.left.conj().T @ res.left - np.eye(k)) < 1e-12
        assert np.linalg.norm(res.right.conj().T @ res.right - np.eye(k)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(kernels.InvalidInputError):
            kernels.svd_thin(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_empty(self):
        with pytest.raises(kernels.InvalidInputError):
            kernels.svd_thin(np.zeros((0, 3)))


class TestEigGeneral:
    def test_diagonal(self):
        res = kernels.eig_general(np.diag([2.0, 5.0j]))
        assert set(np.round(res.eigenvalues, 9)) == {2.0 + 0j, 5.0j}

    def test_nilpotent_residual(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = kernels.eig_general(a)
        assert np.allclose(res.eigenvalues, 0)
        for k in range(2):
            v = res.eigenvectors[:, k]
            resid = np.linalg.norm(a @ v - res.eigenvalues[k] * v)
            assert resid <= 1e-10 * np.linalg.norm(a)

    def test_synthesize_then_decompose(self, rng):
        lam = np.array([1.0, 2.5, -0.5 + 1j])
        e = random_complex(rng, 3, 3) + 3 * np.eye(3)
        a = e @ np.diag(lam) @ np.linalg.inv(e)
        res = kernels.eig_general(a)
        got = sorted(res.eigenvalues, key=lambda z: (z.real, z.imag))
        want = sorted(lam, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-8)

    def test_rejects_rectangular(self):
        with pytest.raises(kernels.InvalidInputError):
            kernels.eig_general(np.ones((2, 3)))


class TestPinv:
    def test_invertible_matches_inverse(self, rng):
        a = random_complex(rng, 2, 2) + 2 * np.eye(2)
        assert np.allclose(kernels.pinv(a), np.linalg.inv(a), atol=1e-12)

    def test_rank_one_column(self):
        p = kernels.pinv(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5]])

    def test_penrose_conditions(self, rng):
        a = random_complex(rng, 6, 3)
        p = kernels.pinv(a)
        scale = 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(a @ p @ a - a) <= scale
        assert np.linalg.norm(p @ a @ p - p) <= scale
        assert np.linalg.norm((a @ p).conj().T - a @ p) <= scale
        assert np.linalg.norm((p @ a).conj().T - p @ a) <= scale
        assert np.allclose(p @ a, np.eye(3), atol=1e-10)

    def test_zero_matrix(self):
        assert np.allclose(kernels.pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_rank_deficiency_truncated(self, rng):
        b = random_complex(rng, 5, 2)
        a = b @ b.conj().T  # rank 2
        p = kernels.pinv(a)
        assert np.linalg.matrix_rank(p, tol=1e-8) == 2
        assert np.linalg.norm(a @ p @ a - a) <= 1e-9 * np.linalg.norm(a)


class TestLstsqPinv:
    @pytest.mark.parametrize("cols", [None, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_rhs(self, rng, cols, bad):
        a = random_complex(rng, 6, 2)
        b = random_complex(rng, 6) if cols is None else random_complex(rng, 6, cols)
        b[4] = bad
        with pytest.raises(kernels.InvalidInputError):
            kernels.lstsq_pinv(a, b)


@pytest.mark.parametrize("call", [
    kernels.svd_thin, kernels.eig_general,
    lambda a: kernels.lstsq_pinv(a, np.ones(3)),
    lambda a: kernels.lstsq_pinv(np.eye(3), a),
], ids=["svd_thin", "eig_general", "lstsq_pinv-lhs", "lstsq_pinv-rhs"])
def test_rejects_inf_in_imaginary_part_only(call):
    a = np.eye(3, dtype=complex)
    a[1, 2] = complex(0.0, np.inf)
    with pytest.raises(kernels.InvalidInputError, match="non-finite"):
        call(a)


def r_factor(a):
    """``kernels._qr_r_overwrite`` on a C-contiguous copy of ``a.T``."""
    return kernels._qr_r_overwrite(np.asarray(a, dtype=np.complex128).T.copy())


class TestQrR:
    @pytest.mark.parametrize("m, n", [(16000, 8), (40, 6), (6, 6), (1, 1)])
    def test_gram_and_diagonal_match(self, rng, m, n):
        a = random_complex(rng, m, n)
        r = r_factor(a)
        assert r.shape == (n, n)
        assert np.allclose(np.tril(r, -1), 0)
        gram = a.conj().T @ a
        assert np.linalg.norm(r.conj().T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
        want = np.linalg.qr(a, mode="r")
        assert np.allclose(np.abs(np.diag(r)), np.abs(np.diag(want)), rtol=1e-12)

    def test_c_and_f_order_agree(self, rng):
        a = random_complex(rng, 300, 5)
        r_c = r_factor(np.ascontiguousarray(a))
        r_f = r_factor(np.asfortranarray(a))
        assert np.array_equal(r_c, r_f)

    def test_wide_input_keeps_min_rows(self, rng):
        a = random_complex(rng, 3, 7)
        r = r_factor(a)
        assert r.shape == (3, 7)
        assert np.allclose(np.tril(r, -1), 0)
        gram = a.conj().T @ a
        assert np.linalg.norm(r.conj().T @ r - gram) <= 1e-12 * np.linalg.norm(gram)

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("geqrf failed")

        monkeypatch.setattr(kernels.scipy.linalg, "qr", broken)
        with pytest.raises(kernels.NumericFailureError, match="geqrf failed"):
            r_factor(np.eye(3))


def graded(rng, m, n, rank):
    """Rank-``rank`` m x n matrix with well-separated singular values."""
    return (random_complex(rng, m, rank) * np.geomspace(1.0, 1e-3, rank)) @ \
        random_complex(rng, rank, n)


def svd_leading(a, k):
    """``kernels._svd_leading_overwrite`` on a C-contiguous copy of ``a.T``."""
    return kernels._svd_leading_overwrite(np.asarray(a, dtype=np.complex128).T.copy(), k)


class TestSvdLeading:
    @pytest.mark.parametrize("m, n, rank, k", [
        (8192, 33, 33, 2), (40, 6, 6, 3), (8192, 33, 33, 33),   # tall
        (6, 6, 6, 2), (4, 9, 4, 4),                             # square, wide
        (200, 5, 2, 2), (5, 5, 3, 1), (3, 40, 1, 1),            # rank-deficient
    ])
    def test_matches_svd_thin(self, rng, m, n, rank, k):
        a = graded(rng, m, n, rank)
        left, s = svd_leading(a, k)
        ref = kernels.svd_thin(a)
        assert left.shape == (m, k)
        assert np.array_equal(s, ref.singular_values)
        assert projector_gap(left, ref.left[:, :k]) <= 1e-12
        assert np.linalg.norm(left.conj().T @ left - np.eye(k)) <= 1e-12

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("geqrf failed")

        monkeypatch.setattr(kernels.scipy.linalg, "qr", broken)
        with pytest.raises(kernels.NumericFailureError, match="geqrf failed"):
            svd_leading(np.eye(5, 3), 2)

    def test_unmqr_error_code_is_numeric_failure(self, monkeypatch):
        def broken(side, trans, a, tau, c, lwork, overwrite_c=False):
            return c, np.zeros(1), -5

        monkeypatch.setattr(kernels.scipy.linalg.lapack, "zunmqr", broken)
        with pytest.raises(kernels.NumericFailureError, match="info=-5"):
            svd_leading(np.eye(5, 3), 2)
