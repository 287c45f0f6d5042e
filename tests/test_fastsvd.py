import dataclasses
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from espritsim import channel, esprit, fastsvd
from espritsim.kernels import InvalidInputError
from tests.conftest import projector_gap


def random_operator(rng, beam_dims, m5, l5):
    h = rng.standard_normal((int(np.prod(beam_dims)), m5)) \
        + 1j * rng.standard_normal((int(np.prod(beam_dims)), m5))
    return fastsvd.HankelBlockOperator.from_tensor(h.reshape(*beam_dims, m5), l5)


class TestHankelMatvec:
    def test_hand_2x2(self):
        op = fastsvd.HankelBlockOperator.from_tensor(np.reshape([1, 2, 3], (1, 1, 1, 1, 3)), 2)
        y = fastsvd.hankel_matvec(op, [1, 1])
        assert np.allclose(y, [3, 5])

    def test_matches_dense(self, rng):
        op = random_operator(rng, (2, 3, 2, 2), 9, 4)
        dense = op.to_dense()
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = fastsvd.hankel_matvec(op, x)
        assert np.linalg.norm(y - dense @ x) <= 1e-10 * np.linalg.norm(dense @ x)
        z = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
        w = fastsvd.hankel_matvec(op, z, adjoint=True)
        want = dense.conj().T @ z
        assert np.linalg.norm(w - want) <= 1e-10 * np.linalg.norm(want)

    def test_adjoint_inner_product(self, rng):
        op = random_operator(rng, (2, 2, 2, 2), 12, 5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        lhs = np.vdot(y, fastsvd.hankel_matvec(op, x))
        rhs = np.vdot(fastsvd.hankel_matvec(op, y, adjoint=True), x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_all_partitions_match_dense(self, rng):
        m5 = 10
        for l5 in range(1, m5 + 1):
            op = random_operator(rng, (1, 2, 1, 2), m5, l5)
            dense = op.to_dense()
            x = rng.standard_normal(l5) + 1j * rng.standard_normal(l5)
            assert np.allclose(fastsvd.hankel_matvec(op, x), dense @ x,
                               atol=1e-10 * max(1, np.linalg.norm(dense)))

    @pytest.mark.parametrize("m5", [8, 9, 16, 17])
    def test_circular_length_exact_for_every_partition(self, rng, m5):
        # nfft is the shortest power of two >= M5 (equal to M5 at 8 and 16,
        # just above it at 9 and 17); wrap-around must never reach the valid
        # outputs of either product
        for l5 in range(1, m5 + 1):
            op = random_operator(rng, (1, 2, 1, 2), m5, l5)
            assert m5 <= op.nfft < 2 * m5
            dense = op.to_dense()
            scale = 1e-12 * max(1, np.linalg.norm(dense))
            x = rng.standard_normal(l5) + 1j * rng.standard_normal(l5)
            assert np.allclose(fastsvd.hankel_matvec(op, x), dense @ x, atol=scale)
            z = rng.standard_normal(dense.shape[0]) \
                + 1j * rng.standard_normal(dense.shape[0])
            assert np.allclose(fastsvd.hankel_matvec(op, z, adjoint=True),
                               dense.conj().T @ z, atol=scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_taps_rejected(self, bad):
        taps = np.ones(8, dtype=complex)
        taps[3] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            fastsvd.HankelBlockOperator.from_tensor(taps.reshape(1, 1, 1, 1, 8), 4)

    def test_shape_mismatch(self, rng):
        op = random_operator(rng, (1, 1, 1, 1), 8, 3)
        with pytest.raises(InvalidInputError):
            fastsvd.hankel_matvec(op, np.ones(4))

    def test_matches_smoothed_matrix(self, desk_setup):
        scen, _, _, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        sm = esprit.spatial_smooth(tensor, l5)
        op = fastsvd.HankelBlockOperator.from_tensor(tensor, l5)
        x = np.exp(1j * np.linspace(0, 3, l5))
        assert np.allclose(fastsvd.hankel_matvec(op, x), sm.values @ x,
                           atol=1e-10 * np.linalg.norm(sm.values @ x))

    def test_bit_stable_across_calls(self, rng):
        op = random_operator(rng, (2, 2, 2, 2), 16, 7)
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.array_equal(fastsvd.hankel_matvec(op, x),
                              fastsvd.hankel_matvec(op, x))


class TestLanczos:
    def test_rank_one_early_termination(self):
        blocks = np.outer([1.0], np.ones(6)).astype(complex)  # constant taps
        # rank-1 Hankel needs a constant generator: h[m] = c
        op = fastsvd.HankelBlockOperator.from_tensor(blocks.reshape(1, 1, 1, 1, 6), 3)
        bd = fastsvd.lanczos_bidiag(op, 3, 3)
        assert bd.stop == "breakdown"
        assert len(bd.a) == 1
        dense_s = np.linalg.svd(op.to_dense(), compute_uv=False)
        assert bd.a[0] == pytest.approx(dense_s[0], rel=1e-10)

    def test_singular_values_match_dense(self, rng):
        op = random_operator(rng, (2, 2, 2, 1), 12, 6)
        bd = fastsvd.lanczos_bidiag(op, 6, 6)
        got = np.sort(fastsvd.bidiag_svd(bd).singular_values)[::-1]
        want = np.sort(np.linalg.svd(op.to_dense(), compute_uv=False))[::-1]
        assert np.allclose(got[:4], want[:4], rtol=1e-8)

    def test_frame_orthonormality_with_reorth(self, rng):
        op = random_operator(rng, (2, 2, 2, 2), 16, 8)
        bd = fastsvd.lanczos_bidiag(op, 8, 8)
        k = len(bd.a)
        assert np.linalg.norm(bd.u_frame.conj().T @ bd.u_frame - np.eye(k)) < 1e-8
        assert np.linalg.norm(bd.v_frame.conj().T @ bd.v_frame - np.eye(k)) < 1e-8

    def test_reconstruction(self, rng):
        op = random_operator(rng, (1, 2, 2, 1), 10, 5)
        bd = fastsvd.lanczos_bidiag(op, 5, 5)
        dense = op.to_dense()
        recon = bd.u_frame.conj().T @ dense @ bd.v_frame
        assert np.linalg.norm(recon - bd.matrix()) <= 1e-8 * np.linalg.norm(dense)


class TestLeftBreakdown:
    """Noiseless desk data has rank 2: H v_2 lies in span(u_0, u_1), so the
    left recurrence breaks down at step 2 and the core is 2 x 3."""

    @pytest.fixture
    def exact_rank_op(self, desk_setup):
        scen, _, _, tensor, _ = desk_setup
        return fastsvd.HankelBlockOperator.from_tensor(tensor, esprit.default_l5(scen.m[4]))

    def test_core_keeps_last_beta_and_right_vector(self, exact_rank_op):
        bd = fastsvd.lanczos_bidiag(exact_rank_op, 18, 18)
        k = len(bd.a)
        assert bd.stop == "breakdown" and k == 2
        assert len(bd.b) == k and bd.v_frame.shape[1] == k + 1
        dense = exact_rank_op.to_dense()
        recon = bd.u_frame.conj().T @ dense @ bd.v_frame
        assert np.linalg.norm(recon - bd.matrix()) <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n_paths", [1, 2])
    def test_matches_dense_svd(self, exact_rank_op, n_paths):
        u, s, details = fastsvd.fast_signal_subspace(exact_rank_op, n_paths,
                                                     return_details=True)
        dense_u, dense_s, _ = np.linalg.svd(exact_rank_op.to_dense(), full_matrices=False)
        assert details["lanczos_stop"] == "breakdown"
        assert np.allclose(s, dense_s[:len(s)], rtol=1e-10, atol=0)
        assert projector_gap(u, dense_u[:, :n_paths]) <= 1e-12


class TestBidiagSvd:
    def test_already_diagonal(self):
        bd = fastsvd.Bidiagonal(a=np.array([3.0, 1.0]), b=np.array([0.0]),
                                u_frame=np.eye(2, dtype=complex),
                                v_frame=np.eye(2, dtype=complex))
        res = fastsvd.bidiag_svd(bd)
        assert np.allclose(res.singular_values, [3, 1])
        assert np.allclose(np.abs(res.left), np.eye(2), atol=1e-12)

    def test_golden_ratio_pair(self):
        bd = fastsvd.Bidiagonal(a=np.array([1.0, 1.0]), b=np.array([1.0]),
                                u_frame=np.eye(2, dtype=complex),
                                v_frame=np.eye(2, dtype=complex))
        res = fastsvd.bidiag_svd(bd)
        golden = (1 + np.sqrt(5)) / 2
        assert np.allclose(res.singular_values, [golden, golden - 1], rtol=1e-12)

    def test_matches_dense(self, rng):
        a = rng.uniform(0.5, 2.0, 7)
        b = rng.uniform(0.1, 1.0, 6)
        bd = fastsvd.Bidiagonal(a=a, b=b, u_frame=np.eye(7, dtype=complex),
                                v_frame=np.eye(7, dtype=complex))
        res = fastsvd.bidiag_svd(bd)
        want = np.linalg.svd(np.diag(a) + np.diag(b, 1), compute_uv=False)
        assert np.allclose(res.singular_values, want, rtol=1e-10)


    def test_wide_core_after_left_breakdown(self):
        bd = fastsvd.Bidiagonal(a=np.array([2.0, 1.0]), b=np.array([0.5, 0.7]),
                                u_frame=np.eye(2, dtype=complex),
                                v_frame=np.eye(3, dtype=complex))
        j = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.7]])
        assert np.array_equal(bd.matrix(), j)
        res = fastsvd.bidiag_svd(bd)
        assert res.right.shape == (3, 2)
        assert np.allclose(res.singular_values, np.linalg.svd(j, compute_uv=False),
                           rtol=1e-12)
        assert np.allclose((res.left * res.singular_values) @ res.right.conj().T, j,
                           atol=1e-12)


# One-sided reorthogonalization leaves the long left frame to the recurrence,
# and the stop rule ends the run once the wanted Ritz triplets have converged:
# gate both on low SNR, near-exact rank and a weak NLOS path (gain scaled by
# weak_db) against a dense SVD.
ONE_SIDED_CASES = {
    "snr-10": dict(snr_db=-10.0), "snr0": dict(snr_db=0.0),
    "snr40": dict(snr_db=40.0), "rel1e-9": dict(rel_noise=1e-9),
    "weak-20": dict(snr_db=40.0, weak_db=-20.0),
    "weak-30": dict(snr_db=40.0, weak_db=-30.0),
    "weak-40": dict(snr_db=40.0, weak_db=-40.0),
}


def one_sided_operator(scen, snr_db=None, rel_noise=None, weak_db=None, l5=None):
    paths = channel.params_from_geometry(scen)
    transforms = channel.scenario_transforms(scen, paths)
    if weak_db is not None:
        paths[1] = dataclasses.replace(paths[1], gamma=paths[1].gamma * 10 ** (weak_db / 20))
    tensor = channel.synth_beamspace_tensor(paths, transforms, scen)
    rng = np.random.default_rng(11)
    if rel_noise is not None:
        noise = rng.standard_normal(tensor.shape) + 1j * rng.standard_normal(tensor.shape)
        tensor = tensor + rel_noise * np.linalg.norm(tensor) / np.sqrt(tensor.size) * noise
    else:
        n0 = channel.n0_for_snr_db(paths, transforms, scen, snr_db)
        tensor = channel.observe_and_estimate(tensor, scen, rng, n0=n0)
    return fastsvd.HankelBlockOperator.from_tensor(
        tensor, esprit.default_l5(scen.m[4]) if l5 is None else l5)


def assert_matches_dense(op, n_paths=2, tol=1e-12):
    """Fast basis against a dense SVD; returns the Lanczos details."""
    u, _, details = fastsvd.fast_signal_subspace(op, n_paths, return_details=True)
    dense_u = np.linalg.svd(op.to_dense(), full_matrices=False)[0][:, :n_paths]
    assert u.shape == dense_u.shape
    assert projector_gap(u, dense_u) <= tol
    assert np.linalg.norm(u.conj().T @ u - np.eye(n_paths)) <= tol
    return details


def assert_one_sided_matches_dense(op):
    details = assert_matches_dense(op)
    assert details["lanczos_stop"] == "converged"
    assert details["lanczos_steps"] < min(op.l5, 2 * 2 + 16)


@pytest.mark.parametrize("case", ONE_SIDED_CASES)
def test_one_sided_reorth_matches_dense_desk(desk_scenario, case):
    assert_one_sided_matches_dense(one_sided_operator(desk_scenario,
                                                      **ONE_SIDED_CASES[case]))


@pytest.mark.fullscale
@pytest.mark.parametrize("case", ONE_SIDED_CASES)
def test_one_sided_reorth_matches_dense_full(desk_scenario, case):
    full = dataclasses.replace(desk_scenario, m=(8, 8, 8, 8, 500), delta_f=120e3)
    assert_one_sided_matches_dense(one_sided_operator(full, **ONE_SIDED_CASES[case]))


@pytest.mark.parametrize("n_paths", [3, 6])
def test_over_specified_order_runs_to_cap(desk_scenario, n_paths):
    # two paths leave no gap after theta_3 (or theta_6) in the noise floor,
    # so the stop rule never fires
    op = one_sided_operator(desk_scenario, snr_db=20.0)
    _, _, details = fastsvd.fast_signal_subspace(op, n_paths, return_details=True)
    assert details == {"lanczos_steps": min(op.l5, 2 * n_paths + 16),
                       "lanczos_stop": "cap"}


@pytest.mark.parametrize("case", ["rel1e-9", "snr0"])
@pytest.mark.parametrize("l5", [2, 3, 64])      # L, L + 1 and M5 at L = 2
def test_edge_windows_match_dense(desk_scenario, case, l5):
    assert_matches_dense(one_sided_operator(desk_scenario, l5=l5, **ONE_SIDED_CASES[case]),
                         tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_planted_gapped_signal_matches_dense(seed):
    # rank-L exponential taps at evenly spread frequencies (well-conditioned
    # Vandermonde factors) plus a 1e-3 noise floor, on random tiny operators
    r = np.random.default_rng(seed)
    n_paths = int(r.integers(1, 4))
    beam_dims = (1, 1, int(r.integers(1, 3)), int(r.integers(1, 3)))
    m5 = int(r.integers(2 * n_paths + 2, 25))
    l5 = int(r.integers(n_paths + 1, m5 - n_paths + 1))     # K5, L5 > L
    b = int(np.prod(beam_dims))
    omega = r.uniform(-np.pi, np.pi) + 2 * np.pi * np.arange(n_paths) / n_paths
    gains = r.uniform(1.0, 2.0, (b, n_paths)) * np.exp(2j * np.pi * r.random((b, n_paths)))
    taps = gains @ np.exp(1j * np.outer(omega, np.arange(m5)))
    taps = taps + 1e-3 * (r.standard_normal(taps.shape) + 1j * r.standard_normal(taps.shape))
    op = fastsvd.HankelBlockOperator.from_tensor(taps.reshape(*beam_dims, m5), l5)
    s = np.linalg.svd(op.to_dense(), compute_uv=False)
    assume(s[n_paths - 1] > 10 * s[n_paths])      # the planted gap survived
    assert_matches_dense(op, n_paths, tol=1e-10)


# Out-of-place reference for the in-place products and left recurrence: the
# same FFT calls, operand order and summation order, so results match bit for bit.
def reference_matvec(op, x, adjoint=False):
    if not adjoint:
        xf = np.fft.fft(x[::-1], op.nfft)
        conv = np.fft.ifft(op.blocks_fft * xf[None, :], axis=1)
        return conv[:, op.l5 - 1: op.l5 - 1 + op.k5].reshape(-1)
    xb = x.reshape(op.blocks.shape[0], op.k5).conj()[:, ::-1]
    xf = np.fft.fft(xb, op.nfft, axis=1)
    conv = np.fft.ifft(np.sum(op.blocks_fft * xf, axis=0))
    return conv[op.k5 - 1: op.k5 - 1 + op.l5].conj()


def reference_lanczos(op, steps, n_wanted):
    rows, l5 = op.shape
    scale = op.frobenius_norm()
    u_frame = np.zeros((steps, rows), dtype=np.complex128)
    v_frame = np.zeros((steps, l5), dtype=np.complex128)
    alphas = np.zeros(steps)
    betas = np.zeros(max(steps - 1, 0))
    v_frame[0] = 1.0 / np.sqrt(l5)
    stop, n_u, n_v = "cap", 0, 1
    for ell in range(steps):
        u = reference_matvec(op, v_frame[ell])
        if ell > 0:
            u -= betas[ell - 1] * u_frame[ell - 1]
        a = np.linalg.norm(u)
        if a <= fastsvd.BREAKDOWN_RTOL * scale:
            stop = "breakdown"
            break
        alphas[ell] = a
        u_frame[ell] = u / a
        n_u = ell + 1
        if ell == steps - 1:
            break
        r = reference_matvec(op, u_frame[ell], adjoint=True)
        r -= alphas[ell] * v_frame[ell]
        basis = v_frame[:ell + 1]
        for _ in range(2):
            r -= np.conj(basis @ np.conj(r)) @ basis
        bnorm = np.linalg.norm(r)
        if bnorm <= fastsvd.BREAKDOWN_RTOL * scale:
            stop = "breakdown"
            break
        betas[ell] = bnorm
        if n_u > n_wanted:
            core = fastsvd.bidiag_svd(fastsvd.Bidiagonal(
                a=alphas[:n_u], b=betas[:ell], u_frame=u_frame[:n_u].T,
                v_frame=v_frame[:n_u].T))
            theta = core.singular_values
            resid = bnorm * np.abs(core.left[-1, :n_wanted])
            if np.all(resid <= fastsvd.CONVERGED_RTOL * (theta[:n_wanted] - theta[n_wanted])):
                stop = "converged"
                break
        v_frame[ell + 1] = r / bnorm
        n_v = ell + 2
    return fastsvd.Bidiagonal(a=alphas[:n_u], b=betas[:n_v - 1], u_frame=u_frame[:n_u].T,
                              v_frame=v_frame[:n_v].T, stop=stop)


def assert_bit_identical_to_reference(op, n_paths):
    r = np.random.default_rng(3)
    x = r.standard_normal(op.l5) + 1j * r.standard_normal(op.l5)
    y = r.standard_normal(op.shape[0]) + 1j * r.standard_normal(op.shape[0])
    assert np.array_equal(fastsvd.hankel_matvec(op, x), reference_matvec(op, x))
    assert np.array_equal(fastsvd.hankel_matvec(op, y, adjoint=True),
                          reference_matvec(op, y, adjoint=True))
    steps = min(op.l5, 2 * n_paths + 16)
    got = fastsvd.lanczos_bidiag(op, steps, n_paths)
    want = reference_lanczos(op, steps, n_paths)
    assert got.stop == want.stop
    for name in ("a", "b", "u_frame", "v_frame"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    return got


BIT_CASES = {"snr-10": (dict(snr_db=-10.0), 2), "snr0": (dict(snr_db=0.0), 2),
             "snr30": (dict(snr_db=30.0), 2), "snr40": (dict(snr_db=40.0), 2),
             "cap": (dict(snr_db=20.0), 6)}


@pytest.mark.parametrize("case", BIT_CASES)
def test_bit_identical_to_out_of_place_reference_desk(desk_scenario, case):
    kwargs, n_paths = BIT_CASES[case]
    got = assert_bit_identical_to_reference(one_sided_operator(desk_scenario, **kwargs),
                                            n_paths)
    assert got.stop == ("cap" if case == "cap" else "converged")


def test_bit_identical_to_out_of_place_reference_breakdown(desk_setup):
    scen, _, _, tensor, _ = desk_setup
    op = fastsvd.HankelBlockOperator.from_tensor(tensor, esprit.default_l5(scen.m[4]))
    assert assert_bit_identical_to_reference(op, 2).stop == "breakdown"


@pytest.mark.fullscale
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 30.0, 40.0])
def test_bit_identical_to_out_of_place_reference_full(desk_scenario, snr_db):
    full = dataclasses.replace(desk_scenario, m=(8, 8, 8, 8, 500), delta_f=120e3)
    assert_bit_identical_to_reference(one_sided_operator(full, snr_db=snr_db), 2)


class TestFastSignalSubspace:
    def test_projector_matches_dense(self, desk_setup):
        scen, _, _, tensor, _ = desk_setup
        l5 = esprit.default_l5(scen.m[4])
        op = fastsvd.HankelBlockOperator.from_tensor(tensor, l5)
        u_fast = fastsvd.fast_signal_subspace(op, 2)
        u_dense, _, _ = np.linalg.svd(op.to_dense(), full_matrices=False)
        assert projector_gap(u_fast, u_dense[:, :2]) < 1e-9

    def test_full_rank_span(self, rng):
        op = random_operator(rng, (1, 1, 2, 1), 6, 3)
        u = fastsvd.fast_signal_subspace(op, 3)   # L5 = 3 steps
        dense = op.to_dense()
        # U spans the whole column space
        resid = dense - u @ (u.conj().T @ dense)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(dense)

    def test_matvec_scaling(self, rng):
        # O(J log N5): per-call time normalized by J log2(M5) stays within
        # a 2x envelope across subcarrier counts at the full-scale block count
        rates = []
        for m5 in (64, 128, 256, 512):
            op = random_operator(rng, (4, 4, 4, 4), m5, (m5 + 2) // 2)
            x = rng.standard_normal(op.l5) + 1j * rng.standard_normal(op.l5)
            fastsvd.hankel_matvec(op, x)  # warm caches
            best = np.inf
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(10):
                    fastsvd.hankel_matvec(op, x)
                best = min(best, (time.perf_counter() - t0) / 10)
            rates.append(best / (256 * m5 * np.log2(m5)))
        assert max(rates) / min(rates) < 2
