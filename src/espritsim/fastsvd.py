"""Reduced-complexity signal subspace: FFT Hankel products + Lanczos bidiagonalization.

The smoothed matrix stacks one K5 x L5 Hankel block per beam index, so a
matrix-vector product is a batch of convolutions of which only the fully
overlapped ("valid") part is kept; with cached block FFTs a product costs
O(J log N5) instead of O(J L5). A circular convolution of length N folds
the linear one's index n + N onto n. The linear result is M5 + L5 - 1 long
(M5 + K5 - 1 for the adjoint), so the fold reaches only indices below
L5 - 1 (K5 - 1) once N >= M5, and those are exactly the discarded partial
overlaps: N = next_pow2(M5) gives the valid outputs exactly. Golub-Kahan
bidiagonalization then stops as soon as the Ritz residuals of the top-L
singular triplets fall to round-off relative to the spectral gap after them
(a handful of steps on gapped spectra, at most min(L5, 2L + 16)), and the
final SVD acts on a tiny real bidiagonal matrix. Re-orthogonalization is
one-sided: only the short right vectors (length L5) are re-projected, never
the B*K5-long left ones (``lanczos_bidiag``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import InvalidInputError, NumericFailureError, SvdResult, _next_pow2

BREAKDOWN_RTOL = 1e-12      # recursion norm below this times ||H||_F: breakdown
CONVERGED_RTOL = 1e-14      # Ritz residual below this times the gap: converged


@dataclass(frozen=True)
class HankelBlockOperator:
    """Implicit smoothed matrix: one Hankel block per (n1, n2, n3, n4).

    ``blocks`` is (B, M5) with block b holding the frequency taps of beam
    index b; forward maps L5 -> B*K5, adjoint maps B*K5 -> L5.
    """

    blocks: np.ndarray
    k5: int
    l5: int
    nfft: int
    blocks_fft: np.ndarray

    @classmethod
    def from_tensor(cls, tensor, l5):
        """The operator of an (N1, N2, N3, N4, M5) tensor, its beam indices the blocks."""
        h = np.asarray(tensor, dtype=np.complex128)
        h = h.reshape(-1, h.shape[-1])
        m5 = h.shape[1]
        if not 1 <= l5 <= m5:
            raise InvalidInputError(f"L5={l5} outside [1, {m5}]")
        if not np.all(np.isfinite(h)):
            raise InvalidInputError("taps contain non-finite entries")
        k5 = m5 + 1 - l5
        # circular length M5 suffices for the valid outputs (module docstring)
        nfft = _next_pow2(m5)
        return cls(blocks=h, k5=k5, l5=l5, nfft=nfft,
                   blocks_fft=np.fft.fft(h, nfft, axis=1))

    @property
    def shape(self):
        return (self.blocks.shape[0] * self.k5, self.l5)

    def frobenius_norm(self):
        m5 = self.blocks.shape[1]
        m = np.arange(m5)
        weight = np.minimum.reduce([m + 1, np.full(m5, self.k5), np.full(m5, self.l5),
                                    m5 - m])
        return float(np.sqrt(np.sum(weight * np.abs(self.blocks) ** 2)))

    def to_dense(self):
        return smoothed_stack(self.blocks, self.l5)


def smoothed_stack(blocks, l5):
    """The B*K5 x L5 stack of the (B, M5) taps ``blocks``: row b*K5 + k, column
    ell holds tap ell + k of block b. It is written once, as the transpose of
    a new C-ordered (L5, B*K5) buffer: the layout geqrf factors in place."""
    at = np.empty((l5, blocks.shape[0], blocks.shape[1] + 1 - l5), dtype=np.complex128)
    windows = np.lib.stride_tricks.sliding_window_view(blocks, at.shape[2], axis=1)
    at[...] = windows.swapaxes(0, 1)        # (B, L5, K5) -> (L5, B, K5)
    return at.reshape(l5, -1).T


def hankel_matvec(op, x, adjoint=False):
    """y = H x (or H^H x) through batched circular FFT convolutions; O(J log N5).

    Forward input length L5; adjoint input length B*K5. Each block output is
    the valid part of a convolution, indices L5-1..M5-1 forward and
    K5-1..M5-1 adjoint. Circular wrap-around of length ``op.nfft`` >= M5
    lands only on the lower, discarded indices, so these outputs are exact.
    Results are bit-stable across calls: the cached block FFTs are reused.

    Both directions work in one (B, nfft) array: the forward product is
    multiplied into it and inverse-transformed in place; the adjoint writes
    the conjugated, reversed blocks into its zero-padded head, then
    transforms, multiplies and sums it in place. The FFT calls, operand
    order and summation order are those of the out-of-place form, so the
    result is bit-identical to it.
    """
    x = np.asarray(x, dtype=np.complex128).ravel()
    b, m5 = op.blocks.shape
    if not adjoint:
        if x.size != op.l5:
            raise InvalidInputError(f"forward operand must have length {op.l5}")
        xf = np.fft.fft(x[::-1], op.nfft)
        conv = np.multiply(op.blocks_fft, xf)
        np.fft.ifft(conv, axis=1, out=conv)
        return conv[:, op.l5 - 1: op.l5 - 1 + op.k5].reshape(-1)
    if x.size != b * op.k5:
        raise InvalidInputError(f"adjoint operand must have length {b * op.k5}")
    xf = np.zeros((b, op.nfft), dtype=np.complex128)
    np.conjugate(x.reshape(b, op.k5)[:, ::-1], out=xf[:, :op.k5])
    np.fft.fft(xf, axis=1, out=xf)
    np.multiply(op.blocks_fft, xf, out=xf)
    acc = np.sum(xf, axis=0)
    np.fft.ifft(acc, out=acc)
    return acc[op.k5 - 1: op.k5 - 1 + op.l5].conj()


@dataclass
class Bidiagonal:
    """Golub-Kahan factorization J = U_k^H H V with real (a, b).

    J is k x k upper bidiagonal, or k x (k+1) after a left breakdown, which
    keeps the last beta and right vector: then ``b`` has k entries and
    ``v_frame`` k + 1 columns. ``stop`` says why the recursion ended:
    ``converged``, ``breakdown`` or ``cap`` (the step budget ran out).
    """

    a: np.ndarray           # diagonal, length k = left vectors kept
    b: np.ndarray           # superdiagonal, length k - 1 (k after a left breakdown)
    u_frame: np.ndarray     # (rows, k) left Lanczos basis
    v_frame: np.ndarray     # (L5, len(b) + 1) right Lanczos basis
    stop: str = "cap"

    def matrix(self):
        j = np.zeros((len(self.a), len(self.b) + 1))
        np.fill_diagonal(j, self.a)
        np.fill_diagonal(j[:, 1:], self.b)
        return j


def lanczos_bidiag(op, steps, n_wanted):
    """Golub-Kahan bidiagonalization driven by the implicit Hankel operator.

    One-sided re-orthogonalization (Simon & Zha, SIAM J. Sci. Comput. 2000):
    each new right vector (length L5) is re-projected twice against all
    previous ones, while the left vector (length B*K5) only gets the
    three-term recurrence. Without any re-orthogonalization the classical
    recurrence loses orthogonality once the invariant subspace is captured
    (on noiseless rank-2 desk data at 1e-9 relative noise the left frame
    drifts by more than 1e-4 within 20 steps). With V orthonormal, the
    recurrence keeps U orthonormal to working precision up to the
    conditioning of the bidiagonal core, so the stored left frame still maps
    Ritz vectors to U_s = U_k P_L; the long re-projection sweeps are never
    paid. The start vector has equal entries.

    The left frame is allocated unfilled (rows past the kept steps are never
    read); each forward product lands in its frame row, and the recurrence
    and normalization run in place on that row's float64 view.

    Runs at most ``steps`` steps and ends on the first of:

    - breakdown: a recursion norm falls below ``BREAKDOWN_RTOL * ||H||_F``
      (invariant subspace captured). A right breakdown leaves the square
      k x k core. A left breakdown at step k (H v_k in span U_k) leaves the
      k x (k+1) core with beta_{k-1} and v_k.
    - convergence of the top ``n_wanted`` Ritz triplets: with the core's SVD
      B_k = P diag(theta) Q^T, H^H U_k p_i = theta_i V_k q_i +
      beta_k (e_k^T p_i) v_{k+1}, so once k > n_wanted and every i <= n_wanted
      has beta_k |e_k^T p_i| <= ``CONVERGED_RTOL`` (theta_i - theta_{n_wanted+1})
      (Larsen's PROPACK criterion) the k x k core is kept and v_{k+1} dropped.
      An over-specified order leaves no gap after theta_{n_wanted} and runs to
      the cap.
    """
    rows, l5 = op.shape
    if steps < 1 or steps > l5:
        raise InvalidInputError(f"steps must lie in [1, {l5}]")
    if not 1 <= n_wanted <= steps:
        raise InvalidInputError(f"n_wanted must lie in [1, {steps}]")
    scale = op.frobenius_norm()
    if scale == 0.0:
        raise NumericFailureError("operator is identically zero")

    # one contiguous row per basis vector: projecting against the first k
    # vectors reads k rows instead of striding through the whole frame
    u_frame = np.empty((steps, rows), dtype=np.complex128)
    v_frame = np.zeros((steps, l5), dtype=np.complex128)
    alphas = np.zeros(steps)
    betas = np.zeros(max(steps - 1, 0))
    v_frame[0] = 1.0 / np.sqrt(l5)
    stop = "cap"
    n_u, n_v = 0, 1

    for ell in range(steps):
        u = u_frame[ell]
        u[:] = hankel_matvec(op, v_frame[ell])
        # a real beta scales both parts alike, and numpy divides a complex
        # array by a real as x * (1 / a): the float64 view rounds the same
        ur = u.view(np.float64)
        if ell > 0:
            ur -= betas[ell - 1] * u_frame[ell - 1].view(np.float64)
        a = np.linalg.norm(u)
        if a <= BREAKDOWN_RTOL * scale:
            stop = "breakdown"
            break
        alphas[ell] = a
        ur *= 1.0 / a
        n_u = ell + 1

        if ell == steps - 1:
            break
        r = hankel_matvec(op, u_frame[ell], adjoint=True)
        r -= alphas[ell] * v_frame[ell]
        basis = v_frame[:ell + 1]
        for _ in range(2):
            r -= np.conj(basis @ np.conj(r)) @ basis
        bnorm = np.linalg.norm(r)
        if bnorm <= BREAKDOWN_RTOL * scale:
            stop = "breakdown"
            break
        betas[ell] = bnorm
        if n_u > n_wanted:
            core = bidiag_svd(Bidiagonal(a=alphas[:n_u], b=betas[:ell],
                                         u_frame=u_frame[:n_u].T,
                                         v_frame=v_frame[:n_u].T))
            theta = core.singular_values
            resid = bnorm * np.abs(core.left[-1, :n_wanted])
            if np.all(resid <= CONVERGED_RTOL * (theta[:n_wanted] - theta[n_wanted])):
                stop = "converged"
                break
        v_frame[ell + 1] = r / bnorm
        n_v = ell + 2

    if n_u == 0:
        raise NumericFailureError("Lanczos broke down at the first step")
    return Bidiagonal(a=alphas[:n_u], b=betas[:n_v - 1],
                      u_frame=u_frame[:n_u].T, v_frame=v_frame[:n_v].T, stop=stop)


def bidiag_svd(bd):
    """Thin SVD of the small real bidiagonal core (k x k or k x (k+1))."""
    try:
        u, s, vh = np.linalg.svd(bd.matrix(), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"bidiagonal SVD failed: {exc}") from exc
    return SvdResult(left=u.astype(np.complex128), singular_values=s,
                     right=vh.conj().T.astype(np.complex128))


def fast_signal_subspace(op, n_paths, return_details=False):
    """Top-``n_paths`` left singular vectors via Lanczos + bidiagonal SVD.

    Lanczos stops once the top ``n_paths`` Ritz triplets have converged
    (``lanczos_bidiag``), capped at min(L5, 2 * n_paths + 16) steps. The
    details report the steps taken and why they ended (``lanczos_stop``:
    converged, breakdown or cap). A breakdown at rank k < ``n_paths`` leaves
    only k columns; ``esprit.signal_subspace`` turns that shortfall into an
    error.
    """
    bd = lanczos_bidiag(op, min(op.l5, 2 * n_paths + 16), n_paths)
    core = bidiag_svd(bd)
    u = bd.u_frame @ core.left[:, :n_paths]
    if not return_details:
        return u
    details = {"lanczos_steps": len(bd.a), "lanczos_stop": bd.stop}
    return u, core.singular_values, details
