"""Dense complex linear-algebra primitives shared by all estimators.

Thin, contract-carrying wrappers around LAPACK (numpy, scipy).
Every routine validates its input, normalizes the output layout (descending
singular values, complex dtype) and converts backend failures into the
package's error types so callers can distinguish bad input from a
non-converged factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class EstimationError(Exception):
    """Base of every estimation failure a trial counts; each subclass keeps a builtin base."""


class InvalidInputError(EstimationError, ValueError):
    """Raised when an operand is empty, non-finite, or mis-shaped."""


class NumericFailureError(EstimationError, RuntimeError):
    """Raised when an iterative factorization fails to converge."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = left @ diag(singular_values) @ right.conj().T``."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """General eigendecomposition; ``eigenvectors[:, k]`` pairs with ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(a, name="matrix"):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be 2-D and nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a.astype(np.complex128, copy=False)


def svd_thin(a):
    """Thin SVD with min(m, n) triplets and descending singular values.

    Parameters
    ----------
    a : (m, n) array_like
        Finite complex matrix.

    Returns
    -------
    SvdResult
        ``left`` is (m, k), ``right`` is (n, k), k = min(m, n);
        reconstruction holds to ~1e-10 * ||a||_F.
        Tall input (m > n) is factored ``a = Q R`` first (scipy's QR, several
        times faster than numpy's there) and ``left = Q @ U_R``.
    """
    return _svd(_as_matrix(a))


def _svd(a):
    """``svd_thin`` of an operand already checked by ``_as_matrix``."""
    try:
        if a.shape[0] > a.shape[1]:
            q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
            u, s, vh = np.linalg.svd(r)
            u = q @ u
        else:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=u, singular_values=s, right=vh.conj().T)


def _qr_r_overwrite(at):
    """R factor of ``at.T = Q R``, min(m, n) x n upper trapezoidal, by LAPACK geqrf
    in place on ``at`` (Q is never formed); the caller owns ``at`` and has
    checked it to be C-contiguous complex128, nonempty and finite."""
    return _geqrf_overwrite(at)[1]


def _geqrf_overwrite(at):
    """Householder QR of ``at.T`` in place: ((reflectors, tau), R).

    ``at.T`` is F-contiguous, so geqrf factors it with no copy and
    ``at.T`` is returned as the reflectors. ``at`` must be C-contiguous
    complex128, nonempty and finite; it is destroyed.
    """
    try:
        return scipy.linalg.qr(at.T, mode="raw", overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"QR factorization failed: {exc}") from exc


def _svd_leading_overwrite(at, k):
    """(left, singular_values) of ``at.T``: its k leading left singular vectors,
    (m, k) orthonormal, and all min(m, n) singular values, descending and
    bit-equal to ``svd_thin``'s. Unchecked: ``at`` is C-contiguous complex128,
    nonempty and finite, and 1 <= k <= min(m, n). geqrf factors tall input in
    place, destroying ``at``; Q stays reflectors, and LAPACK unmqr applies it
    to the k leading columns of R's left factor only. Wide or square input
    takes ``svd_thin``'s path."""
    n, m = at.shape
    if m <= n:
        res = _svd(at.T)
        return res.left[:, :k], res.singular_values
    (reflectors, tau), r = _geqrf_overwrite(at)
    try:
        u, s, _ = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD did not converge: {exc}") from exc
    left = np.zeros((m, k), dtype=np.complex128, order="F")
    left[:n] = u[:, :k]
    # the minimum workspace (k) selects the unblocked loop: for a few columns
    # the blocked form's n x n triangular factor costs more than the product
    left, _, info = scipy.linalg.lapack.zunmqr("L", "N", reflectors, tau, left, k,
                                               overwrite_c=True)
    if info != 0:
        raise NumericFailureError(f"unmqr failed with info={info}")
    return left, s


def eig_general(a):
    """Eigendecomposition of a general square complex matrix (no ordering)."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"eig_general needs a square matrix, got {a.shape}")
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition did not converge: {exc}") from exc
    return EigResult(eigenvalues=w, eigenvectors=v)


PINV_RTOL = 1e-12   # every pseudo-inverse drops singular values <= PINV_RTOL * s_max


def pinv(a):
    """Moore-Penrose pseudoinverse with singular values below ``PINV_RTOL * s_max`` truncated.

    An all-zero matrix maps to the all-zero transpose-shaped matrix.
    """
    return svd_pinv(_svd(_as_matrix(a)))


def svd_pinv(res):
    """``pinv`` of the operand whose thin SVD is ``res``."""
    inv_s = _truncated_inverse(res.singular_values)
    if inv_s is None:
        return np.zeros((res.right.shape[0], res.left.shape[0]), dtype=np.complex128)
    return (res.right * inv_s) @ res.left.conj().T


def lstsq_pinv(a, b):
    """Minimum-norm least-squares solve ``pinv(a) @ b`` without forming the pseudoinverse."""
    return svd_solve(_svd(_as_matrix(a, "lhs")), b)


def svd_solve(res, b):
    """``lstsq_pinv`` of the lhs whose thin SVD is ``res``."""
    b = np.asarray(b, dtype=np.complex128)
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("rhs contains non-finite entries")
    inv_s = _truncated_inverse(res.singular_values)
    if inv_s is None:
        shape = (res.right.shape[0],) + b.shape[1:]
        return np.zeros(shape, dtype=np.complex128)
    proj = res.left.conj().T @ b
    if b.ndim == 1:
        return res.right @ (inv_s * proj)
    return res.right @ (inv_s[:, None] * proj)


def _truncated_inverse(s):
    """1 / s on the singular values above ``PINV_RTOL * s_max``, 0 below; None if s_max is 0."""
    if s.size == 0 or s[0] == 0.0:
        return None
    keep = s > PINV_RTOL * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return inv_s


def _next_pow2(n):
    return 1 << max(int(n) - 1, 0).bit_length()
