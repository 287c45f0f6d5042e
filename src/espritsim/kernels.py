"""Dense complex linear-algebra primitives shared by all estimators.

Thin, contract-carrying wrappers around LAPACK: numpy's, and for the
in-place QR and its reflector product, LAPACKE in the OpenBLAS that numpy's
PyPI wheel bundles (scipy-openblas64), called through ctypes. Importing the
package refuses any numpy build whose library lacks those entry points.
Every routine validates its input, normalizes the output layout (descending
singular values, complex dtype) and converts backend failures into the
package's error types so callers can distinguish bad input from a
non-converged factorization.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg


class EstimationError(Exception):
    """Base of every estimation failure a trial counts; each subclass keeps a builtin base."""


class InvalidInputError(EstimationError, ValueError):
    """Raised when an operand is empty, non-finite, or mis-shaped."""


class NumericFailureError(EstimationError, RuntimeError):
    """Raised when an iterative factorization fails to converge."""


_COL_MAJOR = 102                  # LAPACKE's matrix_layout for column-major operands
_INT, _PTR = ctypes.c_int64, ctypes.c_void_p     # lapack_int of the 64_ build, array

# C signatures (restype, argtypes) of the entry points the package binds in
# numpy's OpenBLAS; the _work forms skip LAPACKE's NaN scan of the input
_OPENBLAS_SIGNATURES = {
    "scipy_LAPACKE_zgeqrf_work64_":
        (_INT, [ctypes.c_int, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT]),
    "scipy_LAPACKE_zunmqr_work64_":
        (_INT, [ctypes.c_int, ctypes.c_char, ctypes.c_char, _INT, _INT, _INT,
                _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT]),
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
}


def _bind_openblas(lib):
    """The functions of ``_OPENBLAS_SIGNATURES`` in ``lib``, in its order, with
    their signatures set (a wrong one crashes rather than raises); ImportError
    naming the requirement when ``lib`` lacks any of them."""
    missing = [name for name in _OPENBLAS_SIGNATURES if not hasattr(lib, name)]
    if missing:
        raise ImportError(
            "espritsim needs numpy's PyPI wheel, whose bundled scipy-openblas64 "
            f"exports LAPACKE; {lib._name} lacks {', '.join(missing)}")
    funcs = []
    for name, (restype, argtypes) in _OPENBLAS_SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
        funcs.append(fn)
    return funcs


# numpy's LAPACK module resolves symbols through the OpenBLAS it links
(_zgeqrf_work, _zunmqr_work,
 _get_blas_threads, _set_blas_threads) = _bind_openblas(ctypes.CDLL(_umath_linalg.__file__))


def _check_info(routine, info):
    if info != 0:
        raise NumericFailureError(f"{routine} failed with info={info}")


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = left @ diag(singular_values) @ right.conj().T``."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


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
        Tall input (m > n) is factored ``a = Q R`` first (numpy's reduced
        QR) and ``left = Q @ U_R``.
    """
    return _svd(_as_matrix(a))


def _svd(a):
    """``svd_thin`` of an operand already checked by ``_as_matrix``."""
    try:
        if a.shape[0] > a.shape[1]:
            q, r = np.linalg.qr(a)
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
    checked it to be nonempty and finite, and ``_geqrf_overwrite`` checks
    its layout."""
    return _geqrf_overwrite(at)[1]


def _geqrf_overwrite(at):
    """Householder QR of ``at.T`` in place: ((reflectors, tau), R).

    ``at.T`` is F-contiguous, so geqrf factors it with no copy, at the
    workspace size it asks for, and ``at.T`` is returned as the reflectors.
    ``at`` must be nonempty and finite, and C-contiguous complex128 (else
    TypeError); it is destroyed.
    """
    if at.dtype != np.complex128 or not at.flags.c_contiguous:    # LAPACK reads a raw pointer
        raise TypeError(f"geqrf needs a C-contiguous complex128 operand, got {at.dtype} "
                        f"with strides {at.strides}")
    a = at.T
    m, n = a.shape
    tau = np.empty(min(m, n), dtype=np.complex128)
    args = (_COL_MAJOR, m, n, a.ctypes.data, m, tau.ctypes.data)
    work = np.empty(1, dtype=np.complex128)
    _check_info("geqrf", _zgeqrf_work(*args, work.ctypes.data, -1))     # workspace query
    work = np.empty(int(work[0].real), dtype=np.complex128)
    _check_info("geqrf", _zgeqrf_work(*args, work.ctypes.data, work.size))
    return (a, tau), np.triu(a[:n])


def _svd_leading_overwrite(at, k):
    """(left, singular_values) of ``at.T``: its k leading left singular vectors,
    (m, k) orthonormal, and all min(m, n) singular values, descending and
    bit-equal to ``svd_thin``'s. Unchecked: ``at`` is nonempty and finite,
    and 1 <= k <= min(m, n). geqrf factors tall input in place, destroying
    ``at`` (a layout it cannot take raises TypeError); Q stays reflectors,
    and LAPACK unmqr applies it to the k leading columns of R's left factor
    only. Wide or square input takes ``svd_thin``'s path."""
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
    work = np.empty(k, dtype=np.complex128)
    _check_info("unmqr", _zunmqr_work(_COL_MAJOR, b"L", b"N", m, k, n, reflectors.ctypes.data,
                                      m, tau.ctypes.data, left.ctypes.data, m,
                                      work.ctypes.data, k))
    return left, s


def eig_general(a):
    """Eigendecomposition of a general square complex matrix: numpy's ``EigResult``, unordered."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"eig_general needs a square matrix, got {a.shape}")
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition did not converge: {exc}") from exc


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
