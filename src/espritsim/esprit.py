"""Matrix-based beamspace ESPRIT: smoothing, subspace, auto-pairing, gains.

Pipeline (one trial): signal subspace of the frequency-smoothed tensor through
one interface with two backends, a dense LAPACK SVD of the materialized stack
or FFT/Lanczos on the implicit Hankel-block operator (``signal_subspace``) ->
per-dimension rotation factors and their residual, solved on a small core equal
to the selector products up to an isometry (built from the R factor of U_s's
mode-n unfolding, or of the stacked frequency windows) -> one
eigendecomposition of a random beta-combination for auto-pairing ->
frequency, parameter, and gain recovery (gains from the Khatri-Rao structure,
shared with the tensor pipeline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, fastsvd, shift
from .kernels import (EstimationError, InvalidInputError, NumericFailureError,
                      _svd_leading_overwrite, eig_general, lstsq_pinv, svd_solve)

PAIR_SEP_TOL = 1e-6     # auto_pair's least relative eigenvalue separation
MAX_REDRAWS = 8         # beta redraws before auto_pair gives up


class PairingFailureError(EstimationError, RuntimeError):
    """Eigenvalues of the beta-combination stayed clustered across redraws."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SmoothedMatrix:
    """Spatially smoothed stack, shape (N1 N2 N3 N4 K5, L5)."""

    values: np.ndarray
    k5: int


@dataclass
class EspritEstimate:
    """Auto-paired frequency, parameter, and gain estimates for L paths."""

    freqs: list                 # list[AngularFreqs], index l consistent across dims
    gains: np.ndarray
    params: list                # list[PathParams]
    diagnostics: dict = field(default_factory=dict)

    @property
    def omega(self):
        return np.stack([f.omega for f in self.freqs])


def default_l5(m5):
    """Balanced smoothing window: ceil((M5 + 1) / 2)."""
    return (m5 + 2) // 2


def spatial_smooth(tensor, l5):
    """Hankel smoothing over the frequency axis (K5 = M5 + 1 - L5 windows): column
    ell holds the taps ell .. ell + K5 - 1 of every beam index, frequency fastest,
    as ``to_dense`` of the tensor's ``fastsvd.HankelBlockOperator`` writes them."""
    op = fastsvd.HankelBlockOperator.from_tensor(tensor, l5)
    return SmoothedMatrix(values=op.to_dense(), k5=op.k5)


def signal_subspace(tensor, n_paths, l5, method="dense"):
    """Orthonormal basis of the top-``n_paths`` left singular subspace.

    The one subspace entry point of the matrix pipeline. Both backends work
    from the tensor's one ``fastsvd.HankelBlockOperator``, which checks the
    window and the taps: ``dense`` (the oracle) factors the operator's
    materialized stack in place, a Householder QR, the SVD of its L5 x L5 R
    and Q applied as reflectors to the ``n_paths`` leading columns only
    (``kernels.svd_leading``); ``fast`` runs Lanczos on the operator and
    never builds the stack. A backend that finds fewer than ``n_paths``
    singular triplets (Lanczos breaking down on data of lower rank) raises
    ``NumericFailureError`` instead of dropping paths. Returns (U_s,
    diagnostics): the spectral gap sigma_L / sigma_{L+1} (a warning flag
    when absent) and, for ``fast``, ``lanczos_steps`` and ``lanczos_stop``.
    """
    op = fastsvd.HankelBlockOperator.from_tensor(tensor, l5)
    if not 1 <= n_paths <= min(op.shape):
        raise InvalidInputError(f"more paths than the smoothed matrix can support, or "
                                f"none: {n_paths} outside [1, {min(op.shape)}]")
    diagnostics = {}
    if method == "dense":
        u_s, s = _svd_leading_overwrite(op.to_dense().T, n_paths)
    elif method == "fast":
        u_s, s, fast_diag = fastsvd.fast_signal_subspace(op, n_paths,
                                                         return_details=True)
        diagnostics.update(fast_diag)
    else:
        raise InvalidInputError(f"unknown subspace method {method!r}")

    if u_s.shape[1] < n_paths:
        raise NumericFailureError(f"subspace of rank {u_s.shape[1]} below {n_paths} paths")
    if len(s) > n_paths and s[n_paths - 1] > 0:
        gap = s[n_paths - 1] / max(s[n_paths], 1e-300)
        diagnostics["subspace_gap"] = float(gap)
        diagnostics["gap_warning"] = bool(gap < 1 + 1e-12)
    return u_s, diagnostics


def gamma_n(u_s, pair):
    """Rotation factor (J1 U_s)^+ (J2 U_s), similar to Phi_n, and its residual.

    Both come from the small pair ``pair.compressed(u_s)``, equal to
    [J1 U_s | J2 U_s] up to an isometry: the solve keeps its singular values
    (so the ``kernels.PINV_RTOL * s_1`` truncation) and the residual
    ||J1 U_s Gamma_n - J2 U_s||_F / ||J2 U_s||_F keeps its norms, while the
    (B K5)-row selector products are never formed. ``u_s`` must be finite;
    ``rotation_factors`` checks it once for all dimensions.
    """
    lhs, rhs = pair.compressed(u_s)
    gam = lstsq_pinv(lhs, rhs)
    residual = np.linalg.norm(lhs @ gam - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return gam, float(residual)


def rotation_factors(u_s, pairs):
    """``gamma_n`` for every selector pair after one finiteness check of U_s.

    Returns (gammas, residuals), one entry per pair.
    """
    u_s = np.asarray(u_s)
    if not np.isfinite(u_s).all():
        raise InvalidInputError("signal subspace contains non-finite entries")
    results = [gamma_n(u_s, p) for p in pairs]
    return [g for g, _ in results], [r for _, r in results]


def auto_pair(gammas, rng):
    """Joint eigenbasis of a random beta-combination; recovers paired frequencies.

    Returns (E, omega, diagnostics) where omega is (L, n_dims) with row l
    consistent across every dimension and diagnostics carries the achieved
    eigenvalue separation. Redraws beta, up to ``MAX_REDRAWS`` times, when the
    combined eigenvalues cluster closer than ``PAIR_SEP_TOL`` times their
    magnitude scale.
    """
    n_dims = len(gammas)
    n_paths = gammas[0].shape[0]
    if n_paths == 1:
        omega = np.array([[float(np.angle(g[0, 0])) for g in gammas]])
        return (np.ones((1, 1), dtype=np.complex128), omega,
                {"pairing_separation": np.inf, "beta_redraws": 0})

    attempts = 0
    seps = []
    while attempts <= MAX_REDRAWS:
        b = rng.uniform(0.0, 1.0, n_dims)
        k = sum(bi * g for bi, g in zip(b, gammas))
        res = eig_general(k)
        lam = res.eigenvalues
        diff = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(diff, np.inf)
        sep = diff.min() / max(np.abs(lam).max(), 1e-300)
        seps.append(float(sep))
        if sep >= PAIR_SEP_TOL:
            e = res.eigenvectors
            phases = np.empty((n_paths, n_dims))
            for n, g in enumerate(gammas):
                phi_n = np.linalg.solve(e, g @ e)
                phases[:, n] = np.angle(np.diagonal(phi_n))
            return e, phases, {"pairing_separation": float(sep),
                               "beta_redraws": attempts}
        attempts += 1
    raise PairingFailureError(
        f"eigenvalues stayed within {max(seps):.3e} of collision after {MAX_REDRAWS} redraws",
        diagnostics={"separations": seps})


def estimate_gains(omega, transforms, h_vec, m5):
    """Least-squares gains against the Khatri-Rao factor matrix KR(A_1..A_5).

    The solve runs on the small core of ``channel.khatri_rao_core``, which
    keeps the singular values (so the ``kernels.PINV_RTOL * s_1`` truncation
    and the condition); the (B M5 x L) matrix is never formed. h is projected
    onto the Q_n one mode at a time.
    """
    mats = channel.steering_factors(omega, transforms, m5)
    qs, core = channel.khatri_rao_core(mats)
    proj = np.asarray(h_vec).reshape([a.shape[0] for a in mats])
    for axis in reversed(range(5)):     # the long frequency mode first
        proj = np.moveaxis(np.tensordot(proj, qs[axis].conj(), axes=([axis], [0])),
                           -1, axis)
    s = core.singular_values
    cond = float(s[0] / max(s[-1], 1e-300))
    gains = svd_solve(core, proj.reshape(-1))
    return gains, {"gain_matrix_condition": cond}


def esprit_pipeline(noisy, transforms, n_paths, l5, delta_f,
                    method="dense", *, rng):
    """Run the full matrix-based beamspace ESPRIT chain on a noisy tensor.

    Parameters
    ----------
    noisy : (N1, N2, N3, N4, M5) complex array
    transforms : 4-tuple of BeamTransform
    n_paths : assumed model order L
    l5 : smoothing window (columns)
    method : 'dense' or 'fast' signal subspace
    rng : Generator that draws the pairing's beta combinations
    """
    noisy = np.asarray(noisy, dtype=np.complex128)
    t_start = time.perf_counter()

    u_s, diagnostics = signal_subspace(noisy, n_paths, l5, method=method)
    k5 = noisy.shape[-1] + 1 - l5
    pairs = shift.selectors_for_transforms(transforms, k5)
    gammas, residuals = rotation_factors(u_s, pairs)
    diagnostics["rotation_residual"] = max(residuals)

    _, omega, pair_diag = auto_pair(gammas, rng=rng)
    diagnostics.update(pair_diag)
    return _estimate_tail(omega, transforms, noisy, delta_f, diagnostics,
                          t_start)


def _estimate_tail(omega, transforms, noisy, delta_f, diagnostics, t_start):
    """Clamp omega, convert to parameters and add gains (both pipelines)."""
    clamped_paths = []
    for l in range(omega.shape[0]):
        omega[l], clamped = channel.clamp_freqs(omega[l])
        if clamped:
            clamped_paths.append(l)
    freqs = [channel.AngularFreqs(om) for om in omega]
    params = [channel.from_angular(f, delta_f) for f in freqs]
    gains, gain_diag = estimate_gains(omega, transforms, noisy.reshape(-1),
                                      noisy.shape[-1])
    diagnostics.update(gain_diag)
    diagnostics["clamped_paths"] = clamped_paths
    diagnostics["runtime_s"] = time.perf_counter() - t_start
    params = [replace(p, gamma=complex(g)) for p, g in zip(params, gains)]
    return EspritEstimate(freqs=freqs, gains=gains, params=params,
                          diagnostics=diagnostics)
