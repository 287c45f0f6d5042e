"""Baseline comparator: CP decomposition + per-dimension beamspace tensor ESPRIT.

CP-ALS with HOSVD-style initialization, an extrapolation line search and
random restarts; the per-dimension rotation factors reuse the modified
selectors (Q, Q F^H) of the matrix pipeline, so the per-mode eigenvalues sit
at exp(j omega). Pairing across dimensions is inherited from the CP factor
columns: the rotation factors are diagonal in the factor basis, so each
eigenvalue is assigned to the column its eigenvector points at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, esprit
from .kernels import EstimationError, InvalidInputError, eig_general, lstsq_pinv

CP_RESTARTS = 3     # cp_als starts: one from the HOSVD, the rest random
CP_MAX_ITER = 500   # ALS sweeps per start at most
CP_TOL = 1e-10      # a start stops once a sweep lowers the fit by less


class DecompositionFailureError(EstimationError, RuntimeError):
    """Every CP-ALS restart diverged."""


@dataclass
class CpModel:
    """Rank-L canonical polyadic model with unit-norm factor columns."""

    weights: np.ndarray          # (L,) complex
    factors: list                # n-th entry (dim_n, L)
    fit: float                   # relative residual ||T - That|| / ||T||
    iterations: int = 0
    fit_history: list = field(default_factory=list)
    restart_iterations: list = field(default_factory=list)   # per restart
    restart_fits: list = field(default_factory=list)         # per restart

    def reconstruct(self):
        shape = tuple(f.shape[0] for f in self.factors)
        head = channel.khatri_rao(self.factors[:-1]) * self.weights
        return (head @ self.factors[-1].T).reshape(shape)


def _normalize(factors):
    weights = np.ones(factors[0].shape[1], dtype=np.complex128)
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        norms = np.where(norms == 0, 1.0, norms)
        out.append(f / norms)
        weights = weights * norms
    return weights, out


def _short_mode_mttkrps(x, factors, lo, hi):
    """Yield ``(mode, MTTKRP)`` for the short modes lo..hi-1, in order.

    ``x`` is the tensor already contracted with conj(A_n) over the long mode
    and over every short mode outside [lo, hi), one row per entry of the
    (d_lo, ..., d_{hi-1}) block. A dimension tree halves the block: the
    right half is contracted away for the left half's modes, then the
    left half for the right's. The generator is lazy, so a caller that
    updates ``factors[mode]`` before drawing the next item has every later
    MTTKRP see the updated factor, as ALS requires.
    """
    if hi - lo == 1:
        yield lo, x
        return
    mid = (lo + hi) // 2
    x = x.reshape(-1, math.prod(f.shape[0] for f in factors[mid:hi]), x.shape[-1])
    yield from _short_mode_mttkrps(
        (x * channel.khatri_rao(factors[mid:hi]).conj()).sum(axis=1), factors, lo, mid)
    yield from _short_mode_mttkrps(
        (x * channel.khatri_rao(factors[lo:mid]).conj()[:, None]).sum(axis=0),
        factors, mid, hi)


def _solve_mode(grams, mode, mttkrp):
    """Factor update: the MTTKRP against the Hadamard product of the other Grams."""
    gram = np.ones_like(grams[0])
    for i, g in enumerate(grams):
        if i != mode:
            gram = gram * g
    # solve U (hadamard gram)^* = MTTKRP; gram is Hermitian
    return lstsq_pinv(gram, mttkrp.T).T


def _residual(head, kr_head, last, norm_t, work):
    """||T - X|| / ||T|| with X = KR(A_1..A_{N-1}) A_N^T as a head-shaped product,
    formed and subtracted in ``work``, a buffer shaped like ``head``."""
    np.subtract(head, np.matmul(kr_head, last.T, out=work), out=work)
    return float(np.linalg.norm(work) / norm_t)


def _init_factors(tensor, rank, how, rng):
    factors = []
    for mode in range(tensor.ndim):
        dim = tensor.shape[mode]
        if how == "svd":
            # leading left singular vectors of the mode unfolding Y_n, taken
            # from the small Gram Y_n Y_n^H; Y_n has min(dim, others) of them
            y = np.moveaxis(tensor, mode, 0).reshape(dim, -1)
            _, vecs = np.linalg.eigh(y @ y.conj().T)
            f = vecs[:, ::-1][:, :min(dim, y.shape[1], rank)]
            if f.shape[1] < rank:
                extra = rng.standard_normal((dim, rank - f.shape[1])) \
                    + 1j * rng.standard_normal((dim, rank - f.shape[1]))
                f = np.concatenate([f, extra / np.linalg.norm(extra, axis=0)], axis=1)
        else:
            f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            f /= np.linalg.norm(f, axis=0)
        factors.append(f.astype(np.complex128))
    return factors


def cp_als(tensor, rank, rng):
    """Best-of-``CP_RESTARTS`` alternating least squares CP decomposition.

    Restart 0 initializes from the leading left singular vectors of each mode
    unfolding, the rest randomly. After every sweep a line search
    extrapolates the previous sweep direction and keeps the step only when
    the fit improves, so the residual is non-increasing across iterations.

    The last mode is taken as the long one. The tensor is reshaped once to
    ``head`` ((d_1 ... d_{N-1}) x d_N). Each sweep contracts ``head`` with
    conj(A_N) once, as A_N is fixed while the short modes update, and takes
    their MTTKRPs from that small array by a dimension tree (Phan, Tichavsky
    & Cichocki, IEEE TSP 2013); mode N's MTTKRP is one (d_N x prod d_n) x
    (prod d_n x L) product. The factor Grams update one mode at a time, and
    each residual compares ``head`` with the single product
    KR(A_1..A_{N-1}) A_N^T, formed in one head-shaped workspace allocated
    once per call.
    """
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    tensor = np.asarray(tensor, dtype=np.complex128)
    if tensor.ndim < 2:
        raise InvalidInputError("CP decomposition needs a tensor of order >= 2")
    if not np.all(np.isfinite(tensor)):
        raise InvalidInputError("tensor contains non-finite entries")
    norm_t = np.linalg.norm(tensor)
    if norm_t == 0:
        raise InvalidInputError("zero tensor has no CP decomposition")
    head = tensor.reshape(-1, tensor.shape[-1])
    work = np.empty_like(head)      # every residual of this call reuses it
    last = tensor.ndim - 1

    best = None
    fits = []
    restart_iterations = []
    for restart in range(CP_RESTARTS):
        factors = _init_factors(tensor, rank, "svd" if restart == 0 else "random", rng)
        grams = [f.conj().T @ f for f in factors]
        prev_factors = None
        residual = np.inf
        history = []
        for iteration in range(CP_MAX_ITER):
            old_factors = list(factors)
            for mode, mttkrp in _short_mode_mttkrps(head @ factors[last].conj(),
                                                    factors, 0, last):
                factors[mode] = _solve_mode(grams, mode, mttkrp)
                grams[mode] = factors[mode].conj().T @ factors[mode]
            kr_head = channel.khatri_rao(factors[:last])
            factors[last] = _solve_mode(grams, last, head.T @ kr_head.conj())
            grams[last] = factors[last].conj().T @ factors[last]
            new_residual = _residual(head, kr_head, factors[last], norm_t, work)

            if prev_factors is not None and new_residual < residual:
                step = iteration ** (1.0 / 3.0) if iteration > 1 else 1.0
                trial = [f + step * (f - fp) for f, fp in zip(factors, prev_factors)]
                trial_residual = _residual(head, channel.khatri_rao(trial[:last]),
                                           trial[last], norm_t, work)
                if trial_residual < new_residual:
                    factors = trial
                    grams = [f.conj().T @ f for f in factors]
                    new_residual = trial_residual

            history.append(new_residual)
            change = residual - new_residual
            prev_factors = old_factors
            residual = new_residual
            if 0 <= change < CP_TOL:
                break

        fits.append(residual)
        restart_iterations.append(len(history))
        if np.isfinite(residual) and (best is None or residual < best[0]):
            best = (residual, factors, history)

    if best is None:
        raise DecompositionFailureError("all CP restarts diverged")
    residual, factors, history = best
    weights, normed = _normalize(factors)
    return CpModel(weights=weights, factors=normed, fit=residual,
                   iterations=len(history), fit_history=history,
                   restart_iterations=restart_iterations, restart_fits=fits)


def tensor_esprit_pipeline(noisy, transforms, n_paths, delta_f, rng):
    """CP factors -> per-dimension restored-shift eigenvalues -> parameters.

    Dimension 5 is untransformed, so its selectors keep the leading and the
    trailing M5 - 1 rows; dimensions 1..4 use the modified selectors of their
    beam transforms.
    """
    noisy = np.asarray(noisy, dtype=np.complex128)
    model = cp_als(noisy, n_paths, rng=rng)

    omega = np.empty((n_paths, 5))
    for n in range(5):
        u_n = model.factors[n]
        if n < 4:
            gam = lstsq_pinv(transforms[n].l1 @ u_n, transforms[n].l2 @ u_n)
        else:
            gam = lstsq_pinv(u_n[:-1], u_n[1:])
        if n_paths == 1:
            omega[0, n] = np.angle(gam[0, 0])
            continue
        res = eig_general(gam)
        # eigenvectors of the near-diagonal factor-basis rotation point at
        # factor columns; assign each eigenvalue to its dominant column
        assignment = np.full(n_paths, -1)
        order = np.argsort(-np.abs(res.eigenvalues))
        taken = np.zeros(n_paths, dtype=bool)
        for idx in order:
            weightings = np.abs(res.eigenvectors[:, idx]).copy()
            weightings[taken] = -np.inf
            col = int(np.argmax(weightings))
            assignment[col] = idx
            taken[col] = True
        omega[:, n] = np.angle(res.eigenvalues[assignment])

    diagnostics = {"cp_fit": model.fit, "cp_iterations": model.iterations,
                   "cp_restart_iterations": model.restart_iterations}
    return esprit._estimate_tail(omega, transforms, noisy, delta_f, diagnostics)
