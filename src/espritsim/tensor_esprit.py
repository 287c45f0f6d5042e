"""Baseline comparator: CP decomposition + per-dimension beamspace tensor ESPRIT.

CP-ALS with HOSVD-style initialization, optional extrapolation line search
and random restarts; the per-dimension rotation factors reuse the modified
selectors (Q, Q F^H) of the matrix pipeline, so the per-mode eigenvalues sit
at exp(j omega). Pairing across dimensions is inherited from the CP factor
columns: the rotation factors are diagonal in the factor basis, so each
eigenvalue is assigned to the column its eigenvector points at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import channel, esprit, shift
from .kernels import InvalidInputError, eig_general, lstsq_pinv


class DecompositionFailureError(RuntimeError):
    def __init__(self, message, fits=None):
        super().__init__(message)
        self.fits = fits or []


@dataclass
class CpModel:
    """Rank-L canonical polyadic model with unit-norm factor columns."""

    weights: np.ndarray          # (L,) complex
    factors: list                # n-th entry (dim_n, L)
    fit: float                   # relative residual ||T - That|| / ||T||
    iterations: int = 0
    fit_history: list = field(default_factory=list)

    def reconstruct(self):
        shape = tuple(f.shape[0] for f in self.factors)
        vec = channel.khatri_rao(self.factors) @ self.weights
        return vec.reshape(shape)


def _unfold(tensor, mode):
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _mttkrp(tensor, factors, mode):
    others = [factors[i] for i in range(len(factors)) if i != mode]
    kr = channel.khatri_rao(others)
    return _unfold(tensor, mode) @ kr.conj()


def _normalize(factors):
    weights = np.ones(factors[0].shape[1], dtype=np.complex128)
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        norms = np.where(norms == 0, 1.0, norms)
        out.append(f / norms)
        weights = weights * norms
    return weights, out


def _rel_residual(tensor, factors, weights, norm_t):
    vec = channel.khatri_rao(factors) @ weights
    return float(np.linalg.norm(tensor.reshape(-1) - vec) / norm_t)


def _init_factors(tensor, rank, how, rng):
    factors = []
    for mode in range(tensor.ndim):
        dim = tensor.shape[mode]
        if how == "svd":
            u, _, _ = np.linalg.svd(_unfold(tensor, mode), full_matrices=False)
            f = u[:, :rank]
            if f.shape[1] < rank:
                extra = rng.standard_normal((dim, rank - f.shape[1])) \
                    + 1j * rng.standard_normal((dim, rank - f.shape[1]))
                f = np.concatenate([f, extra / np.linalg.norm(extra, axis=0)], axis=1)
        else:
            f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            f /= np.linalg.norm(f, axis=0)
        factors.append(f.astype(np.complex128))
    return factors


def cp_als(tensor, rank, max_iter=500, tol=1e-10, restarts=3, line_search=True,
           rng=None):
    """Best-of-``restarts`` alternating least squares CP decomposition.

    Restart 0 initializes from the leading singular vectors of each mode
    unfolding, the rest randomly. The line search extrapolates the previous
    sweep direction and keeps the step only when the fit improves, so the
    residual is non-increasing across iterations.
    """
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    tensor = np.asarray(tensor, dtype=np.complex128)
    rng = np.random.default_rng() if rng is None else rng
    if not np.all(np.isfinite(tensor)):
        raise InvalidInputError("tensor contains non-finite entries")
    norm_t = np.linalg.norm(tensor)
    if norm_t == 0:
        raise InvalidInputError("zero tensor has no CP decomposition")

    best = None
    fits = []
    for restart in range(max(restarts, 1)):
        factors = _init_factors(tensor, rank, "svd" if restart == 0 else "random", rng)
        prev_factors = None
        residual = np.inf
        history = []
        for iteration in range(max_iter):
            old_factors = [f.copy() for f in factors]
            for mode in range(tensor.ndim):
                grams = [f.conj().T @ f for i, f in enumerate(factors) if i != mode]
                gram = np.ones((rank, rank), dtype=np.complex128)
                for g in grams:
                    gram = gram * g
                # solve U (hadamard gram)^* = MTTKRP; gram is Hermitian
                factors[mode] = lstsq_pinv(gram, _mttkrp(tensor, factors, mode).T).T

            weights, normed = _normalize(factors)
            new_residual = _rel_residual(tensor, normed, weights, norm_t)

            if line_search and prev_factors is not None and new_residual < residual:
                step = iteration ** (1.0 / 3.0) if iteration > 1 else 1.0
                trial = [f + step * (f - fp) for f, fp in zip(factors, prev_factors)]
                tw, tn = _normalize(trial)
                trial_residual = _rel_residual(tensor, tn, tw, norm_t)
                if trial_residual < new_residual:
                    factors = trial
                    weights, normed, new_residual = tw, tn, trial_residual

            history.append(new_residual)
            change = residual - new_residual
            prev_factors = old_factors
            residual = new_residual
            if 0 <= change < tol:
                break

        fits.append(residual)
        if np.isfinite(residual) and (best is None or residual < best.fit):
            weights, normed = _normalize(factors)
            best = CpModel(weights=weights, factors=normed, fit=residual,
                           iterations=len(history), fit_history=history)

    if best is None:
        raise DecompositionFailureError("all CP restarts diverged", fits=fits)
    return best


def tensor_esprit_pipeline(noisy, transforms, n_paths, delta_f, rng=None):
    """CP factors -> per-dimension restored-shift eigenvalues -> parameters.

    Dimension 5 is untransformed, so it uses the plain overlap selectors;
    dimensions 1..4 use the modified selectors of their beam transforms.
    """
    rng = np.random.default_rng() if rng is None else rng
    noisy = np.asarray(noisy, dtype=np.complex128)
    t_start = time.perf_counter()
    model = cp_als(noisy, n_paths, rng=rng)   # 3 restarts, line search

    omega = np.empty((n_paths, 5))
    for n in range(5):
        u_n = model.factors[n]
        if n < 4:
            l1, l2 = transforms[n].l1, transforms[n].l2
        else:
            l1, l2 = shift.element_selectors(noisy.shape[4])
        gam = lstsq_pinv(l1 @ u_n, l2 @ u_n)
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

    diagnostics = {"cp_fit": model.fit, "cp_iterations": model.iterations}
    return esprit._estimate_tail(omega, transforms, noisy, delta_f,
                                 diagnostics, t_start)
