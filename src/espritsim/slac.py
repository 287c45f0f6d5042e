"""Localization from channel parameters and effective achievable rate.

The weighted least-squares position fix intersects one line constraint per
path: delta_l = p_T - c tau f_R is a point on the path's locus and
mu_l = c tau (f_T + f_R) the unconstrained direction along it. A direct
path has f_T = -f_R globally, so mu vanishes and the constraint is the full
3-D point delta_l itself; such paths contribute the identity instead of the
projector (the projector form is 0/0 there).

Direction vectors are produced from array-frame angles through the known
per-side frame signs (see channel.array_axis_signs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import SPEED_OF_LIGHT, direction_from_angles
from .kernels import EstimationError, InvalidInputError


class DegenerateLocalizationError(EstimationError, ValueError):
    """The weighted constraint matrix is singular (unlocatable geometry)."""


@dataclass(frozen=True)
class PathGeometry:
    """Per-path localization quantities evaluated at given parameters."""

    f_t: np.ndarray
    f_r: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    c_mat: np.ndarray
    direct: bool            # mu ~ 0: full 3-D constraint


@dataclass(frozen=True)
class LocalizationResult:
    p_hat: np.ndarray
    per_path: tuple
    condition: float


WEIGHT_KINDS = ("uniform", "gain")      # the localization weight policies
DIRECT_MU_RTOL = 1e-9                   # a path is direct when ||mu|| <= this * c tau


def path_weights(params, kind="uniform"):
    """Localization weights iota_l: uniform, or proportional to |gamma|^2."""
    if kind not in WEIGHT_KINDS:
        raise InvalidInputError(f"unknown weight kind {kind!r}, not in {WEIGHT_KINDS}")
    if kind == "gain":
        return np.array([abs(p.gamma) ** 2 if p.gamma is not None else 1.0
                         for p in params])
    return np.ones(len(params))


def localization_geometry(params, p_t, weights=None, tx_axis_sign=1.0,
                          rx_axis_sign=1.0):
    """Per-path (f_T, f_R, mu, delta, C_l) at the given channel parameters."""
    p_t = np.asarray(p_t, dtype=float)
    if weights is None:
        weights = np.ones(len(params))
    weights = np.asarray(weights, dtype=float)
    out = []
    for w, p in zip(weights, params):
        f_t = direction_from_angles(p.phi_az, p.phi_el, tx_axis_sign)
        f_r = direction_from_angles(p.theta_az, p.theta_el, rx_axis_sign)
        ct = SPEED_OF_LIGHT * p.tau
        mu = ct * (f_t + f_r)
        delta = p_t - ct * f_r
        direct = np.linalg.norm(mu) <= DIRECT_MU_RTOL * max(ct, 1e-300)
        if direct:
            c_mat = w * np.eye(3)
        else:
            c_mat = w * (np.eye(3) - np.outer(mu, mu) / (mu @ mu))
        out.append(PathGeometry(f_t=f_t, f_r=f_r, mu=mu, delta=delta,
                                c_mat=c_mat, direct=direct))
    return out


def constraint_sum(geos):
    """The summed constraint matrix sum_l C_l of ``localization_geometry``'s
    paths and its condition number; raises DegenerateLocalizationError when
    its least eigenvalue is at most 1e-12 times the largest (singular)."""
    c_sum = sum(g.c_mat for g in geos)
    evals = np.linalg.eigvalsh(c_sum)
    if evals[0] <= 1e-12 * max(evals[-1], 1e-300):
        raise DegenerateLocalizationError("constraint matrix is singular")
    return c_sum, float(evals[-1] / max(evals[0], 1e-300))


def localize(params, p_t, weights=None, tx_axis_sign=1.0, rx_axis_sign=1.0):
    """Weighted least-squares position fix from per-path (angles, delay).

    Exact on exact inputs for any nondegenerate geometry; invariant to a
    uniform scaling of the weights. Raises DegenerateLocalizationError when
    the summed constraint matrix is singular (e.g. all paths collinear).
    """
    if not params:
        raise InvalidInputError("need at least one path")
    geos = localization_geometry(params, p_t, weights, tx_axis_sign, rx_axis_sign)
    c_sum, condition = constraint_sum(geos)
    rhs = sum(g.c_mat @ g.delta for g in geos)
    p_hat = np.linalg.solve(c_sum, rhs)
    return LocalizationResult(p_hat=p_hat, per_path=tuple(geos),
                              condition=condition)


def localize_scenario(params, scenario, weights=None):
    """``localize`` with the scenario's array frame signs and weight policy."""
    tx_sign, rx_sign = channel.array_axis_signs(scenario)
    if weights is None:
        weights = path_weights(params, scenario.weights)
    return localize(params, scenario.p_t, weights, tx_sign, rx_sign)


def _path_factors(params, scenario):
    """Factors of H_m = A_R diag(c_m) A_T^T for the given paths.

    Returns the receive and transmit steering matrices A_R (M3 M4, L) and
    A_T (M1 M2, L) and the gain-weighted frequency taps c (M5, L).
    """
    omegas = channel.path_omegas(params, scenario.delta_f)
    gains = np.array([p.gamma for p in params], dtype=np.complex128)
    m1, m2, m3, m4, m5 = scenario.m
    a_t = channel.khatri_rao([channel.steering_matrix(m1, omegas[:, 0]),
                              channel.steering_matrix(m2, omegas[:, 1])])
    a_r = channel.khatri_rao([channel.steering_matrix(m3, omegas[:, 2]),
                              channel.steering_matrix(m4, omegas[:, 3])])
    taps = channel.steering_matrix(m5, omegas[:, 4])     # e^{-j 2 pi df tau (m-1)}
    return a_r, a_t, taps * gains[None, :]


def rate_terms(est_params, true_params, scenario):
    """Per-subcarrier desired and interference terms (U, I) for one estimate.

    The precoder/combiner are the dominant right/left singular vectors of the
    reconstructed channel Hhat_m; U = w^H Hhat f = sigma_1 and
    I = w^H (Hhat - H) f.

    Hhat_m = A_R diag(c_m) A_T^T has rank <= L, so no dense channel is built.
    With A_R = Q_R R_R and A_T = Q_T R_T, Hhat_m = Q_R K_m Q_T^T with the
    L x L core K_m = R_R diag(c_m) R_T^T; one batched SVD of the cores gives
    sigma_1, w = Q_R u_1 and f = conj(Q_T) v_1. The true channel enters only
    through w^H B_R and B_T^T f for its factors B_R, B_T. I is invariant
    under the joint phase of (u_1, v_1), so it matches the dense evaluation
    (the M5 element-space channels H_m and one SVD each) up to round-off.
    """
    a_r, a_t, c_hat = _path_factors(est_params, scenario)
    b_r, b_t, c_true = _path_factors(true_params, scenario)
    q_r, r_r = np.linalg.qr(a_r)
    q_t, r_t = np.linalg.qr(a_t)
    cores = (r_r[None, :, :] * c_hat[:, None, :]) @ r_t.T     # (M5, L, L)
    u_vecs, svals, v_hs = np.linalg.svd(cores)
    sigma = svals[:, 0]
    w_b_r = u_vecs[:, :, 0].conj() @ (q_r.conj().T @ b_r)      # w_m^H B_R
    b_t_f = v_hs[:, 0, :].conj() @ (q_t.conj().T @ b_t)       # B_T^T f_m
    i_term = sigma - np.sum(w_b_r * c_true * b_t_f, axis=1)
    return sigma.astype(np.complex128), i_term


def effective_rate(u_terms, mean_i2, scenario, n0):
    """Pilot-overhead-discounted sum rate for one trial's U given batch E|I|^2."""
    m5 = scenario.m[4]
    sinr = scenario.e_s * np.abs(u_terms) ** 2 / (n0 + scenario.e_s * mean_i2)
    overhead = (scenario.n_c - scenario.n_p) / (m5 * scenario.n_c)
    return float(overhead * np.sum(np.log2(1.0 + sinr)))


def batch_rate(terms, scenario, n0):
    """(mean rate, {"per_trial": rates, "mean_i2": E|I|^2}) over a batch of
    (U, I) rate terms, with E|I|^2 estimated per subcarrier across the batch."""
    mean_i2 = np.mean([np.abs(i) ** 2 for _, i in terms], axis=0)
    rates = [effective_rate(u, mean_i2, scenario, n0) for u, _ in terms]
    return float(np.mean(rates)), {"per_trial": rates, "mean_i2": mean_i2}


def rate(estimates, true_params, scenario, n0):
    """``batch_rate`` of the rate terms of a batch of estimates (or of one
    parameter list); perfect CSI (estimates == truth) gives I = 0."""
    if estimates and isinstance(estimates[0], channel.PathParams):
        estimates = [estimates]
    return batch_rate([rate_terms(est, true_params, scenario) for est in estimates],
                      scenario, n0)
