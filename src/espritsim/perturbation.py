"""Closed-form first-order perturbation of the matrix-ESPRIT estimates.

Everything is linearized in the vectorized observation error dh:

* per-(path, dimension) sensitivity rows xi / upsilon such that
  dPhi = xi^H dh / gamma and domega = Im(upsilon^H dh);
* per-path kappa vectors mapping dh to channel-parameter errors;
* the gain sensitivity pair (B^+, Upsilon_n) and its real stacking Pi;
* the 3 x J position sensitivity Psi through the localization geometry.

With dh circular Gaussian of per-entry variance N0 / (N_P E_s) every RMSE
is sqrt(N0 / (2 N_P E_s)) ||.||, with the norms taken once per kit. Every
matrix the kit inverts is a Khatri-Rao product of small per-mode factors: it
is pseudo-inverted through ``channel.khatri_rao_core``, and each J-long row
is a Tucker tensor on that core, written by one (B x r5)(r5 x M5) product.

Sign note: the elevation and delay maps enter the angular frequencies with a
negative derivative (w2 = pi cos el, w5 = -2 pi df tau), so kappa_2, kappa_4
and kappa_5 carry a minus sign relative to upsilon; the azimuth rows already
absorb it through the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, shift, slac
from .channel import SPEED_OF_LIGHT
from .kernels import InvalidInputError, pinv, svd_pinv

ANGLE_TOL = 1e-9    # _kappa refuses a path whose |cos az| or |sin el| is below this


class IllPosedScenarioError(ValueError):
    """The noiseless factorization loses rank; sensitivities are undefined."""


class SingularParameterizationError(ValueError):
    """cos(az) or sin(el) vanishes for some path; the angle map is singular."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


@dataclass(frozen=True)
class PerturbationKit:
    """Sensitivity vectors for one (paths, transforms, L5) configuration.

    Built complete by ``build_kit``; ``psi`` and ``psi_norm`` are None only
    for a kit built with ``with_position=False``.
    """

    paths: list
    scenario: object
    k5: int
    omega: np.ndarray            # (L, 5)
    phi: np.ndarray              # (L, 5) unit-circle rotations e^{j omega}
    gains: np.ndarray            # (L,)
    upsilon: np.ndarray          # (L, 5, J)
    kappa: np.ndarray            # (L, 5, J)
    upsilon_gain: np.ndarray     # (5, L, L) Upsilon_n
    b_pinv: np.ndarray           # (L, J)
    pi: np.ndarray               # (L, 2, 2J)
    kappa_norm: np.ndarray       # (L, 5) ||kappa[l, n]||
    pi_norm: np.ndarray          # (L,) ||pi[l]||_F
    psi: np.ndarray | None = None        # (3, J)
    psi_norm: float | None = None        # ||psi||_F

    @property
    def j_total(self):
        return self.upsilon.shape[-1]

    @property
    def xi(self):
        """(L, 5, J) xi_{l,n} = upsilon_{l,n} conj(gamma_l) / phi_{l,n}, derived on each read."""
        return self.upsilon * (np.conj(self.gains)[:, None] / self.phi)[:, :, None]


def _tucker_into(core, factors, out):
    """Write core x_1 F_1 .. x_5 F_5 (C-order) into ``out``.

    ``core`` is (r_1..r_5), or (L, r_1..r_5) for L tensors at once; F_m is
    (N_m, r_m), and mode 5 is one (N_1..N_4 x r_5)(r_5 x N_5) product.
    """
    x = core
    for axis, f in enumerate(factors[:4], start=core.ndim - 5):
        x = np.moveaxis(np.tensordot(f, x, axes=([1], [axis])), 0, axis)
    f5 = factors[4]
    np.matmul(x.reshape(-1, f5.shape[1]), f5.T, out=out.reshape(-1, f5.shape[0]))


def _upsilon(factors, transforms, l5, omega, phi, gains):
    """Frequency-error sensitivities upsilon for every (path, dim), (L, 5, J).

    From the noiseless H = P Diag(gamma) G^T: lambda_l = (J2 - Phi J1)^H u_l^*,
    with u_l^T row l of (J1 P)^+, lives on the smoothed stack and chi_l on the
    window; their blockwise convolution lifts the pair onto the observation
    as xi_{l,n}, and upsilon_{l,n} = xi_{l,n} phi_{l,n} / conj(gamma_l).
    As J1 P = KR(C_m) (selector on factor n), lambda_l is a Tucker tensor with
    core conj(row l of KR(R_m)^+), factors Q_m, and (J2^H - conj(phi) J1^H) Q_n
    in mode n; the convolution with chi_l acts on its mode-5 factor alone.
    """
    m5 = factors[4].shape[0]
    k5 = m5 + 1 - l5
    n_paths = omega.shape[0]
    p_factors = factors[:4] + [channel.steering_matrix(k5, omega[:, 4])]
    chi = pinv(channel.steering_matrix(l5, omega[:, 4]).T).conj()   # column l = chi_l
    selectors = [(t.l1, t.l2) for t in transforms] + [shift.element_selectors(k5)]

    j_total = int(np.prod([t.n for t in transforms])) * m5
    upsilon = np.empty((n_paths, 5, j_total), dtype=np.complex128)

    for n, (s1, s2) in enumerate(selectors):
        qs, core = channel.khatri_rao_core(
            [s1 @ f if m == n else f for m, f in enumerate(p_factors)])
        s = core.singular_values
        if s.size < n_paths or s[-1] <= 1e-12 * s[0]:
            raise IllPosedScenarioError(f"J1 P rank deficient in dimension {n + 1}")
        lam_cores = svd_pinv(core).conj().reshape((n_paths,) + tuple(q.shape[1] for q in qs))
        j2q, j1q = s2.conj().T @ qs[n], s1.conj().T @ qs[n]
        for l in range(n_paths):
            lam = [j2q - np.conj(phi[l, n]) * j1q if m == n else q for m, q in enumerate(qs)]
            lam[4] = np.stack([np.convolve(c, chi[:, l]) for c in lam[4].T], axis=1)
            _tucker_into(lam_cores[l], lam, upsilon[l, n])      # xi_{l,n}
            upsilon[l, n] *= phi[l, n] / np.conj(gains[l])
    return upsilon


def _kappa(paths, upsilon, delta_f):
    """Channel-parameter sensitivities kappa (L, 5, J) from upsilon."""
    kappa = np.empty_like(upsilon)
    for l, p in enumerate(paths):
        sp_el, cp_el = np.sin(p.phi_el), np.cos(p.phi_el)
        st_el, ct_el = np.sin(p.theta_el), np.cos(p.theta_el)
        cp_az, sp_az = np.cos(p.phi_az), np.sin(p.phi_az)
        ct_az, st_az = np.cos(p.theta_az), np.sin(p.theta_az)
        if abs(cp_az) < ANGLE_TOL or abs(ct_az) < ANGLE_TOL:
            raise SingularParameterizationError(
                f"cos(az) ~ 0 on path {l}: azimuth sensitivity diverges", path=l)
        if abs(sp_el) < ANGLE_TOL or abs(st_el) < ANGLE_TOL:
            raise SingularParameterizationError(
                f"sin(el) ~ 0 on path {l}", path=l)
        k_l = np.zeros((5, 5))
        k_l[0, :2] = 1 / (np.pi * cp_az * sp_el), sp_az * cp_el / (np.pi * cp_az * sp_el ** 2)
        k_l[1, 1] = -1 / (np.pi * sp_el)
        k_l[2, 2:4] = 1 / (np.pi * ct_az * st_el), st_az * ct_el / (np.pi * ct_az * st_el ** 2)
        k_l[3, 3] = -1 / (np.pi * st_el)
        k_l[4, 4] = -1 / (2 * np.pi * delta_f)
        np.matmul(k_l, upsilon[l].view(np.float64), out=kappa[l].view(np.float64))
    return kappa


def _gain_sensitivities(factors, transforms, omega, gains, upsilon):
    """The gain pair (B^+, Upsilon_n) and its real stacking Pi.

    B^+ comes from the QR core of B = KR(B_1..B_4, A_5), so Upsilon_n =
    KR(R)^+ KR(Q_m^H B-breve_m) Diag(gamma) is L x L work.
    """
    n_paths, _, j_total = upsilon.shape
    qs, core = channel.khatri_rao_core(factors)
    core_pinv = svd_pinv(core)                       # KR(R)^+, (L, prod r_m)
    b_pinv = np.empty((n_paths, j_total), dtype=np.complex128)
    _tucker_into(core_pinv.reshape((n_paths,) + tuple(q.shape[1] for q in qs)),
                 [q.conj() for q in qs], b_pinv)
    upsilon_gain = np.empty((5, n_paths, n_paths), dtype=np.complex128)
    for n in range(5):
        m_n = factors[4].shape[0] if n == 4 else transforms[n].m
        deriv = 1j * np.arange(m_n)[:, None] * channel.steering_matrix(m_n, omega[:, n])
        if n < 4:
            deriv = transforms[n].t.conj().T @ deriv
        b_breve = channel.khatri_rao([q.conj().T @ (deriv if m == n else f)
                                      for m, (q, f) in enumerate(zip(qs, factors))])
        upsilon_gain[n] = (core_pinv @ b_breve) * gains[None, :]

    # Pi_l = [[Re b, -Im b], [Im b, Re b]] - sum_n [Re c; Im c] [Im v*, Re v*] with b = B^+[l],
    # c = Upsilon_n[l], v = upsilon[:, n]; w is the sum for every l, (re, im) interleaved
    coeff = np.stack([upsilon_gain.real, upsilon_gain.imag], 2).transpose(1, 2, 3, 0)
    w = coeff.reshape(2 * n_paths, -1) @ upsilon.view(np.float64).reshape(5 * n_paths, -1)
    w = w.reshape(n_paths, 2, j_total, 2)
    pi = np.empty((n_paths, 2, 2 * j_total))
    np.add(b_pinv.real, w[:, 0, :, 1], out=pi[:, 0, :j_total])
    np.subtract(-b_pinv.imag, w[:, 0, :, 0], out=pi[:, 0, j_total:])
    np.add(b_pinv.imag, w[:, 1, :, 1], out=pi[:, 1, :j_total])
    np.subtract(b_pinv.real, w[:, 1, :, 0], out=pi[:, 1, j_total:])
    return b_pinv, upsilon_gain, pi


PARAM_KEYS = ("rmse_phi_az", "rmse_phi_el", "rmse_theta_az", "rmse_theta_el",
              "rmse_tau")


def analytic_param_rmse(kit, n0):
    """Per-path closed-form RMSE of angles (rad), delay (s), and gain.

    Each is sqrt(N0 / (2 N_P E_s)) times the stored ||kappa||; the gain uses
    ||Pi||_F. N_P and E_s are the kit's scenario's.
    """
    root = np.sqrt(n0 / (2 * kit.scenario.n_p * kit.scenario.e_s))
    return [{**{key: float(root * v) for key, v in zip(PARAM_KEYS, k_norms)},
             "rmse_gamma": float(root * p_norm)}
            for k_norms, p_norm in zip(kit.kappa_norm, kit.pi_norm)]


def _rotation_jacobian(az, el):
    """d f / d(az, el) for f = [cos az sin el, sin az sin el, cos el]."""
    return np.array([
        [-np.sin(az) * np.sin(el), np.cos(az) * np.cos(el)],
        [np.cos(az) * np.sin(el), np.sin(az) * np.cos(el)],
        [0.0, -np.sin(el)],
    ])


def _psi(paths, kappa, scenario, weights=None):
    """Position sensitivity Psi (3 x J): dp = Im(Psi dh).

    Uses the estimator's localization geometry in the scenario's frame signs,
    with its weight policy unless ``weights`` is given. A direct path (mu = 0)
    contributes the identity constraint, so its projector derivative vanishes
    and only the delta term survives.
    """
    n_paths = len(paths)
    p_r = scenario.p_r
    tx_axis_sign, rx_axis_sign = channel.array_axis_signs(scenario)
    if weights is None:
        weights = slac.path_weights(paths, scenario.weights)
    geos = slac.localization_geometry(paths, scenario.p_t, weights,
                                      tx_axis_sign, rx_axis_sign)
    c_sum = sum(g.c_mat for g in geos)
    evals = np.linalg.eigvalsh(c_sum)
    if evals[0] <= 1e-12 * max(evals[-1], 1e-300):
        raise slac.DegenerateLocalizationError("constraint matrix is singular")
    c_inv = np.linalg.inv(c_sum)

    mirror_t = np.diag([tx_axis_sign, 1.0, 1.0])
    mirror_r = np.diag([rx_axis_sign, 1.0, 1.0])
    # d-breve and e-breve are real, so Psi = conj(M kappa) with M the 3 x 5L
    # stack of both: one real product on kappa's float view
    m = np.zeros((3, n_paths, 5))
    for l, (p, g, w) in enumerate(zip(paths, geos, weights)):
        omega_t = mirror_t @ _rotation_jacobian(p.phi_az, p.phi_el)
        omega_r = mirror_r @ _rotation_jacobian(p.theta_az, p.theta_el)
        d_breve = -SPEED_OF_LIGHT * c_inv @ g.c_mat @ np.column_stack(
            [p.tau * omega_r, g.f_r])
        m[:, l, 2:5] = d_breve
        if g.direct:
            continue
        mu, delta = g.mu, g.delta
        mu2 = mu @ mu
        proj = mu @ (delta - p_r)
        c_breve = w * (2 * proj * np.outer(mu, mu) / mu2 ** 2
                       - (proj * np.eye(3) + np.outer(mu, delta - p_r)) / mu2)
        e_breve = SPEED_OF_LIGHT * c_inv @ c_breve @ np.column_stack(
            [p.tau * omega_t, p.tau * omega_r, g.f_t + g.f_r])
        m[:, l] += e_breve
    psi = (m.reshape(3, -1) @ kappa.view(np.float64).reshape(5 * n_paths, -1)).view(np.complex128)
    np.conjugate(psi, out=psi)
    return psi


def analytic_pos_rmse(kit, n0):
    """Closed-form position RMSE sqrt(N0 / (2 N_P E_s)) ||Psi||_F in meters, stored norm."""
    if kit.psi_norm is None:
        raise InvalidInputError("kit was built with with_position=False: no Psi")
    return float(np.sqrt(n0 / (2 * kit.scenario.n_p * kit.scenario.e_s)) * kit.psi_norm)


def build_kit(paths, transforms, scenario, l5, with_position=True):
    """The complete perturbation kit of one configuration.

    upsilon, then kappa, the gain pair and Pi, and (unless
    ``with_position=False``) Psi, with the norms every analytic RMSE scales.
    """
    gains = np.array([p.gamma for p in paths], dtype=np.complex128)
    if np.any(gains == 0):
        raise InvalidInputError("perturbation needs nonzero path gains")
    omega = np.stack([channel.to_angular(p, scenario.delta_f).omega for p in paths])
    phi = np.exp(1j * omega)
    factors = channel.beamspace_factors(paths, transforms, scenario)

    upsilon = _upsilon(factors, transforms, l5, omega, phi, gains)
    kappa = _kappa(paths, upsilon, scenario.delta_f)
    b_pinv, upsilon_gain, pi = _gain_sensitivities(factors, transforms, omega, gains,
                                                   upsilon)
    psi = _psi(paths, kappa, scenario) if with_position else None
    return PerturbationKit(
        paths=list(paths), scenario=scenario, k5=scenario.m[4] + 1 - l5, omega=omega,
        phi=phi, gains=gains, upsilon=upsilon, kappa=kappa, upsilon_gain=upsilon_gain,
        b_pinv=b_pinv, pi=pi,
        kappa_norm=np.array([[np.linalg.norm(row) for row in k] for k in kappa]),
        pi_norm=np.array([np.linalg.norm(p) for p in pi]),
        psi=psi, psi_norm=None if psi is None else np.linalg.norm(psi))
