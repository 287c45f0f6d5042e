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
is pseudo-inverted through the QR cores of those factors (each factor's QR
taken once per kit), and each xi and B^+ row is a Tucker tensor on that core.
The kit keeps the rows in that form. kappa, Pi and Psi are fixed linear
combinations of the rows {conj(B^+_l), upsilon_{l,n}}, so their norms are
quadratic forms in the rows' Gram. The Gram takes two GEMMs over all rows
at once: of the rows expanded over the four short spatial modes, and of
their long mode-5 factors, never expanded (Bader & Kolda, SIAM J. Sci.
Comput. 2007).

Sign note: the elevation and delay maps enter the angular frequencies with a
negative derivative (w2 = pi cos el, w5 = -2 pi df tau), so kappa_2, kappa_4
and kappa_5 carry a minus sign relative to upsilon; the azimuth rows already
absorb it through the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import channel, slac
from .channel import SPEED_OF_LIGHT
from .kernels import (InvalidInputError, SvdResult, _next_pow2, _numerical_rank, svd_solve,
                      svd_thin)

ANGLE_TOL = 1e-9    # _kappa_maps refuses a path whose |cos az| or |sin el| is below this


class IllPosedScenarioError(ValueError):
    """The noiseless factorization loses rank; sensitivities are undefined."""


class SingularParameterizationError(ValueError):
    """cos(az) or sin(el) vanishes for some path; the angle map is singular."""


@dataclass(frozen=True)
class PerturbationKit:
    """Sensitivities of one (paths, transforms, L5) configuration.

    Built complete by ``build_kit``, which stores every sensitivity row in
    Tucker form and the norms the analytic RMSEs scale. ``psi_norm`` is None
    only for a kit built with ``with_position=False``.
    """

    paths: list
    scenario: object
    k5: int
    omega: np.ndarray            # (L, 5)
    phi: np.ndarray              # (L, 5) unit-circle rotations e^{j omega}
    gains: np.ndarray            # (L,)
    xi_tucker: list              # [l][n] -> (core, 5 factors) of xi_{l,n}
    b_pinv_tucker: tuple         # (cores (L, r_1..r_5), 5 factors) of B^+
    upsilon_gain: np.ndarray     # (5, L, L) Upsilon_n
    kappa_norm: np.ndarray       # (L, 5) ||kappa[l, n]||
    pi_norm: np.ndarray          # (L,) ||pi[l]||_F
    psi_norm: float | None = None        # ||psi||_F


def _per_shape(fn, mats):
    """``fn`` of every matrix in ``mats``, as one stacked call per distinct shape.

    ``fn`` is a stacking LAPACK driver (``np.linalg.qr``, ``np.linalg.svd``);
    entry i is the list of its outputs for ``mats[i]``.
    """
    by_shape = {}
    for i, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(i)
    out = [None] * len(mats)
    for idx in by_shape.values():
        for i, *parts in zip(idx, *fn(np.stack([mats[i] for i in idx]))):
            out[i] = parts
    return out


def _gram(rows):
    """Hermitian Gram G[a, b] = <row_a, row_b> of Tucker rows (core, factors).

    Every row is padded to common per-mode ranks with zero core slices and
    zero factor columns, which leaves it unchanged, and expanded over the four
    short spatial modes into a B x r_5 block X_a (B = N_1 N_2 N_3 N_4), so that
    row_a = X_a F_{a,5}^T with the long mode-5 factor kept apart. Then
    <row_a, row_b> sums (X_a^H X_b) * (F_{a,5}^H F_{b,5}) over its r_5 x r_5
    entries: G is the blockwise sum of the Hadamard product of two GEMMs, the
    spatial and the mode-5 cross-Grams of all rows at once.
    """
    n_rows = len(rows)
    ranks = [max(factors[m].shape[1] for _, factors in rows) for m in range(5)]
    cores = np.zeros((n_rows, *ranks), dtype=np.complex128)
    spatial = [np.zeros((n_rows, rows[0][1][m].shape[0], r), dtype=np.complex128)
               for m, r in enumerate(ranks[:4])]
    f5 = np.zeros((n_rows, ranks[4], rows[0][1][4].shape[0]), dtype=np.complex128)
    for a, (core, factors) in enumerate(rows):
        cores[(a,) + tuple(map(slice, core.shape))] = core
        for f, factor in zip(spatial, factors):
            f[a, :, :factor.shape[1]] = factor
        f5[a, :factors[4].shape[1]] = factors[4].T
    # each step contracts the leading spatial rank and appends that mode's
    # beams last, ending at (row, r_5, N_1..N_4)
    x = cores
    for f in spatial:
        x = (f @ x.reshape(n_rows, f.shape[2], -1)).transpose(0, 2, 1)
    x = x.reshape(n_rows * ranks[4], -1)
    f5 = f5.reshape(n_rows * ranks[4], -1)
    cross = (x.conj() @ x.T) * (f5.conj() @ f5.T)
    return cross.reshape(n_rows, ranks[4], n_rows, ranks[4]).sum(axis=(1, 3))


def _xi_tucker(mode_qs, sel_qs, transforms, lam_cores, chi, phi):
    """Frequency-error rows xi for every (path, dim) in Tucker form, [l][n] -> (core, factors).

    From the noiseless H = P Diag(gamma) G^T: lambda_l = (J2 - Phi J1)^H u_l^*,
    with u_l^T row l of (J1 P)^+, lives on the smoothed stack and chi_l on the
    window; their blockwise convolution lifts the pair onto the observation
    as xi_{l,n}, and upsilon_{l,n} = xi_{l,n} phi_{l,n} / conj(gamma_l).
    As J1 P = KR(C_m) (selector on factor n), lambda_l is a Tucker tensor with
    core ``lam_cores[n][l]`` = conj(row l of KR(R_m)^+), factors Q_m
    (``mode_qs``: of B_1..B_4 and of the K5-row A_5), and (J2^H - conj(phi) J1^H) Q_n
    in mode n, Q_n from ``sel_qs`` (of J1 B_n, and of A_5 less its last row).
    The convolution with chi_l acts on the mode-5 factor alone: every mode-5
    column meets every column of ``chi`` in one batched FFT convolution.
    The frequency selectors keep the leading and the trailing K5 - 1 rows.
    """
    n_paths = phi.shape[0]
    k5, r5 = mode_qs[4].shape
    j_pairs = [(t.l1.conj().T @ q, t.l2.conj().T @ q) for t, q in zip(transforms, sel_qs)]
    j1q, j2q = np.zeros((2, k5, sel_qs[4].shape[1]), dtype=np.complex128)
    j1q[:-1], j2q[1:] = sel_qs[4], sel_qs[4]
    # windows[l] (M5 x columns) convolves each of [Q_5 | J1^H q | J2^H q] with chi_l
    m5 = k5 + chi.shape[0] - 1
    nfft = _next_pow2(m5)
    columns = np.fft.fft(np.concatenate([mode_qs[4], j1q, j2q], axis=1), nfft, axis=0)
    windows = np.fft.ifft(np.fft.fft(chi.T, nfft)[:, :, None] * columns, axis=1)[:, :m5]
    j_pairs.append(np.split(windows[:, :, r5:], 2, axis=2))     # mode 5: per path, windowed

    rows = [[None] * 5 for _ in range(n_paths)]
    for n, (j1, j2) in enumerate(j_pairs):
        lam_n = j2 - np.conj(phi[:, n])[:, None, None] * j1
        for l in range(n_paths):
            lam = mode_qs[:4] + [windows[l, :, :r5]]
            lam[n] = lam_n[l]
            rows[l][n] = (lam_cores[n][l], lam)
    return rows


def _kappa_maps(paths, delta_f):
    """Per-path real 5 x 5 maps K_l with kappa_l = K_l upsilon_l, (L, 5, 5)."""
    maps = np.zeros((len(paths), 5, 5))
    for l, p in enumerate(paths):
        sp_el, cp_el = np.sin(p.phi_el), np.cos(p.phi_el)
        st_el, ct_el = np.sin(p.theta_el), np.cos(p.theta_el)
        cp_az, sp_az = np.cos(p.phi_az), np.sin(p.phi_az)
        ct_az, st_az = np.cos(p.theta_az), np.sin(p.theta_az)
        if abs(cp_az) < ANGLE_TOL or abs(ct_az) < ANGLE_TOL:
            raise SingularParameterizationError(
                f"cos(az) ~ 0 on path {l}: azimuth sensitivity diverges")
        if abs(sp_el) < ANGLE_TOL or abs(st_el) < ANGLE_TOL:
            raise SingularParameterizationError(
                f"sin(el) ~ 0 on path {l}")
        k_l = maps[l]
        k_l[0, :2] = 1 / (np.pi * cp_az * sp_el), sp_az * cp_el / (np.pi * cp_az * sp_el ** 2)
        k_l[1, 1] = -1 / (np.pi * sp_el)
        k_l[2, 2:4] = 1 / (np.pi * ct_az * st_el), st_az * ct_el / (np.pi * ct_az * st_el ** 2)
        k_l[3, 3] = -1 / (np.pi * st_el)
        k_l[4, 4] = -1 / (2 * np.pi * delta_f)
    return maps


def _gain_sensitivities(factors, fac_qrs, core_pinv, transforms, omega, gains):
    """The gain pair: B^+ in Tucker form, (cores, factors), and Upsilon_n.

    B^+ = KR(R)^+ (Q_1 x .. x Q_5)^H from the QR factors of B = KR(B_1..B_4,
    A_5), so Upsilon_n = KR(R)^+ KR(Q_m^H B-breve_m) Diag(gamma) is L x L work.
    B-breve_m is B_m (whose Q_m^H B_m is R_m) but its derivative in mode n, and
    the five Khatri-Rao products are formed as one stack over n.
    """
    n_paths = omega.shape[0]
    qs = [q for q, _ in fac_qrs]
    b_pinv_tucker = (core_pinv.reshape((n_paths,) + tuple(q.shape[1] for q in qs)),
                     [q.conj() for q in qs])
    b_breve = np.ones((5, 1, n_paths), dtype=np.complex128)
    for m, (q, r) in enumerate(fac_qrs):
        a = factors[4] if m == 4 else channel.steering_matrix(transforms[m].m, omega[:, m])
        deriv = 1j * np.arange(a.shape[0])[:, None] * a
        if m < 4:
            deriv = transforms[m].t.conj().T @ deriv
        mode = np.repeat(r[None], 5, axis=0)
        mode[m] = q.conj().T @ deriv
        b_breve = (b_breve[:, :, None] * mode[:, None]).reshape(5, -1, n_paths)
    return b_pinv_tucker, (core_pinv @ b_breve) * gains


PARAM_KEYS = ("rmse_phi_az", "rmse_phi_el", "rmse_theta_az", "rmse_theta_el",
              "rmse_tau")


def _noise_root(kit, n0):
    """sqrt(N0 / (2 N_P E_s)) with the kit's scenario's N_P and E_s."""
    if not (np.isfinite(n0) and n0 >= 0):
        raise InvalidInputError(f"noise level n0 must be finite and >= 0, got {n0!r}")
    return np.sqrt(n0 / (2 * kit.scenario.n_p * kit.scenario.e_s))


def analytic_param_rmse(kit, n0):
    """Per-path closed-form RMSE of angles (rad), delay (s), and gain.

    Each is sqrt(N0 / (2 N_P E_s)) times the stored ||kappa||; the gain uses
    ||Pi||_F. N_P and E_s are the kit's scenario's.
    """
    root = _noise_root(kit, n0)
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


def _position_map(paths, scenario, weights=None):
    """The real (3, L, 5) map M with Psi = conj(M kappa).

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
    c_inv = np.linalg.inv(slac.constraint_sum(geos)[0])

    mirror_t = np.diag([tx_axis_sign, 1.0, 1.0])
    mirror_r = np.diag([rx_axis_sign, 1.0, 1.0])
    # d-breve and e-breve are real, so M stacks both for every path
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
    return m


def analytic_pos_rmse(kit, n0):
    """Closed-form position RMSE sqrt(N0 / (2 N_P E_s)) ||Psi||_F in meters, stored norm."""
    root = _noise_root(kit, n0)
    if kit.psi_norm is None:
        raise InvalidInputError("kit was built with with_position=False: no Psi")
    return float(root * kit.psi_norm)


def _norms(gram, kappa_maps, upsilon_gain, position_map):
    """||kappa_{l,i}||, ||Pi_l||_F and ||Psi||_F (None without ``position_map``).

    ``gram`` is the Gram of the rows conj(B^+_l), then upsilon_{l,n} in
    C-order. Each sensitivity is a fixed combination c of these rows, so its
    squared norm is c^H G c: kappa_l = K_l upsilon_l, Psi = conj(M kappa), and
    the two rows of Pi_l are the real stackings of
    z0 = conj(b_l) - i sum_{n,l'} Re(Upsilon_n[l, l']) upsilon_{l',n} and
    z1 = i conj(b_l) - i sum_{n,l'} Im(Upsilon_n[l, l']) upsilon_{l',n}.
    """
    n_paths = len(kappa_maps)
    eye = np.eye(n_paths)

    def sq_norms(b_coeffs, upsilon_coeffs):
        c = np.concatenate([b_coeffs, upsilon_coeffs.reshape(b_coeffs.shape[:-1] + (-1,))],
                           axis=-1)
        return ((c.conj() @ gram) * c).sum(axis=-1).real

    kappa_norm = np.sqrt(sq_norms(np.zeros((n_paths, 5, n_paths)),
                                  np.einsum("lm,lin->limn", eye, kappa_maps)))
    gain_parts = np.stack([upsilon_gain.real, upsilon_gain.imag], 2)     # (5, L, 2, L')
    pi_sq = sq_norms(np.stack([eye, 1j * eye], axis=1), -1j * gain_parts.transpose(1, 2, 3, 0))
    if position_map is None:
        return kappa_norm, np.sqrt(pi_sq.sum(axis=1)), None
    psi_sq = sq_norms(np.zeros((3, n_paths)),
                      np.einsum("rli,lin->rln", position_map, kappa_maps))
    return kappa_norm, np.sqrt(pi_sq.sum(axis=1)), np.sqrt(psi_sq.sum())


def build_kit(paths, transforms, scenario, l5, with_position=True):
    """The complete perturbation kit of one configuration.

    xi's and B^+'s rows in Tucker form, the gain coupling Upsilon_n, and the
    norms of kappa, Pi and (unless ``with_position=False``) Psi, which every
    analytic RMSE scales. An ``l5`` below the path count, which no smoothing
    estimator can run, raises ``IllPosedScenarioError``, and so do paths that
    leave J1 P (in some dimension) or the window factor A5 rank deficient.
    """
    gains = np.array([p.gamma for p in paths], dtype=np.complex128)   # a None reads nan
    if not np.all(np.isfinite(gains)) or np.any(gains == 0):
        raise InvalidInputError("perturbation needs finite nonzero path gains")
    if l5 < len(paths):
        raise IllPosedScenarioError(f"l5={l5} smoothing columns cannot hold "
                                    f"{len(paths)} paths")
    omega = channel.path_omegas(paths, scenario.delta_f)
    phi = np.exp(1j * omega)
    n_paths = len(paths)
    factors = channel.steering_factors(omega, transforms, scenario.m[4])
    p5 = factors[4][:scenario.m[4] + 1 - l5]      # A_5's leading K5 rows
    # every QR of the kit, one LAPACK call per shape: of B_1..B_4 and A_5
    # (B^+), of J1 B_n and of A_5's K5-row window less its last row (xi's
    # mode n), and of that K5-row window (xi's mode 5)
    qrs = _per_shape(np.linalg.qr, factors + [t.l1 @ f for t, f in zip(transforms, factors)]
                     + [p5[:-1], p5])
    fac_qrs, sel_qrs, xi_qrs = qrs[:5], qrs[5:10], qrs[:4] + qrs[10:]
    # the QR cores KR(R_m): of J1 P in every dimension (the selector on
    # factor n), then of B, with one SVD per shape
    core_rs = [[r for _, r in xi_qrs[:n] + [sel_qrs[n]] + xi_qrs[n + 1:]] for n in range(5)]
    core_rs.append([r for _, r in fac_qrs])
    svds = _per_shape(partial(np.linalg.svd, full_matrices=False),
                      [channel.khatri_rao(rs) for rs in core_rs])
    for n, (_, s, _) in enumerate(svds[:5]):
        if _numerical_rank(s) < n_paths:
            raise IllPosedScenarioError(f"J1 P rank deficient in dimension {n + 1}")
    # the smoothed stack's window factor A5 (l5 x L): pseudo-inverted as chi,
    # so it needs full rank too, which two paths with one delay deny it
    window = svd_thin(factors[4][:l5].T)
    if _numerical_rank(window.singular_values) < n_paths:
        raise IllPosedScenarioError(f"the l5={l5}-column window factor A5 is rank "
                                    f"deficient: two paths share a delay")
    # each core C (r x L, r up to N^4 K5) as (C^+)^H = (C^H)^+ I_L: C^H's SVD is
    # the same triplets swapped, and the identity is L x L, not r x r
    pinvs = [svd_solve(SvdResult(vh.conj().T, s, u), np.eye(n_paths)).conj().T
             for u, s, vh in svds]
    lam_cores = [p.conj().reshape((n_paths,) + tuple(r.shape[0] for r in rs))
                 for p, rs in zip(pinvs[:5], core_rs)]
    xi_tucker = _xi_tucker([q for q, _ in xi_qrs], [q for q, _ in sel_qrs], transforms,
                           lam_cores, svd_solve(window, np.eye(n_paths)).conj(), phi)
    kappa_maps = _kappa_maps(paths, scenario.delta_f)
    b_pinv_tucker, upsilon_gain = _gain_sensitivities(factors, fac_qrs, pinvs[5], transforms,
                                                      omega, gains)
    position_map = _position_map(paths, scenario) if with_position else None
    # the Gram of the rows conj(B^+_l), then upsilon_{l,n} = xi_{l,n} phi_{l,n} / conj(gamma_l)
    qs = [q for q, _ in fac_qrs]
    rows = ([(c.conj(), qs) for c in b_pinv_tucker[0]]
            + [piece for row in xi_tucker for piece in row])
    scale = np.concatenate([np.ones(len(paths)),
                            (phi / np.conj(gains)[:, None]).reshape(-1)])
    gram = _gram(rows) * np.outer(scale.conj(), scale)
    kappa_norm, pi_norm, psi_norm = _norms(gram, kappa_maps, upsilon_gain, position_map)
    return PerturbationKit(
        paths=list(paths), scenario=scenario, k5=scenario.m[4] + 1 - l5, omega=omega,
        phi=phi, gains=gains, xi_tucker=xi_tucker, b_pinv_tucker=b_pinv_tucker,
        upsilon_gain=upsilon_gain, kappa_norm=kappa_norm, pi_norm=pi_norm,
        psi_norm=psi_norm)
