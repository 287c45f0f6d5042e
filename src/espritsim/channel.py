"""Geometric multipath channel synthesis and the beamspace observation model.

Conventions (fixed once here, consumed everywhere):

* Arrays are URAs in the y-z plane with half-wavelength spacing; dimension
  order is (1, 2) = transmit (y, z), (3, 4) = receive (y, z), 5 = subcarrier.
* A unit direction ``f = [cos(az) sin(el), sin(az) sin(el), cos(el)]`` is
  expressed in the owning array's frame. Each array's frame keeps azimuths in
  (-pi/2, pi/2): the local x axis points toward the half-space containing the
  far end of every path (known orientation). ``array_axis_signs`` reports the
  local-to-global x-axis sign per side so downstream geometry can undo it.
* Angular frequencies per path: w1 = pi sin(phi_az) sin(phi_el),
  w2 = pi cos(phi_el), w3/w4 likewise for the arrival angles, and
  w5 = wrap(-2 pi df tau).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import shift
from .kernels import EstimationError, InvalidInputError, svd_thin

SPEED_OF_LIGHT = 299792458.0

DIRECTIONAL_BEAM_SPACING = np.pi / 8
CLAMP_MARGIN = 1e-9  # clamp_freqs keeps |w2|, |w4| <= pi (1 - CLAMP_MARGIN)

# the steering-grid kinds a scenario can point from its path prior
_SCENARIO_BEAM_KINDS = ("dft", "directional")
_SCENARIO_KEYS = frozenset({
    "p_t", "p_r", "scatterers", "m", "n", "delta_f_hz", "carrier_hz", "n_p",
    "n_c", "e_s", "seed", "beam_kind", "nlos_power_scale", "weights"})


class DegenerateGeometryError(ValueError):
    """Scenario geometry does not admit the angular parameterization."""


class OutOfDomainError(EstimationError, ValueError):
    """Angular frequencies outside the invertible domain of the parameter map."""


class UnderdeterminedPilotError(ValueError):
    """Fewer pilot blocks than transmit beams."""


class SingularTransformError(ValueError):
    """Beam grid with duplicate frequencies."""


@dataclass(frozen=True)
class PathParams:
    """Geometric parameters of one propagation path (angles in array frames)."""

    phi_az: float
    phi_el: float
    theta_az: float
    theta_el: float
    tau: float
    gamma: complex | None = None

    def angles(self):
        return np.array([self.phi_az, self.phi_el, self.theta_az, self.theta_el])


@dataclass(frozen=True)
class BeamTransform:
    """Per-dimension steering-grid transform with its shift-invariance data.

    ``t`` is M_n x N_n (columns are beams, steering vectors of ``grid``),
    ``f`` is the diagonal shift matrix with J1 t = J2 t f, and ``l1``/``l2``
    are the modified selectors Q and Q f^H for the restoring projector Q.
    """

    t: np.ndarray
    f: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    grid: np.ndarray

    @property
    def m(self):
        return self.t.shape[0]

    @property
    def n(self):
        return self.t.shape[1]


@dataclass(frozen=True)
class Scenario:
    """Geometry, array/beam configuration and OFDM numerology for one setup."""

    p_t: np.ndarray
    p_r: np.ndarray
    scatterers: tuple
    m: tuple            # (M1, M2, M3, M4, M5)
    n: tuple            # (N1, N2, N3, N4) beam counts
    delta_f: float
    f_c: float
    n_p: int
    n_c: int
    e_s: float
    seed: int
    beam_kind_tx: str = "dft"
    beam_kind_rx: str = "dft"
    nlos_power_scale: float = 0.1
    weights: str = "uniform"  # localization weights: uniform | gain

    def __post_init__(self):
        object.__setattr__(self, "p_t", np.asarray(self.p_t, dtype=float))
        object.__setattr__(self, "p_r", np.asarray(self.p_r, dtype=float))
        object.__setattr__(self, "scatterers",
                           tuple(np.asarray(s, dtype=float) for s in self.scatterers))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if len(self.m) != 5 or len(self.n) != 4:
            raise InvalidInputError("scenario needs 5 array sizes and 4 beam counts")
        if self.m[4] < 2:
            raise InvalidInputError("need at least two subcarriers")
        for kind in (self.beam_kind_tx, self.beam_kind_rx):
            if kind not in _SCENARIO_BEAM_KINDS:
                raise InvalidInputError(
                    f"beam kind {kind!r} not in {_SCENARIO_BEAM_KINDS}")
        over = [i + 1 for i in range(4) if self.n[i] > self.m[i]]
        if over:
            raise InvalidInputError(f"more beams than elements in dimensions {over}")
        for name in ("e_s", "nlos_power_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name}={getattr(self, name)} must be finite and > 0")
        if self.n_c < self.n_p:
            raise InvalidInputError(f"n_c={self.n_c} < n_p={self.n_p}: more pilots than symbols")
        if self.n_p < self.n[0] * self.n[1]:
            raise UnderdeterminedPilotError(
                f"N_P={self.n_p} < N1*N2={self.n[0] * self.n[1]} transmit beams")

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.f_c

    @property
    def num_paths(self):
        return 1 + len(self.scatterers)

    @classmethod
    def from_dict(cls, d):
        """A scenario from its config entries, refusing at load what set-up
        cannot build: the geometry and beam grids are built once here."""
        unknown = sorted(set(d) - _SCENARIO_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown scenario keys: {unknown}")
        scenario = cls(
            p_t=_position("p_t", d["p_t"]), p_r=_position("p_r", d["p_r"]),
            scatterers=[_position(f"scatterers[{i}]", s)
                        for i, s in enumerate(d.get("scatterers", []))],
            m=[_integer(f"m[{i}]", v) for i, v in enumerate(d["m"])],
            n=[_beam_count(f"n[{i}]", v) for i, v in enumerate(d["n"])],
            delta_f=_positive("delta_f_hz", d["delta_f_hz"]),
            f_c=_positive("carrier_hz", d["carrier_hz"]),
            n_p=_integer("n_p", d["n_p"]), n_c=_integer("n_c", d.get("n_c", 600)),
            e_s=_positive("e_s", d.get("e_s", 1.0)),
            seed=_integer("seed", d.get("seed", 0)),
            beam_kind_tx=_beam_kind(d, "tx"), beam_kind_rx=_beam_kind(d, "rx"),
            nlos_power_scale=_positive("nlos_power_scale", d.get("nlos_power_scale", 0.1)),
            weights=d.get("weights", "uniform"),
        )
        scenario_transforms(scenario, params_from_geometry(scenario))
        return scenario

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _integer(key, value):
    """``value`` of scenario entry ``key``; refused unless it is an integer (a
    bool is not), so a fractional count is never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"scenario {key}={value!r} must be an integer")
    return value


def _beam_count(key, value):
    """``_integer`` of scenario entry ``key``, refused below the
    ``shift.MIN_BEAMS`` beams a restoring projector needs."""
    value = _integer(key, value)
    if value < shift.MIN_BEAMS:
        raise InvalidInputError(f"scenario {key}={value} is below the "
                                f"{shift.MIN_BEAMS} beams a dimension needs")
    return value


def _is_real(value):
    """True for a real number; a bool (JSON true/false) and a string are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive(key, value):
    """``value`` of scenario entry ``key`` as a float; refused unless a real
    number, finite and > 0."""
    if not _is_real(value):
        raise InvalidInputError(f"scenario {key}={value!r} must be a real number")
    value = float(value)
    if not 0 < value < np.inf:
        raise InvalidInputError(f"scenario {key}={value!r} must be finite and > 0")
    return value


def _position(key, value):
    """``value`` of scenario entry ``key`` as a position; refused unless a finite
    3-vector of real numbers."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3
            and all(_is_real(v) and np.isfinite(v) for v in value)):
        raise InvalidInputError(f"scenario {key}={value!r} must be a finite 3-vector "
                                f"of real numbers")
    return np.asarray(value, dtype=float)


def _beam_kind(d, side):
    """The beam kind of ``side`` (``tx`` or ``rx``): one kind for both, or a
    dict refused unless its keys are exactly ``tx`` and ``rx``."""
    kind = d.get("beam_kind", "dft")
    if isinstance(kind, dict):
        if set(kind) != {"tx", "rx"}:
            raise InvalidInputError(
                f"scenario beam_kind keys {sorted(kind)} must be exactly ['rx', 'tx']")
        return kind[side]
    return kind


def steering_vector(m, omega):
    """Vandermonde steering vector: entry k (0-based) is exp(j k omega)."""
    if m < 1:
        raise InvalidInputError("steering_vector needs m >= 1")
    return np.exp(1j * omega * np.arange(m))


def steering_matrix(m, omegas):
    """Columns are steering vectors of the given frequencies."""
    omegas = np.asarray(omegas, dtype=float)
    return np.exp(1j * np.outer(np.arange(m), omegas))


def wrap_angle(w):
    """Wrap to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(w, dtype=float)))


def array_axis_signs(scenario):
    """Local-to-global x-axis sign for the (transmit, receive) array frames.

    The transmit frame looks toward the receiver-side half-space, the receive
    frame toward the transmitter side; every path endpoint must lie strictly
    in that half-space, otherwise azimuths leave the resolvable branch.
    """
    tx_targets = [scenario.p_r] + list(scenario.scatterers)
    rx_sources = [scenario.p_t] + list(scenario.scatterers)
    tx_dx = np.array([p[0] - scenario.p_t[0] for p in tx_targets])
    rx_dx = np.array([p[0] - scenario.p_r[0] for p in rx_sources])
    if np.any(tx_dx == 0) or np.any(rx_dx == 0):
        raise DegenerateGeometryError("path endpoint in an array's broadside plane")
    if len(set(np.sign(tx_dx))) > 1 or len(set(np.sign(rx_dx))) > 1:
        raise DegenerateGeometryError("paths straddle both azimuth half-spaces")
    return float(np.sign(tx_dx[0])), float(np.sign(rx_dx[0]))


def _unit(v):
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise DegenerateGeometryError("zero-length path segment")
    return v / nrm


def _angles_of(direction, axis_sign):
    """(az, el) of a global unit direction, expressed in an array frame."""
    local = direction.copy()
    local[0] *= axis_sign
    el = np.arccos(np.clip(local[2], -1.0, 1.0))
    if np.sin(el) < 1e-12:
        raise DegenerateGeometryError("elevation at a pole (sin el = 0)")
    az = np.arctan2(local[1], local[0])
    if not (-np.pi / 2 < az < np.pi / 2):
        raise DegenerateGeometryError("azimuth outside the resolvable branch")
    return float(az), float(el)


def direction_from_angles(az, el, axis_sign=1.0):
    """Global unit direction for array-frame (az, el)."""
    local = np.array([np.cos(az) * np.sin(el), np.sin(az) * np.sin(el), np.cos(el)])
    local[0] *= axis_sign
    return local


def params_from_geometry(scenario):
    """Per-path geometric parameters for a scenario; path 0 is the LOS path.

    Gain magnitudes follow |gamma|^2 = varsigma * (lambda / (4 pi d))^2 with
    varsigma = 1 for the LOS path and ``scenario.nlos_power_scale`` otherwise;
    phases are drawn uniformly from the ``SeedSequence(scenario.seed,
    spawn_key=(0xA1,))`` stream, so they are deterministic in the seed.
    """
    p_t, p_r = scenario.p_t, scenario.p_r
    if np.allclose(p_t, p_r):
        raise DegenerateGeometryError("transmitter and receiver coincide")
    tx_sign, rx_sign = array_axis_signs(scenario)
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(0xA1,)))
    lam = scenario.wavelength

    paths = []
    los_d = np.linalg.norm(p_r - p_t)
    phi = _angles_of(_unit(p_r - p_t), tx_sign)
    theta = _angles_of(_unit(p_t - p_r), rx_sign)
    paths.append((phi, theta, los_d / SPEED_OF_LIGHT, 1.0, los_d))

    for p_s in scenario.scatterers:
        d_t = np.linalg.norm(p_s - p_t)
        d_r = np.linalg.norm(p_r - p_s)
        phi = _angles_of(_unit(p_s - p_t), tx_sign)
        theta = _angles_of(_unit(p_s - p_r), rx_sign)
        paths.append((phi, theta, (d_t + d_r) / SPEED_OF_LIGHT,
                      scenario.nlos_power_scale, d_t + d_r))

    out = []
    for (phi, theta, tau, varsigma, dist) in paths:
        mag = np.sqrt(varsigma) * lam / (4 * np.pi * dist)
        phase = rng.uniform(0.0, 2 * np.pi)
        out.append(PathParams(phi_az=phi[0], phi_el=phi[1],
                              theta_az=theta[0], theta_el=theta[1],
                              tau=tau, gamma=mag * np.exp(1j * phase)))
    return out


def to_angular(p, delta_f):
    """The (5,) angular frequencies of a path, dimensions 1..5, each in
    (-pi, pi]; delay maps to w5 = wrap(-2 pi df tau)."""
    return np.array([
        np.pi * np.sin(p.phi_az) * np.sin(p.phi_el),
        np.pi * np.cos(p.phi_el),
        np.pi * np.sin(p.theta_az) * np.sin(p.theta_el),
        np.pi * np.cos(p.theta_el),
        wrap_angle(-2 * np.pi * delta_f * p.tau),
    ])


def path_omegas(paths, delta_f):
    """The (L, 5) angular frequencies of ``paths``, one ``to_angular`` row each."""
    return np.stack([to_angular(p, delta_f) for p in paths])


def from_angular(w, delta_f):
    """Invert ``to_angular`` on the restricted domain (gain left unset).

    Raises InvalidInputError unless ``w`` is a 5-vector, and OutOfDomainError
    when |w2| or |w4| reaches pi, or when the azimuth ratio w1 / (pi sin el)
    leaves [-1, 1].
    """
    om = np.asarray(w, dtype=float)
    if om.shape != (5,):
        raise InvalidInputError(f"from_angular needs 5 frequencies, got shape {om.shape}")
    if abs(om[1]) >= np.pi or abs(om[3]) >= np.pi:
        raise OutOfDomainError("elevation frequency at or beyond pi")
    phi_el = np.arccos(om[1] / np.pi)
    theta_el = np.arccos(om[3] / np.pi)
    r1 = om[0] / (np.pi * np.sin(phi_el))
    r3 = om[2] / (np.pi * np.sin(theta_el))
    if abs(r1) > 1 or abs(r3) > 1:
        raise OutOfDomainError("azimuth frequency inconsistent with elevation")
    tau = (-om[4] / (2 * np.pi * delta_f)) % (1.0 / delta_f)
    return PathParams(phi_az=float(np.arcsin(r1)), phi_el=float(phi_el),
                      theta_az=float(np.arcsin(r3)), theta_el=float(theta_el),
                      tau=float(tau), gamma=None)


def clamp_freqs(omega):
    """Pull a 5-vector of frequencies into the invertible domain.

    Returns (clamped vector, True if anything moved). Heavy noise can push
    elevation/azimuth frequencies out of range; estimators clamp and flag
    rather than fail the trial.
    """
    om = np.array(omega, dtype=float)
    lim = np.pi * (1 - CLAMP_MARGIN)
    clamped = False
    for i in (1, 3):
        if abs(om[i]) > lim:
            om[i] = np.sign(om[i]) * lim
            clamped = True
    for i_az, i_el in ((0, 1), (2, 3)):
        bound = np.pi * np.sin(np.arccos(om[i_el] / np.pi))
        if abs(om[i_az]) > bound:
            om[i_az] = np.sign(om[i_az]) * bound
            clamped = True
    return om, clamped


def beam_focus(scenario, paths):
    """Per-dimension midpoint of the true path frequencies (prior knowledge).

    Beam grids are pointed from the scenario geometry, mirroring a system that
    selects beams from prior user/scatterer location information.
    """
    w = path_omegas(paths, scenario.delta_f)
    return 0.5 * (w[:, :4].min(axis=0) + w[:, :4].max(axis=0))


def dft_grid(m_n, n_n, focus):
    """The n_n frequencies of the m_n-point DFT grid closest to ``focus``."""
    bins = wrap_angle(2 * np.pi * np.arange(m_n) / m_n)
    dist = np.abs(wrap_angle(bins - focus))
    order = np.lexsort((np.arange(m_n), dist))
    chosen = np.sort(wrap_angle(bins[order[:n_n]] - focus) + focus)
    return chosen


def directional_grid(n_n, focus):
    """n_n beams ``DIRECTIONAL_BEAM_SPACING`` apart, centered on ``focus``."""
    offsets = DIRECTIONAL_BEAM_SPACING * (np.arange(n_n) - (n_n - 1) / 2.0)
    return focus + offsets


def make_beam_transform(m_n, grid):
    """The steering-grid transform T_n of the beam frequencies ``grid`` on an
    m_n-element array, with its shift-invariance data.

    Columns are steering vectors scaled by 1/sqrt(m_n), one per grid entry.
    """
    grid = np.asarray(grid, dtype=float)
    wrapped = np.sort(wrap_angle(grid))
    if np.any(np.abs(np.diff(wrapped)) < 1e-12):
        raise SingularTransformError("duplicate beam frequencies")

    t = steering_matrix(m_n, grid) / np.sqrt(m_n)
    f = np.diag(np.exp(-1j * grid))
    q = shift.restore_projector(t, f)
    return BeamTransform(t=t, f=f, l1=q, l2=q @ f.conj().T, grid=grid)


def scenario_transforms(scenario, paths):
    """The four spatial beam transforms pointed at ``paths`` (the scenario's
    prior), on each side's ``dft_grid`` or ``directional_grid``."""
    focus = beam_focus(scenario, paths)
    kinds = [scenario.beam_kind_tx] * 2 + [scenario.beam_kind_rx] * 2
    grids = [dft_grid(scenario.m[i], scenario.n[i], focus[i]) if kinds[i] == "dft"
             else directional_grid(scenario.n[i], focus[i]) for i in range(4)]
    return tuple(make_beam_transform(scenario.m[i], grids[i]) for i in range(4))


def beamspace_factors(paths, transforms, scenario):
    """Per-dimension factor matrices B_n = T_n^H A_n (n = 1..4) and A_5."""
    return steering_factors(path_omegas(paths, scenario.delta_f), transforms, scenario.m[4])


def steering_factors(omegas, transforms, m5):
    """``beamspace_factors`` of the (L, 5) angular frequencies ``omegas``."""
    factors = []
    for i in range(4):
        t = transforms[i].t
        a_n = steering_matrix(t.shape[0], omegas[:, i])
        factors.append(t.conj().T @ a_n)
    factors.append(steering_matrix(m5, omegas[:, 4]))
    return factors


# Contraction order of synth_beamspace_tensor: the gains into B1, then the
# factors pairwise. It is the order optimize=True finds on the shipped
# configs; fixing it spares every call einsum's path search.
_SYNTH_EINSUM_PATH = ("einsum_path", (0, 5), (0, 1), (0, 2), (1, 2), (0, 1))


def synth_beamspace_tensor(paths, transforms, scenario):
    """Noiseless beamspace channel tensor of shape (N1, N2, N3, N4, M5)."""
    if not paths:
        raise InvalidInputError("need at least one path")
    gains = np.array([p.gamma for p in paths], dtype=np.complex128)
    b1, b2, b3, b4, b5 = beamspace_factors(paths, transforms, scenario)
    return np.einsum("al,bl,cl,dl,el,l->abcde", b1, b2, b3, b4, b5, gains,
                     optimize=_SYNTH_EINSUM_PATH)


def khatri_rao(mats):
    """Columnwise Kronecker product of a list of (m_i, L) matrices."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, m.shape[1])
    return out


def khatri_rao_core(mats):
    """Per-mode QR A_n = Q_n R_n and the thin SVD of the core KR(R_n).

    KR(A_n) = (Q_1 x .. x Q_N) KR(R_n), and the Kronecker factor has
    orthonormal columns: the core keeps the singular values, and
    pinv(KR(A_n)) = KR(R_n)^+ (Q_1 x .. x Q_N)^H, so the long product is never
    formed. Returns (list of Q_n, SvdResult of the core).
    """
    qrs = [np.linalg.qr(a) for a in mats]
    return [q for q, _ in qrs], svd_thin(khatri_rao([r for _, r in qrs]))


def observe_and_estimate(tensor, scenario, rng, n0):
    """Noisy beamspace channel estimate from the pilot stage at noise level ``n0``.

    The estimation error is drawn with its known statistics: iid circular
    Gaussian, variance N0 / (N_P E_s) per entry, as correlating the pilot
    transmission Y = H S + Z with S^H (S S^H = N_P E_s I) leaves it.
    """
    tensor = np.asarray(tensor, dtype=np.complex128)
    n0 = float(n0)
    if n0 == 0.0:
        return tensor.copy()
    # tensor + c (a + 1j b) part by part: the same draws in the same order
    # and the same roundings, without the complex temporaries
    c = np.sqrt(n0 / (scenario.n_p * scenario.e_s) / 2)
    est = tensor.copy()
    draw = rng.standard_normal(tensor.shape)
    draw *= c
    est.real += draw
    rng.standard_normal(out=draw)
    draw *= c
    est.imag += draw
    return est


def link_metrics(paths, transforms, scenario, n0):
    """SNR before combining at noise level ``n0``, with the signal power and
    the noise power per unit N0 it is the ratio of.

    SNR = E_s sum_m ||H_m F||_F^2 / sum_m E||Z_m||^2 with F = (T1 (x) T2)^*
    and Z_m the beamspace pilot noise (N3 N4 x N_P entries of variance N0).
    The subcarrier sum collapses to a geometric series in the delay spacings.
    """
    n0 = float(n0)
    gains = np.array([p.gamma for p in paths], dtype=np.complex128)
    taus = np.array([p.tau for p in paths])
    omegas = path_omegas(paths, scenario.delta_f)

    a1 = steering_matrix(scenario.m[0], omegas[:, 0])
    a2 = steering_matrix(scenario.m[1], omegas[:, 1])
    a_t = khatri_rao([a1, a2])                       # M1 M2 x L
    f_mat = np.kron(transforms[0].t, transforms[1].t).conj()
    atf = a_t.T @ f_mat                              # L x N1 N2
    gram_t = atf @ atf.conj().T                      # L x L
    a_r = khatri_rao([steering_matrix(scenario.m[2], omegas[:, 2]),
                      steering_matrix(scenario.m[3], omegas[:, 3])])
    gram_r = a_r.conj().T @ a_r                      # L x L, element space

    m5 = scenario.m[4]
    dw = 2 * np.pi * scenario.delta_f * (taus[:, None] - taus[None, :])
    z = np.exp(1j * dw)
    degenerate = np.abs(z - 1.0) < 1e-12
    cross = np.where(degenerate, m5, (z ** m5 - 1) / np.where(degenerate, 1.0, z - 1.0))
    signal = np.real(np.einsum("l,k,lk,lk,kl->", gains.conj(), gains, cross,
                               gram_r, gram_t))
    signal *= scenario.e_s

    n3n4 = scenario.n[2] * scenario.n[3]
    noise = m5 * n3n4 * scenario.n_p * n0
    snr = np.inf if noise == 0 else signal / noise
    return {
        "snr": snr,
        "snr_db": np.inf if noise == 0 else 10 * np.log10(snr),
        "signal_power": signal,
        "noise_per_n0": m5 * n3n4 * scenario.n_p,
    }


def n0_for_snr_grid(paths, transforms, scenario, snr_grid_db):
    """Invert the SNR definition over a grid: the N0 achieving each target SNR.

    The signal power does not depend on the SNR, so it is computed once.
    """
    metrics = link_metrics(paths, transforms, scenario, n0=1.0)
    return tuple(metrics["signal_power"] / (metrics["noise_per_n0"] * 10 ** (snr_db / 10))
                 for snr_db in snr_grid_db)


def n0_for_snr_db(paths, transforms, scenario, snr_db):
    """Invert the SNR definition: the N0 achieving the target SNR."""
    return n0_for_snr_grid(paths, transforms, scenario, (snr_db,))[0]
