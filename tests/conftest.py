import numpy as np
import pytest

from espritsim import channel, harness


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def tiny_scenario():
    """Small fast scenario: 4-element dims, 3 beams, 8 subcarriers."""
    return channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(4, 4, 4, 4, 8), n=(3, 3, 3, 3), delta_f=8e6, f_c=30e9,
        n_p=16, n_c=600, e_s=1.0, seed=5)


@pytest.fixture
def desk_scenario():
    """Reference layout at desk scale: M5=64 keeping the 60 MHz sweep."""
    return channel.Scenario(
        p_t=[20, 5, 8], p_r=[0, 5, 1.5], scatterers=[[10, 2.5, 0]],
        m=(8, 8, 8, 8, 64), n=(4, 4, 4, 4), delta_f=1.875e6, f_c=30e9,
        n_p=32, n_c=600, e_s=1.0, seed=7)


@pytest.fixture
def desk_setup(desk_scenario):
    paths = channel.params_from_geometry(desk_scenario)
    transforms = channel.scenario_transforms(desk_scenario, paths)
    tensor = channel.synth_beamspace_tensor(paths, transforms, desk_scenario)
    truth = np.stack([channel.to_angular(p, desk_scenario.delta_f).omega
                      for p in paths])
    return desk_scenario, paths, transforms, tensor, truth


def synthetic_paths(omegas, gains, delta_f):
    """PathParams whose angular frequencies equal the given 5-vectors."""
    out = []
    for om, g in zip(np.atleast_2d(omegas), gains):
        p = channel.from_angular(channel.AngularFreqs(np.asarray(om, float)),
                                 delta_f)
        out.append(channel.PathParams(
            phi_az=p.phi_az, phi_el=p.phi_el, theta_az=p.theta_az,
            theta_el=p.theta_el, tau=p.tau, gamma=complex(g)))
    return out


def projector_gap(u, w):
    """||u u^H - w w^H||_F for orthonormal bases of one rank, without forming either.

    Exact as sqrt(2) ||u - w w^H u||_F: both projectors have the same trace,
    so the cross term equals the squared norm of w^H u.
    """
    return np.sqrt(2) * np.linalg.norm(u - w @ (w.conj().T @ u))


def match_rows(est_omega, truth_omega):
    """Reorder estimate rows to the truth order (``harness.match_paths``)."""
    est = np.asarray(est_omega)
    perm = list(harness.match_paths(est, truth_omega))
    return est[perm], perm
