import faulthandler

import numpy as np
import pytest

from espritsim import channel, harness, perturbation


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def hang_guard():
    """Dump every thread's traceback and exit if the test runs past 120 s, so
    that a deadlocked sweep fails the suite instead of stalling it."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


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


def identity_transforms(n):
    """Four element-space transforms: t is the n x n identity, and the shift
    data, which no identity transform has, is None."""
    return [channel.BeamTransform(t=np.eye(n, dtype=complex), f=None, l1=None,
                                  l2=None, grid=None)] * 4


def projector_gap(u, w):
    """||u u^H - w w^H||_F for orthonormal bases of one rank, without forming either.

    Exact as sqrt(2) ||u - w w^H u||_F: both projectors have the same trace,
    so the cross term equals the squared norm of w^H u.
    """
    return np.sqrt(2) * np.linalg.norm(u - w @ (w.conj().T @ u))


def selector_products(pair, x, adjoint=False):
    """(J1 x, J2 x), or (J1^H x, J2^H x) with ``adjoint``, for a selector pair.

    Each block acts as a mode product on axis ``pair.dim - 1`` of x's row
    index (N1, N2, N3, N4, K5); the frequency blocks are ``np.eye(K5)[:-1]``
    and ``[1:]``. x is a vector or a matrix of columns.
    """
    axis = pair.dim - 1
    k5 = pair.dims[4]
    blocks = (np.eye(k5)[:-1], np.eye(k5)[1:]) if pair.dim == 5 else (pair.l1, pair.l2)
    x = np.asarray(x)
    out = []
    for block in blocks:
        if adjoint:
            block = block.conj().T
        shape = pair.dims[:axis] + (block.shape[1],) + pair.dims[axis + 1:]
        y = np.tensordot(block, x.reshape(shape + x.shape[1:]), axes=([1], [axis]))
        out.append(np.moveaxis(y, 0, axis).reshape((-1,) + x.shape[1:]))
    return tuple(out)


def match_rows(est_omega, truth_omega):
    """Reorder estimate rows to the truth order (``harness.match_paths``)."""
    est = np.asarray(est_omega)
    perm = list(harness.match_paths(est, truth_omega))
    return est[perm], perm


def kit_rows(kit):
    """xi, upsilon, kappa (L, 5, J) and B^+ (L, J), written from the kit's Tucker rows."""
    def expand(core, factors):
        return np.einsum("abcde,ia,jb,kc,ld,me->ijklm", core, *factors, optimize=True).ravel()
    xi = np.array([[expand(*piece) for piece in row] for row in kit.xi_tucker])
    upsilon = xi * (kit.phi / np.conj(kit.gains)[:, None])[:, :, None]
    kappa = perturbation._kappa_maps(kit.paths, kit.scenario.delta_f) @ upsilon
    b_pinv = np.array([expand(core, kit.b_pinv_tucker[1]) for core in kit.b_pinv_tucker[0]])
    return {"xi": xi, "upsilon": upsilon, "kappa": kappa, "b_pinv": b_pinv}
