"""Shift-invariance restoration for beamspace transforms and selector pairs.

Beamforming destroys the Vandermonde shift structure ESPRIT needs; when the
transform itself is shift invariant (J1 T = J2 T F) a projector Q that
annihilates the two boundary generators restores it. A selector pair holds
one dimension's two selector blocks on the smoothed stack and hands out only
its QR-compressed form: a small (lhs, rhs) equal to [J1 U | J2 U] up to an
isometry, so rotation factors and residuals never form the (B K5)-row
products or the Kronecker-lifted selectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import InvalidInputError, _geqrf_overwrite


DEFLATE_RTOL = 1e-12    # restore_projector's generator deflation tolerance
MIN_BEAMS = 3           # restore_projector's least beam count


class InsufficientBeamsError(ValueError):
    """Fewer than three beams leave no room for the rank-(N-2) projector."""


def restore_projector(t, f):
    """Projector Q annihilating t_{:,M} and F^H t_{:,1} (columns of T^H).

    Orthonormalizes the two generators by modified Gram-Schmidt, dropping a
    generator whose deflated norm falls below ``DEFLATE_RTOL`` relative to the
    pair's scale, so a collinear pair yields a rank-(N-1) projector.
    """
    t = np.asarray(t, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    n = t.shape[1]
    if n < MIN_BEAMS:
        raise InsufficientBeamsError(f"restore_projector needs at least {MIN_BEAMS} beams")
    g1 = t[-1, :].conj()
    g2 = f.conj().T @ t[0, :].conj()
    scale = max(np.linalg.norm(g1), np.linalg.norm(g2), 1e-300)
    basis = []
    for g in (g1, g2):
        v = g.copy()
        for p in basis:
            v -= (p.conj() @ v) * p
        nrm = np.linalg.norm(v)
        if nrm > DEFLATE_RTOL * scale:
            basis.append(v / nrm)
    q = np.eye(n, dtype=np.complex128)
    for p in basis:
        q -= np.outer(p, p.conj())
    return q


@dataclass(frozen=True)
class SelectorPair:
    """The pair (J_{n,1}, J_{n,2}) acting along dimension ``dim`` (1..5) of the
    smoothed stack (N1, N2, N3, N4, K5) = ``dims``, flattened C-order.

    For a spatial dimension the selectors embed the beam transform's modified
    selectors ``l1``/``l2`` between identities; for the frequency dimension
    (``dim`` 5, blocks None) they keep the leading and the trailing K5 - 1
    windows.
    """

    dims: tuple
    dim: int
    l1: np.ndarray | None = None
    l2: np.ndarray | None = None

    def compressed(self, u):
        """Small (lhs, rhs) with [J1 U | J2 U] = W [lhs | rhs] for an isometry W.

        W has orthonormal columns, so least squares, singular values and
        residual norms are those of the full products, which are never
        formed. For a spatial mode the selectors act on mode n alone: with
        the mode-n unfolding Y = Q R (other modes as rows, (mode n, path)
        pairs as columns), J U = (Q x I) (J applied along mode n of R), so
        the pair is the two selector blocks applied to R. For the frequency
        mode the pair is the two column halves of the R factor of the
        stacked windows [lead | trail]. ``u`` must be finite (it is not
        scanned again here); it is left unchanged, since each QR runs in a
        copy built here.
        """
        u = np.asarray(u, dtype=np.complex128)
        rows = int(np.prod(self.dims))
        if u.ndim != 2 or u.shape[0] != rows or u.size == 0:
            raise InvalidInputError(f"pair expects ({rows}, L), got {u.shape}")
        n_paths = u.shape[1]
        if self.dim == 5:
            k5 = self.dims[4]
            if k5 < 2:
                raise InvalidInputError(f"frequency selectors need K5 >= 2 windows, got K5 = {k5}")
            # C-ordered transpose of [lead | trail]: rows (window, path)
            blocks = u.reshape(-1, k5, n_paths).transpose(2, 0, 1)   # (L, B, K5)
            op = np.empty((2,) + blocks.shape[:2] + (k5 - 1,), dtype=np.complex128)
            op[0] = blocks[:, :, :-1]
            op[1] = blocks[:, :, 1:]
            r = _geqrf_overwrite(op.reshape(2 * n_paths, -1))[1]
            return r[:, :n_paths], r[:, n_paths:]
        axis = self.dim - 1
        pre, size = int(np.prod(self.dims[:axis])), self.dims[axis]
        post = int(np.prod(self.dims[axis + 1:]))
        # C-ordered transpose of the mode-n unfolding: rows (mode n, path);
        # always a copy, since the QR overwrites it
        op = (u.reshape(pre, size, post, n_paths).transpose(1, 3, 0, 2).copy()
              .reshape(size * n_paths, -1))
        r = _geqrf_overwrite(op)[1].reshape(-1, size, n_paths)
        return (np.matmul(self.l1, r).reshape(-1, n_paths),
                np.matmul(self.l2, r).reshape(-1, n_paths))


def lifted_selectors(n, beam_dims, k5, l1=None, l2=None):
    """Selector pair for dimension ``n`` on the (N1..N4, K5) stack.

    For n <= 4 the per-dimension modified selectors (l1, l2) act along mode
    n; n = 5 uses the maximum-overlap frequency windows.
    """
    dims = tuple(int(v) for v in beam_dims) + (int(k5),)
    if n == 5:
        return SelectorPair(dims, 5)
    return SelectorPair(dims, n, np.asarray(l1, dtype=np.complex128),
                        np.asarray(l2, dtype=np.complex128))


def selectors_for_transforms(transforms, k5):
    """Selector pairs for all five dimensions given the four beam transforms."""
    beam_dims = tuple(t.n for t in transforms)
    pairs = [lifted_selectors(i + 1, beam_dims, k5, l1=t.l1, l2=t.l2)
             for i, t in enumerate(transforms)]
    pairs.append(lifted_selectors(5, beam_dims, k5))
    return pairs
