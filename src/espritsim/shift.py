"""Shift-invariance restoration for beamspace transforms and lifted selectors.

Beamforming destroys the Vandermonde shift structure ESPRIT needs; when the
transform itself is shift invariant (J1 T = J2 T F) a projector Q that
annihilates the two boundary generators restores it. The lifted selectors
embed the per-dimension selectors into the smoothed-stack index space without
ever materializing the Kronecker products. A selector pair also hands out its
QR-compressed form: a small (lhs, rhs) equal to [J1 U | J2 U] up to an
isometry, so rotation factors and residuals never touch the (B K5)-row
products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import InvalidInputError, _qr_r_overwrite


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
class LiftedSelector:
    """Implicit I x..x L x..x I x I_{K5} (or frequency-window) selector.

    Applies along dimension ``dim`` (1-based, 1..5) of vectors living on the
    index space (N1, N2, N3, N4, K5), flattened C-order. ``matrix`` is the
    per-dimension block for dim <= 4; dim 5 uses the leading/trailing
    (K5-1)-row window selected by ``window`` ('lead' keeps rows 0..K5-2,
    'trail' keeps rows 1..K5-1).
    """

    dims: tuple
    dim: int
    matrix: np.ndarray | None = None
    window: str | None = None

    def __post_init__(self):
        if self.dim < 1 or self.dim > 5:
            raise InvalidInputError("selector dimension must be in 1..5")
        if self.dim <= 4 and self.matrix is None:
            raise InvalidInputError("spatial selector needs a matrix")
        if self.dim == 5 and self.window not in ("lead", "trail"):
            raise InvalidInputError("frequency selector needs window lead|trail")

    @property
    def in_size(self):
        return int(np.prod(self.dims))

    @property
    def out_size(self):
        if self.dim == 5:
            return self.in_size // self.dims[4] * (self.dims[4] - 1)
        rows = self.matrix.shape[0]
        return self.in_size // self.dims[self.dim - 1] * rows

    def _split(self, size_at_dim):
        axis = self.dim - 1
        pre = int(np.prod(self.dims[:axis]))
        post = int(np.prod(self.dims[axis + 1:]))
        return pre, size_at_dim, post

    def apply(self, x):
        """Selector times x; x is (in_size,) or (in_size, cols)."""
        x = np.asarray(x)
        cols = 1 if x.ndim == 1 else x.shape[1]
        if x.shape[0] != self.in_size:
            raise InvalidInputError(f"selector expects leading size {self.in_size}")
        if self.dim == 5:
            k5 = self.dims[4]
            blocks = x.reshape(-1, k5, cols)
            out = blocks[:, :-1, :] if self.window == "lead" else blocks[:, 1:, :]
            out = np.ascontiguousarray(out).reshape(self.out_size, cols)
        else:
            pre, size, post = self._split(self.dims[self.dim - 1])
            out = np.matmul(self.matrix, x.reshape(pre, size, post * cols))
            out = out.reshape(self.out_size, cols)
        return out[:, 0] if x.ndim == 1 else out

    def apply_adjoint(self, y):
        """Conjugate-transpose action; y is (out_size,) or (out_size, cols)."""
        y = np.asarray(y)
        cols = 1 if y.ndim == 1 else y.shape[1]
        if y.shape[0] != self.out_size:
            raise InvalidInputError(f"adjoint expects leading size {self.out_size}")
        if self.dim == 5:
            k5 = self.dims[4]
            blocks = y.reshape(-1, k5 - 1, cols)
            out = np.zeros((blocks.shape[0], k5, cols), dtype=np.complex128)
            if self.window == "lead":
                out[:, :-1, :] = blocks
            else:
                out[:, 1:, :] = blocks
            out = out.reshape(self.in_size, cols)
        else:
            pre, size, post = self._split(self.matrix.shape[0])
            out = np.matmul(self.matrix.conj().T, y.reshape(pre, size, post * cols))
            out = out.reshape(self.in_size, cols)
        return out[:, 0] if y.ndim == 1 else out

    def to_dense(self):
        """Materialized selector, for small-scale verification only."""
        eye = np.eye(self.in_size, dtype=np.complex128)
        return self.apply(eye)


@dataclass(frozen=True)
class SelectorPair:
    """The pair (J_{n,1}, J_{n,2}) acting on the smoothed stack."""

    first: LiftedSelector
    second: LiftedSelector

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
        if u.ndim != 2 or u.shape[0] != self.first.in_size or u.size == 0:
            raise InvalidInputError(f"pair expects ({self.first.in_size}, L), got {u.shape}")
        dims, dim = self.first.dims, self.first.dim
        n_paths = u.shape[1]
        if dim == 5:
            k5 = dims[4]
            if k5 < 2:
                raise InvalidInputError(f"frequency selectors need K5 >= 2 windows, got K5 = {k5}")
            assert (self.first.window, self.second.window) == ("lead", "trail")
            # C-ordered transpose of [lead | trail]: rows (window, path)
            blocks = u.reshape(-1, k5, n_paths).transpose(2, 0, 1)   # (L, B, K5)
            op = np.empty((2,) + blocks.shape[:2] + (k5 - 1,), dtype=np.complex128)
            op[0] = blocks[:, :, :-1]
            op[1] = blocks[:, :, 1:]
            r = _qr_r_overwrite(op.reshape(2 * n_paths, -1))
            return r[:, :n_paths], r[:, n_paths:]
        pre, size, post = self.first._split(dims[dim - 1])
        # C-ordered transpose of the mode-n unfolding: rows (mode n, path);
        # always a copy, since the QR overwrites it
        op = (u.reshape(pre, size, post, n_paths).transpose(1, 3, 0, 2).copy()
              .reshape(size * n_paths, -1))
        r = _qr_r_overwrite(op).reshape(-1, size, n_paths)
        return (np.matmul(self.first.matrix, r).reshape(-1, n_paths),
                np.matmul(self.second.matrix, r).reshape(-1, n_paths))


def lifted_selectors(n, beam_dims, k5, l1=None, l2=None):
    """Lifted selector pair for dimension ``n`` on the (N1..N4, K5) stack.

    For n <= 4 the per-dimension modified selectors (l1, l2) are embedded
    between identities; n = 5 uses the maximum-overlap frequency windows.
    Selectors are applied through strided index maps, never materialized.
    """
    dims = tuple(int(v) for v in beam_dims) + (int(k5),)
    if len(dims) != 5:
        raise InvalidInputError("need four beam counts plus K5")
    if n == 5:
        return SelectorPair(
            first=LiftedSelector(dims=dims, dim=5, window="lead"),
            second=LiftedSelector(dims=dims, dim=5, window="trail"),
        )
    if l1 is None or l2 is None:
        raise InvalidInputError("spatial dimensions need modified selectors")
    return SelectorPair(
        first=LiftedSelector(dims=dims, dim=n, matrix=np.asarray(l1, dtype=np.complex128)),
        second=LiftedSelector(dims=dims, dim=n, matrix=np.asarray(l2, dtype=np.complex128)),
    )


def selectors_for_transforms(transforms, k5):
    """Selector pairs for all five dimensions given the four beam transforms."""
    beam_dims = tuple(t.n for t in transforms)
    pairs = [lifted_selectors(i + 1, beam_dims, k5, l1=t.l1, l2=t.l2)
             for i, t in enumerate(transforms)]
    pairs.append(lifted_selectors(5, beam_dims, k5))
    return pairs
