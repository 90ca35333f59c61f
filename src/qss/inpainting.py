"""Homogeneous diffusion inpainting.

Reconstructs an image from known pixels by solving the discrete Laplace
equation at the unknown pixels (5-point stencil, reflecting boundaries via
degree-adjusted stencils). Known pixels are eliminated into the right-hand
side, leaving a sparse SPD system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .image import DomainError, Image, Mask

# Largest absolute residual any solve may leave in an equation.
RESIDUAL_BOUND = 1e-9

# Right-hand sides per back-substitution when a block of known data is solved.
_BLOCK_COLUMNS = 8


def _snap(x: np.ndarray) -> np.ndarray:
    """Round to the nearest multiple of 2**-20.

    Every decision taken on reconstruction values (rounding to grey, ranking
    errors) reads them snapped, so solvers that differ only by round-off,
    far below 2**-20, decide alike: an exact .5 or a tie stays exact.
    """
    return np.round(x * 2**20) / 2**20


def _factorize(A: sp.spmatrix):
    """Sparse LU of the reduced Laplacian, factorised as the SPD matrix it is.

    A is symmetric and, since every unknown component of a connected grid
    touches a non-empty mask, an irreducibly diagonally dominant M-matrix,
    hence positive definite: the diagonal pivots need no partial pivoting.
    The minimum-degree order on A^T + A then keeps the fill of a symmetric
    factorisation; with pivoting left on, that order fills far worse.
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


class InpaintingError(RuntimeError):
    """Solver failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _grid_edges(width: int, height: int):
    """4-neighbourhood edge list (a, b) of a width x height grid."""
    idx = np.arange(width * height).reshape(height, width)
    h_a = idx[:, :-1].ravel()
    h_b = idx[:, 1:].ravel()
    v_a = idx[:-1, :].ravel()
    v_b = idx[1:, :].ravel()
    return np.concatenate([h_a, v_a]), np.concatenate([h_b, v_b])


class InpaintSolver:
    """Inpainting for one fixed mask, reusable across many known-value vectors.

    Factorises the reduced Laplace system once on construction (`_factorize`);
    every solve on this mask reuses that factorisation.
    """

    def __init__(self, mask: Mask, width: int, height: int):
        if mask.image_size != width * height:
            raise DomainError("mask size does not match image")
        if len(mask) == 0:
            raise DomainError("empty mask")
        self.mask = mask
        self.width = width
        self.height = height
        n = width * height
        known = mask.bool_array()
        self._unknown = np.flatnonzero(~known)
        u = self._unknown.size

        # local numbering for unknowns and for mask entries
        local = np.full(n, -1, dtype=np.int64)
        local[self._unknown] = np.arange(u)
        known_local = np.full(n, -1, dtype=np.int64)
        known_local[mask.indices] = np.arange(len(mask))

        ea, eb = _grid_edges(width, height)
        deg = np.zeros(n, dtype=np.int64)
        np.add.at(deg, ea, 1)
        np.add.at(deg, eb, 1)

        a_unk = ~known[ea]
        b_unk = ~known[eb]
        uu = a_unk & b_unk
        uk = a_unk & ~b_unk
        ku = ~a_unk & b_unk

        diag = deg[self._unknown].astype(np.float64)
        rows = np.concatenate([local[ea[uu]], local[eb[uu]], np.arange(u)])
        cols = np.concatenate([local[eb[uu]], local[ea[uu]], np.arange(u)])
        vals = np.concatenate([-np.ones(2 * uu.sum()), diag])
        self._A = sp.csr_matrix((vals, (rows, cols)), shape=(u, u))

        # unknown x known coupling: rhs = B @ known_values
        brow = np.concatenate([local[ea[uk]], local[eb[ku]]])
        bcol = np.concatenate([known_local[eb[uk]], known_local[ea[ku]]])
        self._B = sp.csr_matrix(
            (np.ones(brow.size), (brow, bcol)), shape=(u, len(mask))
        )
        self._lu = _factorize(self._A) if u > 0 else None

    @property
    def n_unknown(self) -> int:
        return int(self._unknown.size)

    def solve(self, known_values: np.ndarray) -> np.ndarray:
        """Reconstruction from the data at `mask.indices` (same order).

        A length-len(mask) vector gives a length-N vector; a (k, len(mask))
        block gives its k reconstructions as a (k, N) array, back-substituted
        `_BLOCK_COLUMNS` right-hand sides at a time through the one
        factorisation. The residual of every interior equation of every
        column is checked against `RESIDUAL_BOUND`.
        """
        g = np.asarray(known_values, dtype=np.float64)
        if g.ndim not in (1, 2) or g.shape[-1] != len(self.mask):
            raise DomainError("known values do not match mask size")
        block = g.reshape(-1, len(self.mask))
        out = np.empty((len(block), self.width * self.height), dtype=np.float64)
        out[:, self.mask.indices] = block
        if self.n_unknown:
            for start in range(0, len(block), _BLOCK_COLUMNS):
                rows = slice(start, start + _BLOCK_COLUMNS)
                b = self._B @ block[rows].T
                x = self._lu.solve(b)
                self._check_residual(b, x)
                out[rows, self._unknown] = x.T
        return out.reshape(g.shape[:-1] + out.shape[1:])

    def check(self, known_values: np.ndarray, reconstruction: np.ndarray) -> None:
        """Raise `InpaintingError` unless the length-N `reconstruction` solves
        the system for `known_values` within `RESIDUAL_BOUND`."""
        if self.n_unknown:
            b = self._B @ np.asarray(known_values, dtype=np.float64)
            self._check_residual(b, reconstruction[self._unknown])

    def _check_residual(self, b: np.ndarray, x: np.ndarray) -> None:
        residual = float(np.abs(b - self._A @ x).max())
        if residual > RESIDUAL_BOUND:
            raise InpaintingError(
                "inpainting did not converge: residual %.3e > %.3e"
                % (residual, RESIDUAL_BOUND),
                residual,
            )


def inpaint(known: Image, mask: Mask) -> np.ndarray:
    """Inpaint `known` from the masked pixels; returns a real-valued grid.

    One-shot `InpaintSolver`: values at mask indices are the input data, bit
    for bit. At every other pixel the degree-adjusted 5-point Laplacian
    vanishes up to `RESIDUAL_BOUND`.
    """
    solver = InpaintSolver(mask, known.width, known.height)
    return solver.solve(known.pixels[mask.indices])


def round_to_grey(values: np.ndarray, width: int, height: int, grey_depth: int = 256) -> Image:
    """Snap to multiples of 2**-20, round half away from zero, clamp to
    [0, grey_depth - 1]."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite reconstruction values")
    values = _snap(values)
    rounded = np.sign(values) * np.floor(np.abs(values) + 0.5)
    rounded = np.clip(rounded, 0, grey_depth - 1)
    return Image(width, height, rounded.astype(np.int64), grey_depth)
