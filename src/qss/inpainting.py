"""Homogeneous diffusion inpainting.

Reconstructs an image from known pixels by solving the discrete Laplace
equation at the unknown pixels (5-point stencil, reflecting boundaries via
degree-adjusted stencils). Known pixels are eliminated into the right-hand
side, leaving a sparse SPD system.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .image import DomainError, Image, Mask, _domain

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


@functools.lru_cache(maxsize=2)
def _grid_laplacian(width: int, height: int) -> sp.csr_matrix:
    """Laplacian of the whole grid: the degree on the diagonal, -1 per
    neighbour. Row p is the equation of pixel p whenever p is unknown."""
    n = width * height
    ea, eb = _grid_edges(width, height)
    deg = np.bincount(np.concatenate([ea, eb]), minlength=n).astype(np.float64)
    rows = np.concatenate([ea, eb, np.arange(n)])
    cols = np.concatenate([eb, ea, np.arange(n)])
    vals = np.concatenate([-np.ones(2 * ea.size), deg])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class InpaintSolver:
    """Inpainting for one fixed mask, reusable across many known-value vectors.

    Factorises the reduced Laplace system once on construction (`_factorize`);
    every solve on this mask, and every bordered solve on a subset of it,
    reuses that factorisation.
    """

    def __init__(self, mask: Mask, width: int, height: int):
        if mask.image_size != width * height:
            raise DomainError("mask size does not match image")
        if len(mask) == 0:
            raise DomainError("empty mask")
        self.mask = mask
        self.width = width
        self.height = height
        self._unknown = np.flatnonzero(~mask.bool_array())

        # the equations of the unknowns: A on the unknowns, and the coupling
        # to the known pixels moved to the right-hand side, rhs = B @ values
        rows = _grid_laplacian(width, height)[self._unknown]
        self._A = rows[:, self._unknown]
        self._B = -rows[:, mask.indices]
        self._lu = _factorize(self._A) if self._unknown.size else None
        # mask pixel -> A^-1 B_e, the unknowns' response to unit data at e
        self._border: dict[int, np.ndarray] = {}

    @property
    def n_unknown(self) -> int:
        return int(self._unknown.size)

    @property
    def border_columns(self) -> int:
        """Border columns back-substituted and kept so far."""
        return len(self._border)

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
                self._check_residual(b - self._A @ x)
                out[rows, self._unknown] = x.T
        return out.reshape(g.shape[:-1] + out.shape[1:])

    def solve_bordered(self, reconstruction: np.ndarray, rest: Mask) -> np.ndarray:
        """Reconstruction from the pixels of `rest`, a subset of `mask`, alone.

        `reconstruction` is this solver's length-N solution from its whole
        mask; it supplies the data at `rest`. The border E = mask \\ rest
        joins this solver's unknowns, called 0 here. With W = A_00^-1 B_E,
        their response to unit data at E, the change d = x_E - u_E solves
        the dense |E| x |E| Schur complement system

            (A_EE + A_E0 W) d = -(L u)_E,

        L the full-grid Laplacian, and x_0 = u_0 + W d. Each column of W is
        back-substituted through the one factorisation the first time its
        pixel is in the border, then kept (`border_columns` counts them).
        Every equation of the bordered system is checked against
        `RESIDUAL_BOUND`.
        """
        u = np.asarray(reconstruction, dtype=np.float64)
        n = self.width * self.height
        if u.shape != (n,) or rest.image_size != n:
            raise DomainError("reconstruction or mask does not match image")
        if len(rest) == 0:
            raise DomainError("empty mask")
        border = np.setdiff1d(self.mask.indices, rest.indices, assume_unique=True)
        if border.size + len(rest) != len(self.mask):
            raise DomainError("mask is not a subset of the solver's mask")
        new = [e for e in border.tolist() if e not in self._border]
        for start in range(0, len(new), _BLOCK_COLUMNS):
            pixels = new[start : start + _BLOCK_COLUMNS]
            b = self._B[:, np.searchsorted(self.mask.indices, pixels)].toarray()
            w = self._lu.solve(b) if self.n_unknown else b
            self._border.update(zip(pixels, w.T))
        columns = [self._border[e] for e in border.tolist()]
        lap = _grid_laplacian(self.width, self.height)
        rows = lap[border]
        a_e0 = rows[:, self._unknown]
        near = np.unique(a_e0.indices)  # the unknowns next to the border
        w_near = np.array([col[near] for col in columns]).reshape(border.size, near.size)
        s = rows[:, border].toarray() + a_e0[:, near] @ w_near.T
        d = np.linalg.solve(s, -(rows @ u))
        x = u.copy()
        x[border] += d
        x_0 = x[self._unknown]
        for d_e, col in zip(d, columns):  # unstacked: no copy of the kept columns
            x_0 += d_e * col
        x[self._unknown] = x_0
        unknown = np.concatenate([self._unknown, border])
        if unknown.size:
            self._check_residual((lap @ x)[unknown])
        return x

    def check(self, known_values: np.ndarray, reconstruction: np.ndarray) -> None:
        """Raise `InpaintingError` unless the length-N `reconstruction` solves
        the system for `known_values` within `RESIDUAL_BOUND`."""
        if self.n_unknown:
            b = self._B @ np.asarray(known_values, dtype=np.float64)
            self._check_residual(b - self._A @ reconstruction[self._unknown])

    def _check_residual(self, r: np.ndarray) -> None:
        residual = float(np.abs(r).max())
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
    values = _domain(known, mask)
    return InpaintSolver(mask, known.width, known.height).solve(values)


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
