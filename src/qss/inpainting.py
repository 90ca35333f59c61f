"""Homogeneous diffusion inpainting.

Reconstructs an image from known pixels by solving the discrete Laplace
equation at the unknown pixels (5-point stencil, reflecting boundaries via
degree-adjusted stencils). Known pixels are eliminated into the right-hand
side, leaving a sparse SPD system.

scipy is imported where it is first used: `scipy.sparse` in
`_grid_laplacian`, where every sparse matrix of the package starts, and
`scipy.sparse.linalg` in `_factorize`. A process that never inpaints, such
as a uniform or Ward scale-space, loads numpy only.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import TYPE_CHECKING

import numpy as np

from .image import DomainError, Image, Mask, _domain

if TYPE_CHECKING:
    import scipy.sparse as sp

# Largest absolute residual any solve may leave in an equation.
RESIDUAL_BOUND = 1e-9

# Right-hand sides per back-substitution when a block of known data is solved.
_BLOCK_COLUMNS = 8


def _snap(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to the nearest multiple of 2**-20 (into `out`, if given).

    Every decision taken on reconstruction values (rounding to grey, ranking
    errors) reads them snapped, so solvers that differ only by round-off,
    far below 2**-20, decide alike: an exact .5 or a tie stays exact.
    """
    out = np.multiply(x, 2**20, out=out)
    np.round(out, out=out)
    return np.divide(out, 2**20, out=out)


def _factorize(A: sp.csc_matrix):
    """Sparse LU of the reduced Laplacian, factorised as the SPD matrix it is.

    A is symmetric and, since every unknown component of a connected grid
    touches a non-empty mask, an irreducibly diagonally dominant M-matrix,
    hence positive definite: the diagonal pivots need no partial pivoting.
    The minimum-degree order on A^T + A then keeps the fill of a symmetric
    factorisation; with pivoting left on, that order fills far worse.
    Imports `scipy.sparse.linalg`, at the first factorisation of a process.
    """
    import scipy.sparse.linalg as spla

    return spla.splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


class InpaintingError(RuntimeError):
    """Solver failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_blocks(work, starts: range) -> None:
    """`work(start)` for each of `starts`, dealt round-robin to the calling
    thread and one helper thread per further CPU of `_cpus()`, at most one
    thread per start.

    SuperLU's back-substitutions overlap in part on threads, on one
    factorisation as on separate ones (1.5-1.7x for two threads on two
    CPUs, 128^2 systems at 10 % density, scipy 1.17.1); one block's
    products, scatter and residual check also overlap with another
    block's work.
    Each stops at its own first failure; once all are joined, the failure
    of the earliest start is raised, the one a serial loop would raise.
    """
    threads = max(1, min(_cpus(), len(starts)))
    errors = {}

    def run(first):
        for i in range(first, len(starts), threads):
            try:
                work(starts[i])
            except Exception as exc:
                errors[i] = exc
                return

    helpers = [threading.Thread(target=run, args=(t,)) for t in range(1, threads)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]


@functools.lru_cache(maxsize=2)
def _grid_laplacian(width: int, height: int) -> sp.csr_matrix:
    """Laplacian of the whole grid: the degree on the diagonal, -1 per
    neighbour. Row p is the equation of pixel p whenever p is unknown.

    It is the Kronecker sum of the reflecting Laplacians of a row and of a
    column, whose diagonal is 1, 2, ..., 2, 1. Imports `scipy.sparse`, at
    the first inpainting of a process.
    """
    import scipy.sparse as sp

    def chain(n):
        diagonal = np.full(n, 2.0)
        diagonal[0] -= 1
        diagonal[-1] -= 1
        return sp.diags([-np.ones(n - 1), diagonal, -np.ones(n - 1)], [-1, 0, 1])

    return sp.kronsum(chain(width), chain(height), format="csr")


class InpaintSolver:
    """Inpainting for one fixed mask, reusable across many known-value vectors.

    Factorises the reduced Laplace system once on construction (`_factorize`);
    every solve on this mask, and every bordered solve on a subset of it,
    reuses that factorisation. A full mask takes the same path: its system
    is 0 x 0, and its solves map the (0, k) right-hand sides to (0, k). B,
    the right-hand side's operator, is kept once, by columns.
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

        # the grid Laplacian's rows at the unknowns, through which every check
        # reads a full-length reconstruction; A and B (rhs = B @ known values)
        # are column slices of one CSC copy of them
        self._rows = _grid_laplacian(width, height)[self._unknown]
        columns = self._rows.tocsc()
        self._B = -columns[:, mask.indices]
        self._lu = _factorize(columns[:, self._unknown])
        # mask pixel -> A^-1 B_e, the unknowns' response to unit data at e
        self._border: dict[int, np.ndarray] = {}

    @property
    def border_columns(self) -> int:
        """Border columns back-substituted and kept so far."""
        return len(self._border)

    def solve(self, known_values: np.ndarray) -> np.ndarray:
        """Reconstruction from the data at `mask.indices` (same order).

        A length-len(mask) vector gives a length-N vector; a (k, len(mask))
        block gives its k reconstructions as a (k, N) array. The block is
        back-substituted `_BLOCK_COLUMNS` right-hand sides at a time through
        the one factorisation, each converted to float64 only then (a 0/1
        block may be passed as bool); each block's rows of the result are
        then checked as `check` does, and non-finite known data raises
        before any back-substitution.
        Blocks are spread over the CPUs this process may run on (see
        `_run_blocks`); the first failing block, in block order, raises.
        """
        g = np.asarray(known_values)
        if g.ndim not in (1, 2) or g.shape[-1] != len(self.mask):
            raise DomainError("known values do not match mask size")
        block = g.reshape(-1, len(self.mask))
        _check_finite(block)
        out = np.empty((len(block), self.width * self.height), dtype=np.float64)

        def solve_block(start):
            rows = slice(start, start + _BLOCK_COLUMNS)
            data = block[rows].astype(np.float64, copy=False)
            out[rows, self.mask.indices] = data
            out[rows, self._unknown] = self._lu.solve(self._B @ data.T).T
            self._check_residual(self._rows @ out[rows].T)

        _run_blocks(solve_block, range(0, len(block), _BLOCK_COLUMNS))
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
        pixel is in the border, then kept (`border_columns` counts them); a
        call's new columns are one column slice of B, back-substituted at
        once. The result's Laplacian is checked against `RESIDUAL_BOUND` at
        every unknown of the bordered system; a non-finite `reconstruction`
        raises first.
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
        _check_finite(u)
        new = [e for e in border.tolist() if e not in self._border]
        if new:
            b = self._B[:, np.searchsorted(self.mask.indices, new)].toarray()
            self._border.update(zip(new, self._lu.solve(b).T))
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
        self._check_residual((lap @ x)[np.concatenate([self._unknown, border])])
        return x

    def check(self, known_values: np.ndarray, reconstruction: np.ndarray) -> None:
        """Raise `InpaintingError` unless the length-N `reconstruction` is
        finite, equals `known_values` at `mask.indices` and has a Laplacian
        within `RESIDUAL_BOUND` of 0 at every unknown; `DomainError` if
        their shapes do not match. A (k, len(mask)) block of known values
        with its (k, N) block of reconstructions is checked at once; a
        sparse product sums each row in the same order for one column as
        for many, so every residual is the one a single check gives.
        """
        g, u = np.asarray(known_values), np.asarray(reconstruction)
        if (g.ndim not in (1, 2) or g.shape[-1] != len(self.mask)
                or u.shape != g.shape[:-1] + (self.width * self.height,)):
            raise DomainError("known values or reconstruction do not match mask")
        _check_finite(g, u)
        known = u[..., self.mask.indices]
        if not np.array_equal(known, g):
            raise InpaintingError("reconstruction differs from the known data",
                                  float(np.abs(known - g).max()))
        self._check_residual(self._rows @ u.T)

    def _check_residual(self, r: np.ndarray) -> None:
        # max |r|, without a copy; 0 for an empty block
        residual = float(max(r.max(initial=0.0), -r.min(initial=0.0)))
        if not residual <= RESIDUAL_BOUND:  # a NaN residual fails too
            raise InpaintingError(
                "inpainting did not converge: residual %.3e > %.3e"
                % (residual, RESIDUAL_BOUND),
                residual,
            )


def _check_finite(*arrays) -> None:
    """Raise `InpaintingError` unless every value is finite: a known pixel
    with no unknown neighbour is in no equation the residual check reads."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InpaintingError("non-finite inpainting data", np.nan)


def inpaint(known: Image, mask: Mask) -> np.ndarray:
    """Inpaint `known` from the masked pixels; returns a real-valued grid.

    One-shot `InpaintSolver`: values at mask indices are the input data, bit
    for bit. At every other pixel the degree-adjusted 5-point Laplacian
    vanishes up to `RESIDUAL_BOUND`. A `None` mask raises DomainError.
    """
    if mask is None:
        raise DomainError("inpainting needs a mask")
    values = _domain(known, mask)
    return InpaintSolver(mask, known.width, known.height).solve(values)


def round_to_grey(values: np.ndarray, width: int, height: int, grey_depth: int = 256) -> Image:
    """Snap to multiples of 2**-20, round half away from zero, clamp to
    [0, grey_depth - 1]."""
    values = np.array(values, dtype=np.float64)
    return Image(width, height, _round_grey(values, grey_depth).astype(np.int64), grey_depth)


def _round_grey(values: np.ndarray, grey_depth: int) -> np.ndarray:
    """The rounding of `round_to_grey`, in place on a float64 array of any
    shape, which it returns."""
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite reconstruction values")
    _snap(values, out=values)
    # half away from zero is half up at and above 0; below 0 all clamps to 0
    values += 0.5
    np.floor(values, out=values)
    return np.clip(values, 0, grey_depth - 1, out=values)
