"""Hierarchical quantisation paths.

A path is an ordered list of merge steps; each step collapses exactly two
active grey values into one representative and leaves all others alone.
Three builders are provided: uniform pyramidal merging, greedy Ward
clustering on the known data, and quantisation by sparsification (greedy
merging by global inpainting error). The last two run one merge loop:
Ward clustering is its full-mask case, where the inpainting basis
functions are the level-set indicators. `build_quant_path` picks the
builder of a method, for the command line and the rate-distortion grid
alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import (
    DomainError, Image, LevelPartition, Mask, _domain, _is_integer, _with_domain, level_partition,
)
from .inpainting import InpaintSolver


class PathError(ValueError):
    """Structurally invalid quantisation path."""


@dataclass(frozen=True)
class MergeStep:
    """Merge active values source_low < source_high into merged_value."""

    source_low: int
    source_high: int
    merged_value: int

    def __post_init__(self):
        if not (_is_integer(self.source_low) and _is_integer(self.source_high)
                and _is_integer(self.merged_value)):
            raise PathError("merge step values must be integers")
        if self.source_low >= self.source_high:
            raise PathError("merge step needs source_low < source_high")


@dataclass(frozen=True)
class QuantisationPath:
    initial_values: tuple
    steps: tuple

    def __post_init__(self):
        values = tuple(self.initial_values)
        if not all(map(_is_integer, values)):
            raise PathError("initial values must be integers")
        values = tuple(map(int, values))
        if len(values) == 0:
            raise PathError("empty initial value set")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise PathError("initial values must be strictly increasing")
        steps = tuple(self.steps)
        lo, hi = values[0], values[-1]
        active = set(values)
        for k, step in enumerate(steps):
            if step.source_low not in active or step.source_high not in active:
                raise PathError("step %d merges inactive values" % k)
            if not lo <= step.merged_value <= hi:
                raise PathError("step %d representative outside range" % k)
            active -= {step.source_low, step.source_high}
            if step.merged_value in active:
                raise PathError("step %d representative collides" % k)
            active.add(step.merged_value)
        object.__setattr__(self, "initial_values", values)
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def _value_map(steps, grey_depth: int, lut: np.ndarray | None = None) -> np.ndarray:
    """Lookup table composing the given merge steps over [0, grey_depth).

    A given `lut` is continued in place, so a path can be replayed in
    stages.
    """
    if lut is None:
        lut = np.arange(grey_depth, dtype=np.int64)
    for step in steps:
        lut[(lut == step.source_low) | (lut == step.source_high)] = step.merged_value
    return lut


def apply_steps(image: Image, mask: Mask | None, steps) -> Image:
    """Apply merge steps pointwise to the (masked) pixels."""
    lut = _value_map(steps, image.grey_depth)
    return _with_domain(image, mask, lut[_domain(image, mask)])


def apply_path(image: Image, mask: Mask | None, path: QuantisationPath, m: int) -> Image:
    """Image after the first m merge steps of the path."""
    if not 0 <= m <= len(path):
        raise PathError("scale %d out of [0, %d]" % (m, len(path)))
    _check_initial_values(_domain(image, mask), path)
    return apply_steps(image, mask, path.steps[:m])


def _check_initial_values(values: np.ndarray, path: QuantisationPath) -> None:
    if not np.all(np.isin(values, np.array(path.initial_values))):
        raise PathError("image contains values outside the path's initial values")


def _quantised_known_values(values: np.ndarray, path: QuantisationPath, grey_depth: int):
    """Yield the domain values `values` after the first m steps,
    m = 0 ... len(path).

    By the semigroup property every scale is read from `values` through one
    lookup table over [0, grey_depth) that the steps continue in turn, so
    the initial values are checked once and all scales cost one pass over
    the path.
    """
    _check_initial_values(values, path)
    lut = _value_map((), grey_depth)
    yield lut[values]
    for step in path.steps:
        yield _value_map((step,), grey_depth, lut)[values]


def uniform_path(grey_depth: int = 256) -> QuantisationPath:
    """Pyramidal merging of neighbour bins over the full range {0..Q-1}.

    Each merged bin takes the value midway through its original-range
    extent, rounded up when the midpoint falls on a half.
    """
    q = grey_depth
    if q < 2 or q & (q - 1):
        raise ValueError("grey depth must be a power of two >= 2")
    # round k, w = 2^k, merges the bins [lo, lo + w) and [lo + w, lo + 2w)
    # for each lo; their values are their midpoints, the merged one lo + w
    steps = (
        MergeStep(lo + w // 2, lo + w + w // 2, lo + w)
        for w in (2**k for k in range(q.bit_length() - 1))
        for lo in range(0, q, 2 * w)
    )
    return QuantisationPath(tuple(range(q)), tuple(steps))


def _pair_costs(c, n, e, g, out):
    """Error change of each merge i < j of the stored clusters, c[i, j]
    being v_i - v_j, into `out`; inf on and below the diagonal.

    A merge keeps the member with the larger count (the smaller value on
    ties, v being ascending) and moves the other onto it: moving j onto
    v_i changes the error by c e_j + c^2 g_j (see `_greedy_merge`).
    """
    move = c * e
    with np.errstate(invalid="ignore"):  # 0 * inf on a dead diagonal, masked below
        np.multiply(c, c, out=out)
        out *= g
        move += out
    np.copyto(out, move)
    np.copyto(out, move.T, where=n > n[:, None])  # move i onto v_j
    np.copyto(out, np.inf, where=c >= 0)  # on and below the diagonal
    return out


def _costs_with(k, v, n, e, g):
    """`_pair_costs` of the merge of cluster k with each stored cluster, by
    index, for a diagonal Gram g.

    Moving cluster j onto v_k, c = v_k - v_j, changes the error by
    c (c g_j + e_j); where j is kept instead (a larger count, or the same
    count and a smaller value), moving k onto v_j changes it by
    c (c g_k - e_k). Every term is an exact integer (see `_greedy_merge`),
    so the order of evaluation does not change the bits.
    """
    k_moves = n > n[k]
    k_moves[:k] = n[:k] >= n[k]  # ties keep the smaller value
    c = v[k] - v
    cost = c * g
    cost += e
    np.copyto(cost, c * g[k] - e[k], where=k_moves)
    cost *= c
    return cost


# the merge loop drops the dead clusters from its stored matrices once
# 1 / _COMPACT_AT of their rows are dead
_COMPACT_AT = 4


def _greedy_merge(values, counts, dots, gram):
    """Merge steps that greedily minimise the squared reconstruction error.

    Cluster k has grey value v_k = `values[k]` (ascending), occurrence count
    n_k = `counts[k]` and basis function psi_k; the reconstruction is
    sum_k v_k psi_k. `gram` is psi psi^T, or a 1-D array of its diagonal
    when the matrix is diagonal, and `dots` is psi . res, res being the
    original minus the reconstruction; the loop consumes both. With
    e = -2 psi . res, moving cluster j onto v_i changes the error by
    c e_j + c^2 (psi_j . psi_j), c = v_i - v_j: the bits of
    -2c (psi_j . res) + c^2 (psi_j . psi_j), as scaling by 2 is exact.
    A merge of i < j keeps the member with the larger count (the smaller
    value on ties) and moves the other; each step takes the pair with the
    smallest change, the first in row-major order on ties.

    The loop stores the pair costs of the stored clusters, inf on and
    below the diagonal, and takes each step's pair by one argmin over
    them. A merge adds the dropped cluster's Gram row and column to the
    kept one's and marks the dropped cluster dead, count -inf and Gram
    inf, so that its costs come out inf. Once a quarter of the stored
    rows are dead, the live rows and columns are kept, in ascending
    order, so row-major order and the pair each step picks stay the same.

    The shape of `gram` sets the update of the costs after a merge. A
    dense Gram (a mask with unknowns) changes every cost, and
    `_pair_costs` rebuilds all of them in place, O(stored^2). A diagonal
    Gram, which only `ward_path` passes (it is also the sparsification
    path of a full mask), changes the costs of the kept cluster only,
    and `_costs_with` rewrites its row and column, O(stored). Its data
    are a full mask's, integer counts n = g and a zero residual, so every
    cost is an integer; with values spanning D grey levels on N pixels
    none exceeds 3 D^2 N in magnitude, below 2^53 up to N = 4.6e10 at
    D = 255, so both give the same exact costs under any evaluation order.
    """
    v = np.asarray(values, dtype=np.float64)
    n = np.array(counts, dtype=np.float64)
    e = -2.0 * dots
    dense = gram.ndim == 2
    g = gram.diagonal().copy() if dense else gram
    c = v[:, None] - v
    cost = _pair_costs(c, n, e, g, np.empty_like(c))
    dead = 0
    steps = []
    for _ in range(v.size - 1):
        i, j = divmod(int(np.argmin(cost)), v.size)
        keep, drop = (i, j) if n[i] >= n[j] else (j, i)
        r = v[keep]
        steps.append(MergeStep(int(v[i]), int(v[j]), int(r)))
        # res -= (r - v_drop) psi_drop, then psi_keep += psi_drop
        if dense:
            e += 2.0 * (r - v[drop]) * gram[:, drop]
            e[keep] += e[drop]
            gram[keep] += gram[drop]
            gram[:, keep] += gram[:, drop]
            g[keep] = gram[keep, keep]
        else:
            e[keep] += e[drop] + 2.0 * (r - v[drop]) * g[drop]
            g[keep] += g[drop]
        n[keep] += n[drop]
        n[drop], g[drop] = -np.inf, np.inf
        cost[drop] = cost[:, drop] = np.inf
        dead += 1
        if _COMPACT_AT * dead >= v.size:
            live = np.flatnonzero(g < np.inf)
            keep = int(np.searchsorted(live, keep))
            v, n, e, g = v[live], n[live], e[live], g[live]
            cost = cost[np.ix_(live, live)]
            if dense:
                gram = gram[np.ix_(live, live)]
                c = v[:, None] - v
            dead = 0
        if dense:
            _pair_costs(c, n, e, g, cost)
        else:
            new = _costs_with(keep, v, n, e, g)
            cost[keep, keep + 1:] = new[keep + 1:]
            cost[:keep, keep] = new[:keep]
    return tuple(steps)


def ward_path(partition: LevelPartition) -> QuantisationPath:
    """Greedy merging minimising squared error against the original data.

    All value pairs are considered; the representative is the member
    cluster with the largest occurrence count. This is the merge loop of
    `sparsification_quant_path` with a full mask, whose basis functions
    are the level-set indicators: their Gram matrix is the diagonal of the
    counts, which is all `_greedy_merge` is given, and the initial residual
    is zero, so every update stays an exact integer. It is therefore the
    sparsification path of a full mask too, which `build_quant_path`
    builds here, without a solver. Every pair cost is an exact integer
    below 2^53 for images under 4.6e10 pixels, so the steps do not depend
    on the order of evaluation. A step rewrites the kept cluster's
    O(levels) pair costs and takes one argmin over the stored cost
    matrix, which drops its dead rows and columns whenever a quarter of
    them have died (see `_greedy_merge`).
    """
    if partition.values.size == 0:
        raise DomainError("empty partition")
    n = partition.counts.astype(np.float64)
    steps = _greedy_merge(partition.values, n, np.zeros(n.size), n.copy())
    return QuantisationPath(tuple(partition.values), steps)


def sparsification_quant_path(image: Image, mask: Mask | None) -> QuantisationPath:
    """Greedy merging of known-data values by global inpainting error.

    Each candidate merge quantises the known data and scores the MSE of
    its inpainting against the full original image. Homogeneous diffusion
    is linear in the known data, so reconstructions are superpositions of
    per-level-set harmonic basis functions, all found by one block solve
    of the level indicators; a candidate is then a rank-one update of the
    residual. The merge loop needs only the Gram matrix of the basis
    functions and their inner products with the residual: forming them
    reads the image, O(levels^2 N) for N pixels, but a step does not: it
    rebuilds the O(levels^2) pair costs of the clusters `_greedy_merge`
    stores, in place. On a full mask the basis functions are the
    level-set indicators, so this is Ward clustering, step for step: the
    path is `ward_path`'s, built without a solver.
    This is `build_quant_path(image, mask, "sparsification")`, and a
    `None` mask raises DomainError. `evaluate_grid` builds the same path
    through the same dispatch, from the basis of m = 0 it shares with
    every method it evaluates on the mask.
    """
    return build_quant_path(image, mask, "sparsification")


def build_quant_path(image: Image, mask: Mask | None, method: str) -> QuantisationPath:
    """Quantisation path of `method` ("uniform", "ward" or
    "sparsification") for the known data of one mask, or of the whole
    image for None; an unknown method raises ValueError.

    Every mask passes `_domain`, so a mask built for an image of another
    size, or an empty mask, raises DomainError for every method, and so
    does the sparsification method without a mask. The mask is factorised
    only for a sparsification path on a mask with unknowns (see
    `_quant_path`).
    """
    if mask is None and method == "sparsification":
        raise DomainError("the sparsification method needs a mask")
    part = level_partition(image, mask)

    def basis():
        solver = InpaintSolver(mask, image.width, image.height)
        return _level_basis(solver, _domain(image, mask), part.values)

    return _quant_path(image, part, method, basis)


def _quant_path(image, part, method, basis) -> QuantisationPath:
    """The path of `build_quant_path` for a domain with histogram `part`,
    where `basis()` gives the mask's level basis psi of `part.values`
    (see `_level_basis`), which is only read; it is called only for a
    sparsification path on a mask with unknowns.

    A full mask, `part.domain_size == image.size`, has the level-set
    indicators as its basis, whose Gram is the diagonal of the counts and
    whose reconstruction is the image itself, so its sparsification path
    is `ward_path(part)`. A mask with unknowns passes the dense Gram
    psi psi^T and psi . res, res the image minus the reconstruction, to
    `_greedy_merge`.
    """
    if method == "uniform":
        return uniform_path(image.grey_depth)
    if method == "ward" or (method == "sparsification" and part.domain_size == image.size):
        return ward_path(part)
    if method != "sparsification":
        raise ValueError("unknown method %r" % method)
    psi = basis()
    res = image.pixels.astype(np.float64) - part.values @ psi
    steps = _greedy_merge(part.values, part.counts, psi @ res, psi @ psi.T)
    return QuantisationPath(tuple(part.values), steps)


def _level_basis(solver: InpaintSolver, known: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Harmonic basis of the known data's level sets, one row per value.

    Row k, psi_k, is the inpainting of the indicator of
    `known == values[k]`; all rows come from one block solve, of the
    indicators as bool. When `values` holds every value of `known`, the
    inpainting of `known` is sum_k values[k] psi_k, by linearity.
    """
    return solver.solve(known[None, :] == values[:, None])


QPATH_MAGIC = "QSSQPATH v1"


def write_quant_path_file(path: QuantisationPath) -> str:
    lines = [QPATH_MAGIC, " ".join(str(v) for v in path.initial_values)]
    lines.extend(
        "%d %d %d" % (s.source_low, s.source_high, s.merged_value) for s in path.steps
    )
    return "\n".join(lines) + "\n"


def read_quant_path_file(text: str) -> QuantisationPath:
    """Read `QSSQPATH v1`, the initial values on one line, then one merge step
    `low high merged` per line, every value in ASCII decimal digits."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != QPATH_MAGIC:
        raise ValueError("not a %s file" % QPATH_MAGIC)
    rows = [line.split() for line in lines[1:]]
    digits = "".join(map("".join, rows))
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("malformed quantisation path file")
    try:
        initial = tuple(map(int, rows[0]))
        steps = tuple(MergeStep(*map(int, row)) for row in rows[1:])
    except (IndexError, ValueError, TypeError):
        raise ValueError("malformed quantisation path file") from None
    return QuantisationPath(initial, steps)
