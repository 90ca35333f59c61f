"""Hierarchical quantisation paths.

A path is an ordered list of merge steps; each step collapses exactly two
active grey values into one representative and leaves all others alone.
Three builders are provided: uniform pyramidal merging, greedy Ward
clustering on the known data, and quantisation by sparsification (greedy
merging by global inpainting error). The last two run one merge loop:
Ward clustering is its full-mask case, where the inpainting basis
functions are the level-set indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import DomainError, Image, LevelPartition, Mask, level_partition
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
        if self.source_low >= self.source_high:
            raise PathError("merge step needs source_low < source_high")


@dataclass(frozen=True)
class QuantisationPath:
    initial_values: tuple
    steps: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.initial_values)
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

    def active_values(self, m: int) -> np.ndarray:
        """Active grey values after the first m steps, ascending."""
        if not 0 <= m <= len(self.steps):
            raise PathError("scale %d out of [0, %d]" % (m, len(self.steps)))
        active = set(self.initial_values)
        for step in self.steps[:m]:
            active -= {step.source_low, step.source_high}
            active.add(step.merged_value)
        return np.array(sorted(active), dtype=np.int64)


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
    pixels = image.pixels.copy()
    if mask is None:
        pixels = lut[pixels]
    else:
        if mask.image_size != image.size:
            raise DomainError("mask size does not match image")
        pixels[mask.indices] = lut[pixels[mask.indices]]
    return image.with_pixels(pixels)


def apply_path(image: Image, mask: Mask | None, path: QuantisationPath, m: int) -> Image:
    """Image after the first m merge steps of the path."""
    if not 0 <= m <= len(path):
        raise PathError("scale %d out of [0, %d]" % (m, len(path)))
    _check_initial_values(image.pixels if mask is None else image.pixels[mask.indices], path)
    return apply_steps(image, mask, path.steps[:m])


def _check_initial_values(values: np.ndarray, path: QuantisationPath) -> None:
    if not np.all(np.isin(values, np.array(path.initial_values))):
        raise PathError("image contains values outside the path's initial values")


def _quantised_known_values(image: Image, mask: Mask, path: QuantisationPath):
    """Yield the known data after the first m steps, for m = 0 ... len(path).

    Equals `apply_path(image, mask, path, m).pixels[mask.indices]`, but the
    initial values are checked once and the steps are replayed into one
    lookup table, so all scales cost one pass over the path.
    """
    values = image.pixels[mask.indices]
    _check_initial_values(values, path)
    lut = _value_map((), image.grey_depth)
    yield lut[values]
    for step in path.steps:
        yield _value_map((step,), image.grey_depth, lut)[values]


def _round_half_away(x: float) -> int:
    return int(np.sign(x) * np.floor(np.abs(x) + 0.5))


def uniform_path(grey_depth: int = 256) -> QuantisationPath:
    """Pyramidal merging of neighbour bins over the full range {0..Q-1}.

    Each merged bin takes the value midway through its original-range
    extent, rounded half away from zero.
    """
    q = grey_depth
    if q < 2 or q & (q - 1):
        raise ValueError("grey depth must be a power of two >= 2")
    # bins as (extent_lo, extent_hi, current value)
    bins = [(v, v, v) for v in range(q)]
    steps = []
    while len(bins) > 1:
        merged = []
        for i in range(0, len(bins), 2):
            lo_a, _, va = bins[i]
            _, hi_b, vb = bins[i + 1]
            r = _round_half_away(lo_a + (hi_b - lo_a) / 2.0)
            steps.append(MergeStep(min(va, vb), max(va, vb), r))
            merged.append((lo_a, hi_b, r))
        bins = merged
    return QuantisationPath(tuple(range(q)), tuple(steps))


def _pair_deltas(v, n, o_stat, o_weight):
    """Squared-error change for every merge pair, plus bookkeeping tables.

    For pair (i, j), i < j, the representative is the member with the
    larger count (smaller value on ties); only the other member's pixels
    move, by c = representative value - other value. The error change is
    -2c * <residual, other> + c^2 * <other, other>, where `o_stat` holds
    the per-cluster residual correlation and `o_weight` the self term.
    """
    rep_low = n[:, None] >= n[None, :]  # v ascending: ties go to the smaller value
    r = np.where(rep_low, v[:, None], v[None, :])
    o_v = np.where(rep_low, v[None, :], v[:, None])
    o_s = np.where(rep_low, o_stat[None, :], o_stat[:, None])
    o_w = np.where(rep_low, o_weight[None, :], o_weight[:, None])
    c = (r - o_v).astype(np.float64)
    delta = -2.0 * c * o_s + c * c * o_w
    return delta, r, rep_low


def _argmin_pair(delta, upper):
    """First (row-major) upper-triangle minimum: smallest (s, t) on ties.

    `upper` is a strict upper-triangle mask at least as large as `delta`.
    """
    q = delta.shape[0]
    flat = int(np.argmin(np.where(upper[:q, :q], delta, np.inf)))
    return flat // q, flat % q


def _greedy_merge(values, counts, dots, gram):
    """Merge steps that greedily minimise the squared reconstruction error.

    Cluster k has grey value `values[k]`, occurrence count `counts[k]` and
    basis function psi_k; the reconstruction is sum_k values[k] psi_k.
    `gram` is psi psi^T and `dots` is psi . res, res being the original
    minus the reconstruction; the loop consumes both. Each step merges
    the pair with the smallest error change (see `_pair_deltas`) into its
    representative.
    """
    v = np.asarray(values, dtype=np.int64)
    n = np.array(counts, dtype=np.float64)
    rows = np.arange(v.size)  # each live cluster's row and column in gram
    upper = np.triu(np.ones((v.size, v.size), dtype=bool), 1)
    steps = []
    while v.size > 1:
        delta, reps, rep_low = _pair_deltas(v, n, dots, gram.diagonal()[rows])
        i, j = _argmin_pair(delta, upper)
        r = int(reps[i, j])
        steps.append(MergeStep(int(v[i]), int(v[j]), r))
        keep, drop = (i, j) if rep_low[i, j] else (j, i)
        gk, gd = rows[keep], rows[drop]
        # res -= (r - v_drop) psi_drop, then psi_keep += psi_drop
        dots -= float(r - v[drop]) * gram[rows, gd]
        dots[keep] += dots[drop]
        gram[gk, :] += gram[gd, :]
        gram[:, gk] += gram[:, gd]
        n[keep] += n[drop]
        v, n, dots, rows = (np.delete(a, drop) for a in (v, n, dots, rows))
    return tuple(steps)


def ward_path(partition: LevelPartition) -> QuantisationPath:
    """Greedy merging minimising squared error against the original data.

    All value pairs are considered; the representative is the member
    cluster with the largest occurrence count. This is the merge loop of
    `sparsification_quant_path` with a full mask, whose basis functions
    are the level-set indicators: their Gram matrix is the diagonal of the
    counts and the initial residual is zero, so every update stays an
    exact integer.
    """
    if partition.values.size == 0:
        raise DomainError("empty partition")
    n = partition.counts.astype(np.float64)
    steps = _greedy_merge(partition.values, n, np.zeros(n.size), np.diag(n))
    return QuantisationPath(tuple(partition.values), steps)


def sparsification_quant_path(image: Image, mask: Mask) -> QuantisationPath:
    """Greedy merging of known-data values by global inpainting error.

    Each candidate merge quantises the known data and scores the MSE of
    its inpainting against the full original image. Homogeneous diffusion
    is linear in the known data, so reconstructions are superpositions of
    per-level-set harmonic basis functions, solved once per cluster; a
    candidate is then a rank-one update of the residual. The merge loop
    needs only the Gram matrix of the basis functions and their inner
    products with the residual, so it costs O(levels^2) per step whatever
    the image size. With a full mask this reduces to Ward clustering.
    """
    if len(mask) == 0:
        raise DomainError("empty mask")
    part = level_partition(image, mask)
    initial = tuple(part.values)
    if len(initial) == 1:
        return QuantisationPath(initial, ())

    solver = InpaintSolver(mask, image.width, image.height)
    v = part.values.astype(np.int64)
    known = image.pixels[mask.indices]
    psi = np.empty((v.size, image.size), dtype=np.float64)
    for k, value in enumerate(v):
        psi[k] = solver.solve((known == value).astype(np.float64))
    res = image.pixels.astype(np.float64) - v @ psi
    gram = psi @ psi.T
    dots = psi @ res
    del psi, res
    return QuantisationPath(initial, _greedy_merge(v, part.counts, dots, gram))


QPATH_MAGIC = "QSSQPATH v1"


def write_quant_path_file(path: QuantisationPath) -> str:
    lines = [QPATH_MAGIC, " ".join(str(v) for v in path.initial_values)]
    lines.extend(
        "%d %d %d" % (s.source_low, s.source_high, s.merged_value) for s in path.steps
    )
    return "\n".join(lines) + "\n"


def read_quant_path_file(text: str) -> QuantisationPath:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != QPATH_MAGIC:
        raise ValueError("not a %s file" % QPATH_MAGIC)
    try:
        initial = tuple(int(t) for t in lines[1].split())
        steps = tuple(
            MergeStep(*(int(t) for t in line.split())) for line in lines[2:]
        )
    except (IndexError, ValueError, TypeError):
        raise ValueError("malformed quantisation path file") from None
    return QuantisationPath(initial, steps)
