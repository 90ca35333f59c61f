"""Rate-distortion optimisation over mask scale l and quantisation scale m.

Coding cost is the idealised entropy-coder budget: known-pixel count times
the Shannon entropy of the known values, plus side information for the
quantisation table (a constant 8 bits for uniform quantisation, 8 bits per
stored grey value otherwise). Positions of the known data are not charged;
they are identical for all quantisation methods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .image import DomainError, Image, _domain, _histogram, entropy
from .inpainting import _BLOCK_COLUMNS, InpaintSolver, _round_grey
from .quantisation import (
    _level_basis, _quant_path, _quantised_known_values, _value_map, build_quant_path,
)
from .scale_space import _walk
from .sparsification import SparsificationPath

METHODS = ("uniform", "ward", "sparsification")

DEFAULT_DENSITIES = (1.0, 0.64, 0.32, 0.16, 0.08, 0.04, 0.02, 0.01)

BUCKETS_PER_DECADE = 10  # compression-ratio buckets of the RD envelope


class InfeasibleBudgetError(ValueError):
    """No (l, m) pair fits the bit budget."""

    def __init__(self, minimal_bits: float):
        super().__init__(
            "budget infeasible: minimal achievable cost is %.3f bits" % minimal_bits
        )
        self.minimal_bits = minimal_bits


@dataclass(frozen=True)
class CostModel:
    per_value_bits: float
    n_known: int
    overhead_bits: float

    @property
    def total_bits(self) -> float:
        return self.n_known * self.per_value_bits + self.overhead_bits


@dataclass(frozen=True)
class RateDistortionPoint:
    l: int
    m: int
    q_levels: int
    mse: float
    compression_ratio: float
    cost: CostModel

    @property
    def total_bits(self) -> float:
        return self.cost.total_bits


def coding_cost(known_values: np.ndarray, q_levels: int, method: str) -> CostModel:
    """Entropy-based bit budget for storing the known grey values."""
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    if q_levels < 1:
        raise ValueError("q_levels must be >= 1")
    values = np.asarray(known_values).ravel()
    if values.size == 0:
        raise DomainError("empty known data")
    return _cost_model(entropy(_histogram(values)), int(values.size), q_levels, method)


def _cost_model(per_value_bits, n_known, q_levels, method) -> CostModel:
    overhead = 8.0 if method == "uniform" else 8.0 * q_levels
    return CostModel(per_value_bits, n_known, overhead)


def default_l_grid(image_size: int):
    """Mask scales of the logarithmically spaced `DEFAULT_DENSITIES`.

    Each density lies in (0, 1], so each scale lies in [0, image_size).
    """
    return sorted({image_size - math.ceil(d * image_size) for d in DEFAULT_DENSITIES})


def evaluate_grid(
    image: Image,
    spars_path: SparsificationPath,
    methods,
    l_grid,
    budget: float = math.inf,
    on_reconstruction=None,
):
    """All rate-distortion points of each method over the (l, m) grid, as
    `{method: points}`; a method named twice is evaluated once, and an
    unknown method or a budget that is not positive (NaN included) raises
    ValueError.

    Every quantisation scale m = 0 ... len(path) is evaluated at each l.
    Points over the bit budget are returned with mse = NaN (their
    reconstruction is never computed). Paths are rebuilt per l since the
    known values change with the mask. Reconstructions are not kept:
    `on_reconstruction(point, grey)`, if given, sees each one as it is
    scored, its grey values (`round_to_grey`) as a length-N int64 array
    that is only valid during the call. Within each l the points arrive
    method by method, each method's in ascending m.

    Inpainting is linear in the known data, so no point needs a solve of
    its own. Each mask is evaluated once for all methods: its known
    values and their histogram are read once, it is factorised once, and
    the harmonic basis psi_c of every cluster c of its known values at
    m = 0 is found by one block solve on first use. Each method builds its
    path from that state through the dispatch of `build_quant_path` (the
    sparsification method from the basis of m = 0 on a mask with unknowns,
    and as Ward's path on the full mask, where it needs no basis), and
    each l is one walk of each path, m = 0 ... len(path): the
    known values at m are those at m - 1 after one merge step, and each m
    adds its cost point. At the first affordable m (m = 0 without a
    budget) the reconstruction is sum_c c psi_c, from the shared basis of
    m = 0 or, for m > 0, from a block solve of that scale's clusters
    through the same factorisation. From there each merge step
    (a, b -> r) adds (r - a) psi_a + (r - b) psi_b and sets
    psi_r = psi_a + psi_b. Affordable reconstructions are scored
    `_BLOCK_COLUMNS` at a time: each block passes `InpaintSolver.check`,
    as a solve does, then is rounded to grey values and scored in place
    (`_score`); no `Image` is built per point. The full mask is neither
    factorised nor solved: its reconstruction at scale m is the quantised
    image, and its points come from the histogram walk of `report_csv`
    (`_full_mask_points`).
    """
    if not budget > 0:  # an input error, not an infeasible one
        raise ValueError("budget must be positive")
    points = {method: [] for method in methods}
    for l in l_grid if points else ():  # no method, no mask to evaluate
        _evaluate_mask(image, spars_path.mask_at(l), l, points, budget, on_reconstruction)
    return points


def _evaluate_mask(image, mask, l, points, budget, on_reconstruction):
    """Append each method's points at mask scale l to `points[method]`.

    The state of the mask is local, so it is freed before the next mask
    is factorised. The basis of m = 0 is walked in place by the last
    method and copied for the others. A full mask builds neither a solver
    nor a basis (see `_full_mask_points`).
    """
    known = _domain(image, mask)
    part = _histogram(known)
    if part.domain_size == image.size:
        for method, method_points in points.items():
            path = _quant_path(image, part, method, None)  # an unknown method raises
            method_points += _full_mask_points(image, part, path, method, budget,
                                               on_reconstruction)
        return
    solver = InpaintSolver(mask, image.width, image.height)
    shared = functools.cache(lambda: _level_basis(solver, known, part.values))
    last = list(points)[-1]
    for method, method_points in points.items():
        path = _quant_path(image, part, method, shared)  # an unknown method raises
        zero_basis = shared if method == last else lambda: shared().copy()
        method_points += _walk_path(image, l, known, solver, path, method, zero_basis,
                                    budget, on_reconstruction)


def _full_mask_points(image, part, path, method, budget, on_reconstruction):
    """The points of one method at l = 0, in ascending m.

    A full mask's reconstruction at scale m is the quantised image itself,
    so the histogram walk of `report_csv` gives each point at once: the
    entropy of f^m, bit-identical to that of its histogram, is the
    per-value rate, and its exact squared error over N the MSE, as
    `_score` finds it. Only an affordable point's grey values are read,
    through the lookup table of its scale, and only for a callback.
    """
    levels = len(path.initial_values)
    lut = _value_map((), image.grey_depth)
    points = []
    for m, ((*_, bits), err) in enumerate(_walk(part, path, image.grey_depth)):
        if m:
            _value_map(path.steps[m - 1 : m], image.grey_depth, lut)
        cost = _cost_model(bits, image.size, levels - m, method)
        point = RateDistortionPoint(0, m, levels - m, math.nan,
                                    8.0 * image.size / cost.total_bits, cost)
        if cost.total_bits < budget:
            point = replace(point, mse=err / image.size)
            if on_reconstruction is not None:
                on_reconstruction(point, lut[image.pixels])
        points.append(point)
    return points


def _walk_path(image, l, known, solver, path, method, zero_basis, budget, on_reconstruction):
    """The points of one method at mask scale l, in ascending m, from one
    walk of its path; `zero_basis()` gives a basis of m = 0 to consume."""
    levels = len(path.initial_values)
    superposed, points, block = None, [], []
    data = np.empty((_BLOCK_COLUMNS, len(known)))
    recs = np.empty((_BLOCK_COLUMNS, image.size))
    for m, g in enumerate(_quantised_known_values(known, path, image.grey_depth)):
        cost = coding_cost(g, levels - m, method)
        ratio = 8.0 * image.size / cost.total_bits
        points.append(RateDistortionPoint(l, m, levels - m, math.nan, ratio, cost))
        affordable = cost.total_bits < budget
        if superposed is None:  # no scale affordable yet
            if not affordable:
                continue
            clusters = np.unique(g)
            basis = _level_basis(solver, g, clusters) if m else zero_basis()
            superposed = _superpositions(clusters, basis, path.steps[m:])
        rec = next(superposed)
        if affordable:  # block holds the scale m of each row of data and recs
            data[len(block)], recs[len(block)] = g, rec
            block.append(m)
        if block and (len(block) == _BLOCK_COLUMNS or m == len(path)):
            solver.check(data[: len(block)], recs[: len(block)])
            greys, errors = _score(image, recs[: len(block)])
            for k, grey, err in zip(block, greys, errors):
                points[k] = replace(points[k], mse=float(err))
                if on_reconstruction is not None:
                    on_reconstruction(points[k], grey)
            block = []
    return points


def _score(image, recs):
    """Round the (k, N) block of reconstructions `recs` to grey values in
    place, as `round_to_grey` does, and return them as int64 with the MSE
    of each row against `image`.

    Each MSE is the sum of squared errors over N. The squared errors are
    integers and every partial sum stays below 2**53, so the float sum is
    the exact integer sum and the MSE equals `mse` to the bit.
    """
    greys = _round_grey(recs, image.grey_depth).astype(np.int64)
    recs -= image.pixels
    recs *= recs
    return greys, recs.sum(axis=1) / image.size


def _superpositions(clusters, basis, steps):
    """Reconstructions sum_c c psi_c at the scale of `clusters`, then after
    each merge step of `steps`.

    `basis` holds psi_c, one row per cluster value, and is consumed. A step
    (a, b -> r) adds (r - a) psi_a + (r - b) psi_b and sets
    psi_r = psi_a + psi_b, at O(N); a value without known pixels has no
    row. Yields one array, updated in place.
    """
    row = {int(c): k for k, c in enumerate(clusters)}
    rec = clusters.astype(np.float64) @ basis
    yield rec
    for step in steps:
        members = [(row.pop(v), v) for v in (step.source_low, step.source_high) if v in row]
        for k, value in members:
            rec += float(step.merged_value - value) * basis[k]
        if len(members) == 2:
            basis[members[0][0]] += basis[members[1][0]]
        if members:
            row[step.merged_value] = members[0][0]
        yield rec


def rd_optimize(
    image: Image,
    spars_path: SparsificationPath,
    method: str,
    budget: float = math.inf,
    l_grid=None,
):
    """Best (l, m) under the budget; ties go to larger l, then larger m.

    Returns the winning point, whose `cost` is its coding cost, and its
    reconstruction. A budget that is not positive raises ValueError, and
    one that no point fits raises InfeasibleBudgetError.
    """
    l_grid = sorted(default_l_grid(image.size) if l_grid is None else l_grid)
    if not l_grid:
        raise ValueError("empty l grid")
    best = None
    best_rec = None

    def keep_best(point, grey):
        nonlocal best, best_rec
        # grid is scanned in ascending (l, m); replacing on equality
        # implements the larger-l, larger-m tie preference
        if best is None or point.mse <= best.mse:
            best, best_rec = point, image.with_pixels(grey)

    points = evaluate_grid(image, spars_path, (method,), l_grid, budget, keep_best)[method]
    if best is None:
        raise InfeasibleBudgetError(min(p.total_bits for p in points))
    return best, best_rec


def rate_distortion_envelope(points):
    """Lower envelope over geometric compression-ratio buckets.

    There are `BUCKETS_PER_DECADE` buckets per decade of the ratio. For
    every bucket containing at least one point, reports the best MSE among
    all points whose ratio reaches the bucket's lower edge, which makes
    the envelope monotone by construction.
    """
    usable = [p for p in points if not math.isnan(p.mse)]
    buckets = sorted(
        {math.floor(BUCKETS_PER_DECADE * math.log10(p.compression_ratio)) for p in usable}
    )
    envelope = []
    for b in buckets:
        edge = 10 ** (b / BUCKETS_PER_DECADE)
        best = min(p.mse for p in usable if p.compression_ratio >= edge)
        envelope.append((b, edge, best))
    return envelope


def rd_curve(
    image: Image,
    spars_path: SparsificationPath,
    methods=METHODS,
    l_grid=None,
):
    """Per-method rate-distortion points and their envelopes, from one
    `evaluate_grid` call, so each mask is factorised and its basis of
    m = 0 solved once for all `methods`."""
    if l_grid is None:
        l_grid = default_l_grid(image.size)
    grid = evaluate_grid(image, spars_path, methods, l_grid)
    return {m: {"points": p, "envelope": rate_distortion_envelope(p)} for m, p in grid.items()}
