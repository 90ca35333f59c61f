"""Rate-distortion optimisation over mask scale l and quantisation scale m.

Coding cost is the idealised entropy-coder budget: known-pixel count times
the Shannon entropy of the known values, plus side information for the
quantisation table (a constant 8 bits for uniform quantisation, 8 bits per
stored grey value otherwise). Positions of the known data are not charged;
they are identical for all quantisation methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import (
    DomainError, Image, LevelPartition, Mask, entropy, level_partition, mse,
)
from .inpainting import InpaintSolver, round_to_grey
from .quantisation import (
    QuantisationPath,
    _quantised_known_values,
    sparsification_quant_path,
    uniform_path,
    ward_path,
)
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
    method: str
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
    per_value = entropy(LevelPartition(*np.unique(values, return_counts=True)))
    overhead = 8.0 if method == "uniform" else 8.0 * q_levels
    return CostModel(method, per_value, int(values.size), overhead)


def default_l_grid(image_size: int):
    """Mask scales of the logarithmically spaced `DEFAULT_DENSITIES`."""
    grid = sorted({image_size - math.ceil(d * image_size) for d in DEFAULT_DENSITIES})
    return [l for l in grid if 0 <= l < image_size]


def build_quant_path(image: Image, mask: Mask, method: str) -> QuantisationPath:
    """Quantisation path for the known data of one mask."""
    if method == "uniform":
        return uniform_path(image.grey_depth)
    if method == "ward":
        return ward_path(level_partition(image, mask))
    if method == "sparsification":
        return sparsification_quant_path(image, mask)
    raise ValueError("unknown method %r" % method)


def evaluate_grid(
    image: Image,
    spars_path: SparsificationPath,
    method: str,
    l_grid,
    budget: float = math.inf,
    on_reconstruction=None,
):
    """All rate-distortion points of one method over the (l, m) grid.

    Every quantisation scale m = 0 ... len(path) is evaluated at each l.

    Points over the bit budget are returned with mse = NaN (their
    reconstruction is never computed). Committed paths are rebuilt per l
    since the known values change with the mask. Reconstructions are not
    kept: `on_reconstruction(point, image)`, if given, sees each one as it
    is made.
    """
    points = []
    for l in l_grid:
        mask = spars_path.mask_at(l)
        solver = InpaintSolver(mask, image.width, image.height)
        path = build_quant_path(image, mask, method)
        for m, g in enumerate(_quantised_known_values(image, mask, path)):
            q_levels = len(path.initial_values) - m
            cost = coding_cost(g, q_levels, method)
            ratio = 8.0 * image.size / cost.total_bits
            rec, err = None, math.nan
            if cost.total_bits < budget:
                u = solver.solve(g)
                rec = round_to_grey(u, image.width, image.height, image.grey_depth)
                err = mse(image, rec)
            point = RateDistortionPoint(l, m, q_levels, err, ratio, cost)
            points.append(point)
            if rec is not None and on_reconstruction is not None:
                on_reconstruction(point, rec)
    return points


def rd_optimize(
    image: Image,
    spars_path: SparsificationPath,
    method: str,
    budget: float = math.inf,
    l_grid=None,
):
    """Best (l, m) under the budget; ties go to larger l, then larger m.

    Returns the winning point, whose `cost` is its coding cost, and its
    reconstruction.
    """
    if l_grid is None:
        l_grid = default_l_grid(image.size)
    if not l_grid:
        raise ValueError("empty l grid")
    best = None
    best_rec = None

    def keep_best(point, rec):
        nonlocal best, best_rec
        # grid is scanned in ascending (l, m); replacing on equality
        # implements the larger-l, larger-m tie preference
        if best is None or point.mse <= best.mse:
            best, best_rec = point, rec

    points = evaluate_grid(image, spars_path, method, l_grid, budget, keep_best)
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
    """Per-method rate-distortion points and their envelopes."""
    if l_grid is None:
        l_grid = default_l_grid(image.size)
    curves = {}
    for method in methods:
        points = evaluate_grid(image, spars_path, method, l_grid)
        curves[method] = {
            "points": points,
            "envelope": rate_distortion_envelope(points),
        }
    return curves


def curve_csv(curves) -> str:
    """CSV of the envelopes: method, ratio, mse."""
    lines = ["method,ratio,mse"]
    for method, data in curves.items():
        for _, edge, best in data["envelope"]:
            lines.append("%s,%.6g,%.6g" % (method, edge, best))
    return "\n".join(lines) + "\n"
