"""Spatial sparsification paths: nested inpainting masks K^0 > K^1 > ...

Probabilistic sparsification repeatedly removes a batch of mask pixels,
re-adding the candidates whose absence hurts the reconstruction most.
The resulting removal order defines one mask per scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import Image, Mask
from .inpainting import InpaintSolver, _snap


@dataclass(frozen=True)
class SparsificationPath:
    """Removal order of all N pixels; position l is removed going K^l -> K^{l+1}."""

    removal_order: np.ndarray
    image_size: int

    def __post_init__(self):
        order = np.asarray(self.removal_order, dtype=np.int64).ravel()
        # compare sizes first: a huge image_size from a file header must not
        # allocate np.arange(image_size)
        if order.size != self.image_size or not np.array_equal(
            np.sort(order), np.arange(self.image_size)
        ):
            raise ValueError("removal order is not a permutation of all pixels")
        order.flags.writeable = False
        object.__setattr__(self, "removal_order", order)

    def mask_at(self, scale: int) -> Mask:
        """Mask K^scale with image_size - scale known pixels."""
        if not 0 <= scale <= self.image_size - 1:
            raise ValueError("scale %d out of [0, %d]" % (scale, self.image_size - 1))
        return Mask(self.removal_order[scale:], self.image_size)


def probabilistic_sparsify(
    image: Image,
    candidate_fraction: float = 0.02,
    keep_fraction: float = 0.02,
    target_density: float = 1.0,
    seed: int = 0,
    floor_density: float = 0.0,
) -> SparsificationPath:
    """Build a sparsification path by probabilistic candidate removal.

    Each round draws ceil(p * |K|) random candidates, inpaints without them,
    re-adds the ceil(q * c) candidates with the largest pointwise error and
    removes the rest (appended to the path, lowest error first). The mask
    is clamped at ceil(target_density * N) pixels once, then the same
    procedure continues down to a single pixel so the path covers all N.

    `floor_density` in [0, target_density] stops the optimisation early:
    the mask is clamped once more at ceil(floor_density * N) pixels, and
    the pixels still known there are appended in ascending index order
    without further rounds. Masks with at least that many pixels are the
    same pixel sets as with the default 0.0, which optimises the order
    down to a single pixel.
    """
    if not 0 < candidate_fraction <= 1:
        raise ValueError("candidate fraction must be in (0, 1]")
    if not 0 <= keep_fraction < 1:
        raise ValueError("keep fraction must be in [0, 1)")
    if not 0 < target_density <= 1:
        raise ValueError("target density must be in (0, 1]")
    if not 0 <= floor_density <= target_density:
        raise ValueError("floor density must be in [0, target density]")

    n = image.size
    rng = np.random.default_rng(seed)
    f = image.pixels.astype(np.float64)
    known = np.arange(n)
    order: list[int] = []

    targets = [math.ceil(target_density * n), max(math.ceil(floor_density * n), 1)]
    for target in targets:
        while known.size > target:
            c = min(math.ceil(candidate_fraction * known.size), known.size - 1)
            cand_pos = rng.choice(known.size, size=c, replace=False)
            cand = known[cand_pos]
            rest = np.delete(known, cand_pos)
            solver = InpaintSolver(Mask(rest, n), image.width, image.height)
            u = solver.solve(f[rest])
            err = _snap(np.abs(u[cand] - f[cand]))
            keep = min(math.ceil(keep_fraction * c), c - 1)
            n_remove = min(c - keep, known.size - target)
            # remove lowest-error candidates first; ties (exact after the
            # snap, whatever the solver's round-off) toward smaller index
            removed = cand[np.lexsort((cand, err))][:n_remove]
            order.extend(int(i) for i in removed)
            known = np.setdiff1d(known, removed, assume_unique=True)
    order.extend(int(i) for i in known)  # ascending: setdiff1d returns sorted
    return SparsificationPath(np.array(order), n)


PATH_MAGIC = "QSSPATH v1"


def write_path_file(path: SparsificationPath) -> str:
    lines = ["%s N=%d" % (PATH_MAGIC, path.image_size)]
    lines.extend(str(i) for i in path.removal_order)
    return "\n".join(lines) + "\n"


def read_path_file(text: str) -> SparsificationPath:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith(PATH_MAGIC):
        raise ValueError("not a %s file" % PATH_MAGIC)
    try:
        n = int(lines[0].split("N=")[1])
        order = np.array([int(line) for line in lines[1:]], dtype=np.int64)
    except (IndexError, ValueError, OverflowError):
        raise ValueError("malformed sparsification path file") from None
    return SparsificationPath(order, n)
