"""Core image type, level histograms and histogram metrics.

Images are rectangular grids of integer grey values stored row-major.
All metrics (entropy, contrast, MSE) are computed in double precision;
entropies are in bits (log base 2 throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Empty or mismatched pixel domain."""


def _integers(values, what: str) -> np.ndarray:
    """The one conversion of integer input for `Image`, `Mask`,
    `LevelPartition` and `SparsificationPath`: a flat, read-only int64
    copy of `values` that the value type owns. No later write to the
    caller's array reaches it, and the caller's array stays writeable.

    A non-empty float or bool array raises ValueError naming `what`:
    floats would truncate, and bools would read as 0/1. An empty array
    holds no values whatever its dtype (`np.asarray([])` is float64).
    """
    flat = np.ravel(values)
    if flat.size and flat.dtype.kind not in "iu":
        raise ValueError("%s must be integers, not %s" % (what, flat.dtype))
    owned = np.array(flat, dtype=np.int64)
    owned.flags.writeable = False
    return owned


@dataclass(frozen=True)
class Image:
    """Grey-value image on a w x h grid, values in [0, grey_depth - 1]."""

    width: int
    height: int
    pixels: np.ndarray  # shape (width * height,), row-major
    grey_depth: int = 256

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.grey_depth <= 0:
            raise ValueError("grey depth must be positive")
        px = _integers(self.pixels, "pixel values")
        if px.size != self.width * self.height:
            raise ValueError(
                "pixel count %d does not match %dx%d"
                % (px.size, self.width, self.height)
            )
        if px.size and (px.min() < 0 or px.max() > self.grey_depth - 1):
            raise ValueError("pixel values outside [0, %d]" % (self.grey_depth - 1))
        object.__setattr__(self, "pixels", px)

    @property
    def size(self) -> int:
        return self.width * self.height

    def grid(self) -> np.ndarray:
        """Pixels reshaped to (height, width)."""
        return self.pixels.reshape(self.height, self.width)

    @classmethod
    def from_grid(cls, grid, grey_depth: int = 256) -> "Image":
        grid = np.asarray(grid)
        if grid.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(grid.shape[1], grid.shape[0], grid, grey_depth)

    def with_pixels(self, pixels) -> "Image":
        return Image(self.width, self.height, pixels, self.grey_depth)

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.grey_depth == other.grey_depth
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True)
class Mask:
    """Sorted set of known pixel indices within an image of `image_size` pixels."""

    indices: np.ndarray
    image_size: int

    def __post_init__(self):
        idx = _integers(self.indices, "mask indices")
        if np.any(idx[1:] <= idx[:-1]):  # sort only what is not strictly increasing
            idx = _integers(np.unique(idx), "mask indices")  # sorted, duplicate-free
        if idx.size and (idx[0] < 0 or idx[-1] >= self.image_size):
            raise ValueError("mask indices outside [0, %d)" % self.image_size)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    @classmethod
    def full(cls, image_size: int) -> "Mask":
        return cls(np.arange(image_size), image_size)

    def bool_array(self) -> np.ndarray:
        arr = np.zeros(self.image_size, dtype=bool)
        arr[self.indices] = True
        return arr

    def __eq__(self, other):
        if not isinstance(other, Mask):
            return NotImplemented
        return self.image_size == other.image_size and np.array_equal(
            self.indices, other.indices
        )


@dataclass(frozen=True)
class LevelPartition:
    """Histogram of a pixel domain: occurring grey values and their counts."""

    values: np.ndarray  # strictly increasing
    counts: np.ndarray  # pixels per value, all positive

    def __post_init__(self):
        if np.ndim(self.values) != 1 or np.ndim(self.counts) != 1:
            raise ValueError("values and counts must be 1-D")
        for name in ("values", "counts"):
            object.__setattr__(self, name, _integers(getattr(self, name), name))
        if self.values.shape != self.counts.shape:
            raise ValueError("values and counts differ in length")
        if self.values.size:
            if self.values[0] < 0 or not (self.values[1:] > self.values[:-1]).all():
                raise ValueError("values must be non-negative and strictly increasing")
            if self.counts.min() <= 0:
                raise ValueError("counts must be positive")

    @property
    def domain_size(self) -> int:
        return int(self.counts.sum())


def _domain(image: Image, mask: Mask | None) -> np.ndarray:
    """Pixel values of the domain: the masked pixels, or all of them."""
    if mask is None:
        return image.pixels
    if mask.image_size != image.size:
        raise DomainError("mask size does not match image")
    if len(mask) == 0:
        raise DomainError("empty domain")
    return image.pixels[mask.indices]


def _with_domain(image: Image, mask: Mask | None, values: np.ndarray) -> Image:
    """`image` with the pixels of the domain (see `_domain`) set to `values`."""
    if mask is None:
        return image.with_pixels(values)
    pixels = image.pixels.copy()
    pixels[mask.indices] = values
    return image.with_pixels(pixels)


def level_partition(image: Image, mask: Mask | None = None) -> LevelPartition:
    """Histogram of the (masked) pixels, in one pass over the domain."""
    return _histogram(_domain(image, mask))


def _histogram(values: np.ndarray) -> LevelPartition:
    """Histogram of non-negative integer values, by one `np.bincount`."""
    counts = np.bincount(values)
    occurring = np.flatnonzero(counts)
    return LevelPartition(occurring, counts[occurring])


def entropy(partition: LevelPartition | np.ndarray) -> float:
    """Shannon entropy of the level-set histogram, in bits per pixel.

    `partition` is a `LevelPartition` or its counts alone: positive, in
    ascending value order, which the summation follows, so a histogram
    gives the same bits either way.
    """
    counts = partition.counts if isinstance(partition, LevelPartition) else partition
    p = counts / counts.sum()
    # 0.0 - x, not -x: a single level gives +0.0 rather than -0.0
    return float(0.0 - np.sum(p * np.log2(p)))


def total_contrast(image: Image, mask: Mask | None = None) -> int:
    """Max minus min grey value over the considered pixels."""
    values = level_partition(image, mask).values
    return int(values[-1] - values[0])


def mse(a: Image, b: Image) -> float:
    """Mean squared error between two images of identical dimensions."""
    if a.width != b.width or a.height != b.height:
        raise DomainError("image dimensions differ")
    d = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return float(np.mean(d * d))
