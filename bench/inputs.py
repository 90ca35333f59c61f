"""Seeded benchmark inputs: piecewise-smooth grey images and removal orders.

Every input is a pure function of the benchmark seed, so the same seed gives
byte-identical inputs. Images are built so that their statistics (grey-level
count, edge length, contrast) vary little from seed to seed: a ramp across
the whole grey range, overlaid with a regular grid of disks and boxes of
fixed contrast, plus mild Gaussian noise. Many small features average out
the seed-to-seed variation of compression cost and distortion.
"""

from __future__ import annotations

import numpy as np

FEATURES_PER_SIDE = 6
FEATURE_CONTRAST = 48.0
NOISE_SIGMA = 2.0


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one seed."""
    return np.random.default_rng([seed, *stream])


def piecewise_smooth(rng: np.random.Generator, side: int) -> np.ndarray:
    """A side x side int64 image with values in [0, 255]."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    # near-diagonal, so the saturated corners have about the same area
    angle = np.pi / 4 + rng.integers(4) * np.pi / 2 + rng.uniform(-0.2, 0.2)
    ramp = np.cos(angle) * xx + np.sin(angle) * yy
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min())
    # overshoot both ends by more than a feature's contrast, so 0 and 255
    # occur even where a feature covers the ramp's extreme corner: the
    # uniform path's bin midpoints then stay inside the image's range
    overshoot = 8.0 + FEATURE_CONTRAST
    img = -overshoot + (255.0 + 2.0 * overshoot) * ramp
    tile = side / FEATURES_PER_SIDE
    for i in range(FEATURES_PER_SIDE):
        for j in range(FEATURES_PER_SIDE):
            cy = (i + rng.uniform(0.4, 0.6)) * tile
            cx = (j + rng.uniform(0.4, 0.6)) * tile
            r = rng.uniform(0.28, 0.32) * tile
            if (i + j) % 2:
                inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
            else:
                inside = (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
            # brighten on dark background, darken on bright, so no clipping
            centre = img[min(int(cy), side - 1), min(int(cx), side - 1)]
            sign = 1.0 if centre < 128.0 else -1.0
            img[inside] += sign * FEATURE_CONTRAST
    img += rng.normal(0.0, NOISE_SIGMA, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.int64)


def removal_order(rng: np.random.Generator, size: int) -> np.ndarray:
    """A random permutation of all pixel indices (a QSSPATH removal order)."""
    return rng.permutation(size).astype(np.int64)


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Binary P5 PGM with maxval 255."""
    height, width = grid.shape
    return b"P5\n%d %d\n255\n" % (width, height) + grid.astype(np.uint8).tobytes()


def read_p5(data: bytes) -> np.ndarray:
    """Pixels of a P5 file with a plain three-line header (as qss writes it)."""
    magic, dims, maxval, raster = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("unexpected PGM header")
    width, height = (int(t) for t in dims.split())
    if len(raster) != width * height:
        raise ValueError("PGM raster has %d bytes, expected %d" % (len(raster), width * height))
    return np.frombuffer(raster, dtype=np.uint8).astype(np.int64).reshape(height, width)


def path_file_text(order: np.ndarray) -> str:
    """QSSPATH v1 text for a removal order."""
    return "QSSPATH v1 N=%d\n" % order.size + "\n".join(map(str, order.tolist())) + "\n"


def describe(grid: np.ndarray) -> dict:
    """Size and occurring grey-level count of one image."""
    return {"width": int(grid.shape[1]), "height": int(grid.shape[0]),
            "levels": int(np.unique(grid).size)}
