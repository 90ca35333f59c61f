import math

import numpy as np
import pytest

from qss import Image, Mask, probabilistic_sparsify
from qss.sparsification import (
    SparsificationPath,
    read_path_file,
    write_path_file,
)


def small_image(seed=0, w=6, h=6, levels=32):
    rng = np.random.default_rng(seed)
    return Image(w, h, rng.integers(0, levels, w * h))


def test_invalid_fractions():
    img = small_image()
    with pytest.raises(ValueError):
        probabilistic_sparsify(img, candidate_fraction=0.0)
    with pytest.raises(ValueError):
        probabilistic_sparsify(img, keep_fraction=1.0)
    with pytest.raises(ValueError):
        probabilistic_sparsify(img, target_density=0.0)


@pytest.mark.parametrize("floor", [-0.01, 0.6])
def test_floor_density_bounds(floor):
    with pytest.raises(ValueError):
        probabilistic_sparsify(small_image(), target_density=0.5, floor_density=floor)


@pytest.mark.parametrize(
    "seed, side, target, floor",
    [(0, 6, 1.0, 0.1), (1, 8, 1.0, 0.25), (2, 12, 0.5, 0.05), (3, 20, 1.0, 0.01),
     (4, 7, 0.5, 0.5), (5, 9, 1.0, 1.0)],
)
def test_floor_stopped_path_keeps_masks_down_to_floor(seed, side, target, floor):
    img = small_image(seed, side, side)
    full = probabilistic_sparsify(img, 0.1, 0.1, target, seed=seed)
    stopped = probabilistic_sparsify(img, 0.1, 0.1, target, seed=seed, floor_density=floor)
    last = img.size - math.ceil(floor * img.size)
    for l in range(last + 1):
        assert np.array_equal(stopped.mask_at(l).indices, full.mask_at(l).indices), l
    assert np.all(np.diff(stopped.removal_order[last:]) > 0)


def test_path_is_permutation_and_nested():
    img = small_image(1)
    path = probabilistic_sparsify(img, 0.1, 0.1, seed=7)
    assert sorted(path.removal_order) == list(range(img.size))
    for l in range(img.size - 1):
        a = set(path.mask_at(l).indices)
        b = set(path.mask_at(l + 1).indices)
        assert b < a and len(a - b) == 1
        assert len(a) == img.size - l


def test_mask_at_bounds():
    path = probabilistic_sparsify(small_image(2), seed=0)
    assert len(path.mask_at(0)) == 36
    assert len(path.mask_at(35)) == 1
    with pytest.raises(ValueError):
        path.mask_at(-1)
    with pytest.raises(ValueError):
        path.mask_at(36)


def test_deterministic_given_seed():
    img = small_image(3)
    a = probabilistic_sparsify(img, 0.1, 0.1, 0.5, seed=42)
    b = probabilistic_sparsify(img, 0.1, 0.1, 0.5, seed=42)
    assert np.array_equal(a.removal_order, b.removal_order)
    c = probabilistic_sparsify(img, 0.1, 0.1, 0.5, seed=43)
    assert not np.array_equal(a.removal_order, c.removal_order)


def test_constant_image_runs():
    img = Image(4, 4, [9] * 16)
    path = probabilistic_sparsify(img, 0.25, 0.25, seed=0)
    assert sorted(path.removal_order) == list(range(16))


def test_two_region_contrast_retained():
    # left half 0, right half 255: the sparse mask must keep both regions,
    # since dropping the last pixel of either maximises reconstruction error
    img = Image(4, 4, [0, 0, 255, 255] * 4)
    path = probabilistic_sparsify(img, 0.5, 0.5, 0.25, seed=3)
    retained = img.pixels[path.mask_at(12).indices]
    assert 0 in retained and 255 in retained


def test_path_file_roundtrip():
    path = probabilistic_sparsify(small_image(4), seed=11)
    text = write_path_file(path)
    assert text.splitlines()[0] == "QSSPATH v1 N=36"
    back = read_path_file(text)
    assert np.array_equal(back.removal_order, path.removal_order)
    assert back.image_size == path.image_size


def test_path_file_errors():
    with pytest.raises(ValueError):
        read_path_file("not a path file\n1\n2\n")
    with pytest.raises(ValueError):
        read_path_file("QSSPATH v1 N=4\n0\n1\n2\n")  # missing index


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        SparsificationPath(np.array([0, 0, 1, 2]), 4)
