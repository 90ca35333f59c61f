import math

import numpy as np
import pytest

from qss import Image, InpaintingError, InpaintSolver, Mask, inpainting, probabilistic_sparsify
from qss.inpainting import _snap
from qss.sparsification import (
    SparsificationPath,
    read_path_file,
    write_path_file,
)

from conftest import make_synthetic


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
    # the header as the writer emits it, and every number in ASCII digits
    for text, match in [
        ("QSSPATH v1xyz N=+3\n0\n1\n2\n", "not a"),
        ("QSSPATH v1 N=+3\n0\n1\n2\n", "malformed"),
        ("QSSPATH v1 N=3\n+0\n1\n2\n", "malformed"),
        ("QSSPATH v1 N=3\n0\n 1\n2\n", "malformed"),
        ("QSSPATH v1 N=3\n-0\n1\n2\n", "malformed"),
        ("QSSPATH v1 N=3\n0\n0_1\n2\n", "malformed"),
        ("QSSPATH v1 N=\u0663\n\u0660\n1\n\uff12\n", "malformed"),  # [0, 1, 2]
        ("QSSPATH v1 N=0", "malformed"),
        ("QSSPATH v1 N=0\n", "malformed"),
        ("QSSPATH v1 N=" + "1" * 5000 + "\n0\n", "malformed"),  # more digits than int() converts
    ]:
        with pytest.raises(ValueError, match=match):
            read_path_file(text)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        SparsificationPath(np.array([0, 0, 1, 2]), 4)


@pytest.mark.parametrize(
    "order", [[0.0, 2.0, 1.0], np.array([2.5, 0.5, 1.5]), np.array([True, False])]
)
def test_rejects_non_integer_order(order):
    # floats would truncate, a bool array would read as 0/1: each of these
    # would otherwise pass as a permutation
    with pytest.raises(ValueError, match="removal order must be integers, not"):
        SparsificationPath(order, len(order))


def test_owns_a_copy_of_the_callers_order():
    order = np.array([2, 0, 1])
    path = SparsificationPath(order, 3)
    order[:] = 0
    assert order.flags.writeable
    assert path.removal_order.tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        path.removal_order[0] = 1


@pytest.mark.parametrize("order", [[-1, 0, 1], [0, 1, 3], [2, 1, -3]])
def test_indices_outside_image_rejected(order):
    with pytest.raises(ValueError, match="permutation"):
        SparsificationPath(np.array(order), 3)
    text = "QSSPATH v1 N=3\n" + "".join("%d\n" % i for i in order)
    with pytest.raises(ValueError, match="permutation"):
        read_path_file(text)


@pytest.mark.parametrize(
    "text",
    [
        "QSSPATH v1 N=1000000000000000000\n0\n",  # sizes differ: no arange(N)
        "QSSPATH v1 N=1\n99999999999999999999\n",  # index past int64
    ],
)
def test_path_file_with_huge_numbers_rejected(text):
    with pytest.raises(ValueError):
        read_path_file(text)


def reference_sparsify(image, candidate_fraction=0.02, keep_fraction=0.02,
                       target_density=1.0, seed=0, floor_density=0.0):
    """`probabilistic_sparsify` with one fresh `InpaintSolver` per round."""
    n = image.size
    rng = np.random.default_rng(seed)
    f = image.pixels.astype(np.float64)
    known = np.arange(n)
    order = []
    for target in [math.ceil(target_density * n), max(math.ceil(floor_density * n), 1)]:
        while known.size > target:
            c = min(math.ceil(candidate_fraction * known.size), known.size - 1)
            cand_pos = rng.choice(known.size, size=c, replace=False)
            cand = known[cand_pos]
            rest = np.delete(known, cand_pos)
            u = InpaintSolver(Mask(rest, n), image.width, image.height).solve(f[rest])
            err = _snap(np.abs(u[cand] - f[cand]))
            keep = min(math.ceil(keep_fraction * c), c - 1)
            n_remove = min(c - keep, known.size - target)
            removed = cand[np.lexsort((cand, err))][:n_remove]
            order.extend(removed.tolist())
            known = np.setdiff1d(known, removed, assume_unique=True)
    return np.array(order + known.tolist())


def sample_image(kind, side):
    if kind == "synthetic":
        return make_synthetic(side)
    return Image(side, side, np.random.default_rng(side).integers(0, 256, side * side))


@pytest.mark.parametrize(
    "kind, side, seed, target, floor, p",
    [
        ("synthetic", 16, 0, 1.0, 0.0, 0.02),
        ("synthetic", 24, 1, 1.0, 0.01, 0.02),
        ("synthetic", 32, 2, 0.5, 0.0, 0.02),
        ("synthetic", 48, 0, 1.0, 0.01, 0.02),  # 33 to 47 candidates: fresh rounds first
        ("synthetic", 36, 1, 0.8, 0.0, 0.02),
        ("synthetic", 44, 2, 0.5, 0.01, 0.02),
        ("synthetic", 40, 1, 1.0, 0.0, 0.1),
        ("noise", 32, 0, 1.0, 0.0, 0.02),
        ("noise", 40, 2, 0.7, 0.01, 0.05),
    ],
)
def test_order_matches_fresh_solver_per_round(kind, side, seed, target, floor, p):
    image = sample_image(kind, side)
    path = probabilistic_sparsify(image, p, p, target, seed=seed, floor_density=floor)
    expected = reference_sparsify(image, p, p, target, seed=seed, floor_density=floor)
    assert np.array_equal(path.removal_order, expected)


@pytest.mark.parametrize("kind, side", [("synthetic", 16), ("noise", 8)])
def test_residual_check_fires_in_bordered_rounds(kind, side, monkeypatch):
    monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
    with pytest.raises(InpaintingError) as err:
        probabilistic_sparsify(sample_image(kind, side), seed=1)
    assert err.value.residual > 1e-300
    assert any(entry.name == "solve_bordered" for entry in err.traceback)


def test_factorisation_count_of_the_rounds(monkeypatch):
    """Sparsifying a 48x48 image at seed 1 down to a 1 % floor factorises
    49 times: the rounds on kept factorisations make no hidden extra ones.
    A change that lowers the count on purpose updates the number here and
    records the new count in CHANGES.md."""
    calls = []
    factorize = inpainting._factorize
    monkeypatch.setattr(inpainting, "_factorize", lambda A: calls.append(1) or factorize(A))
    probabilistic_sparsify(make_synthetic(48), seed=1, floor_density=0.01)
    assert len(calls) == 49
