import math

import numpy as np
import pytest

from qss import (
    DomainError,
    Image,
    LevelPartition,
    Mask,
    entropy,
    level_partition,
    mse,
    total_contrast,
)
from qss.compression import build_quant_path
from qss.quantisation import apply_path, apply_steps, ward_path
from qss.scale_space import generate, report_csv


class TestImage:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            Image(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            Image(2, 1, [0, 256])
        with pytest.raises(ValueError):
            Image(0, 2, [])
        with pytest.raises(ValueError, match="grey depth must be positive"):
            Image(1, 1, [0], grey_depth=0)

    @pytest.mark.parametrize("grid", [[1, 2, 3], np.zeros((2, 2, 1), dtype=int)],
                             ids=["1-D", "3-D"])
    def test_from_grid_needs_a_2d_array(self, grid):
        with pytest.raises(ValueError, match="expected a 2-D array"):
            Image.from_grid(grid)

    def test_grid_roundtrip(self):
        img = Image(3, 2, [1, 2, 3, 4, 5, 6])
        assert Image.from_grid(img.grid()) == img

    def test_pixels_immutable(self):
        img = Image(2, 2, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            img.pixels[0] = 9

    @pytest.mark.parametrize(
        "pixels", [[0.7, 1.9], np.array([0.0, 1.0]), np.array([True, False])]
    )
    def test_rejects_non_integer_pixels(self, pixels):
        # floats would truncate, a bool array would read as 0/1
        with pytest.raises(ValueError, match="pixel values must be integers, not"):
            Image(2, 1, pixels)

    def test_owns_a_copy_of_the_callers_pixels(self):
        pixels = np.array([1, 2, 3], dtype=np.uint8)
        img = Image(3, 1, pixels)
        grid = np.array([[1, 2], [3, 4]])
        from_grid = Image.from_grid(grid)
        pixels[0] = 99
        grid[0, 0] = 99
        assert img.pixels.tolist() == [1, 2, 3] and img.pixels.dtype == np.int64
        assert from_grid.pixels.tolist() == [1, 2, 3, 4]
        assert pixels.flags.writeable and grid.flags.writeable


class TestMask:
    @pytest.mark.parametrize(
        "indices", [[0, 2, 5], [5, 0, 2], [2, 0, 5, 2], [0, 0, 3], [4], []]
    )
    def test_indices_sorted_and_unique(self, indices):
        mask = Mask(np.array(indices), 8)
        assert mask.indices.tolist() == sorted(set(indices))
        assert not mask.indices.flags.writeable

    def test_owns_its_indices(self):
        indices = np.array([1, 3, 4])  # already sorted: no np.unique copy
        mask = Mask(indices, 5)
        indices[0] = 0
        assert indices.flags.writeable
        assert mask.indices.tolist() == [1, 3, 4]

    def test_equality(self):
        mask = Mask([3, 0], 5)
        assert mask == Mask(np.array([0, 3]), 5)
        assert mask != Mask([0, 3], 6)
        assert mask != Mask([0, 4], 5)

    @pytest.mark.parametrize("indices", [[0, 5], [5, 0], [-1, 2], [2, -1]])
    def test_rejects_out_of_range(self, indices):
        with pytest.raises(ValueError, match="outside"):
            Mask(indices, 5)

    @pytest.mark.parametrize(
        "indices", [np.isin(np.arange(16), [3, 7, 12]), [0.7, 5.9], np.array([3.0])]
    )
    def test_rejects_non_integer_indices(self, indices):
        # a bool array would read as {0, 1}, floats would truncate
        with pytest.raises(ValueError, match="integers"):
            Mask(indices, 16)


class TestLevelPartition:
    def test_basic_grouping(self):
        part = level_partition(Image(2, 2, [5, 5, 7, 5]))
        assert list(part.values) == [5, 7]
        assert list(part.counts) == [3, 1]
        assert part.domain_size == 4

    def test_constant_image(self):
        part = level_partition(Image(3, 3, [0] * 9))
        assert part.values.size == 1 and part.counts[0] == 9

    def test_masked(self):
        part = level_partition(Image(4, 1, [0, 10, 100, 0]), Mask([0, 1], 4))
        assert list(part.values) == [0, 10]
        assert list(part.counts) == [1, 1]

    def test_values_and_counts_must_pair_up(self):
        with pytest.raises(ValueError):
            LevelPartition(np.array([1, 2]), np.array([3]))

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([[1, 2]], [[3, 4]]),  # not 1-D
            ([-1, 2], [3, 4]),  # a negative value
            ([3, 1], [2, 2]),  # descending
            ([2, 2], [1, 1]),  # repeated
            ([1, 2], [0, 5]),  # a zero count
            ([1, 2], [-1, 5]),  # a negative count
        ],
    )
    def test_rejects_invalid_histograms(self, values, counts):
        with pytest.raises(ValueError):
            LevelPartition(np.array(values), np.array(counts))

    def test_empty_partition_allowed(self):
        part = LevelPartition(np.array([]), np.array([]))
        assert part.values.size == 0 and part.domain_size == 0

    @pytest.mark.parametrize("field", ["values", "counts"])
    @pytest.mark.parametrize(
        "bad", [[1.5, 2.5], np.array([1.0, 2.0]), np.array([True, True])]
    )
    def test_rejects_non_integer_values_and_counts(self, field, bad):
        # floats would truncate, a bool array would read as 0/1
        arrays = {"values": [1, 2], "counts": [1, 1], field: bad}
        with pytest.raises(ValueError, match="%s must be integers, not" % field):
            LevelPartition(**arrays)

    def test_owns_copies_and_leaves_callers_arrays_writeable(self):
        values, counts = np.array([1, 2]), np.array([3, 4])
        part = LevelPartition(values, counts)
        assert values.flags.writeable and counts.flags.writeable
        values[0], counts[0] = 0, 9
        assert part.values.tolist() == [1, 2] and part.counts.tolist() == [3, 4]
        with pytest.raises(ValueError):
            part.values[0] = 0

    def test_empty_mask_rejected(self):
        with pytest.raises(DomainError, match="empty domain"):
            level_partition(Image(2, 2, [0, 1, 2, 3]), Mask([], 4))

    def test_counts_match_unique(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, h = (int(k) for k in rng.integers(1, 20, 2))
            img = Image(w, h, rng.integers(0, int(rng.integers(1, 257)), w * h))
            size = int(rng.integers(1, img.size + 1))
            mask = Mask(rng.choice(img.size, size=size, replace=False), img.size)
            for domain, m in ((img.pixels, None), (img.pixels[mask.indices], mask)):
                part = level_partition(img, m)
                values, counts = np.unique(domain, return_counts=True)
                assert np.array_equal(part.values, values)
                assert np.array_equal(part.counts, counts)
                assert part.domain_size == domain.size


class TestEntropy:
    def test_constant_is_zero(self):
        h = entropy(level_partition(Image(2, 2, [3] * 4)))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_fair_binary_source(self):
        assert entropy(level_partition(Image(2, 2, [0, 0, 9, 9]))) == 1.0

    def test_sizes_2_1_1(self):
        assert entropy(level_partition(Image(2, 2, [4, 4, 5, 6]))) == 1.5

    def test_bounded_by_log_level_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            img = Image(5, 5, rng.integers(0, 8, 25))
            part = level_partition(img)
            h = entropy(part)
            bound = math.log2(part.values.size)
            assert h <= bound + 1e-12
            sizes = set(part.counts.tolist())
            if len(sizes) == 1:
                assert h == pytest.approx(bound, abs=1e-12)
            elif part.values.size > 1:
                assert h < bound

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        img = Image(4, 4, rng.integers(0, 5, 16))
        perm = rng.permutation(16)
        shuffled = img.with_pixels(img.pixels[perm])
        assert entropy(level_partition(img)) == entropy(level_partition(shuffled))
        assert total_contrast(img) == total_contrast(shuffled)


class TestContrast:
    def test_constant(self):
        assert total_contrast(Image(2, 2, [7] * 4)) == 0

    def test_full_range(self):
        assert total_contrast(Image(2, 1, [0, 255])) == 255

    def test_by_inspection(self):
        assert total_contrast(Image(3, 1, [3, 9, 7])) == 6

    def test_masked_and_empty(self):
        img = Image(3, 1, [3, 9, 7])
        assert total_contrast(img, Mask([0, 2], 3)) == 4
        with pytest.raises(DomainError):
            total_contrast(img, Mask([], 3))


class TestMse:
    def test_identical(self):
        img = Image(2, 2, [1, 2, 3, 4])
        assert mse(img, img) == 0.0

    def test_values(self):
        assert mse(Image(2, 1, [0, 0]), Image(2, 1, [2, 0])) == 2.0
        assert mse(Image(2, 1, [0, 255]), Image(2, 1, [255, 0])) == 65025.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mse(Image(2, 1, [0, 0]), Image(1, 2, [0, 0]))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Image(3, 3, rng.integers(0, 4, 9))
            b = Image(3, 3, rng.integers(0, 4, 9))
            assert (mse(a, b) == 0.0) == (a == b)


@pytest.mark.parametrize(
    "value, other",
    [(Image(2, 1, [0, 1]), Mask([0, 1], 2)), (Mask([0, 1], 2), Image(2, 1, [0, 1])),
     (Image(2, 1, [0, 1]), (0, 1)), (Mask([0, 1], 2), [0, 1])],
    ids=["image-mask", "mask-image", "image-tuple", "mask-list"],
)
def test_comparison_with_another_type_is_unequal(value, other):
    assert value.__eq__(other) is NotImplemented
    assert value != other and not value == other


def _ward_of(img):
    return ward_path(level_partition(img))


@pytest.mark.parametrize(
    "call",
    [
        lambda img, mask: apply_path(img, mask, _ward_of(img), 1),
        lambda img, mask: apply_steps(img, mask, _ward_of(img).steps),
        lambda img, mask: next(generate(img, mask, _ward_of(img))),
        level_partition,
        total_contrast,
        lambda img, mask: report_csv(img, mask, _ward_of(img)),
        lambda img, mask: build_quant_path(img, None, "sparsification"),
    ],
    ids=["apply_path", "apply_steps", "generate", "level_partition",
         "total_contrast", "report_csv", "build_quant_path-spars-none"],
)
def test_foreign_domain_is_a_domain_error(call):
    """A mask built for a larger image, or no mask for the sparsification
    method, raises DomainError and never IndexError."""
    img = Image(3, 2, [0, 4, 4, 9, 0, 9])
    with pytest.raises(DomainError):
        call(img, Mask([0, 7, 11], 12))
