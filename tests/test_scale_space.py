import numpy as np
import pytest

from qss import (
    Image,
    Mask,
    MergeStep,
    PathError,
    QuantisationPath,
    apply_path,
    generate,
    level_partition,
    uniform_path,
    verify_scale_space,
    verify_semigroup,
    ward_path,
)
from qss.quantisation import sparsification_quant_path
from qss.scale_space import report_csv

from conftest import make_synthetic, random_image, random_mask


def ward_of(img, mask=None):
    return ward_path(level_partition(img, mask))


class TestGenerate:
    def test_empty_path(self):
        img = Image(2, 1, [4, 4])
        seq = list(generate(img, None, QuantisationPath((4,), ())))
        assert seq == [img]

    def test_two_value_image(self):
        img = Image(2, 1, [0, 9])
        seq = list(generate(img, None, ward_of(img)))
        assert len(seq) == 2
        assert len(np.unique(seq[-1].pixels)) == 1

    def test_ward_cascade_example(self):
        img = Image(4, 1, [0, 0, 10, 100])
        seq = list(generate(img, None, ward_of(img)))
        assert [list(s.pixels) for s in seq] == [
            [0, 0, 10, 100],
            [0, 0, 0, 100],
            [0, 0, 0, 0],
        ]

    def test_sequence_length(self):
        img = Image(3, 3, [0, 1, 2, 3, 4, 5, 6, 7, 0])
        path = ward_of(img)
        assert len(list(generate(img, None, path))) == len(path) + 1


class TestEntropyLyapunov:
    def test_strict_decrease_merging_singletons(self):
        img = Image(4, 1, [4, 4, 5, 6])
        path = QuantisationPath((4, 5, 6), (MergeStep(5, 6, 5),))
        report = verify_scale_space(generate(img, None, path))[0]
        assert report.entropies == pytest.approx([1.5, 1.0])
        assert report.passed

    def test_empty_bin_merge_keeps_entropy(self):
        # uniform path on a 2-value image: most steps touch empty bins
        img = Image(2, 2, [0, 0, 3, 3], grey_depth=4)
        seq = generate(img, None, uniform_path(4))
        report = verify_scale_space(seq)[0]
        assert report.passed
        assert report.entropies[0] == report.entropies[1] == 1.0

    def test_full_path_ends_at_zero_entropy(self):
        rng = np.random.default_rng(0)
        img = Image(5, 5, rng.integers(0, 30, 25))
        report = verify_scale_space(generate(img, None, ward_of(img)))[0]
        assert report.passed
        assert report.entropies[-1] == 0.0

    def test_violation_reported_not_raised(self):
        increasing = [Image(2, 1, [0, 0]), Image(2, 1, [0, 1])]
        report = verify_scale_space(increasing)[0]
        assert not report.passed and report.violations == [0]

    def test_merge_without_strict_drop_reported(self):
        # 5 levels (1, 1, 1, 1, 4) and 4 levels (2, 2, 2, 2) both have 2 bits
        flat = [Image(8, 1, [0, 1, 2, 3, 4, 4, 4, 4]), Image(8, 1, [0, 0, 1, 1, 2, 2, 3, 3])]
        report = verify_scale_space(flat)[0]
        assert report.entropies == [2.0, 2.0]
        assert report.violations == [] and report.strict_violations == [0]


class TestMaxMin:
    def test_constant_sequence(self):
        seq = [Image(2, 1, [5, 5])] * 3
        assert verify_scale_space(seq)[2].passed

    def test_uniform_full_range(self):
        img = Image(16, 16, np.arange(256), grey_depth=256)
        seq = generate(img, None, uniform_path(256))
        assert verify_scale_space(seq)[2].passed

    def test_bounds_are_those_of_the_first_image(self):
        seq = [Image(3, 1, p) for p in ([0, 5, 9], [5, 5, 5], [0, 5, 9], [0, 5, 10])]
        report = verify_scale_space(seq)[2]
        assert report.values == [(0, 9), (5, 5), (0, 9), (0, 10)]
        assert report.violations == [3]

    def test_committed_paths_on_random_images(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            img = Image(4, 4, rng.integers(0, 64, 16))
            seq = generate(img, None, ward_of(img))
            assert verify_scale_space(seq)[2].passed


class TestSemigroup:
    def test_trivial_splits(self):
        img = Image(3, 3, np.arange(9))
        path = ward_of(img)
        assert verify_semigroup(img, None, path, 0, len(path))
        assert verify_semigroup(img, None, path, len(path), 0)

    def test_random_splits(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            img = Image(4, 4, rng.integers(0, 32, 16))
            path = ward_of(img)
            if len(path) == 0:
                continue
            l = int(rng.integers(0, len(path) + 1))
            n = int(rng.integers(0, len(path) - l + 1))
            assert verify_semigroup(img, None, path, l, n)


class TestContrastLyapunov:
    def test_constant_sequence(self):
        report = verify_scale_space([Image(2, 1, [5, 5])] * 3)[1]
        assert report.passed and report.values == [0, 0, 0]

    def test_strict_drop_merging_extremes(self):
        img = Image(3, 1, [0, 100, 255])
        path = QuantisationPath((0, 100, 255), (MergeStep(100, 255, 100),))
        report = verify_scale_space(generate(img, None, path))[1]
        assert report.values == [255, 100]

    def test_uniform_on_full_range(self):
        img = Image(16, 16, np.arange(256), grey_depth=256)
        report = verify_scale_space(generate(img, None, uniform_path(256)))[1]
        assert report.passed

    def test_increase_reported(self):
        seq = [Image(2, 1, p) for p in ([0, 9], [4, 5], [4, 5], [3, 5])]
        report = verify_scale_space(seq)[1]
        assert report.values == [9, 1, 1, 2]
        assert report.violations == [2]


class TestInvariances:
    def test_permutation_commutes(self):
        rng = np.random.default_rng(3)
        img = Image(4, 4, rng.integers(0, 32, 16))
        path = ward_of(img)
        perm = rng.permutation(16)
        shuffled = img.with_pixels(img.pixels[perm])
        for m in range(len(path) + 1):
            a = apply_path(shuffled, None, path, m)
            b = apply_path(img, None, path, m).pixels[perm]
            assert np.array_equal(a.pixels, b)

    def test_level_structure_independent_of_positions(self):
        # same histogram, different layout: same path, same per-level counts
        rng = np.random.default_rng(4)
        img = Image(4, 4, rng.integers(0, 16, 16))
        perm = rng.permutation(16)
        shuffled = img.with_pixels(img.pixels[perm])
        assert ward_of(img) == ward_of(shuffled)

    def test_flat_steady_state(self):
        rng = np.random.default_rng(5)
        img = Image(5, 5, rng.integers(0, 40, 25))
        path = ward_of(img)
        final = apply_path(img, None, path, len(path))
        assert level_partition(final).values.size == 1


def test_report_csv_shape():
    rng = np.random.default_rng(6)
    img = Image(4, 4, rng.integers(0, 16, 16))
    path = ward_of(img)
    csv_text, _ = report_csv(img, None, path)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("step,active_levels,entropy_bits,contrast,mse")
    assert len(lines) == len(path) + 2
    # entropy column non-increasing
    entropies = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
    # the flat image at the end has entropy 0, printed without a sign
    assert lines[-1].split(",")[2] == "0"


def test_report_csv_masked_domain():
    img = Image(4, 1, [0, 0, 10, 100])
    mask = Mask([0, 1, 2], 4)
    path = ward_of(img, mask)
    seq = list(generate(img, mask, path))
    lines = report_csv(img, mask, path)[0].strip().splitlines()
    assert len(lines) == len(path) + 2
    # unmasked pixel keeps its original value throughout
    assert all(s.pixels[3] == 100 for s in seq)


def test_report_csv_flags_and_mse_by_hand():
    # uniform_path(4) merges 0,1 -> 1, then 2,3 -> 3, then 1,3 -> 2: on
    # [1, 2] the second step raises the contrast and the maximum
    text, lyap = report_csv(Image(2, 1, [1, 2], 4), None, uniform_path(4))
    assert text == (
        "step,active_levels,entropy_bits,contrast,mse,"
        "entropy_ok,contrast_ok,maxmin_ok\n"
        "0,2,1,1,0,1,1,1\n"
        "1,2,1,1,0,1,1,1\n"
        "2,2,1,2,0.5,1,0,0\n"
        "3,1,0,0,0.5,1,1,1\n"
    )
    assert lyap.passed and lyap.entropies == [1.0, 1.0, 1.0, 0.0]


@pytest.mark.parametrize("path", [
    QuantisationPath((1, 2, 4), (MergeStep(2, 4, 4),)),
    QuantisationPath((-1, 1, 2), (MergeStep(-1, 1, -1),)),
])
def test_report_csv_rejects_path_values_outside_grey_range(path):
    # generate's images could not hold the merged values either
    img = Image(2, 1, [1, 2], 4)
    with pytest.raises(ValueError):
        list(generate(img, None, path))
    with pytest.raises(PathError, match=r"outside \[0, 4\)"):
        report_csv(img, None, path)


def _report_oracle(image, mask, path):
    """`report_csv` computed image by image: every scale is generated,
    `verify_scale_space` judges the sequence, and the MSE is the mean of
    the squared differences of the domain values."""
    domain = (lambda f: f.pixels) if mask is None else (lambda f: f.pixels[mask.indices])
    seq = list(generate(image, mask, path))
    lyap, contrast, bounds = verify_scale_space(seq, mask)
    lines = ["step,active_levels,entropy_bits,contrast,mse,entropy_ok,contrast_ok,maxmin_ok"]
    for m, f in enumerate(seq):
        d = domain(f) - domain(image).astype(float)
        lines.append("%d,%d,%s,%d,%s,%d,%d,%d" % (
            m,
            lyap.active_levels[m],
            "%.12g" % lyap.entropies[m],
            contrast.values[m],
            "%.12g" % float(np.mean(d * d)),
            m - 1 not in lyap.violations and m - 1 not in lyap.strict_violations,
            m - 1 not in contrast.violations,
            m not in bounds.violations,
        ))
    return "\n".join(lines) + "\n", lyap


@pytest.mark.parametrize("masked", [False, True])
def test_report_csv_equals_image_oracle(masked):
    """The histogram walk gives the report of the generated images exactly,
    through every kind of step: between two absent values, with one source
    absent, onto a value distinct from both sources, and on a one-level
    domain, at grey depths 256 and below, and where every grey value
    occurs."""
    rng = np.random.default_rng(7)
    images = [random_image(rng, max_side=12, full_hull=full_hull)
              for full_hull in (True, False) for _ in range(6)]
    images += [
        Image(8, 2, np.resize([0, 7, 200, 255], 16)),  # four of 256 levels
        Image(5, 3, np.resize([0, 3, 3, 9, 15], 15), grey_depth=16),
        Image(3, 3, np.full(9, 5), grey_depth=8),  # one level
        Image.from_grid(np.arange(4096).reshape(64, 64) % 256),  # all 256 levels
        make_synthetic(64),
    ]
    kinds = set()
    for img in images:
        mask = random_mask(rng, img) if masked else None
        paths = [uniform_path(img.grey_depth), ward_of(img, mask)]
        if masked:
            paths.append(sparsification_quant_path(img, mask))
        for path in paths:
            assert report_csv(img, mask, path) == _report_oracle(img, mask, path)
            for f, step in zip(generate(img, mask, path), path.steps):
                present = np.isin([step.source_low, step.source_high],
                                  level_partition(f, mask).values)
                kinds.add((int(present.sum()), step.merged_value in
                           (step.source_low, step.source_high)))
    # (sources present, merged value is a source): every kind occurred
    assert kinds == {(0, True), (0, False), (1, True), (1, False), (2, True), (2, False)}


@pytest.mark.parametrize(
    "report",
    [0, 2, 1],
    ids=["verify_lyapunov_entropy", "verify_maxmin", "verify_contrast_lyapunov"],
)
def test_checks_consume_a_generator_once(report):
    # each report of the (entropy, contrast, max-min) triple, judged in turn
    img = Image(4, 1, [0, 0, 10, 100])
    path = ward_of(img)
    seq = generate(img, None, path)
    expected = verify_scale_space(list(generate(img, None, path)))[report]
    assert verify_scale_space(seq)[report] == expected
    with pytest.raises(ValueError, match="empty"):
        verify_scale_space(seq)
    with pytest.raises(ValueError, match="empty"):
        verify_scale_space([])


@pytest.mark.parametrize("pixels, flagged", [
    # entropy 0.81 -> 1 bit; contrast 9 and bounds [0, 9] kept
    (([0, 0, 0, 9], [0, 0, 9, 9]), [True, False, False]),
    # contrast 9 -> 1 -> 1 -> 2 inside [0, 9]; two levels with 1 bit each
    (([0, 9, 0, 9], [4, 5, 4, 5], [4, 5, 4, 5], [3, 5, 3, 5]), [False, True, False]),
    # [0, 9] shifted to [1, 10]: same entropy and contrast, out of bounds
    (([0, 9, 0, 9], [1, 10, 1, 10]), [False, False, True]),
])
def test_each_report_flags_only_its_own_property(pixels, flagged):
    reports = verify_scale_space([Image(4, 1, p) for p in pixels])
    assert [not report.passed for report in reports] == flagged


def test_generate_is_lazy():
    img = Image(2, 1, [0, 9])
    # a path that does not fit the image fails only once iteration starts
    seq = generate(img, None, QuantisationPath((1, 2), (MergeStep(1, 2, 1),)))
    with pytest.raises(ValueError):
        next(seq)
