import numpy as np
import pytest

from qss import (
    DomainError,
    Image,
    InpaintSolver,
    Mask,
    MergeStep,
    PathError,
    QuantisationPath,
    apply_path,
    inpaint,
    level_partition,
    mse,
    round_to_grey,
    sparsification_quant_path,
    uniform_path,
    ward_path,
)
from qss.quantisation import (
    _argmin_pair,
    _pair_deltas,
    read_quant_path_file,
    write_quant_path_file,
)

from conftest import make_synthetic


def ward_oracle_steps(values, counts):
    """Exhaustive minimum-squared-error greedy merging, exact integers."""
    clusters = [
        {"v": int(v), "members": [(int(v), int(c))]} for v, c in zip(values, counts)
    ]
    steps = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                na = sum(c for _, c in a["members"])
                nb = sum(c for _, c in b["members"])
                rep = i if (na > nb or (na == nb and a["v"] < b["v"])) else j
                r = clusters[rep]["v"]
                sse = 0
                for k, cl in enumerate(clusters):
                    target = r if k in (i, j) else cl["v"]
                    sse += sum(c * (o - target) ** 2 for o, c in cl["members"])
                if best is None or sse < best[0]:
                    best = (sse, i, j, rep, r)
        _, i, j, rep, r = best
        steps.append((clusters[i]["v"], clusters[j]["v"], r))
        other = j if rep == i else i
        clusters[rep]["members"] += clusters[other]["members"]
        del clusters[other]
    return steps


def partition_of(values, counts):
    from qss import LevelPartition

    return LevelPartition(np.array(values), np.array(counts))


class TestPathValidation:
    def test_merge_step_ordering(self):
        with pytest.raises(PathError):
            MergeStep(5, 5, 5)
        with pytest.raises(PathError):
            MergeStep(7, 3, 5)

    def test_inactive_values_rejected(self):
        with pytest.raises(PathError, match="inactive"):
            QuantisationPath((0, 10), (MergeStep(0, 5, 0),))

    def test_representative_range(self):
        with pytest.raises(PathError, match="range"):
            QuantisationPath((10, 20), (MergeStep(10, 20, 30),))

    def test_representative_collision(self):
        with pytest.raises(PathError, match="collides"):
            QuantisationPath((0, 10, 20), (MergeStep(0, 10, 20),))

    def test_full_path_length(self):
        part = partition_of([0, 5, 9], [1, 2, 3])
        assert len(ward_path(part)) == 2


class TestApplyPath:
    def test_identity_at_zero(self):
        img = Image(2, 2, [0, 0, 10, 100])
        path = ward_path(level_partition(img))
        assert apply_path(img, None, path, 0) == img

    def test_full_path_is_constant(self):
        img = Image(2, 2, [0, 0, 10, 100])
        path = ward_path(level_partition(img))
        out = apply_path(img, None, path, len(path))
        assert len(np.unique(out.pixels)) == 1

    def test_single_step_example(self):
        img = Image(4, 1, [0, 0, 10, 100])
        path = QuantisationPath((0, 10, 100), (MergeStep(0, 10, 0), MergeStep(0, 100, 0)))
        assert list(apply_path(img, None, path, 1).pixels) == [0, 0, 0, 100]

    def test_mask_restricted(self):
        img = Image(4, 1, [0, 0, 10, 100])
        path = QuantisationPath((0, 10), (MergeStep(0, 10, 0),))
        out = apply_path(img, Mask([1, 2], 4), path, 1)
        assert list(out.pixels) == [0, 0, 0, 100]

    def test_value_outside_initial_rejected(self):
        img = Image(2, 1, [0, 7])
        path = QuantisationPath((0, 10), (MergeStep(0, 10, 0),))
        with pytest.raises(PathError, match="outside"):
            apply_path(img, None, path, 1)

    def test_scale_out_of_range(self):
        img = Image(2, 1, [0, 10])
        path = QuantisationPath((0, 10), (MergeStep(0, 10, 0),))
        with pytest.raises(PathError):
            apply_path(img, None, path, 2)


class TestUniformPath:
    def test_q2(self):
        path = uniform_path(2)
        assert [(s.source_low, s.source_high, s.merged_value) for s in path.steps] == [
            (0, 1, 1)
        ]

    def test_q4(self):
        path = uniform_path(4)
        assert [(s.source_low, s.source_high, s.merged_value) for s in path.steps] == [
            (0, 1, 1),
            (2, 3, 3),
            (1, 3, 2),
        ]

    def test_q256_half_way_odd_values(self):
        path = uniform_path(256)
        assert len(path) == 255
        active = path.active_values(128)
        assert list(active) == list(range(1, 256, 2))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            uniform_path(100)

    def test_representatives_within_range(self):
        path = uniform_path(64)
        assert all(0 <= s.merged_value <= 63 for s in path.steps)


class TestWardPath:
    def test_first_merge_example(self):
        part = partition_of([0, 10, 100], [2, 1, 1])
        path = ward_path(part)
        s = path.steps[0]
        # costs: (0,10)->0 gives 100; (0,100) 10000; (10,100) 8100
        assert (s.source_low, s.source_high, s.merged_value) == (0, 10, 0)

    def test_occurrence_tie_takes_smaller_value(self):
        part = partition_of([3, 8], [4, 4])
        assert ward_path(part).steps[0].merged_value == 3

    def test_single_value_empty_path(self):
        assert len(ward_path(partition_of([5], [9]))) == 0

    def test_empty_partition_rejected(self):
        from qss import LevelPartition

        with pytest.raises(DomainError):
            ward_path(LevelPartition(np.array([]), np.array([])))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(9)
        # 25 short runs, then 3 long runs with large counts
        for min_k, max_k, max_count in [(2, 8, 20)] * 25 + [(35, 41, 10**4)] * 3:
            k = int(rng.integers(min_k, max_k + 1))
            values = np.sort(rng.choice(256, size=k, replace=False))
            counts = rng.integers(1, max_count, size=k)
            path = ward_path(partition_of(values, counts))
            expected = ward_oracle_steps(values, counts)
            got = [(s.source_low, s.source_high, s.merged_value) for s in path.steps]
            assert got == expected

    def test_representatives_stay_in_initial_range(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            img = Image(5, 5, rng.integers(0, 64, 25))
            path = ward_path(level_partition(img))
            lo, hi = path.initial_values[0], path.initial_values[-1]
            assert all(lo <= s.merged_value <= hi for s in path.steps)


def spars_candidate_mses(original, current, mask, active_values):
    """Direct per-candidate evaluation: quantise known data, inpaint, MSE."""
    known = current.pixels[mask.indices]
    counts = {v: int(np.sum(known == v)) for v in active_values}
    f = original.pixels.astype(float)
    out = {}
    for i, a in enumerate(active_values):
        for b in active_values[i + 1 :]:
            r = a if counts[a] >= counts[b] else b
            quantised = current.pixels.copy()
            sel = np.isin(np.arange(current.size), mask.indices) & np.isin(
                current.pixels, [a, b]
            )
            quantised[sel] = r
            u = inpaint(current.with_pixels(quantised), mask, method="direct")
            out[(a, b)] = float(np.mean((f - u) ** 2))
    return out


def spars_reference_path(image, mask):
    """Greedy inpainting-error merging that keeps every basis function and
    recomputes their inner products with the residual at every step."""
    part = level_partition(image, mask)
    solver = InpaintSolver(mask, image.width, image.height)
    v = part.values.astype(np.int64).copy()
    n = part.counts.astype(np.float64)
    psi = np.empty((v.size, image.size))
    for k, value in enumerate(part.values):
        level_set = np.flatnonzero(image.pixels == value)
        level_set = level_set[np.isin(level_set, mask.indices)]
        indicator = np.zeros(len(mask))
        indicator[np.searchsorted(mask.indices, level_set)] = 1.0
        psi[k] = solver.solve(indicator)
    gram = np.einsum("ij,ij->i", psi, psi)
    res = image.pixels.astype(np.float64) - v @ psi
    steps = []
    while v.size > 1:
        delta, reps, rep_low = _pair_deltas(v, n, psi @ res, gram)
        i, j = _argmin_pair(delta, np.triu(np.ones(delta.shape, dtype=bool), 1))
        r = int(reps[i, j])
        steps.append(MergeStep(int(v[i]), int(v[j]), r))
        keep, drop = (i, j) if rep_low[i, j] else (j, i)
        res -= float(r - v[drop]) * psi[drop]
        gram[keep] += gram[drop] + 2.0 * (psi[drop] @ psi[keep])
        psi[keep] += psi[drop]
        n[keep] += n[drop]
        live = np.arange(v.size) != drop
        v, n, gram, psi = v[live], n[live], gram[live], psi[live]
    return QuantisationPath(tuple(part.values), tuple(steps))


class TestSparsificationQuantPath:
    def test_full_mask_equals_ward(self):
        rng = np.random.default_rng(11)
        images = [Image(5, 4, rng.integers(0, 24, 20)) for _ in range(10)]
        for img in images + [make_synthetic(48)]:
            ward = ward_path(level_partition(img))
            spars = sparsification_quant_path(img, Mask.full(img.size))
            assert ward == spars

    def test_single_value_empty_path(self):
        img = Image(3, 1, [4, 4, 4])
        assert len(sparsification_quant_path(img, Mask([0, 2], 3))) == 0

    def test_empty_mask_rejected(self):
        with pytest.raises(DomainError):
            sparsification_quant_path(Image(2, 1, [0, 1]), Mask([], 2))

    def test_1x5_two_value_example(self):
        # known values {0, 100} with equal counts: both representatives give
        # full-image MSE 4500, the occurrence tie rule picks 0
        img = Image(5, 1, [0, 0, 50, 100, 100])
        mask = Mask([0, 1, 3, 4], 5)
        path = sparsification_quant_path(img, mask)
        step = path.steps[0]
        assert (step.source_low, step.source_high, step.merged_value) == (0, 100, 0)
        direct = spars_candidate_mses(img, img, mask, [0, 100])
        assert direct[(0, 100)] == pytest.approx(4500.0, abs=1e-6)

    def test_each_step_minimises_inpainting_error(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            img = Image(4, 4, rng.choice([0, 40, 90, 200], size=16))
            mask = Mask(rng.choice(16, size=10, replace=False), 16)
            path = sparsification_quant_path(img, mask)
            current = img
            for step in path.steps:
                active = sorted(np.unique(current.pixels[mask.indices]))
                if len(active) < 2:
                    break
                mses = spars_candidate_mses(img, current, mask, active)
                chosen = mses[(step.source_low, step.source_high)]
                assert chosen <= min(mses.values()) + 1e-6
                from qss import apply_steps

                current = apply_steps(current, mask, [step])

    @pytest.mark.parametrize("density", [0.04, 0.16, 0.64, 0.01, 1.0])
    def test_matches_residual_recomputing_reference(self, density):
        img = make_synthetic(48)
        rng = np.random.default_rng(int(100 * density))
        mask = Mask(rng.choice(img.size, size=round(density * img.size), replace=False),
                    img.size)
        assert sparsification_quant_path(img, mask) == spars_reference_path(img, mask)


def test_quant_path_file_roundtrip():
    part = partition_of([0, 10, 100], [2, 1, 1])
    path = ward_path(part)
    text = write_quant_path_file(path)
    assert text.splitlines()[0] == "QSSQPATH v1"
    assert read_quant_path_file(text) == path


def test_quant_path_file_errors():
    with pytest.raises(ValueError):
        read_quant_path_file("nope\n")
    with pytest.raises(ValueError):
        read_quant_path_file("QSSQPATH v1\n0 ten\n")

