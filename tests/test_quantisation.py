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
from qss import compression, inpainting, quantisation
from qss.compression import METHODS
from qss.quantisation import (
    _greedy_merge,
    build_quant_path,
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

    @pytest.mark.parametrize(
        "values", [(1.0, 2.0, 1.5), (1, 2, 1.5), (0, True, 1), (np.float64(1), 2, 1)]
    )
    def test_merge_step_values_must_be_integers(self, values):
        # a float would be written into the int64 lookup table truncated
        with pytest.raises(PathError, match="integers"):
            MergeStep(*values)

    @pytest.mark.parametrize("initial", [(0.9, 2.7), (False, True), (1, np.float64(2))])
    def test_initial_values_must_be_integers(self, initial):
        with pytest.raises(PathError, match="integers"):
            QuantisationPath(initial, ())

    def test_empty_initial_values_rejected(self):
        with pytest.raises(PathError, match="empty initial value set"):
            QuantisationPath((), ())

    def test_numpy_integers_accepted(self):
        step = MergeStep(np.int64(1), np.int32(2), np.uint8(1))
        path = QuantisationPath((np.int64(1), np.int16(2)), (step,))
        assert path == QuantisationPath((1, 2), (MergeStep(1, 2, 1),))
        assert all(type(v) is int for v in path.initial_values)

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


def uniform_reference_steps(q):
    """Pyramidal merging by simulating the bins, round by round."""
    bins = [(v, v, v) for v in range(q)]  # (extent_lo, extent_hi, current value)
    steps = []
    while len(bins) > 1:
        merged = []
        for i in range(0, len(bins), 2):
            lo_a, _, va = bins[i]
            _, hi_b, vb = bins[i + 1]
            r = (lo_a + hi_b + 1) // 2
            steps.append(MergeStep(min(va, vb), max(va, vb), r))
            merged.append((lo_a, hi_b, r))
        bins = merged
    return tuple(steps)


class TestUniformPath:
    @pytest.mark.parametrize("q", [2**k for k in range(1, 11)])
    def test_matches_bin_simulation(self, q):
        assert uniform_path(q).steps == uniform_reference_steps(q)

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
        ramp = Image(256, 1, np.arange(256))
        active = np.unique(apply_path(ramp, None, path, 128).pixels)
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


def greedy_merge_reference(values, counts, dots, gram):
    """The merge loop that rebuilds every pair's cost at each step and
    compacts the Gram matrix after each merge: O(levels^3) in all."""
    v = np.asarray(values, dtype=np.int64)
    n = np.array(counts, dtype=np.float64)
    steps = []
    while v.size > 1:
        rep_low = n[:, None] >= n[None, :]  # v ascending: ties go to the smaller value
        c = (v[:, None] - v[None, :]).astype(np.float64)
        move = -2.0 * c * dots[None, :] + c * c * gram.diagonal()[None, :]
        delta = np.where(rep_low, move, move.T)
        delta[np.tri(v.size, dtype=bool)] = np.inf  # only pairs i < j
        i, j = divmod(int(np.argmin(delta)), v.size)
        keep, drop = (i, j) if rep_low[i, j] else (j, i)
        r = int(v[keep])
        steps.append(MergeStep(int(v[i]), int(v[j]), r))
        # res -= (r - v_drop) psi_drop, then psi_keep += psi_drop
        dots -= float(r - v[drop]) * gram[:, drop]
        dots[keep] += dots[drop]
        gram[keep, :] += gram[drop, :]
        gram[:, keep] += gram[:, drop]
        n[keep] += n[drop]
        v, n, dots = (np.delete(a, drop) for a in (v, n, dots))
        gram = np.delete(np.delete(gram, drop, 0), drop, 1)
    return tuple(steps)


def assert_merge_matches_reference(values, counts, dots, gram):
    """`_greedy_merge` gives the reference's steps (each consumes copies),
    from the Gram matrix and, when it is diagonal, from its diagonal alone."""
    args = (np.asarray(values), np.asarray(counts, dtype=np.float64))
    got = _greedy_merge(*args, dots.copy(), gram.copy())
    assert got == greedy_merge_reference(*args, dots.copy(), gram.copy())
    assert len(got) == len(args[0]) - 1
    if np.array_equal(gram, np.diag(gram.diagonal())):
        assert _greedy_merge(*args, dots.copy(), gram.diagonal().copy()) == got


def diagonal_case(values, counts):
    n = np.asarray(counts, dtype=np.float64)
    return values, n, np.zeros(n.size), np.diag(n)


def dense_case(rng, values, counts, pixels=48):
    """The Gram and residual products of random non-negative basis rows."""
    psi = rng.random((len(values), pixels))
    res = rng.normal(0.0, 20.0, pixels)
    return values, counts, psi @ res, psi @ psi.T


def count_cost_calls(monkeypatch):
    """Calls of `_pair_costs` and `_costs_with`, counted from now on."""
    calls = {"_pair_costs": 0, "_costs_with": 0}
    for name in calls:
        def counted(*args, _f=getattr(quantisation, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(quantisation, name, counted)
    return calls


class TestGreedyMerge:
    def test_diagonal_gram_with_count_ties(self):
        rng = np.random.default_rng(21)
        for k in [2, 3, 17, 64, 130, 200, 256] + list(rng.integers(2, 257, 8)):
            values = np.sort(rng.choice(256, size=int(k), replace=False))
            counts = rng.integers(1, 4, size=int(k))
            assert_merge_matches_reference(*diagonal_case(values, counts))

    @pytest.mark.parametrize("k", [256, 200, 64])
    def test_all_ties_ramp(self, k):
        assert_merge_matches_reference(*diagonal_case(np.arange(k), np.full(k, 16)))

    def test_dense_gram(self):
        rng = np.random.default_rng(22)
        for k in [2, 3, 8, 31, 64]:
            values = np.sort(rng.choice(256, size=k, replace=False))
            counts = rng.integers(1, 4, size=k)
            assert_merge_matches_reference(*dense_case(rng, values, counts))

    def test_block_diagonal_gram_update_set_by_shape(self, monkeypatch):
        calls = count_cost_calls(monkeypatch)
        rng = np.random.default_rng(23)
        # two dense blocks below 100, then single clusters as in Ward
        for low, high, singles in [(3, 4, 6), (8, 12, 20), (20, 20, 24)]:
            k = low + high + singles
            values = np.concatenate(
                [np.sort(rng.choice(100, low + high, replace=False)), 200 + np.arange(singles)])
            counts = rng.integers(1, 4, size=k)
            gram = np.diag(counts.astype(np.float64))
            dots = np.zeros(k)
            for block in (slice(0, low), slice(low, low + high)):
                _, _, dots[block], gram[block, block] = dense_case(
                    rng, values[block], counts[block])
            assert_merge_matches_reference(values, counts, dots, gram)
            # the 2-D Gram recomputes every pair's cost at each step
            calls.update(dict.fromkeys(calls, 0))
            _greedy_merge(values, counts.astype(np.float64), dots.copy(), gram.copy())
            assert calls == {"_pair_costs": k - 1, "_costs_with": 0}
            # a 1-D diagonal (Ward on these counts) builds its cost matrix
            # in place, then updates one cluster's costs per step
            calls.update(dict.fromkeys(calls, 0))
            n = counts.astype(np.float64)
            _greedy_merge(values, n, np.zeros(k), n.copy())
            assert calls == {"_pair_costs": 0, "_costs_with": k - 1}

    def test_workload_scale(self):
        """Up to 256 levels with the counts of a 256 x 256 image, tied in
        bulk: 255 merges, through every compaction of the stored costs."""
        rng = np.random.default_rng(25)
        pixels = 256 * 256
        synthetic = level_partition(make_synthetic(256))
        cases = [
            (np.arange(256), np.full(256, 256)),  # every count tied
            (np.arange(256), rng.multinomial(pixels, np.full(256, 1 / 256))),
            (np.arange(256), rng.choice([128, 256, 512], 256)),
            (np.sort(rng.choice(256, 200, replace=False)), rng.choice([1, 327], 200)),
            (synthetic.values, synthetic.counts),
        ]
        for values, counts in cases:
            assert_merge_matches_reference(*diagonal_case(values, counts))

    def test_one_and_two_clusters(self):
        rng = np.random.default_rng(24)
        for values, counts in [([7], [3]), ([2, 9], [1, 1]), ([2, 9], [1, 5])]:
            assert_merge_matches_reference(*diagonal_case(values, counts))
            assert_merge_matches_reference(*dense_case(rng, values, counts))


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
            u = inpaint(current.with_pixels(quantised), mask)
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
        dots = psi @ res
        best = None
        for i in range(v.size):
            for j in range(i + 1, v.size):
                # keep the larger count, the smaller value on ties
                keep, drop = (i, j) if n[i] >= n[j] else (j, i)
                c = float(v[keep] - v[drop])
                cost = -2.0 * c * dots[drop] + c * c * gram[drop]
                if best is None or cost < best[0]:  # the first minimum wins
                    best = (cost, i, j, keep, drop)
        _, i, j, keep, drop = best
        r = int(v[keep])
        steps.append(MergeStep(int(v[i]), int(v[j]), r))
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

    def test_full_mask_takes_the_diagonal_update(self, monkeypatch):
        img = make_synthetic(32)
        ward = ward_path(level_partition(img))
        calls = count_cost_calls(monkeypatch)
        path = sparsification_quant_path(img, Mask.full(img.size))
        assert path == ward
        assert calls == {"_pair_costs": 0, "_costs_with": len(ward)}

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

    def test_full_mask_is_ward_without_a_factorisation(self, monkeypatch):
        img = make_synthetic(32)
        ward = ward_path(level_partition(img))
        sizes = []
        factorize = inpainting._factorize
        monkeypatch.setattr(inpainting, "_factorize",
                            lambda A: sizes.append(A.shape[0]) or factorize(A))
        full = Mask.full(img.size)
        assert sparsification_quant_path(img, full) == ward
        assert build_quant_path(img, full, "sparsification") == ward
        assert sizes == []


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "mask", [Mask([], 6), Mask([0, 7, 11], 12), Mask([0, 1], 4)],
    ids=["empty", "larger-image", "smaller-image"],
)
def test_build_quant_path_checks_every_mask(method, mask):
    """Every method reads the domain, so a mask that is empty or built for
    an image of another size raises DomainError, uniform included."""
    with pytest.raises(DomainError):
        build_quant_path(Image(3, 2, [0, 4, 4, 9, 0, 9]), mask, method)


def test_build_quant_path_is_compressions():
    assert compression.build_quant_path is quantisation.build_quant_path
    with pytest.raises(ValueError, match="^unknown method 'x'$"):
        build_quant_path(Image(2, 1, [0, 1]), None, "x")


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
    # the header as the writer emits it, and every number in ASCII digits
    for text, match in [
        ("QSSQPATH v1\n-1 2 3\n-1 2 2\n", "malformed"),
        ("QSSQPATH v1\n\u0661 2 3\n", "malformed"),
        ("QSSQPATH v1\n+1 2 3\n", "malformed"),
        ("QSSQPATH v1x\n1 2 3\n", "not a"),
        ("QSSQPATH v1 \n1 2 3\n", "not a"),
        ("QSSQPATH v1\n" + "1" * 5000 + "\n", "malformed"),  # more digits than int() converts
    ]:
        with pytest.raises(ValueError, match=match):
            read_quant_path_file(text)

