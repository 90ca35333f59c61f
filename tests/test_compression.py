import math
from dataclasses import replace

import numpy as np
import pytest

from qss import (
    DomainError,
    Image,
    InfeasibleBudgetError,
    InpaintSolver,
    Mask,
    RateDistortionPoint,
    coding_cost,
    entropy,
    inpainting,
    level_partition,
    mse,
    probabilistic_sparsify,
    rd_curve,
    rd_optimize,
    round_to_grey,
)
from qss import compression
from qss.compression import (
    METHODS,
    _score,
    build_quant_path,
    default_l_grid,
    evaluate_grid,
    rate_distortion_envelope,
)
from qss.quantisation import apply_path
from qss.sparsification import SparsificationPath

from conftest import make_synthetic


class TestCodingCost:
    def test_constant_uniform(self):
        cost = coding_cost(np.zeros(50, dtype=int), 256, "uniform")
        assert cost.per_value_bits == 0.0
        assert cost.total_bits == 8.0

    def test_factor_186_overhead(self):
        cost = coding_cost(np.arange(186), 186, "ward")
        assert cost.overhead_bits == 1488.0
        assert cost.overhead_bits == 186 * 8.0

    def test_two_symbol_known_data(self):
        values = np.array([0] * 50 + [9] * 50)
        cost = coding_cost(values, 2, "sparsification")
        assert cost.per_value_bits == 1.0
        assert cost.total_bits == 100 * 1.0 + 16.0

    def test_errors(self):
        with pytest.raises(DomainError):
            coding_cost(np.array([]), 1, "uniform")
        with pytest.raises(ValueError):
            coding_cost(np.array([1]), 0, "uniform")
        with pytest.raises(ValueError):
            coding_cost(np.array([1]), 1, "median-cut")

    def test_entropy_matches_level_partition(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            img = Image(16, 16, rng.integers(0, int(rng.integers(1, 257)), 256))
            mask = Mask(rng.choice(256, size=int(rng.integers(1, 257)), replace=False), 256)
            cost = coding_cost(img.pixels[mask.indices], 1, "uniform")
            assert cost.per_value_bits == entropy(level_partition(img, mask))

    def test_cost_monotone_in_m(self):
        rng = np.random.default_rng(0)
        img = Image(8, 8, rng.integers(0, 64, 64))
        for method in ("uniform", "ward"):
            path = build_quant_path(img, Mask.full(64), method)
            costs = []
            for m in range(len(path) + 1):
                g = apply_path(img, None, path, m).pixels
                costs.append(
                    coding_cost(g, len(path.initial_values) - m, method).total_bits
                )
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


@pytest.fixture(scope="module")
def small_setup():
    rng = np.random.default_rng(1)
    img = Image(8, 8, rng.choice([10, 60, 120, 200], size=64))
    path = probabilistic_sparsify(img, 0.1, 0.1, seed=5)
    return img, path


class TestRdOptimize:
    def test_unlimited_budget_full_data(self, small_setup):
        img, spath = small_setup
        point, rec = rd_optimize(img, spath, "ward", math.inf, l_grid=[0])
        assert (point.l, point.m) == (0, 0)
        assert point.mse == 0.0
        assert rec == img

    def test_infeasible_budget(self, small_setup):
        img, spath = small_setup
        with pytest.raises(InfeasibleBudgetError) as err:
            rd_optimize(img, spath, "ward", budget=7.9, l_grid=[0])
        assert err.value.minimal_bits > 0

    @pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0])
    def test_non_positive_budget_is_an_input_error(self, small_setup, budget):
        # a plain ValueError (exit 2 in the CLI), not an infeasible budget (exit 4)
        img, spath = small_setup
        for call in (
            lambda: rd_optimize(img, spath, "ward", budget, l_grid=[0]),
            lambda: evaluate_grid(img, spath, METHODS, [0], budget),
        ):
            with pytest.raises(ValueError, match="budget must be positive") as err:
                call()
            assert not isinstance(err.value, InfeasibleBudgetError)

    def test_winner_respects_budget(self, small_setup):
        img, spath = small_setup
        budget = 120.0
        point, _ = rd_optimize(img, spath, "uniform", budget, l_grid=[0, 32, 56])
        assert point.total_bits < budget

    def test_matches_exhaustive_enumeration(self, small_setup):
        img, spath = small_setup
        budget = 150.0
        l_grid = [0, 16, 48]
        point, _ = rd_optimize(img, spath, "ward", budget, l_grid=l_grid)
        points = evaluate_grid(img, spath, ("ward",), l_grid, budget=budget)["ward"]
        feasible = [p for p in points if p.total_bits < budget]
        best_mse = min(p.mse for p in feasible)
        assert point.mse == best_mse
        best = max(
            (p for p in feasible if p.mse == best_mse), key=lambda p: (p.l, p.m)
        )
        assert (point.l, point.m) == (best.l, best.m)

    def test_empty_l_grid_is_an_input_error(self, small_setup):
        img, spath = small_setup
        with pytest.raises(ValueError, match="^empty l grid$"):
            rd_optimize(img, spath, "ward", l_grid=[])

    @pytest.mark.parametrize("l_grid", [[10, 40], [40, 10]])
    def test_ties_go_to_larger_l_in_any_grid_order(self, l_grid):
        # a constant image inpaints exactly from any mask: every point ties
        img = Image(8, 8, np.full(64, 7))
        spath = SparsificationPath(np.arange(64), 64)
        point, rec = rd_optimize(img, spath, "ward", l_grid=l_grid)
        assert (point.l, point.m, point.mse) == (40, 0, 0.0)
        assert rec == img


class TestEnvelope:
    def test_single_point(self):
        points = evaluate_grid(
            Image(4, 4, np.arange(16)),
            probabilistic_sparsify(Image(4, 4, np.arange(16)), seed=0),
            ("uniform",),
            [0],
        )["uniform"]
        env = rate_distortion_envelope(points[-1:])
        assert len(env) == 1

    def test_envelope_monotone(self, small_setup):
        img, spath = small_setup
        points = evaluate_grid(img, spath, ("uniform",), [0, 32, 56])["uniform"]
        env = rate_distortion_envelope(points)
        mses = [m for _, _, m in env]
        assert all(b >= a for a, b in zip(mses, mses[1:]))


def test_rd_curve(small_setup):
    img, spath = small_setup
    curves = rd_curve(img, spath, methods=("uniform", "ward"), l_grid=[0, 32])
    assert list(curves) == ["uniform", "ward"]
    for data in curves.values():
        assert data["envelope"]
        assert data["envelope"] == rate_distortion_envelope(data["points"])


def test_rd_curve_defaults_to_the_default_l_grid(small_setup):
    img, spath = small_setup
    points = rd_curve(img, spath, methods=("ward",))["ward"]["points"]
    assert sorted({p.l for p in points}) == default_l_grid(img.size)
    explicit = rd_curve(img, spath, methods=("ward",), l_grid=default_l_grid(img.size))
    assert repr(points) == repr(explicit["ward"]["points"])


def test_default_l_grid():
    grid = default_l_grid(4096)
    assert all(0 <= l < 4096 for l in grid)
    assert grid == sorted(grid)
    assert 4096 - math.ceil(0.08 * 4096) in grid


@pytest.fixture(scope="module")
def synthetic_grid():
    img = make_synthetic(32)
    spath = SparsificationPath(np.random.default_rng(3).permutation(img.size), img.size)
    return img, spath, default_l_grid(img.size)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("target", [None, 20])
def test_evaluate_grid_matches_direct_solves(synthetic_grid, method, target):
    """Superposed reconstructions give every point a direct solve gives."""
    img, spath, l_grid = synthetic_grid
    budget = math.inf if target is None else 8.0 * img.size / target
    seen = []
    points = evaluate_grid(img, spath, (method,), l_grid, budget,
                           lambda point, grey: seen.append((point, grey.copy())))[method]
    expected, expected_seen = [], []
    for l in l_grid:
        mask = spath.mask_at(l)
        path = build_quant_path(img, mask, method)
        solver = InpaintSolver(mask, img.width, img.height)
        for m in range(len(path) + 1):
            g = apply_path(img, mask, path, m).pixels[mask.indices]
            q_levels = len(path.initial_values) - m
            cost = coding_cost(g, q_levels, method)
            err, rec = math.nan, None
            if cost.total_bits < budget:
                rec = round_to_grey(solver.solve(g), img.width, img.height)
                err = mse(img, rec)
            ratio = 8.0 * img.size / cost.total_bits
            point = RateDistortionPoint(l, m, q_levels, err, ratio, cost)
            expected.append(point)
            if rec is not None:
                expected_seen.append((point, rec))
    assert [repr(p) for p in points] == [repr(p) for p in expected]
    assert [repr(p) for p, _ in seen] == [repr(p) for p, _ in expected_seen]
    assert all(np.array_equal(grey, want.pixels)
               for (_, grey), (_, want) in zip(seen, expected_seen))
    if target is not None:
        assert 0 < len(seen) < len(points)


@pytest.mark.parametrize("method", METHODS)
def test_block_scoring_skips_points_inside_a_block(synthetic_grid, monkeypatch, method):
    """With every third m unaffordable, blocks hold non-consecutive scales
    and most l end on a partial block; every point is still the MSE of
    `round_to_grey` of a direct solve."""
    img, spath, l_grid = synthetic_grid
    cost_model = compression._cost_model

    def skipping(per_value_bits, n_known, q_levels, method):
        cost = cost_model(per_value_bits, n_known, q_levels, method)
        return replace(cost, overhead_bits=math.inf) if q_levels % 3 == 0 else cost

    monkeypatch.setattr(compression, "_cost_model", skipping)
    seen = {}
    points = evaluate_grid(img, spath, (method,), l_grid, math.inf,
                           lambda point, grey: seen.setdefault((point.l, point.m), grey.copy()))
    points = points[method]
    partial = 0
    for l in l_grid:
        mask = spath.mask_at(l)
        path = build_quant_path(img, mask, method)
        solver = InpaintSolver(mask, img.width, img.height)
        scored = [p for p in points if p.l == l and p.q_levels % 3]
        assert all(math.isnan(p.mse) for p in points if p.l == l and p.q_levels % 3 == 0)
        for p in scored:
            g = apply_path(img, mask, path, p.m).pixels[mask.indices]
            want = round_to_grey(solver.solve(g), img.width, img.height)
            assert p.mse == mse(img, want)
            assert np.array_equal(seen.pop((l, p.m)), want.pixels)
        partial += len(scored) % 8 != 0
    assert not seen
    assert partial > 0


def test_score_equals_round_to_grey_and_mse():
    rng = np.random.default_rng(8)
    img = Image(6, 4, rng.integers(0, 256, 24))
    recs = rng.uniform(-3, 258, (5, 24))
    recs[0, :6] = [0.5 - 1e-12, 2.5, 254.5 + 1e-12, 255.5, -0.5, -1e-12]
    recs[1] = img.pixels  # zero error
    greys, errors = _score(img, recs.copy())
    for rec, grey, err in zip(recs, greys, errors):
        want = round_to_grey(rec, 6, 4)
        assert np.array_equal(grey, want.pixels)
        assert float(err) == mse(img, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_score_rejects_non_finite_as_round_to_grey_does(bad):
    img = Image(3, 1, [0, 1, 2])
    recs = np.zeros((3, 3))
    recs[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite") as scored:
        _score(img, recs.copy())
    with pytest.raises(ValueError) as single:
        round_to_grey(recs[2], 3, 1)
    assert str(scored.value) == str(single.value)


@pytest.mark.parametrize("target", [None, 20])
def test_sparsification_factorises_each_mask_once(synthetic_grid, monkeypatch, target):
    """Also under a budget, whose first affordable scale m > 0 has its
    clusters solved through the factorisation that built the path."""
    img, spath, l_grid = synthetic_grid
    budget = math.inf if target is None else 8.0 * img.size / target
    sizes = []
    factorize = inpainting._factorize

    def counting(A):
        sizes.append(A.shape[0])
        return factorize(A)

    monkeypatch.setattr(inpainting, "_factorize", counting)
    points = evaluate_grid(img, spath, ("sparsification",), l_grid, budget)["sparsification"]
    # one factorisation per mask with unknowns, of size l: the full mask has none
    assert sorted(sizes) == sorted(l for l in l_grid if l > 0)
    first = {}
    for p in points:
        if not math.isnan(p.mse):
            first.setdefault(p.l, p.m)
    assert (max(first.values()) > 0) == (target is not None)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("target", [None, 20])
def test_one_walk_of_the_path_per_mask(synthetic_grid, monkeypatch, method, target):
    """Every rate of each mask comes from one histogram walk of its path
    over the known values, none from `coding_cost`."""
    img, spath, l_grid = synthetic_grid
    budget = math.inf if target is None else 8.0 * img.size / target
    walks = []
    walk = compression._walk

    def counting(part, path, grey_depth):
        walks.append(part.domain_size)
        return walk(part, path, grey_depth)

    def no_coding_cost(*args):
        raise AssertionError("coding_cost called by the grid")

    monkeypatch.setattr(compression, "_walk", counting)
    monkeypatch.setattr(compression, "coding_cost", no_coding_cost)
    points = evaluate_grid(img, spath, (method,), l_grid, budget)[method]
    assert walks == [img.size - l for l in l_grid]
    assert any(not math.isnan(p.mse) for p in points)


@pytest.mark.parametrize("target", [None, 20])
def test_methods_share_each_masks_factorisation_and_basis(synthetic_grid, monkeypatch, target):
    """Over all methods at once, each mask with unknowns is factorised once
    and its basis of m = 0 solved once. Only a method whose first
    affordable scale is m > 0 solves a basis of its own. The full mask is
    neither factorised nor solved: its sparsification path is Ward's, and
    its reconstructions are the quantised images."""
    img, spath, l_grid = synthetic_grid
    budget = math.inf if target is None else 8.0 * img.size / target
    sizes, bases = [], []
    factorize, level_basis = inpainting._factorize, compression._level_basis

    def counting_factorize(A):
        sizes.append(A.shape[0])
        return factorize(A)

    def counting_basis(solver, known, values):
        bases.append(len(solver.mask))
        return level_basis(solver, known, values)

    monkeypatch.setattr(inpainting, "_factorize", counting_factorize)
    monkeypatch.setattr(compression, "_level_basis", counting_basis)
    points = evaluate_grid(img, spath, METHODS, l_grid, budget)
    unknowns = [l for l in l_grid if l > 0]
    assert 0 in l_grid and sorted(sizes) == sorted(unknowns)
    first = {}
    for method in METHODS:
        for p in points[method]:
            if not math.isnan(p.mse):
                first.setdefault((method, p.l), p.m)
    assert bases.count(img.size) == 0
    for l in unknowns:
        later = sum(first[method, l] > 0 for method in METHODS)
        assert bases.count(img.size - l) == 1 + later
    assert (len(bases) > len(unknowns)) == (target is not None)


@pytest.mark.parametrize("target", [None, 20])
def test_methods_together_give_the_points_of_each_alone(synthetic_grid, target):
    """Within each l the reconstructions arrive method by method, each
    method's as a call with that method alone gives them."""
    img, spath, l_grid = synthetic_grid
    budget = math.inf if target is None else 8.0 * img.size / target

    def evaluate(methods):
        seen = []
        points = evaluate_grid(img, spath, methods, l_grid, budget,
                               lambda point, grey: seen.append((point, grey.copy())))
        return points, seen

    together, seen = evaluate(METHODS)
    assert list(together) == list(METHODS)
    alone = {}
    for method in METHODS:
        points, alone[method] = evaluate((method,))
        assert [repr(p) for p in together[method]] == [repr(p) for p in points[method]]
    expected = [s for l in l_grid for method in METHODS for s in alone[method] if s[0].l == l]
    assert [repr(p) for p, _ in seen] == [repr(p) for p, _ in expected]
    assert all(np.array_equal(grey, want) for (_, grey), (_, want) in zip(seen, expected))


def test_duplicate_and_unknown_methods(small_setup):
    img, spath = small_setup
    l_grid = [0, 32]
    single = rd_curve(img, spath, methods=("ward",), l_grid=l_grid)
    twice = rd_curve(img, spath, methods=("ward", "ward"), l_grid=l_grid)
    assert list(twice) == ["ward"]
    assert repr(twice) == repr(single)
    assert rd_curve(img, spath, methods=(), l_grid=l_grid) == {}
    for methods in [("x",), ("ward", "x")]:
        with pytest.raises(ValueError, match="^unknown method 'x'$"):
            rd_curve(img, spath, methods=methods, l_grid=l_grid)
        with pytest.raises(ValueError, match="^unknown method 'x'$"):
            evaluate_grid(img, spath, methods, l_grid)
