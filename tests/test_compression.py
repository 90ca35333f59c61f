import math

import numpy as np
import pytest

from qss import (
    DomainError,
    Image,
    InfeasibleBudgetError,
    Mask,
    coding_cost,
    mse,
    probabilistic_sparsify,
    rd_curve,
    rd_optimize,
)
from qss.compression import (
    build_quant_path,
    curve_csv,
    default_l_grid,
    evaluate_grid,
    rate_distortion_envelope,
)
from qss.quantisation import apply_path


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
        points = evaluate_grid(img, spath, "ward", l_grid, budget=budget)
        feasible = [p for p in points if p.total_bits < budget]
        best_mse = min(p.mse for p in feasible)
        assert point.mse == best_mse
        best = max(
            (p for p in feasible if p.mse == best_mse), key=lambda p: (p.l, p.m)
        )
        assert (point.l, point.m) == (best.l, best.m)


class TestEnvelope:
    def test_single_point(self):
        points = evaluate_grid(
            Image(4, 4, np.arange(16)),
            probabilistic_sparsify(Image(4, 4, np.arange(16)), seed=0),
            "uniform",
            [0],
        )
        env = rate_distortion_envelope(points[-1:])
        assert len(env) == 1

    def test_envelope_monotone(self, small_setup):
        img, spath = small_setup
        points = evaluate_grid(img, spath, "uniform", [0, 32, 56])
        env = rate_distortion_envelope(points)
        mses = [m for _, _, m in env]
        assert all(b >= a for a, b in zip(mses, mses[1:]))


def test_rd_curve_and_csv(small_setup):
    img, spath = small_setup
    curves = rd_curve(img, spath, methods=("uniform", "ward"), l_grid=[0, 32])
    text = curve_csv(curves)
    lines = text.strip().splitlines()
    assert lines[0] == "method,ratio,mse"
    assert any(line.startswith("uniform,") for line in lines[1:])
    assert any(line.startswith("ward,") for line in lines[1:])


def test_default_l_grid():
    grid = default_l_grid(4096)
    assert all(0 <= l < 4096 for l in grid)
    assert grid == sorted(grid)
    assert 4096 - math.ceil(0.08 * 4096) in grid
