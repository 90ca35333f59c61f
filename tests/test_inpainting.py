import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from qss import (
    DomainError,
    Image,
    InpaintingError,
    InpaintSolver,
    Mask,
    inpaint,
    round_to_grey,
)
from qss import inpainting, probabilistic_sparsify
from qss.compression import METHODS, evaluate_grid
from qss.sparsification import SparsificationPath

from conftest import make_synthetic

TOL = 1e-9


def test_full_mask_is_identity():
    img = Image(3, 3, [0, 50, 100, 150, 200, 250, 30, 60, 90])
    u = inpaint(img, Mask.full(9))
    assert np.array_equal(u, img.pixels.astype(float))


def test_1d_linear_interpolation():
    img = Image(5, 1, [0, 0, 0, 0, 100])
    u = inpaint(img, Mask([0, 4], 5))
    assert np.allclose(u, [0, 25, 50, 75, 100], atol=1e-6)


def test_constant_known_data_gives_constant():
    rng = np.random.default_rng(0)
    for _ in range(5):
        mask = Mask(rng.choice(36, size=4, replace=False), 36)
        img = Image(6, 6, np.full(36, 77))
        u = inpaint(img, mask)
        assert np.allclose(u, 77.0, atol=TOL)


def test_exact_on_mask():
    rng = np.random.default_rng(1)
    img = Image(8, 8, rng.integers(0, 256, 64))
    mask = Mask(rng.choice(64, size=20, replace=False), 64)
    u = inpaint(img, mask)
    assert np.array_equal(u[mask.indices], img.pixels[mask.indices].astype(float))


def test_max_min_principle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        img = Image(8, 8, rng.integers(0, 256, 64))
        mask = Mask(rng.choice(64, size=int(rng.integers(1, 30)), replace=False), 64)
        u = inpaint(img, mask)
        known = img.pixels[mask.indices]
        assert u.min() >= known.min() - TOL
        assert u.max() <= known.max() + TOL


def test_linearity():
    rng = np.random.default_rng(3)
    img = Image(6, 6, rng.integers(0, 128, 36))
    doubled = img.with_pixels(img.pixels * 2)
    mask = Mask(rng.choice(36, size=8, replace=False), 36)
    assert np.allclose(inpaint(doubled, mask), 2 * inpaint(img, mask), atol=10 * TOL)


def test_cg_and_direct_agree():
    rng = np.random.default_rng(4)
    img = Image(10, 7, rng.integers(0, 256, 70))
    mask = Mask(rng.choice(70, size=15, replace=False), 70)
    u_cg = inpaint(img, mask, method="cg")
    u_direct = inpaint(img, mask, method="direct")
    assert np.allclose(u_cg, u_direct, atol=10 * TOL)


def test_disconnected_unknown_regions():
    # column 1 fully known splits the unknowns into two independent parts
    grid = np.zeros((3, 3), dtype=int)
    grid[:, 1] = 50
    img = Image.from_grid(grid)
    mask = Mask([1, 4, 7], 9)
    u = inpaint(img, mask)
    assert np.allclose(u, 50.0, atol=TOL)


def test_empty_mask_rejected():
    with pytest.raises(DomainError, match="empty"):
        inpaint(Image(2, 2, [0, 0, 0, 0]), Mask([], 4))


@pytest.mark.parametrize("method", ["cg", "direct"])
def test_nonconvergence_reports_residual(monkeypatch, method):
    monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
    rng = np.random.default_rng(5)
    img = Image(16, 16, rng.integers(0, 256, 256))
    mask = Mask([0], 256)
    with pytest.raises(InpaintingError) as err:
        inpaint(img, mask, method=method)
    assert err.value.residual > 1e-300


def laplacian(u, width, height):
    """Degree-adjusted 5-point Laplacian (reflecting boundaries) of a grid."""
    grid = u.reshape(height, width)
    out = np.zeros_like(grid)
    dx, dy = np.diff(grid, axis=1), np.diff(grid, axis=0)
    out[:, :-1] += dx
    out[:, 1:] -= dx
    out[:-1, :] += dy
    out[1:, :] -= dy
    return out.ravel()


@pytest.mark.parametrize("method", ["direct", "cg"])
@pytest.mark.parametrize("n_known", [300, math.ceil(0.04 * 256 * 256)])
def test_residual_bound_holds_at_paper_size(method, n_known):
    rng = np.random.default_rng(9)
    img = Image(256, 256, rng.integers(0, 256, 256 * 256))
    mask = Mask(rng.choice(img.size, size=n_known, replace=False), img.size)
    u = inpaint(img, mask, method=method)  # raises if the bound is missed
    assert np.array_equal(u[mask.indices], img.pixels[mask.indices].astype(float))
    unknown = np.setdiff1d(np.arange(img.size), mask.indices)
    assert np.abs(laplacian(u, 256, 256)[unknown]).max() <= inpainting.RESIDUAL_BOUND


def test_solver_reuse_matches_inpaint():
    rng = np.random.default_rng(6)
    img = Image(6, 6, rng.integers(0, 256, 36))
    mask = Mask(rng.choice(36, size=10, replace=False), 36)
    solver = InpaintSolver(mask, 6, 6)
    a = solver.solve(img.pixels[mask.indices])
    b = inpaint(img, mask, method="direct")
    assert np.array_equal(a, b)


class TestRoundToGrey:
    def test_half_away(self):
        img = round_to_grey(np.array([24.5]), 1, 1)
        assert img.pixels[0] == 25

    def test_clamp_low(self):
        assert round_to_grey(np.array([-0.2]), 1, 1).pixels[0] == 0

    def test_round_high(self):
        assert round_to_grey(np.array([254.7]), 1, 1).pixels[0] == 255

    @pytest.mark.parametrize(
        "value, grey",
        [
            (0.5 - 1e-12, 1),  # LU round-off around an exact .5
            (2.5 + 1e-12, 3),
            (0.5 - 1e-5, 0),  # a real difference, far above 2**-20
            (255.5 - 1e-12, 255),  # snaps to 255.5, rounds to 256, clamps
            (-0.5 + 1e-12, 0),
        ],
    )
    def test_snaps_round_off_before_rounding(self, value, grey):
        assert round_to_grey(np.array([value]), 1, 1).pixels[0] == grey

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_to_grey(np.array([np.nan]), 1, 1)


def test_outputs_do_not_depend_on_the_factorisation(monkeypatch):
    """SuperLU's default factorisation (COLAMD order, partial pivoting)
    rounds differently from the symmetric one; after the snap, every grid
    point and the sparsification order are the same to the bit. The 64 %
    mask gives many exact .5 reconstruction values, and the early
    sparsification rounds many tied errors."""
    img = make_synthetic(48)
    n = img.size
    spath = SparsificationPath(np.random.default_rng(1).permutation(n), n)
    l_grid = [n - math.ceil(d * n) for d in (0.64, 0.32, 0.01)]

    def outputs():
        points = {m: evaluate_grid(img, spath, m, l_grid) for m in METHODS}
        order = probabilistic_sparsify(img, floor_density=0.01).removal_order
        return points, order

    points, order = outputs()
    monkeypatch.setattr(inpainting, "_factorize", lambda A: spla.splu(A.tocsc()))
    default_points, default_order = outputs()
    for method in METHODS:
        assert points[method] == default_points[method], method
    assert np.array_equal(order, default_order)
