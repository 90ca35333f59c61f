import math
import sys
import threading

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


@pytest.mark.parametrize(
    "mask, match", [(Mask([], 4), "empty mask"), (Mask([0, 1], 9), "does not match")],
    ids=["empty", "other-size"],
)
def test_solver_rejects_a_foreign_or_empty_mask(mask, match):
    with pytest.raises(DomainError, match=match):
        InpaintSolver(mask, 2, 2)


def test_missing_mask_rejected():
    with pytest.raises(DomainError, match="needs a mask"):
        inpaint(Image(2, 1, [0, 255]), None)


def test_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
    rng = np.random.default_rng(5)
    img = Image(16, 16, rng.integers(0, 256, 256))
    mask = Mask([0], 256)
    with pytest.raises(InpaintingError) as err:
        inpaint(img, mask)
    assert err.value.residual > 1e-300


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_fails_every_check(bad):
    """A NaN residual is not within the bound: solve, check and
    solve_bordered raise instead of returning non-finite values."""
    mask = Mask([0, 5, 10, 15], 16)  # the diagonal: each pixel has unknown neighbours
    solver = InpaintSolver(mask, 4, 4)
    known = np.array([0.0, 50.0, 100.0, 150.0])
    with pytest.raises(InpaintingError):
        solver.solve(np.where(np.arange(4) == 1, bad, known))
    u = solver.solve(known)
    u[1] = bad
    with pytest.raises(InpaintingError):
        solver.check(known, u)
    with pytest.raises(InpaintingError):
        solver.solve_bordered(u, Mask([0, 5, 15], 16))

    # pixel 0 of the 3x3 top-left block has no unknown neighbour, so it is
    # in no equation of the system: its non-finite value must still raise
    mask = Mask([0, 1, 2, 4, 5, 6, 8, 9, 10], 16)
    solver = InpaintSolver(mask, 4, 4)
    known = np.arange(9.0)
    u = solver.solve(known)
    known[0] = u[0] = bad
    with pytest.raises(InpaintingError):
        solver.solve(known)
    with pytest.raises(InpaintingError):
        solver.check(known, u)
    with pytest.raises(InpaintingError):
        solver.solve_bordered(u, Mask([0, 1, 2, 4, 5, 6, 8, 9], 16))


def test_check_rejects_mismatched_shapes():
    solver = InpaintSolver(Mask([0, 5, 15], 16), 4, 4)
    known = np.array([0.0, 50.0, 100.0])
    u = solver.solve(known)
    for wrong in (np.resize(u, 25), np.append(u, 0.0), u[:-1]):  # not 16 values
        with pytest.raises(DomainError):
            solver.check(known, wrong)
    with pytest.raises(DomainError):
        solver.check(known[:2], u)  # shorter than the mask
    with pytest.raises(DomainError):
        solver.check(np.stack([known, known]), u)


def test_check_reads_the_known_pixels_of_the_reconstruction():
    """An otherwise exact reconstruction whose known pixel 5 is off by 1
    is no inpainting of the data, alone or in a block."""
    solver = InpaintSolver(Mask([0, 5, 15], 16), 4, 4)
    known = np.array([0.0, 50.0, 100.0])
    u = solver.solve(known)
    solver.check(known, u)
    solver.check(np.stack([known, 2 * known]), np.stack([u, 2 * u]))
    u[5] += 1
    with pytest.raises(InpaintingError) as err:
        solver.check(known, u)
    assert err.value.residual == 1
    with pytest.raises(InpaintingError):
        solver.check(np.stack([known, known]), np.stack([solver.solve(known), u]))


def test_check_accepts_the_empty_block_solve_returns():
    solver = InpaintSolver(Mask([0, 4], 9), 3, 3)
    empty = np.empty((0, 2))
    u = solver.solve(empty)
    assert u.shape == (0, 9)
    solver.check(empty, u)


def test_full_mask_factorises_its_empty_system(monkeypatch):
    shapes = []
    factorize = inpainting._factorize

    def recording(A):
        shapes.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(inpainting, "_factorize", recording)
    solver = InpaintSolver(Mask.full(9), 3, 3)
    assert shapes == [(0, 0)]
    known = np.random.default_rng(2).normal(size=(9, 9))
    assert np.array_equal(solver.solve(known[0]), known[0])
    assert np.array_equal(solver.solve(known), known)
    solver.check(known, solver.solve(known))


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


@pytest.mark.parametrize("n_known", [300, math.ceil(0.04 * 256 * 256)])
def test_residual_bound_holds_at_paper_size(n_known):
    rng = np.random.default_rng(9)
    img = Image(256, 256, rng.integers(0, 256, 256 * 256))
    mask = Mask(rng.choice(img.size, size=n_known, replace=False), img.size)
    u = inpaint(img, mask)  # raises if the bound is missed
    assert np.array_equal(u[mask.indices], img.pixels[mask.indices].astype(float))
    unknown = np.setdiff1d(np.arange(img.size), mask.indices)
    assert np.abs(laplacian(u, 256, 256)[unknown]).max() <= inpainting.RESIDUAL_BOUND


def test_bordered_residual_bound_holds_at_paper_size():
    # 256^2 at 1 %: the 64 border pixels join 64880 unknowns of the kept solver
    rng = np.random.default_rng(10)
    img = Image(256, 256, rng.integers(0, 256, 256 * 256))
    kept = Mask(rng.choice(img.size, size=math.ceil(0.01 * img.size), replace=False), img.size)
    rest = Mask(np.delete(kept.indices, rng.choice(len(kept), size=64, replace=False)), img.size)
    TestBorderedSolve.compare(img, kept, rest)


def test_solver_reuse_matches_inpaint():
    rng = np.random.default_rng(6)
    img = Image(6, 6, rng.integers(0, 256, 36))
    mask = Mask(rng.choice(36, size=10, replace=False), 36)
    solver = InpaintSolver(mask, 6, 6)
    a = solver.solve(img.pixels[mask.indices])
    b = inpaint(img, mask)
    assert np.array_equal(a, b)


class TestBlockSolve:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(7)
        mask = Mask(rng.choice(400, size=30, replace=False), 400)
        # 19 rows: two full chunks of 8 right-hand sides and a partial one
        block = rng.integers(0, 256, (19, len(mask))).astype(float)
        return mask, block

    def test_agrees_with_single_solves(self, setup):
        mask, block = setup
        solver = InpaintSolver(mask, 20, 20)
        rows = solver.solve(block)
        assert rows.shape == (19, 400)
        for g, row in zip(block, rows):
            single = solver.solve(g)
            assert np.abs(row - single).max() <= 1e-12
            assert round_to_grey(row, 20, 20) == round_to_grey(single, 20, 20)

    def test_residual_checked_for_every_block(self, setup, monkeypatch):
        mask, block = setup
        solver = InpaintSolver(mask, 20, 20)
        monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
        with pytest.raises(InpaintingError) as err:
            solver.solve(block)
        assert err.value.residual > 1e-300

    def test_wrong_width_rejected(self, setup):
        mask, block = setup
        solver = InpaintSolver(mask, 20, 20)
        with pytest.raises(DomainError):
            solver.solve(block[:, :-1])


class TestThreadedSolve:
    """Blocks of eight columns spread over `_cpus()` threads."""

    class RecordingLU:
        """A factorisation that records the threads that back-substitute."""

        def __init__(self, lu):
            self.lu = lu
            self.threads = set()
            self.columns = []  # right-hand sides per call

        def solve(self, b):
            self.threads.add(threading.current_thread())  # idents are reused
            self.columns.append(b.shape[1])
            return self.lu.solve(b)

    @staticmethod
    def solver_and_block(rows, seed=13):
        rng = np.random.default_rng(seed)
        mask = Mask(rng.choice(400, size=30, replace=False), 400)
        return InpaintSolver(mask, 20, 20), rng.integers(0, 256, (rows, len(mask))).astype(float)

    @staticmethod
    def serial(solver, block):
        """The reconstructions, one `_lu.solve` per eight rows in order."""
        out = np.empty((len(block), 400))
        out[:, solver.mask.indices] = block
        for start in range(0, len(block), 8):
            b = solver._B @ block[start : start + 8].T
            out[start : start + 8, solver._unknown] = solver._lu.solve(b).T
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("blocks", [1, 2, 9, 17])
    def test_equals_serial_back_substitution(self, monkeypatch, cpus, blocks):
        monkeypatch.setattr(inpainting, "_cpus", lambda: cpus)
        solver, block = self.solver_and_block(8 * blocks - 3)  # last block partial
        expected = self.serial(solver, block)
        solver._lu = self.RecordingLU(solver._lu)
        assert np.array_equal(solver.solve(block), expected)
        assert len(solver._lu.threads) == min(cpus, blocks)

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch):
        monkeypatch.setattr(inpainting, "_cpus", lambda: 6)
        solver, block = self.solver_and_block(8 * 17)
        expected = self.serial(solver, block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(solver.solve(block), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_failure_reaches_caller_unchanged(self, monkeypatch):
        # block 0 (zero data, zero residual) passes on the calling thread;
        # blocks 1 (a helper's) and 2 (the caller's) fail, and block 1 wins
        solver, block = self.solver_and_block(24)
        block[:8] = 0.0
        monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(inpainting, "_cpus", lambda: cpus)
            with pytest.raises(InpaintingError) as err:
                solver.solve(block)
            errors.append(err.value)
        serial, threaded = errors
        assert str(threaded) == str(serial)
        assert threaded.residual == serial.residual
        with pytest.raises(InpaintingError) as later:
            solver.solve(block[16:])
        assert later.value.residual != serial.residual

    def test_bool_block_equals_float(self):
        solver, block = self.solver_and_block(19)
        assert np.array_equal(solver.solve(block % 2 == 1), solver.solve(block % 2))


class TestBorderedSolve:
    """`solve_bordered` on a kept solver against a fresh solver on `rest`."""

    @staticmethod
    def compare(img, kept, rest):
        solver = InpaintSolver(kept, img.width, img.height)
        u = solver.solve_bordered(solver.solve(img.pixels[kept.indices]), rest)
        fresh = inpaint(img, rest)
        assert np.array_equal(u[rest.indices], fresh[rest.indices])
        assert np.array_equal(inpainting._snap(u), inpainting._snap(fresh))
        unknown = np.setdiff1d(np.arange(img.size), rest.indices)
        residual = np.abs(laplacian(u, img.width, img.height)[unknown])
        assert np.all(residual <= inpainting.RESIDUAL_BOUND)
        return solver

    @pytest.fixture
    def img(self):
        return Image(24, 24, np.random.default_rng(11).integers(0, 256, 576))

    @pytest.mark.parametrize("density", [1.0, 0.3])  # full: no unknowns
    @pytest.mark.parametrize("border", [0, 1, 64])
    def test_agrees_with_fresh_solver(self, img, density, border):
        rng = np.random.default_rng(border)
        kept = Mask(rng.choice(img.size, size=round(density * img.size), replace=False), img.size)
        rest = Mask(np.delete(kept.indices, rng.choice(len(kept), size=border, replace=False)),
                    img.size)
        solver = self.compare(img, kept, rest)
        assert solver.border_columns == border

    def test_columns_are_kept_across_calls(self, img):
        rng = np.random.default_rng(12)
        kept = Mask(rng.choice(img.size, size=200, replace=False), img.size)
        solver = InpaintSolver(kept, 24, 24)
        base = solver.solve(img.pixels[kept.indices])
        order = rng.permutation(kept.indices)
        for border in (10, 20, 15):
            rest = Mask(order[border:], img.size)
            u = solver.solve_bordered(base, rest)
            assert np.array_equal(inpainting._snap(u), inpainting._snap(inpaint(img, rest)))
        assert solver.border_columns == 20

    def test_new_columns_in_one_back_substitution(self, img):
        kept = Mask(np.arange(0, img.size, 3), img.size)
        solver = InpaintSolver(kept, 24, 24)
        base = solver.solve(img.pixels[kept.indices])
        solver._lu = TestThreadedSolve.RecordingLU(solver._lu)
        solver.solve_bordered(base, Mask(kept.indices[20:], img.size))
        assert solver._lu.columns == [20]
        solver.solve_bordered(base, Mask(kept.indices[25:], img.size))
        assert solver._lu.columns == [20, 5]  # the kept 20 are not solved again
        solver.solve_bordered(base, Mask(kept.indices[10:], img.size))
        assert solver._lu.columns == [20, 5]

    def test_residual_checked(self, img, monkeypatch):
        kept = Mask(np.arange(0, img.size, 3), img.size)
        solver = InpaintSolver(kept, 24, 24)
        base = solver.solve(img.pixels[kept.indices])
        monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
        with pytest.raises(InpaintingError) as err:
            solver.solve_bordered(base, Mask(kept.indices[5:], img.size))
        assert err.value.residual > 1e-300

    def test_rest_outside_mask_rejected(self, img):
        kept = Mask(np.arange(0, img.size, 2), img.size)
        solver = InpaintSolver(kept, 24, 24)
        base = solver.solve(img.pixels[kept.indices])
        with pytest.raises(DomainError):
            solver.solve_bordered(base, Mask([0, 1], img.size))
        with pytest.raises(DomainError, match="empty mask"):
            solver.solve_bordered(base, Mask([], img.size))
        with pytest.raises(DomainError):
            solver.solve_bordered(base[:-1], Mask([0, 2], img.size))


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
        points = evaluate_grid(img, spath, METHODS, l_grid)
        order = probabilistic_sparsify(img, floor_density=0.01).removal_order
        return points, order

    points, order = outputs()
    monkeypatch.setattr(inpainting, "_factorize", lambda A: spla.splu(A.tocsc()))
    default_points, default_order = outputs()
    for method in METHODS:
        assert points[method] == default_points[method], method
    assert np.array_equal(order, default_order)
