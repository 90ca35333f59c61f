"""Acceptance suite: one test per criterion, each printing a PASS line."""

import math
import time

import numpy as np
import pytest

from qss import (
    Image,
    Mask,
    apply_path,
    coding_cost,
    inpaint,
    level_partition,
    mse,
    probabilistic_sparsify,
    rd_optimize,
    round_to_grey,
    sparsification_quant_path,
    uniform_path,
    verify_scale_space,
    verify_semigroup,
    ward_path,
)
from qss.cli import main
from qss.compression import rd_curve
from qss.pgm import save_pgm
from qss.scale_space import generate

from conftest import make_synthetic, random_image, random_mask
from test_quantisation import ward_oracle_steps, partition_of


@pytest.fixture(scope="module")
def corpus():
    """200 random images with, per method, (mask, path, scale-space)."""
    rng = np.random.default_rng(2023)
    items = []
    for _ in range(200):
        img = random_image(rng)
        per_method = {}
        per_method["uniform"] = (None, uniform_path(img.grey_depth))
        per_method["ward"] = (None, ward_path(level_partition(img)))
        mask = random_mask(rng, img)
        per_method["sparsification"] = (mask, sparsification_quant_path(img, mask))
        entry = {"image": img, "methods": {}}
        for method, (mask, path) in per_method.items():
            entry["methods"][method] = (mask, path, list(generate(img, mask, path)))
        items.append(entry)
    return items


def test_criterion_1_entropy_lyapunov(corpus):
    start = time.time()
    for entry in corpus:
        for method, (mask, path, sequence) in entry["methods"].items():
            report = verify_scale_space(sequence, mask)[0]
            assert not report.violations, (method, report.violations)
            assert not report.strict_violations, (method, report.strict_violations)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("ACCEPTANCE 1 PASS: entropy Lyapunov on 200 images x 3 methods "
          "(%.1fs)" % elapsed)


def test_criterion_2_property_suite(corpus):
    rng = np.random.default_rng(7)
    for k, entry in enumerate(corpus):
        img = entry["image"]
        for method, (mask, path, sequence) in entry["methods"].items():
            # Property 1: original image as initial state
            assert sequence[0] == img
            _, contrast, bounds = verify_scale_space(sequence, mask)
            # Property 3: max-min bounds on the considered domain
            assert bounds.passed, method
            # Property 4: contrast Lyapunov
            assert contrast.passed, method
            # Property 6: flat steady state
            final = sequence[-1].pixels if mask is None else (
                sequence[-1].pixels[mask.indices])
            assert np.unique(final).size == 1
            # Property 2: semigroup split equality, exact
            if len(path) > 0:
                l = int(rng.integers(0, len(path) + 1))
                n = int(rng.integers(0, len(path) - l + 1))
                assert verify_semigroup(img, mask, path, l, n)
        # Property 5: permutation invariance of the level-set structure
        if k % 10 == 0:
            perm = rng.permutation(img.size)
            shuffled = img.with_pixels(img.pixels[perm])
            _, wpath, _ = entry["methods"]["ward"]
            assert ward_path(level_partition(shuffled)) == wpath
            m = len(wpath) // 2
            a = apply_path(shuffled, None, wpath, m).pixels
            b = apply_path(img, None, wpath, m).pixels[perm]
            assert np.array_equal(a, b)
    print("ACCEPTANCE 2 PASS: scale-space properties 1-6 on the corpus")


def test_criterion_3_ward_greedy_optimality():
    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        values = np.sort(rng.choice(256, size=k, replace=False))
        counts = rng.integers(1, 25, size=k)
        path = ward_path(partition_of(values, counts))
        got = [(s.source_low, s.source_high, s.merged_value) for s in path.steps]
        assert got == ward_oracle_steps(values, counts)
    print("ACCEPTANCE 3 PASS: ward greedy steps match exhaustive search, "
          "100 partitions, exact")


def test_criterion_4_inpainting_oracle():
    for n in range(2, 12):
        img = Image(n, 1, [0] * (n - 1) + [100])
        u = inpaint(img, Mask([0, n - 1], n))
        expected = np.linspace(0, 100, n)
        assert np.allclose(u, expected, atol=1e-6)
    rng = np.random.default_rng(4)
    for _ in range(100):
        img = Image(16, 16, rng.integers(0, 256, 256))
        size = int(rng.integers(1, 200))
        mask = Mask(rng.choice(256, size=size, replace=False), 256)
        u = inpaint(img, mask)
        known = img.pixels[mask.indices]
        assert u.min() >= known.min() - 1e-6
        assert u.max() <= known.max() + 1e-6
        const = inpaint(img.with_pixels(np.full(256, 42)), mask)
        assert np.allclose(const, 42.0, atol=1e-6)
    print("ACCEPTANCE 4 PASS: inpainting oracle (linear interpolation, "
          "constants, max-min) on 100 instances")


def test_criterion_5_full_mask_equals_ward():
    rng = np.random.default_rng(55)
    for _ in range(50):
        img = random_image(rng, max_side=16, full_hull=False)
        ward = ward_path(level_partition(img))
        spars = sparsification_quant_path(img, Mask.full(img.size))
        assert ward == spars
    print("ACCEPTANCE 5 PASS: sparsification quantisation equals ward under "
          "a full mask, 50 images, exact")


def test_criterion_6_quantisation_error_ordering(synthetic_image):
    start = time.time()
    img = synthetic_image
    levels = level_partition(img).values.size
    assert 80 <= levels <= 150  # piecewise-smooth with ~100 occurring levels
    wpath = ward_path(level_partition(img))
    upath = uniform_path(256)
    for q in range(2, 65):
        ward_mse = mse(img, apply_path(img, None, wpath, len(wpath.initial_values) - q))
        uni_mse = mse(img, apply_path(img, None, upath, 256 - q))
        assert ward_mse <= uni_mse, (q, ward_mse, uni_mse)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("ACCEPTANCE 6 PASS: ward quantisation error <= uniform for "
          "q in 2..64 (%.1fs)" % elapsed)


def test_criterion_7_overhead_model():
    cost = coding_cost(np.arange(186), 186, "ward")
    uniform = coding_cost(np.arange(186), 186, "uniform")
    assert cost.overhead_bits == 1488.0
    assert uniform.overhead_bits == 8.0
    assert cost.overhead_bits == 186 * uniform.overhead_bits
    print("ACCEPTANCE 7 PASS: non-uniform overhead 1488 bits = 186 x 8")


def test_criterion_8_compression_ordering(synthetic_image):
    start = time.time()
    img = synthetic_image
    spath = probabilistic_sparsify(img, seed=7)
    l = img.size - math.ceil(0.08 * img.size)
    curves = rd_curve(img, spath, l_grid=[l])
    env = {m: dict((b, best) for b, _, best in curves[m]["envelope"])
           for m in curves}
    # geometric buckets with 10 per decade: indices 10..20 span ratio 10..100
    buckets = range(10, 21)

    def compare(a, b):
        common = [k for k in buckets if k in env[a] and k in env[b]]
        assert common, "no matched buckets"
        wins = sum(1 for k in common if env[a][k] <= env[b][k] + 1e-9)
        return wins / len(common)

    vs_ward = compare("sparsification", "ward")
    vs_uniform = compare("sparsification", "uniform")
    elapsed = time.time() - start
    assert vs_ward >= 0.8, vs_ward
    assert vs_uniform >= 0.6, vs_uniform
    assert elapsed < 600.0
    print("ACCEPTANCE 8 PASS: sparsification beats ward in %.0f%% and uniform "
          "in %.0f%% of matched ratio buckets (%.1fs)"
          % (100 * vs_ward, 100 * vs_uniform, elapsed))


def test_criterion_9_rd_optimize_equals_brute_force():
    img = Image(16, 1, [0, 0, 30, 30, 80, 80, 140, 140,
                        200, 200, 255, 255, 10, 10, 90, 90])
    spath = probabilistic_sparsify(img, 0.2, 0.2, seed=13)
    l_grid = list(range(16))
    budget = 64.0
    from qss.compression import build_quant_path

    for method in ("uniform", "ward", "sparsification"):
        best = None
        for l in l_grid:
            mask = spath.mask_at(l)
            path = build_quant_path(img, mask, method)
            for m in range(len(path) + 1):
                quantised = apply_path(img, mask, path, m)
                g = quantised.pixels[mask.indices]
                cost = coding_cost(g, len(path.initial_values) - m, method)
                if cost.total_bits >= budget:
                    continue
                u = inpaint(quantised, mask)
                err = mse(img, round_to_grey(u, img.width, img.height))
                key = (-err, l, m)
                if best is None or key > best[0]:
                    best = (key, l, m, err)
        point, _ = rd_optimize(img, spath, method, budget, l_grid=l_grid)
        assert (point.l, point.m) == (best[1], best[2]), method
        assert point.mse == best[3], method
    print("ACCEPTANCE 9 PASS: rd_optimize equals brute-force enumeration on "
          "a 1x16 image, all methods, exact")


def test_criterion_10_cli_determinism(tmp_path):
    img = make_synthetic(32)
    pgm_path = tmp_path / "in.pgm"
    save_pgm(pgm_path, img)
    outputs = []
    for run in ("a", "b"):
        manifest = tmp_path / ("%s.txt" % run)
        rec = tmp_path / ("%s.pgm" % run)
        argv = [
            "compress", str(pgm_path), "--method", "spars", "--ratio", "25",
            "--seed", "11", "--out", str(manifest), "--out-image", str(rec),
        ]
        assert main(argv) == 0
        outputs.append((manifest.read_bytes(), rec.read_bytes()))
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 10 PASS: identical flags and seed give byte-identical "
          "manifest and reconstruction")
