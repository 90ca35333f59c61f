import math

import numpy as np
import pytest

from qss import (
    Image,
    coding_cost,
    load_pgm,
    probabilistic_sparsify,
    read_pgm,
    save_pgm,
    uniform_path,
)
from qss.cli import main
from qss.compression import build_quant_path
from qss.quantisation import apply_path, read_quant_path_file
from qss.sparsification import read_path_file

from conftest import make_synthetic


@pytest.fixture()
def small_pgm(tmp_path):
    rng = np.random.default_rng(0)
    img = Image(8, 8, rng.integers(0, 256, 64))
    path = tmp_path / "in.pgm"
    save_pgm(path, img)
    return img, path


def test_sparsify_density_one(small_pgm, tmp_path):
    img, pgm_path = small_pgm
    out = tmp_path / "path.txt"
    assert main(["sparsify", str(pgm_path), "--density", "1.0", "--out", str(out)]) == 0
    path = read_path_file(out.read_text())
    assert len(path.mask_at(0)) == img.size


def test_sparsify_deterministic(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        argv = ["sparsify", str(pgm_path), "--seed", "9", "--out", str(out)]
        assert main(argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sparsify_preview_density(tmp_path):
    img = make_synthetic(16)
    pgm_path = tmp_path / "in.pgm"
    save_pgm(pgm_path, img)
    preview = tmp_path / "mask.pgm"
    argv = [
        "sparsify", str(pgm_path), "--density", "0.08",
        "--out", str(tmp_path / "p.txt"), "--preview", str(preview),
    ]
    assert main(argv) == 0
    mask_img = load_pgm(preview)
    assert int(np.sum(mask_img.pixels == 255)) == math.ceil(0.08 * img.size)


def test_quantise_identity_at_current_levels(small_pgm, tmp_path):
    img, pgm_path = small_pgm
    levels = len(np.unique(img.pixels))
    out = tmp_path / "out"
    argv = [
        "quantise", str(pgm_path), "--method", "ward",
        "--levels", str(levels), "--out", str(out),
    ]
    assert main(argv) == 0
    assert load_pgm(str(out) + ".pgm") == img


def test_quantise_to_one_level_constant(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    out = tmp_path / "out"
    argv = [
        "quantise", str(pgm_path), "--method", "ward", "--levels", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    quantised = load_pgm(str(out) + ".pgm")
    assert len(np.unique(quantised.pixels)) == 1
    qpath = read_quant_path_file((tmp_path / "out.qpath").read_text())
    assert len(qpath) == len(qpath.initial_values) - 1


def test_quantise_uniform_two_levels_matches_composition(tmp_path):
    ramp = Image(16, 16, np.arange(256))
    pgm_path = tmp_path / "ramp.pgm"
    save_pgm(pgm_path, ramp)
    out = tmp_path / "out"
    argv = [
        "quantise", str(pgm_path), "--method", "uniform", "--levels", "2",
        "--out", str(out),
    ]
    assert main(argv) == 0
    expected = apply_path(ramp, None, uniform_path(256), 254)
    got = load_pgm(str(out) + ".pgm")
    assert got == expected
    assert sorted(np.unique(got.pixels)) == [64, 192]


def test_quantise_too_many_levels_is_input_error(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    argv = [
        "quantise", str(pgm_path), "--method", "ward", "--levels", "300",
        "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 2


def test_spars_method_requires_mask(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    argv = [
        "quantise", str(pgm_path), "--method", "spars", "--levels", "2",
        "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 2


def test_mask_path_outside_image_is_input_error(tmp_path, capsys):
    pgm_path, path_file = tmp_path / "in.pgm", tmp_path / "bad.txt"
    save_pgm(pgm_path, Image(3, 1, [10, 20, 30]))
    path_file.write_text("QSSPATH v1 N=3\n-1\n0\n1\n")
    argv = [
        "quantise", str(pgm_path), "--method", "ward", "--levels", "1",
        "--mask", "%s@0.5" % path_file, "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.pgm").exists()


def test_mask_path_with_huge_size_is_input_error(tmp_path, capsys):
    pgm_path, path_file = tmp_path / "in.pgm", tmp_path / "huge.txt"
    save_pgm(pgm_path, Image(3, 1, [10, 20, 30]))
    path_file.write_text("QSSPATH v1 N=1000000000000000000\n0\n")
    argv = [
        "quantise", str(pgm_path), "--method", "ward", "--levels", "1",
        "--mask", "%s@0.5" % path_file, "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot load mask path:")
    assert not (tmp_path / "x.pgm").exists()


def test_negative_p2_sample_is_invalid_pgm(tmp_path, capsys):
    bad = tmp_path / "neg.pgm"
    bad.write_bytes(b"P2 1 1 255 -5")
    assert main(["sparsify", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid PGM %s:" % bad)


def test_invalid_pgm_is_input_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5 trash")
    assert main(["sparsify", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_scalespace_report(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    report = tmp_path / "report.csv"
    argv = ["scalespace", str(pgm_path), "--method", "ward", "--report", str(report)]
    assert main(argv) == 0
    lines = report.read_text().strip().splitlines()
    entropies = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_scalespace_with_mask(tmp_path):
    img = make_synthetic(16)
    pgm_path = tmp_path / "in.pgm"
    save_pgm(pgm_path, img)
    path_file = tmp_path / "p.txt"
    assert main(["sparsify", str(pgm_path), "--out", str(path_file)]) == 0
    report = tmp_path / "report.csv"
    argv = [
        "scalespace", str(pgm_path), "--method", "spars",
        "--mask", "%s@0.3" % path_file, "--report", str(report),
    ]
    assert main(argv) == 0
    assert report.exists()


def test_compress_unlimited_budget_reproduces_image(small_pgm, tmp_path):
    img, pgm_path = small_pgm
    manifest = tmp_path / "m.txt"
    argv = [
        "compress", str(pgm_path), "--method", "ward", "--budget", "1e9",
        "--out", str(manifest),
    ]
    assert main(argv) == 0
    entries = dict(
        line.split("=", 1) for line in manifest.read_text().strip().splitlines()
    )
    assert float(entries["mse"]) == 0.0
    assert load_pgm(tmp_path / "m.pgm") == img


@pytest.mark.parametrize("method", ["uniform", "ward", "spars"])
def test_compress_manifest_cost_matches_winning_scales(tmp_path, method):
    img = make_synthetic(16)
    pgm_path = tmp_path / "in.pgm"
    save_pgm(pgm_path, img)
    manifest = tmp_path / "m.txt"
    argv = [
        "compress", str(pgm_path), "--method", method, "--ratio", "10",
        "--seed", "3", "--out", str(manifest),
    ]
    assert main(argv) == 0
    entries = dict(
        line.split("=", 1) for line in manifest.read_text().strip().splitlines()
    )
    name = entries["method"]
    mask = probabilistic_sparsify(img, seed=3).mask_at(int(entries["l"]))
    path = build_quant_path(img, mask, name)
    g = apply_path(img, mask, path, int(entries["m"])).pixels[mask.indices]
    q_levels = len(path.initial_values) - int(entries["m"])
    cost = coding_cost(g, q_levels, name)
    assert int(entries["q_levels"]) == q_levels
    assert int(entries["n_known"]) == cost.n_known
    assert entries["entropy_bits_per_value"] == "%.10g" % cost.per_value_bits
    assert entries["overhead_bits"] == "%.10g" % cost.overhead_bits
    assert entries["total_bits"] == "%.10g" % cost.total_bits


def test_compress_infinite_budget_reproduces_image(small_pgm, tmp_path):
    img, pgm_path = small_pgm
    manifest = tmp_path / "m.txt"
    argv = [
        "compress", str(pgm_path), "--method", "ward", "--budget", "inf",
        "--out", str(manifest),
    ]
    assert main(argv) == 0
    entries = dict(
        line.split("=", 1) for line in manifest.read_text().strip().splitlines()
    )
    assert entries["budget_bits"] == "inf"
    assert float(entries["mse"]) == 0.0
    assert load_pgm(tmp_path / "m.pgm") == img


@pytest.mark.parametrize("method", ["uniform", "ward", "spars"])
def test_compress_manifest_is_exact(small_pgm, tmp_path, method):
    _, pgm_path = small_pgm
    manifest = tmp_path / "m.txt"
    argv = ["compress", str(pgm_path), "--method", method, "--ratio", "10",
            "--out", str(manifest)]
    assert main(argv) == 0
    lines = manifest.read_text().strip().splitlines()
    assert [line for line in lines if line.startswith("approximate=")] == ["approximate=no"]


def test_compress_infeasible_budget(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    argv = [
        "compress", str(pgm_path), "--method", "uniform", "--budget", "5",
        "--out", str(tmp_path / "m.txt"),
    ]
    assert main(argv) == 4


def test_compress_needs_exactly_one_target(small_pgm, tmp_path):
    _, pgm_path = small_pgm
    argv = ["compress", str(pgm_path), "--method", "ward", "--out", str(tmp_path / "m")]
    assert main(argv) == 2


def test_scalespace_partitions_each_image_once(small_pgm, tmp_path, monkeypatch):
    from qss import scale_space
    from qss.image import level_partition

    img, pgm_path = small_pgm
    calls = []

    def counting(image, mask=None):
        calls.append(image)
        return level_partition(image, mask)

    monkeypatch.setattr(scale_space, "level_partition", counting)
    for method, steps in (("ward", len(np.unique(img.pixels)) - 1), ("uniform", 255)):
        calls.clear()
        argv = ["scalespace", str(pgm_path), "--method", method,
                "--report", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        assert len(calls) == steps + 1


def test_scalespace_failed_entropy_check_exits_3(small_pgm, tmp_path, monkeypatch, capsys):
    import itertools

    from qss import scale_space

    _, pgm_path = small_pgm
    rising = itertools.count()
    monkeypatch.setattr(scale_space, "entropy", lambda part: float(next(rising)))
    report = tmp_path / "r.csv"
    argv = ["scalespace", str(pgm_path), "--method", "ward", "--report", str(report)]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert "entropy VIOLATED" in out.out
    assert out.err == "error: entropy Lyapunov check failed\n"
    rows = report.read_text().strip().splitlines()[1:]
    assert [row.split(",")[5] for row in rows[:3]] == ["1", "0", "0"]


@pytest.mark.parametrize("ratio", ["0", "-3", "nan", "inf", "-inf"])
def test_compress_rejects_bad_ratio(small_pgm, tmp_path, capsys, ratio):
    _, pgm_path = small_pgm
    argv = ["compress", str(pgm_path), "--method", "ward", "--ratio=" + ratio,
            "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("budget", ["nan", "0", "-5", "-0", "-inf"])
def test_compress_rejects_bad_budget(small_pgm, tmp_path, capsys, budget):
    _, pgm_path = small_pgm
    argv = ["compress", str(pgm_path), "--method", "ward", "--budget=" + budget,
            "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("command", ["quantise", "compress"])
def test_candidates_is_unknown_argument(small_pgm, tmp_path, capsys, command):
    _, pgm_path = small_pgm
    target = ["--levels", "2"] if command == "quantise" else ["--ratio", "10"]
    argv = [command, str(pgm_path), "--method", "ward", *target,
            "--out", str(tmp_path / "o"), "--candidates", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --candidates 5" in capsys.readouterr().err
