import argparse
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qss import (
    Image,
    coding_cost,
    inpaint,
    level_partition,
    load_pgm,
    probabilistic_sparsify,
    read_pgm,
    save_pgm,
    uniform_path,
    ward_path,
)
from qss import cli
from qss.cli import main
from qss.compression import InfeasibleBudgetError, build_quant_path
from qss.image import DomainError
from qss.inpainting import InpaintingError
from qss.pgm import PgmError
from qss.quantisation import (
    PathError,
    apply_path,
    read_quant_path_file,
    write_quant_path_file,
)
from qss.sparsification import SparsificationPath, read_path_file, write_path_file

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


@pytest.mark.parametrize("command, output", [
    (["quantise", "--levels", "1", "--out", "x"], "x.pgm"),
    (["scalespace", "--report", "x.csv"], "x.csv"),
], ids=["quantise", "scalespace"])
def test_mask_path_of_another_image_size_is_input_error(tmp_path, capsys, command, output):
    pgm_path, path_file = tmp_path / "in.pgm", tmp_path / "four.txt"
    save_pgm(pgm_path, Image(3, 1, [10, 20, 30]))
    path_file.write_text(write_path_file(SparsificationPath(np.arange(4), 4)))
    argv = [command[0], str(pgm_path), "--method", "ward", "--mask", "%s@0.5" % path_file,
            *command[1:-1], str(tmp_path / command[-1])]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: mask path size does not match image\n"
    assert not (tmp_path / output).exists()


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


@pytest.mark.parametrize("error, code", [
    (DomainError("empty domain"), 2),
    (PathError("bad path"), 2),
    (PgmError("bad pgm"), 2),
    (ValueError("bad value"), 2),
    (InfeasibleBudgetError(8.0), 4),
    (InpaintingError("x", 1.0), 3),
])
def test_exit_code_follows_error_type(monkeypatch, capsys, error, code):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_quantise", failing)
    argv = ["quantise", "in.pgm", "--method", "ward", "--levels", "1", "--out", "x"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % error


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
    for method in ("ward", "uniform"):
        calls.clear()
        argv = ["scalespace", str(pgm_path), "--method", method,
                "--report", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        assert calls == [img]  # the report walks the path over one histogram


def test_scalespace_failed_entropy_check_exits_3(small_pgm, tmp_path, monkeypatch, capsys):
    from qss import scale_space

    _, pgm_path = small_pgm
    walk = scale_space._walk

    def rising(*args):  # the report's walk, its entropy rising by a bit per step
        for m, ((levels, lo, hi, _), err) in enumerate(walk(*args)):
            yield (levels, lo, hi, float(m)), err

    monkeypatch.setattr(scale_space, "_walk", rising)
    report = tmp_path / "r.csv"
    argv = ["scalespace", str(pgm_path), "--method", "ward", "--report", str(report)]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert "entropy VIOLATED" in out.out
    assert out.err == "error: entropy Lyapunov check failed\n"
    rows = report.read_text().strip().splitlines()[1:]
    assert [row.split(",")[5] for row in rows[:3]] == ["1", "0", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sparsify", "{pgm}", "--out", "{dir}/path.txt"],
        ["compress", "{pgm}", "--method", "ward", "--ratio", "10", "--out", "{dir}/m.txt"],
    ],
)
def test_failed_residual_check_exits_3(small_pgm, tmp_path, monkeypatch, capsys, argv):
    from qss import inpainting

    _, pgm_path = small_pgm
    monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
    assert main([a.format(pgm=pgm_path, dir=tmp_path) for a in argv]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("error: inpainting did not converge: residual ")
    assert out.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


def test_residual_failure_in_helper_thread_exits_3(small_pgm, tmp_path, monkeypatch, capsys):
    import threading

    from qss import inpainting

    _, pgm_path = small_pgm
    check = inpainting.InpaintSolver._check_residual
    failed_in = []

    def helpers_only(solver, r):  # only solves on a helper thread may fail
        if threading.current_thread() is not threading.main_thread():
            failed_in.append(threading.current_thread().name)
            check(solver, r)

    monkeypatch.setattr(inpainting, "_cpus", lambda: 2)
    monkeypatch.setattr(inpainting, "RESIDUAL_BOUND", 1e-300)
    monkeypatch.setattr(inpainting.InpaintSolver, "_check_residual", helpers_only)
    argv = ["compress", str(pgm_path), "--method", "spars", "--ratio", "10",
            "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 3
    assert failed_in
    out = capsys.readouterr()
    assert out.err.startswith("error: inpainting did not converge: residual ")
    assert out.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


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


@pytest.mark.parametrize(
    "command, target",
    [
        ("sparsify", ["--out"]),
        ("quantise", ["--method", "ward", "--levels", "2", "--out"]),
        ("scalespace", ["--method", "ward", "--report"]),
        ("compress", ["--method", "ward", "--budget", "1e9", "--out"]),
    ],
)
def test_output_in_missing_directory_is_input_error(
    small_pgm, tmp_path, capsys, command, target
):
    _, pgm_path = small_pgm
    out = tmp_path / "missing" / "out"
    assert main([command, str(pgm_path), *target, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s" % out)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [pgm_path]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("second", ["missing/x.pgm", "adir"])
@pytest.mark.parametrize(
    "command, args",
    [
        ("compress", ["--method", "ward", "--budget", "1e9", "--out-image"]),
        ("sparsify", ["--preview"]),
    ],
)
def test_failed_second_output_writes_nothing(
    small_pgm, tmp_path, capsys, command, args, second, existing
):
    _, pgm_path = small_pgm
    (tmp_path / "adir").mkdir()
    first = tmp_path / "first.txt"
    if existing:
        first.write_bytes(b"old\n")
    argv = [command, str(pgm_path), "--out", str(first), *args, str(tmp_path / second)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s" % (tmp_path / second))
    names = {"adir", "in.pgm"} | ({"first.txt"} if existing else set())
    assert {p.name for p in tmp_path.iterdir()} == names
    assert list((tmp_path / "adir").iterdir()) == []
    if existing:
        assert first.read_bytes() == b"old\n"


@pytest.mark.parametrize(
    "command, args",
    [
        ("compress", ["--method", "ward", "--budget", "1e9", "--out", "r.pgm"]),
        ("compress", ["--method", "ward", "--budget", "1e9", "--out", "r.txt",
                      "--out-image", "{dir}/r.txt"]),
        ("sparsify", ["--out", "x.pgm", "--preview", "./x.pgm"]),
    ],
    ids=["default-image-name", "out-image", "preview"],
)
def test_outputs_naming_one_file_is_input_error(
    small_pgm, tmp_path, capsys, monkeypatch, command, args
):
    _, pgm_path = small_pgm
    monkeypatch.chdir(tmp_path)
    argv = [command, str(pgm_path), *(a.format(dir=tmp_path) for a in args)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: two outputs name the same file")
    assert list(tmp_path.iterdir()) == [pgm_path]


@pytest.mark.parametrize(
    "input_name, mask_arg, message",
    [
        ("missing.pgm", None, "cannot read"),
        (".", None, "cannot read"),
        ("in.pgm", "{path}", "mask must be given as pathfile@density"),
        ("in.pgm", "{path}@half", "bad mask density"),
        ("in.pgm", "{path}@0", "mask density must be in (0, 1]"),
        ("in.pgm", "{dir}/missing.txt@0.5", "cannot load mask path"),
    ],
)
def test_cli_failure_is_one_error_line(
    small_pgm, tmp_path, capsys, input_name, mask_arg, message
):
    img, _ = small_pgm
    path_file = tmp_path / "path.txt"
    path_file.write_text(write_path_file(probabilistic_sparsify(img, seed=0)))
    argv = ["quantise", str(tmp_path / input_name), "--method", "ward",
            "--levels", "1", "--out", str(tmp_path / "x")]
    if mask_arg is not None:
        argv += ["--mask", mask_arg.format(path=path_file, dir=tmp_path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: " + message)
    assert out.err.count("\n") == 1
    assert not (tmp_path / "x.pgm").exists()


_FRESH_INTERPRETER = textwrap.dedent("""
    import json, sys

    import qss
    from qss.cli import main
    from qss.sparsification import read_path_file

    def sparse_modules():
        return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

    args = json.loads(sys.argv[1])
    steps = [["import qss, qss.cli", None, sparse_modules()]]
    for argv in args["commands"]:
        steps.append([argv[0], main(argv), sparse_modules()])
    mask = read_path_file(open(args["path"]).read()).mask_at(args["scale"])
    qss.inpaint(qss.load_pgm(args["pgm"]), mask).tofile(args["out"])
    steps.append(["inpaint", None, sparse_modules()])
    print(json.dumps(steps))
""")


def test_only_inpainting_loads_scipy(tmp_path):
    """In a fresh interpreter, importing qss, the tonal commands (uniform
    and Ward, with or without a mask) and an input error load no
    scipy.sparse module; the first inpainting loads it and gives the
    in-process result."""
    img = make_synthetic(16)
    pgm_path, path_file, bad = tmp_path / "in.pgm", tmp_path / "p.txt", tmp_path / "bad.pgm"
    save_pgm(pgm_path, img)
    spath = probabilistic_sparsify(img, seed=0)
    path_file.write_text(write_path_file(spath))
    bad.write_bytes(b"P5 trash")
    report = str(tmp_path / "r.csv")
    commands = [
        ["scalespace", str(pgm_path), "--method", "uniform", "--report", report],
        ["scalespace", str(pgm_path), "--method", "ward", "--report", report],
        ["scalespace", str(pgm_path), "--method", "ward", "--mask", "%s@0.5" % path_file,
         "--report", report],
        ["quantise", str(pgm_path), "--method", "uniform", "--levels", "4",
         "--out", str(tmp_path / "q")],
        ["scalespace", str(bad), "--method", "ward", "--report", report],
    ]
    out = tmp_path / "u.f64"
    args = {"commands": commands, "path": str(path_file), "scale": 128,
            "pgm": str(pgm_path), "out": str(out)}
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, json.dumps(args)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    steps = json.loads(run.stdout.splitlines()[-1])
    assert [code for _, code, _ in steps] == [None, 0, 0, 0, 0, 2, None], steps
    assert all(sparse == [] for _, _, sparse in steps[:-1]), steps
    assert "scipy.sparse.linalg" in steps[-1][2]
    assert np.array_equal(np.fromfile(out), inpaint(img, spath.mask_at(128)))


def test_full_mask_sparsification_loads_no_scipy(tmp_path):
    """In a fresh interpreter, `quantise` and `scalespace` with the
    sparsification method on a full mask load no scipy.sparse module: the
    path is Ward's, built without a solver, as the qpath file shows."""
    img = make_synthetic(16)
    pgm_path, path_file = tmp_path / "in.pgm", tmp_path / "p.txt"
    save_pgm(pgm_path, img)
    path_file.write_text(write_path_file(probabilistic_sparsify(img, seed=0)))
    full = "%s@1" % path_file
    commands = [
        ["quantise", str(pgm_path), "--method", "spars", "--mask", full, "--levels", "4",
         "--out", str(tmp_path / "q")],
        ["scalespace", str(pgm_path), "--method", "spars", "--mask", full,
         "--report", str(tmp_path / "r.csv")],
    ]
    args = {"commands": commands, "path": str(path_file), "scale": 128,
            "pgm": str(pgm_path), "out": str(tmp_path / "u.f64")}
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, json.dumps(args)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    steps = json.loads(run.stdout.splitlines()[-1])
    assert [code for _, code, _ in steps] == [None, 0, 0, None], steps
    assert all(sparse == [] for _, _, sparse in steps[:-1]), steps
    ward = write_quant_path_file(ward_path(level_partition(img)))
    assert (tmp_path / "q.qpath").read_text() == ward


def test_sparsification_options_have_one_help_text():
    """`sparsify` and `compress` document --p, --q and --seed alike."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {name: {a.dest: a.help for a in sub.choices[name]._actions}
             for name in ("sparsify", "compress")}
    for dest in ("p", "q", "seed"):
        assert helps["sparsify"][dest] and helps["sparsify"][dest] == helps["compress"][dest]
