"""The benchmark workloads: seeded inputs, a round of timed operations, checks.

A workload writes its inputs under its work directory when constructed. One
round is the list returned by `operations()`; each operation has a timed
`call` and a `check` that validates the call's result outside the timed
region and returns an output digest and a quality figure (`rd_mse` is the
mean of the figures of one round). A check raises `CheckFailed` on wrong
output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from inputs import (describe, path_file_text, pgm_bytes, piecewise_smooth, read_p5,
                    removal_order, rng_for)

METHODS = ("uniform", "ward", "spars")
COMPRESS_RATIO = 20
SCALESPACE_LEVELS = 16  # scalespace quality: domain MSE at the first step with this many levels
RD_SAMPLES = 2  # (l, m) points per method recomputed from scratch


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (digest, quality)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv) -> tuple:
    """qss.cli.main in-process; returns (exit code, stdout, stderr)."""
    from qss import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def require_exit_zero(result):
    code, _, err = result
    if code != 0:
        raise CheckFailed("exit code %s: %s" % (code, err.strip()))


class Workload:
    name = ""
    side = 0  # image side
    tiny_side = 0  # image side in the smoke test

    def __init__(self, seed: int, workdir: str, side: int | None = None):
        self.seed = seed
        self.workdir = workdir
        self.side = side or self.side
        self.inputs = []  # describe() of every generated image
        os.makedirs(workdir, exist_ok=True)

    def _image(self, stream: int) -> np.ndarray:
        grid = piecewise_smooth(rng_for(self.seed, stream), self.side)
        self.inputs.append(describe(grid))
        return grid

    def _write(self, name: str, data: bytes) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def operations(self) -> list:
        raise NotImplementedError


class Compress(Workload):
    """`qss compress --ratio 20`, once per method, on one image."""

    name = "compress-96"
    side = 96
    tiny_side = 16

    def __init__(self, seed, workdir, side=None):
        super().__init__(seed, workdir, side)
        self.pixels = self._image(0)
        self.input_path = self._write("input.pgm", pgm_bytes(self.pixels))

    def operations(self):
        return [Operation("compress " + m, self._call(m), self._check(m)) for m in METHODS]

    def _outputs(self, method):
        stem = os.path.join(self.workdir, "compress-" + method)
        return stem + ".txt", stem + ".pgm"

    def _call(self, method):
        manifest, image = self._outputs(method)
        argv = ["compress", self.input_path, "--method", method, "--ratio", str(COMPRESS_RATIO),
                "--seed", str(self.seed), "--out", manifest, "--out-image", image]
        return lambda: run_cli(argv)

    def _check(self, method):
        def check(result):
            require_exit_zero(result)
            manifest, image = self._outputs(method)
            with open(manifest) as fh:
                fields = dict(line.split("=", 1) for line in fh.read().splitlines())
            with open(image, "rb") as fh:
                rec = read_p5(fh.read())
            d = rec.astype(np.float64) - self.pixels.astype(np.float64)
            err = float(np.mean(d * d))
            if "%.10g" % err != fields["mse"]:
                raise CheckFailed("reconstruction MSE %.10g != manifest mse %s"
                                  % (err, fields["mse"]))
            if float(fields["compression_ratio"]) < COMPRESS_RATIO:
                raise CheckFailed("ratio %s below target" % fields["compression_ratio"])
            digest = hashlib.sha256(
                (sha256_file(manifest) + sha256_file(image)).encode()).hexdigest()
            return digest, err

        return check


class RdGrid(Workload):
    """`rd_curve` per method over the full (l, m) grid, random spatial path."""

    name = "rd-grid-128"
    side = 128
    tiny_side = 16

    def __init__(self, seed, workdir, side=None):
        super().__init__(seed, workdir, side)
        from qss import Image, sparsification

        self.image = Image.from_grid(self._image(0))
        order = removal_order(rng_for(self.seed, 1), self.image.size)
        path_file = self._write("removal.qsspath", path_file_text(order).encode())
        with open(path_file) as fh:
            self.spath = sparsification.read_path_file(fh.read())

    def operations(self):
        return [Operation("rd_curve " + m, self._call(m), self._check(m)) for m in METHODS]

    @staticmethod
    def _method(method):
        return "sparsification" if method == "spars" else method

    def _call(self, method):
        from qss import rd_curve

        name = self._method(method)
        return lambda: rd_curve(self.image, self.spath, methods=(name,))[name]["points"]

    def _check(self, method):
        from qss import InpaintSolver, apply_path, mse, round_to_grey
        from qss.compression import build_quant_path

        name = self._method(method)

        def check(points):
            finite = [p for p in points if not math.isnan(p.mse)]
            if len(finite) != len(points):
                raise CheckFailed("unbudgeted grid has %d unevaluated points"
                                  % (len(points) - len(finite)))
            rng = rng_for(self.seed, 2, METHODS.index(method))
            for k in rng.choice(len(points), size=min(RD_SAMPLES, len(points)), replace=False):
                p = points[int(k)]
                mask = self.spath.mask_at(p.l)
                path = build_quant_path(self.image, mask, name)
                g = apply_path(self.image, mask, path, p.m).pixels[mask.indices]
                u = InpaintSolver(mask, self.image.width, self.image.height).solve(g)
                err = mse(self.image, round_to_grey(u, self.image.width, self.image.height))
                if err != p.mse:
                    raise CheckFailed("point (l=%d, m=%d): mse %r, recomputed %r"
                                      % (p.l, p.m, p.mse, err))
            reachable = [p.mse for p in points if p.compression_ratio >= COMPRESS_RATIO]
            if not reachable:
                raise CheckFailed("no grid point reaches ratio %d" % COMPRESS_RATIO)
            text = "".join("%d %d %d %r %r %r\n" % (p.l, p.m, p.q_levels, p.total_bits,
                                                    p.mse, p.compression_ratio)
                           for p in points)
            return hashlib.sha256(text.encode()).hexdigest(), min(reachable)

        return check


class ScaleSpace(Workload):
    """`qss scalespace` with uniform and with ward, no mask, on a few images."""

    name = "scalespace-256"
    side = 256
    tiny_side = 24
    images = 3

    def __init__(self, seed, workdir, side=None):
        super().__init__(seed, workdir, side)
        self.paths = [self._write("input-%d.pgm" % k, pgm_bytes(self._image(k)))
                      for k in range(self.images)]

    def operations(self):
        return [Operation("scalespace %s %d" % (m, k), self._call(k, m), self._check(k, m))
                for k in range(self.images) for m in ("uniform", "ward")]

    def _report(self, k, method):
        return os.path.join(self.workdir, "scalespace-%d-%s.csv" % (k, method))

    def _call(self, k, method):
        argv = ["scalespace", self.paths[k], "--method", method,
                "--report", self._report(k, method)]
        return lambda: run_cli(argv)

    def _check(self, k, method):
        def check(result):
            require_exit_zero(result)
            with open(self._report(k, method), newline="") as fh:
                rows = list(csv.DictReader(fh))
            levels = self.inputs[k]["levels"]
            steps = 255 if method == "uniform" else levels - 1
            if len(rows) != steps + 1:
                raise CheckFailed("%d report rows, expected %d" % (len(rows), steps + 1))
            flags = [c for c in rows[0] if c.endswith("_ok")]
            bad = [r["step"] for r in rows if any(r[c] != "1" for c in flags)]
            if len(flags) != 3 or bad:
                raise CheckFailed("checks failed at steps %s" % bad[:5])
            if int(rows[0]["active_levels"]) != levels or int(rows[-1]["active_levels"]) != 1:
                raise CheckFailed("level counts do not run from %d to 1" % levels)
            quality = next(float(r["mse"]) for r in rows
                           if int(r["active_levels"]) <= SCALESPACE_LEVELS)
            return sha256_file(self._report(k, method)), quality

        return check


WORKLOADS = {w.name: w for w in (Compress, RdGrid, ScaleSpace)}
