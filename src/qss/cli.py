"""Command-line frontend.

Subcommands: sparsify, quantise, scalespace, compress. Exit codes:
0 success, 2 input error, 3 numerical failure, 4 infeasible budget.
Commands raise, and `main` alone turns an error into its exit code, by
its type: `InfeasibleBudgetError` 4, `InpaintingError` 3, any other
`ValueError` 2. A failed entropy Lyapunov check is a result, not an
error: `scalespace` writes its report and returns 3 itself.
A command writes all of its output files or none (temp files, renamed
only once all are written); an output that cannot be written, or two
outputs naming one file, is an input error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import compression, pgm, scale_space, sparsification
from .image import Image, Mask
from .inpainting import InpaintingError
from .quantisation import apply_path, write_quant_path_file

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

# --method choices and the `compression` method each names
_METHODS = {"uniform": "uniform", "ward": "ward", "spars": "sparsification"}


def _load_image(path) -> Image:
    try:
        return pgm.load_pgm(path)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc))
    except pgm.PgmError as exc:
        raise ValueError("invalid PGM %s: %s" % (path, exc))


def _write(outputs) -> None:
    """Write all of a command's (path, bytes) outputs, or none of them."""
    try:
        pgm.write_atomic(outputs)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (exc.filename, exc.strerror))


def _parse_mask_arg(arg: str, image: Image) -> Mask:
    """Parse 'pathfile@density' into the mask of that density."""
    if "@" not in arg:
        raise ValueError("mask must be given as pathfile@density")
    file_part, density_part = arg.rsplit("@", 1)
    try:
        density = float(density_part)
    except ValueError:
        raise ValueError("bad mask density %r" % density_part)
    if not 0 < density <= 1:
        raise ValueError("mask density must be in (0, 1]")
    try:
        with open(file_part) as fh:
            path = sparsification.read_path_file(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError("cannot load mask path: %s" % exc)
    if path.image_size != image.size:
        raise ValueError("mask path size does not match image")
    return path.mask_at(image.size - math.ceil(density * image.size))


def _quant_path(args):
    """(image, mask or None, method, path) of `quantise` and `scalespace`;
    without --mask the domain is the whole image."""
    image = _load_image(args.input)
    method = _METHODS[args.method]
    mask = _parse_mask_arg(args.mask, image) if args.mask else None
    return image, mask, method, compression.build_quant_path(image, mask, method)


def cmd_sparsify(args) -> int:
    image = _load_image(args.input)
    path = sparsification.probabilistic_sparsify(
        image, args.p, args.q, args.density, args.seed
    )
    outputs = [(args.out, sparsification.write_path_file(path).encode())]
    if args.preview:
        target = image.size - math.ceil(args.density * image.size)
        preview = 255 * path.mask_at(target).bool_array()
        outputs.append(
            (args.preview, pgm.write_pgm(Image(image.width, image.height, preview)))
        )
    _write(outputs)
    return 0


def cmd_quantise(args) -> int:
    image, mask, _, path = _quant_path(args)
    available = len(path.initial_values)
    if not 1 <= args.levels <= available:
        raise ValueError("levels %d not in [1, %d]" % (args.levels, available))
    quantised = apply_path(image, mask, path, available - args.levels)
    _write([
        (args.out + ".pgm", pgm.write_pgm(quantised)),
        (args.out + ".qpath", write_quant_path_file(path).encode()),
    ])
    return 0


def cmd_scalespace(args) -> int:
    image, mask, method, path = _quant_path(args)
    text, lyap = scale_space.report_csv(image, mask, path)
    _write([(args.report, text.encode())])
    print(
        "scalespace %s: %d steps, entropy %s"
        % (method, len(path), "ok" if lyap.passed else "VIOLATED")
    )
    if not lyap.passed:
        print("error: entropy Lyapunov check failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def _format_manifest(items) -> str:
    lines = []
    for key, value in items:
        if isinstance(value, float):
            lines.append("%s=%.10g" % (key, value))
        else:
            lines.append("%s=%s" % (key, value))
    return "\n".join(lines) + "\n"


def cmd_compress(args) -> int:
    image = _load_image(args.input)
    method = _METHODS[args.method]
    if (args.budget is None) == (args.ratio is None):
        raise ValueError("give exactly one of --budget / --ratio")
    if args.ratio is not None and not 0 < args.ratio < math.inf:
        raise ValueError("ratio must be positive and finite")
    if args.budget is not None and not args.budget > 0:
        raise ValueError("budget must be positive")
    budget = args.budget if args.budget is not None else 8.0 * image.size / args.ratio
    # rd_optimize reads no mask sparser than its smallest grid density
    spath = sparsification.probabilistic_sparsify(
        image, args.p, args.q, seed=args.seed,
        floor_density=min(compression.DEFAULT_DENSITIES),
    )
    point, rec = compression.rd_optimize(image, spath, method, budget)
    cost = point.cost
    manifest = _format_manifest(
        [
            ("method", method),
            ("seed", args.seed),
            ("candidate_fraction", args.p),
            ("keep_fraction", args.q),
            ("budget_bits", float(budget)),
            ("approximate", "no"),
            ("l", point.l),
            ("m", point.m),
            ("q_levels", point.q_levels),
            ("n_known", cost.n_known),
            ("entropy_bits_per_value", cost.per_value_bits),
            ("overhead_bits", cost.overhead_bits),
            ("total_bits", point.total_bits),
            ("compression_ratio", point.compression_ratio),
            ("mse", point.mse),
        ]
    )
    out_image = args.out_image or (os.path.splitext(args.out)[0] + ".pgm")
    _write([(args.out, manifest.encode()), (out_image, pgm.write_pgm(rec))])
    print("compress %s: l=%d m=%d ratio=%.2f mse=%.3f"
          % (method, point.l, point.m, point.compression_ratio, point.mse))
    return 0


def _add_sparsification_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, default=0.02,
                   help="fraction of the mask drawn as candidates per round")
    p.add_argument("--q", type=float, default=0.02,
                   help="fraction of the candidates re-added per round")
    p.add_argument("--seed", type=int, default=0, help="random seed of the sparsification")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss", description="quantisation scale-space toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="build a spatial sparsification path")
    p.add_argument("input")
    p.add_argument("--density", type=float, default=1.0)
    _add_sparsification_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--preview", help="write the target-density mask as PGM")
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("quantise", help="quantise an image to a level count")
    p.add_argument("input")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--mask", help="sparsification path file as pathfile@density")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True, help="output prefix (.pgm and .qpath)")
    p.set_defaults(func=cmd_quantise)

    p = sub.add_parser("scalespace", help="emit per-step scale-space report")
    p.add_argument("input")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--mask", help="sparsification path file as pathfile@density")
    p.add_argument("--report", required=True, help="CSV output file")
    p.set_defaults(func=cmd_scalespace)

    p = sub.add_parser("compress", help="rate-distortion optimised compression")
    p.add_argument("input")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--budget", type=float, help="bit budget")
    p.add_argument("--ratio", type=float, help="target compression ratio")
    _add_sparsification_options(p)
    p.add_argument("--out", required=True, help="manifest output file")
    p.add_argument("--out-image", help="reconstruction PGM (default: manifest.pgm)")
    p.set_defaults(func=cmd_compress)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InpaintingError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        if isinstance(exc, compression.InfeasibleBudgetError):
            return EXIT_INFEASIBLE
        # DomainError, PathError, PgmError and every other ValueError are input errors
        return EXIT_NUMERICAL if isinstance(exc, InpaintingError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
