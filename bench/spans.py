"""Spans around the calls into each qss layer, recorded from outside the library.

`Tracer.install` replaces every public function of the qss modules, in every
module namespace that binds it (for example `level_partition` in `image`,
`compression`, `quantisation` and `scale_space`), with a wrapper that
records a span: name, start, end and the index of the enclosing span.
`InpaintSolver` construction and `InpaintSolver.solve` are recorded as
`inpainting.factor` and `inpainting.solve`. Spans are kept in memory and
reduced to per-layer metrics after the run; wrappers call straight through
while `recording` is false.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("cli", "pgm", "image", "inpainting", "sparsification",
           "quantisation", "scale_space", "compression")

SPARSIFY = "sparsification.probabilistic_sparsify"
EVALUATE_GRID = "compression.evaluate_grid"
FACTOR = "inpainting.factor"
SOLVE = "inpainting.solve"
VERIFIERS = ("scale_space.verify_lyapunov_entropy", "scale_space.verify_maxmin",
             "scale_space.verify_contrast_lyapunov", "scale_space.verify_semigroup")

# per-layer metric -> unit; the values are derived in `layer_metrics`
LAYER_METRICS = {
    "sparsification.busy_s": "s",
    "sparsification.rounds": "count",
    "sparsification.useful_round_ratio": "ratio",
    "inpainting.factor.calls": "count",
    "inpainting.factor.busy_s": "s",
    "inpainting.solve.calls": "count",
    "inpainting.solve.busy_s": "s",
    "inpainting.solves_per_factor": "ratio",
    "inpainting.solve.distinct_ratio": "ratio",
    "quantisation.uniform_path.calls": "count",
    "quantisation.uniform_path.busy_s": "s",
    "quantisation.ward_path.calls": "count",
    "quantisation.ward_path.busy_s": "s",
    "quantisation.spars_path.calls": "count",
    "quantisation.spars_path.busy_s": "s",
    "quantisation.apply.calls": "count",
    "quantisation.apply.busy_s": "s",
    "compression.evaluate_grid.self_s": "s",
    "compression.coding_cost.busy_s": "s",
    "compression.grid_points": "count",
    "compression.pruned_ratio": "ratio",
    "scale_space.generate.busy_s": "s",
    "scale_space.verify.busy_s": "s",
    "scale_space.report.self_s": "s",
    "image.level_partition.calls": "count",
    "image.level_partition.busy_s": "s",
    "pgm.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.recording = False
        self._stack = []
        self._open = Counter()
        self._seen = weakref.WeakKeyDictionary()  # solver -> digests of its known data
        self._patches = []
        self._min_density = None

    def install(self) -> None:
        import qss

        modules = [importlib.import_module("qss." + m) for m in MODULES]
        self._min_density = min(qss.compression.DEFAULT_DENSITIES)
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(short + "." + attr, value)
        for namespace in [qss, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])
        solver = qss.inpainting.InpaintSolver
        self._patch(solver, "__init__", self._wrap(FACTOR, solver.__init__, self._note_factor))
        self._patch(solver, "solve", self._wrap(SOLVE, solver.solve, self._note_solve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if note is not None:
                note(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[name] += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()

        return traced

    def _note_factor(self, solver, mask, *args, **kwargs):
        # a factorisation inside probabilistic_sparsify is one round; the
        # round is useful when its mask is at least as dense as the sparsest
        # mask the rate-distortion grid reads
        if self._open[SPARSIFY]:
            self.counts["sparsification.rounds"] += 1
            if len(mask) >= self._min_density * mask.image_size:
                self.counts["sparsification.useful_rounds"] += 1

    def _note_solve(self, solver, known_values, *args, **kwargs):
        data = np.ascontiguousarray(known_values, dtype=np.float64).tobytes()
        digest = hashlib.blake2b(data, digest_size=16).digest()
        seen = self._seen.setdefault(solver, set())
        if digest not in seen:
            seen.add(digest)
            self.counts["inpainting.solve.distinct"] += 1

    def dump(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        records = [{"name": n, "start": s - origin, "end": e - origin, "parent": p}
                   for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": records, "counts": dict(self.counts)}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer metric values (without trace.overhead_ratio)."""
        spans = self.spans
        duration = [e - s for _, s, e, _ in spans]
        child_time = [0.0] * len(spans)
        for k, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[k]

        def outermost(match):
            """Spans matching, not nested in another matching span."""
            found = []
            for k, (name, _, _, parent) in enumerate(spans):
                if not match(name):
                    continue
                while parent >= 0 and not match(spans[parent][0]):
                    parent = spans[parent][3]
                if parent < 0:
                    found.append(k)
            return found

        def busy(match):
            return sum(duration[k] for k in outermost(match))

        def calls(match):
            return len(outermost(match))

        def self_time(match):
            return sum(duration[k] - child_time[k]
                       for k, (name, *_rest) in enumerate(spans) if match(name))

        def named(*names):
            return lambda name: name in names

        def prefixed(prefix):
            return lambda name: name.startswith(prefix)

        def children_of(parent_name, child_name):
            return sum(1 for name, _, _, parent in spans
                       if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

        def ratio(num, den):
            return num / den if den else 0.0

        factors, solves = calls(named(FACTOR)), calls(named(SOLVE))
        rounds = self.counts["sparsification.rounds"]
        grid_points = children_of(EVALUATE_GRID, "compression.coding_cost")
        evaluated = children_of(EVALUATE_GRID, SOLVE)
        metrics = {
            "sparsification.busy_s": busy(named(SPARSIFY)),
            "sparsification.rounds": rounds,
            "sparsification.useful_round_ratio": ratio(
                self.counts["sparsification.useful_rounds"], rounds),
            "inpainting.factor.calls": factors,
            "inpainting.factor.busy_s": busy(named(FACTOR)),
            "inpainting.solve.calls": solves,
            "inpainting.solve.busy_s": busy(named(SOLVE)),
            "inpainting.solves_per_factor": ratio(solves, factors),
            "inpainting.solve.distinct_ratio": ratio(
                self.counts["inpainting.solve.distinct"], solves),
            "quantisation.apply.calls": calls(named("quantisation.apply_path",
                                                    "quantisation.apply_steps")),
            "quantisation.apply.busy_s": busy(named("quantisation.apply_path",
                                                    "quantisation.apply_steps")),
            "compression.evaluate_grid.self_s": self_time(named(EVALUATE_GRID)),
            "compression.coding_cost.busy_s": busy(named("compression.coding_cost")),
            "compression.grid_points": grid_points,
            "compression.pruned_ratio": ratio(grid_points - evaluated, grid_points),
            "scale_space.generate.busy_s": busy(named("scale_space.generate")),
            "scale_space.verify.busy_s": busy(named(*VERIFIERS)),
            "scale_space.report.self_s": self_time(named("scale_space.report_csv")),
            "image.level_partition.calls": calls(named("image.level_partition")),
            "image.level_partition.busy_s": busy(named("image.level_partition")),
            "pgm.busy_s": busy(prefixed("pgm.")),
            "cli.self_s": self_time(prefixed("cli.")),
        }
        for label, fn in (("uniform_path", "uniform_path"), ("ward_path", "ward_path"),
                          ("spars_path", "sparsification_quant_path")):
            match = named("quantisation." + fn)
            metrics["quantisation.%s.calls" % label] = calls(match)
            metrics["quantisation.%s.busy_s" % label] = busy(match)
        return metrics
