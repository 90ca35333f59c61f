"""qss benchmark: seeded workloads through the public API and the `qss` CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload compress-96 --seed 1 --seconds 25 --trace 0

The library is imported from `src/` of the checkout and driven in-process.
With `--trace 0` the run repeats whole rounds of the workload's operations
while another round is expected to fit in `--seconds` (at least one round)
and reports the end-to-end metrics. With `--trace 1` it runs one untraced
round and one traced round, checks that both give identical outputs, and
reports the per-layer metrics. The last line of standard output is the
result as JSON; a fuller record, with the environment and the inputs, goes
to `.bench_work/<workload>/result-trace<0|1>.json`, and the spans of a
traced run to `.bench_work/<workload>/spans.json`.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and never more threads than cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "rd_mse": "grey2",
}


def import_qss():
    """Import qss from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "qss", "__init__.py")):
        sys.exit("error: no qss sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import qss

    if not os.path.abspath(qss.__file__).startswith(SRC + os.sep):
        sys.exit("error: qss imported from %s, not from %s" % (qss.__file__, SRC))
    return qss


def make_workload(args):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    side = cls.tiny_side if args.tiny else None
    return cls(args.seed, os.path.join(WORK, args.workload), side)


@dataclass
class Round:
    times: dict = field(default_factory=dict)  # label -> seconds
    digests: dict = field(default_factory=dict)
    qualities: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def run_round(workload, tracer=None) -> Round:
    from workloads import CheckFailed

    result = Round()
    for op in workload.operations():
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # a failing operation is counted, the run goes on
            result.failures.append("%s: %r" % (op.label, exc))
            continue
        finally:
            result.times[op.label] = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
        try:
            digest, quality = op.check(output)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            result.failures.append("%s: %s" % (op.label, exc))
            continue
        result.digests[op.label] = digest
        result.qualities.append(quality)
    return result


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
    }


def setup_seconds(args) -> list:
    """Wall time of fresh interpreters that import qss and build the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls in 50 ms steps
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def compare_rounds(reference: Round, other: Round) -> list:
    return ["%s: output digest differs between rounds" % label
            for label, digest in other.digests.items()
            if reference.digests.get(label, digest) != digest]


def measure(args, workload) -> tuple:
    """Untraced rounds for `args.seconds`; end-to-end metrics and record."""
    setup = setup_seconds(args)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    failures = [f for r in rounds for f in r.failures]
    failures += [f for r in rounds[1:] for f in compare_rounds(rounds[0], r)]
    per_op = {label: statistics.median(r.times[label] for r in rounds)
              for label in rounds[0].times}
    attempted = sum(len(r.times) for r in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - len(failures) / attempted,
        "rd_mse": statistics.fmean(rounds[0].qualities) if rounds[0].qualities else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    # single operations are too short to be steady on a shared host, so
    # their times are recorded here rather than reported as metrics
    record = {"rounds": [r.times for r in rounds], "setup_probes_s": setup, "op_s": per_op,
              "op_p50_s": statistics.median(per_op.values()), "op_max_s": max(per_op.values()),
              "digests": rounds[0].digests, "failures": failures}
    return attempted, failures, metrics, record


def measure_traced(args, workload) -> tuple:
    """One untraced and one traced round; per-layer metrics and record."""
    from spans import LAYER_METRICS, Tracer

    untraced = run_round(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(workload, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(workload.workdir, "spans.json"))
    failures = untraced.failures + traced.failures + compare_rounds(untraced, traced)
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    record = {"untraced_op_s": untraced.times, "traced_op_s": traced.times,
              "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
              "spans": len(tracer.spans), "counts": dict(tracer.counts),
              "digests": untraced.digests, "traced_digests": traced.digests,
              "failures": failures}
    return len(untraced.times) + len(traced.times), failures, metrics, record


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small images, for the smoke test")
    parser.add_argument("--probe", action="store_true",
                        help="only import qss and build the inputs (set-up timing)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_qss()
    workload = make_workload(args)
    if args.probe:
        return 0
    measure_run = measure_traced if args.trace else measure
    attempted, failures, metrics, record = measure_run(args, workload)
    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "inputs": workload.inputs,
                   "environment": environment(), "metrics": metrics})
    with open(os.path.join(workload.workdir, "result-trace%d.json" % args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "inputs": workload.inputs}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
