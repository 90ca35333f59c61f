"""Smoke test of the benchmark at a tiny image size.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py

Each test runs the benchmark in a temporary copy of the checkout, so it
never touches `.bench_work/` of the checkout itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for rel in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / rel, dest / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return dest


def run(checkout: Path, workload: str, trace: int, *extra: str):
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), *extra]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = run(copy_checkout(tmp_path), workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_library_sources(tmp_path):
    proc = run(copy_checkout(tmp_path, with_sources=False), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
