"""Self-check of the benchmark, at tiny sizes.

    python3 -m pytest -q bench/check_bench.py

The file name keeps it out of the repository's default test run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

ARGS = ["--seed", "3", "--seconds", "0.3", "--tiny"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), *ARGS)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and f" {unit} " in line + " "
                   for line in lines[:-1]), name
    if not trace:
        assert any(line.startswith("failed_frac ") for line in lines)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_corrupted_term_is_counted_as_failed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "rational-many", "--trace", "0", *ARGS], corrupt=True)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["failed"] > 0
    assert result["correct"] is False


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "rational-many", "--trace", "0", *ARGS, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
