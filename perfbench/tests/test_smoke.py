"""End-to-end smoke runs of the benchmark (about 20 s each)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _spec():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "workload,trace", [("serve-cached", "0"), ("paper-shor", "1")]
)
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "5", "--seconds", "12",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    runs = os.path.join(ROOT, ".perfbench_runs")
    assert not os.path.exists(runs) or not os.listdir(runs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-shor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
