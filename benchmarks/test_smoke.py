"""Smoke test of the benchmark: every workload runs at tiny size and
reports every metric that BENCHMARK.json names, with its unit."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                           "--smoke", "--seed", "3", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(trace, section):
    result = _run(trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
