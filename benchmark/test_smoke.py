"""Smoke test of the benchmark itself at a tiny size (300 observations).

    python3 -m pytest benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402

LAYERS = json.loads((HERE / "layers.json").read_text())["per_layer"]


def _run(workload, *extra, cwd=ROOT, trace=0):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_prints_every_end_to_end_metric_with_its_unit(workload):
    result = _result(_run(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_prediction_counts_as_failed(workload):
    result = _result(_run(workload, "--corrupt"))
    assert not result["correct"] and result["failed"] >= 1


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("cli-5k", trace=1)
    result = _result(proc)
    info = json.loads(proc.stdout.strip().splitlines()[-2])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in LAYERS}
    # cli-5k calls every layer, so nothing is absent and every time is measured
    assert info["absent"] == {}
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k != "inference.escalations")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in LAYERS]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("cli-5k", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
