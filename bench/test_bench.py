"""Smoke tests for the benchmark at tiny sizes, so it cannot rot unnoticed.

    python3 -m pytest bench/test_bench.py

They check that every workload runs end to end and traced, that the
result line names exactly the metrics BENCHMARK.json lists, with their
units, and that the output checks catch wrong results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = run.load_spec()


def tiny(name: str) -> run.Workload:
    if name == "sweep":
        return run.Sweep(7, steps=40, seeded_curves=2)
    if name == "verify":
        return run.Verify(7, samples=20)
    return run.WORKLOADS[name](7)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics(name: str) -> None:
    report = run.measure_e2e(tiny(name), seconds=0.05, repeats=1, parts=2)
    assert report.loop.attempted >= 1 and report.loop.failed == 0, report.loop.errors
    for m in SPEC["end_to_end"]:
        value, unit = report.metrics[m["name"]]
        assert unit == m["unit"] and value > 0, (m, value, unit)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_metrics(name: str) -> None:
    wl = tiny(name)
    wl.trace_requests = min(wl.trace_requests, 4)
    report = run.measure_layers(wl, seconds=0.0, repeats=1)
    assert report.loop.failed == 0, report.loop.errors
    metrics = report.metrics
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m
    assert metrics["trace.spans"][0] > 0
    if name == "sweep":
        assert metrics["bound.oracle.calls"][0] == 0
        assert metrics["power.grid.calls"][0] == metrics["power.optimal.grid_fallbacks"][0]
    if name == "verify":
        assert metrics["bound.oracle.f_evals"][0] > metrics["bound.oracle.calls"][0] > 0


def test_preset_digests_match() -> None:
    wl = run.Sweep(0, seeded_curves=0)
    for tag, spec in wl.curves:
        assert wl.check(wl.call(tag, spec)) == spec.steps + 1


def test_checks_reject_wrong_results() -> None:
    sweep = run.Sweep(0, seeded_curves=0)
    tag, spec, rows, csv = sweep.call(*sweep.curves[0])
    with pytest.raises(run.OutputMismatch):
        sweep.check((tag, spec, rows, csv + "\n"))
    cj = run.coopjam
    over_bound = SimpleNamespace(
        x=0.0, achievable=cj.RateValue(1.0), upper_bound=cj.RateValue(0.5), p1=1.0, p2=1.0
    )
    over_budget = SimpleNamespace(
        x=0.0, achievable=cj.RateValue(0.0), upper_bound=cj.RateValue(0.5), p1=3.0, p2=1.0
    )
    for row in (over_bound, over_budget):
        with pytest.raises(run.OutputMismatch):
            sweep.check(("seeded-0", spec, [row], ""))


def test_command_line_prints_result_last() -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "1",
         "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "0.05", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": ""},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
