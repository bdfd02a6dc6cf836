"""Smoke tests for the benchmark: the real code path with tiny shot counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import gate, in_band, summarise  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def _named(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_prints_with_its_unit(trace, section):
    proc = _run("--workload", "distill7-d3", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = _named(section)
    assert set(result["metrics"]) == set(named)
    for name, unit in named.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
        assert any(ln.split()[1:2] == [name] and ln.split()[-1] == unit
                   for ln in lines[:-1]), f"{name} not printed with {unit}"
    if trace == "1":
        assert result["metrics"]["decoder.match_calls"]["value"] > 0


def test_all_workloads_print_end_to_end_metrics():
    from workloads import WORKLOADS
    proc = _run("--workload", "all", "--seed", "4", "--seconds", "0",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w}/{m}" for w in WORKLOADS
                                      for m in _named("end_to_end")}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "distill7-d3", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_band_accepts_reference_and_rejects_far_rates():
    assert in_band(900, 1000, 9000, 10000)
    assert not in_band(700, 1000, 9000, 10000)
    assert in_band(0, 1000, 0, 10000) and in_band(2, 1000, 0, 10000)
    assert not in_band(50, 1000, 0, 10000)


def test_gate_flags_nondeterminism_and_out_of_band_counts():
    ref = {"shots": 10000, "accepted": 9000, "errors": 30}
    rep = {"shots": 1000, "accepted": 900, "errors": 3, "iteration_hist": {"1": 1000}}
    assert gate([rep, dict(rep)], ref) == []
    assert gate([rep, dict(rep, errors=4)], ref)
    assert gate([dict(rep, errors=200)], ref)
    assert gate([dict(rep, accepted=500)], ref)


def test_a_raising_run_counts_every_shot_as_failed():
    specs = _named("end_to_end")
    ref = {"shots": 10000, "accepted": 9000, "errors": 30}
    rep = {"shots": 1000, "accepted": 900, "errors": 3, "iteration_hist": {"1": 1000},
           "run_s": 1.0}
    raw = {"workload": "w", "env": {}, "shots_per_rep": 1000, "setups": [2.0],
           "peak_rss_mb": 100.0, "error": "Traceback ...\nRuntimeError: decode failure\n"}
    first_call = summarise(dict(raw, reps=[]), 0, specs, ref)
    assert not first_call["correct"]
    assert first_call["attempted"] == first_call["failed"] == 1000
    assert first_call["metrics"] == {}
    later_call = summarise(dict(raw, reps=[rep]), 0, specs, ref)
    assert not later_call["correct"]
    assert later_call["attempted"] == later_call["failed"] == 2000
    assert set(later_call["metrics"]) == set(specs)
