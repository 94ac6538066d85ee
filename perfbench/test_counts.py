"""The benchmark's own tests; they take about three minutes.

Run from the repository root:

    python3 -m pytest perfbench/test_counts.py -q

Count metrics (calls, counts, bytes and report hashes) must repeat exactly
across two traced runs and across two seeds: seeds change only the order of
work and which axiom pairs each sweep disables, never the work per round,
per sweep cycle or per verify pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = {"count", "bytes", "hash"}


def _run(*args: str, cwd: Path = ROOT, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def _exact(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS}


@pytest.mark.parametrize("workload", ["reports", "axiom-sweep", "verify-all"])
def test_counts_repeat_across_runs_and_seeds(workload):
    first = _exact(_result(workload, 1, 1))
    assert first == _exact(_result(workload, 1, 1))
    assert first == _exact(_result(workload, 2, 1))
    assert first["classifier.classify.calls"] > 0
    assert first["verdicts.trail_entries"] > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _result("reports", 3, trace)["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]}
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_optimized_interpreter():
    proc = _run("--workload", "reports", "--seed", "1", "--seconds", "1", flags=("-O",))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "reports", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
