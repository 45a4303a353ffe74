"""Smoke check of the benchmark harness: each workload at its smallest length.

    python3 -m pytest perfbench/tests

About two minutes on two cores. Not part of the Tier-1 suite, which
collects ``tests/`` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    *_, info_line, result_line = out.stdout.splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0 and info["fail_ratio"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        spans = [json.loads(line) for line in Path(info["spans"]).read_text().splitlines()]
        assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
        ids = {s["id"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("decide-random", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
