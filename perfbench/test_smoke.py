"""Smoke test of the benchmark at a small graph size.

Every workload runs, passes every output check and prints exactly the
metrics BENCHMARK.json declares, untraced and traced.  Run from the
repository root:

    python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_NODES = 2000
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--n", str(SMOKE_NODES)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(run: subprocess.CompletedProcess) -> dict:
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    metrics = result_of(bench(workload, trace))["metrics"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in metrics.items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["rank_cli", "alpha_sweep"])
def test_counts_repeat_exactly(workload):
    first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
    assert {c: first[c]["value"] for c in COUNTS} == {c: second[c]["value"] for c in COUNTS}
    if workload == "rank_cli":
        assert first["graph.content_hash_calls"]["value"] == 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    run = bench("rank_cli", 0, cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_a_missing_layer_function_is_an_error(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(Path(__file__).parent))
    import tracing

    monkeypatch.setitem(tracing.TARGETS, "graph", ("no_such_function",))
    with pytest.raises(tracing.MissingTarget):
        tracing.Tracer().install()
