"""Smoke test of the benchmark harness on tiny inputs with a 32-start fitter grid.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced.  The test checks that
every metric BENCHMARK.json names is emitted with its unit, that the outputs
pass their checks, and that the span file parses and accounts for the pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import spans  # noqa: E402

# Every workload the harness knows, including noisy-compare, which BENCHMARK.json
# leaves out to keep the benchmark within its time budget.
WORKLOADS = list(run.WORKLOAD_NAMES)


def test_contract_names_known_workloads():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _result(proc, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "scipy", "numpy_blas", "git_commit", "seed"} <= set(env)
    assert env["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    proc = _run(workload, 1)
    result = _result(proc, "per_layer")
    path = ROOT / ".perfbench_work" / "spans" / f"{workload}-s3.jsonl"
    records = spans.load(path)
    assert len({doc["run"] for doc in records}) == 1
    ids = {doc["id"] for doc in records}
    assert len(ids) == len(records)
    assert all(doc["parent"] is None or doc["parent"] in ids for doc in records)
    assert all(doc["end"] >= doc["start"] for doc in records)

    # Self times over the pass add up to the pass's wall time.
    (pass_span,) = [doc for doc in records if doc["name"] == "bench.pass"]
    self_time = spans.self_times(records)
    total = sum(self_time[doc["id"]] for doc in spans.subtree(records, pass_span["id"]))
    wall = result["metrics"]["trace.wall_s"]["value"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert result["metrics"]["fitter.starts"]["value"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
