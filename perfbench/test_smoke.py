"""Smoke test of the benchmark: each workload at its shortest run.

    python3 -m pytest -q perfbench

Checks that every declared metric is emitted with its unit, that the traced
run covers all six modules, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
LAYERS = ("model", "belief", "criterion", "engine", "sim", "cli")
LAYER_METRICS = (
    "model.parse_s", "model.serialize_s", "model.json_bytes",
    "belief.build_s", "belief.nodes", "belief.edges", "belief.merged_edges", "belief.merge_ratio",
    "belief.pruned", "belief.graph_json_s",
    "criterion.evals", "criterion.self_s",
    "engine.solve_expectation_s", "engine.solve_entropic_s", "engine.export_s", "engine.unfold_s",
    "engine.histories", "engine.oracle_s", "engine.policies", "engine.eval_recursive_s",
    "engine.eval_paths_s", "engine.eval_decomposed_s",
    "sim.simulate_s", "sim.us_per_run", "sim.summarize_s", "sim.csv_s", "sim.csv_bytes",
    "cli.run_s", "cli.overhead_s",
)


def run(cwd: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    cmd = [*DECLARED["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc["metrics"]


def assert_declared(metrics: dict, section: str) -> None:
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = result(run(ROOT, workload, 0))
    assert_declared(metrics, "end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_covers_every_layer():
    metrics = result(run(ROOT, WORKLOADS[0], 1))
    assert_declared(metrics, "per_layer")
    suffixes = {name.split(".", 1)[1] for name in metrics}
    assert set(LAYER_METRICS) <= suffixes
    assert {f"{layer}.self_s" for layer in LAYERS} <= suffixes
    for workload in WORKLOADS:
        assert f"{workload}.trace.overhead_pct" in metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_known_defect_is_reported_but_not_timed():
    """Seed 3's drawn prior trips the `_normalize_exact` defect in graph build."""
    proc = run(ROOT, "solve_dose", 0, seed=3)
    result(proc)
    meta = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("meta "))[5:])
    assert "normalization did not converge" in meta["known_defect"]
