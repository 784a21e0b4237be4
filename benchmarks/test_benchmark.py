"""Tests of the benchmark itself: the correctness check, the self-time
arithmetic of the span recorder, and every workload at a tiny size."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _tiny_reference(workload: str, workdir: str) -> dict:
    results = workloads.run_pass(workloads.campaign(workload, 0, tiny=True), workdir)
    assert not [r.problems for r in results if r.problems]
    return {r.name: r.facts for r in results}


def _failed(results) -> list:
    return [r.name for r in results if r.problems]


def test_corrupted_reference_value_counts_as_failed_operation(workdir):
    ops = workloads.campaign("ramanujan_sweep", 0, tiny=True)
    reference = _tiny_reference("ramanujan_sweep", workdir)
    assert _failed(workloads.run_pass(ops, workdir, reference)) == []

    name = "verify-ramanujan q=3 levels=1:5"
    drifted = copy.deepcopy(reference)
    drifted[name]["graphs"]["A_2"]["second_modulus"] += 1e-6  # beyond the 1e-9 tolerance
    assert _failed(workloads.run_pass(ops, workdir, drifted)) == [name]

    within = copy.deepcopy(reference)
    within[name]["graphs"]["A_2"]["second_modulus"] += 1e-12
    assert _failed(workloads.run_pass(ops, workdir, within)) == []


def test_corrupted_exact_rational_counts_as_failed_operation(workdir):
    ops = workloads.campaign("mixing_exact", 0, tiny=True)
    reference = _tiny_reference("mixing_exact", workdir)
    name = "mixing q=3 k=2 vertical"
    corrupted = copy.deepcopy(reference)
    num, den = corrupted[name]["deviation"][1].split("/")
    corrupted[name]["deviation"][1] = f"{int(num) + 1}/{den}"
    assert _failed(workloads.run_pass(ops, workdir, corrupted)) == [name]


def test_extra_output_fields_do_not_fail_the_reference(workdir):
    # meaning, not bytes: a field the reference does not know is ignored
    got = {"all_pass": True, "graphs": {"A_1": {"second_modulus": 2.0, "n_checked": 1}}}
    want = {"all_pass": True, "graphs": {"A_1": {"second_modulus": 2.0}}}
    assert workloads.compare(got, want) == []
    assert workloads.compare({"all_pass": True}, want) == ["/graphs: missing"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        [-1, "bench.op", 0.0, 10.0],   # 0: children 1 and 3 cover [1, 6]
        [0, "graphs.a", 1.0, 4.0],     # 1: child 2 covers [2, 3]
        [1, "spectral.b", 2.0, 3.0],   # 2: child 4 is clipped to [2.5, 3]
        [0, "graphs.c", 3.5, 6.0],     # 3: overlaps span 1 on [3.5, 4]
        [2, "spectral.d", 2.5, 3.5],   # 4
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 0.5, 2.5, 1.0])

    rec = tracing.Recorder()
    rec.spans = spans
    out = tracing.summarise(rec)
    assert out["graphs.self_s"] == pytest.approx(4.5)
    assert out["trace.unaccounted_s"] == pytest.approx(5.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_completes_at_a_tiny_size(workload, workdir):
    for seed in (0, 1):
        results = workloads.run_pass(workloads.campaign(workload, seed, tiny=True), workdir)
        assert results and _failed(results) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_accounts_for_its_wall_time(workload, workdir):
    from ramshift import spectral

    original = spectral.eig_symmetric
    rec = tracing.Recorder()
    ops = workloads.campaign(workload, 0, tiny=True)
    with tracing.installed(rec):
        assert spectral.eig_symmetric is not original
        results = workloads.run_pass(ops, workdir, on_op=rec.request)
    assert spectral.eig_symmetric is original
    assert _failed(results) == []
    out = tracing.summarise(rec)
    wanted = {name for name, _u, source, _k in tracing.PER_LAYER if source != "pass"}
    assert wanted <= set(out)
    layer_total = sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) + out["trace.unaccounted_s"]
    assert layer_total == pytest.approx(sum(r.wall_s for r in results), rel=0.05)
    assert out["cli.errors"] == 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in tracing.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ramanujan_sweep", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "ramanujan_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
