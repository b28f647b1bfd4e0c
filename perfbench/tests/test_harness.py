"""Checks of the benchmark harness itself, on the small-scale smoke mode.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(workload, trace, seed=3, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = last_json(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = last_json(run_bench("geodesic", 1))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # the battery runs in the catalog constructor and again in check_space;
    # counting both proves the wrappers reached the from-imported names
    assert values["catalog.diagnostic_battery.calls_per_invocation"] == 2
    assert values["trace.self_time_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert values["transport.geodesic_convergence.geodesic_calls"] == 5
    assert values["serialize.bytes_written"] > 0


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = run_bench("spaces", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _write_inputs(tmp_path, workload, seed):
    invs, defs = workloads.build(workload, seed, str(tmp_path / "inputs"), workloads.SMOKE)
    files = {}
    for name in sorted(os.listdir(tmp_path / "inputs")):
        files[name] = (tmp_path / "inputs" / name).read_text()
    return [inv.argv for inv in invs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    first = _write_inputs(tmp_path / "a", workload, 5)
    again = _write_inputs(tmp_path / "b", workload, 5)
    other = _write_inputs(tmp_path / "c", workload, 6)
    assert first == again
    assert first != other


def test_vectors_are_passed_with_equals_signs(tmp_path):
    invs, _ = workloads.build("transport", 1, str(tmp_path / "inputs"), workloads.SMOKE)
    for inv in invs:
        for arg in inv.argv:
            assert not arg.startswith("-") or "=" in arg, arg


def _geodesic_artifacts(tmp_path):
    """Run the smoke geodesic invocation in-process and return (inv, pass_dir, grams)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from redhom.cli import main

    invs, defs = workloads.build("geodesic", 2, str(tmp_path / "inputs"), workloads.SMOKE)
    pass_dir = tmp_path / "pass0"
    pass_dir.mkdir()
    inv = invs[0]
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        assert main(inv.argv) == 0
    finally:
        os.chdir(cwd)
    grams = oracles.metric_grams({inv.space: defs[inv.space]}, os.path.join(ROOT, "src"))
    return inv, str(pass_dir), grams


def test_oracles_accept_the_program_and_reject_a_wrong_trajectory(tmp_path, capsys):
    inv, pass_dir, grams = _geodesic_artifacts(tmp_path)
    problems, digests, fingerprint = oracles.verify(inv, pass_dir, grams)
    assert problems == []
    assert set(digests) == set(inv.artifacts)
    assert len(fingerprint["final_frame"]) == 36

    path = os.path.join(pass_dir, inv.out + ".json")
    with open(path) as handle:
        traj = json.load(handle)
    frames = np.array(traj["frames"])
    frames[-1] *= 1.0 + 1e-6
    traj["frames"] = frames.tolist()
    with open(path, "w") as handle:
        json.dump(traj, handle)
    problems, changed, _ = oracles.verify(inv, pass_dir, grams)
    assert any("orthogonal group" in p for p in problems)
    assert changed[inv.out + ".json"] != digests[inv.out + ".json"]
