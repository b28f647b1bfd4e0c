"""The benchmark's workloads write the same bytes as before.

Each workload of ``perfbench/workloads.py`` at its ``SMOKE`` scale and seed
1 runs through ``main`` in a scratch directory, as the benchmark lays it
out: inputs next to the pass directory, each call run from the pass
directory.  The sha256 of every artifact must match
``tests/data/workload_digests.json``, so a change that moves any bit of a
trajectory, transport, report or tensor file shows here.  After each call
the benchmark's own output oracles (``perfbench/oracles.py``) must find no
problem in its artifacts, so a result the benchmark would count as
incorrect fails here first.  The rigid body of the ``geodesic`` workload
must take the scalar RK4 kernel, one compiled kernel per call, so that no
change of the kernel's cost model moves it back to the numpy loop unseen.
Loading both files by path keeps the benchmark out of the package.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from redhom import transport
from redhom.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "tests" / "data" / "workload_digests.json").read_text())


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, registered while the test module runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load_perfbench("workloads")


@pytest.fixture(scope="module")
def oracles():
    yield from load_perfbench("oracles")


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_artifacts_keep_their_digests(workloads, oracles, workload, tmp_path,
                                               monkeypatch, capsys):
    invocations, defs = workloads.build(workload, 1, str(tmp_path / "inputs"), workloads.SMOKE)
    monkeypatch.setattr(sys, "path", list(sys.path))      # metric_grams inserts src
    grams = oracles.metric_grams(defs, str(ROOT / "src"))
    (tmp_path / "pass").mkdir()
    monkeypatch.chdir(tmp_path / "pass")
    digests = {}
    for inv in invocations:
        assert main(inv.argv) == 0, inv.argv
        problems, _, _ = oracles.verify(inv, ".", grams)
        assert problems == [], inv.argv
        for name in inv.artifacts:
            digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == DIGESTS[workload]


def test_the_rigid_body_of_the_geodesic_workload_takes_the_scalar_rk4_kernel(
        workloads, tmp_path, monkeypatch, capsys, rk4_paths):
    # each call starts from an empty kernel cache, as in the benchmark's fresh workers;
    # the convergence call compiles one kernel for its five runs
    invocations, _ = workloads.build("geodesic", 1, str(tmp_path / "inputs"), workloads.SMOKE)
    (tmp_path / "pass").mkdir()
    monkeypatch.chdir(tmp_path / "pass")
    taken = {}
    for inv in invocations:
        transport._rk4_kernel.cache_clear()
        rk4_paths.update(scalar=0, numpy=0, compiled=0)
        assert main(inv.argv) == 0, inv.argv
        taken[inv.label] = dict(rk4_paths)
    capsys.readouterr()
    assert taken == {
        "geodesic stiefel62": {"scalar": 0, "numpy": 0, "compiled": 0},
        "geodesic rigid_body": {"scalar": 1, "numpy": 0, "compiled": 1},
        "convergence rigid_body": {"scalar": 5, "numpy": 0, "compiled": 1},
    }
