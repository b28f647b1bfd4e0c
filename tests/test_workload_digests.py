"""The benchmark's workloads write the same bytes as before.

Each workload of ``perfbench/workloads.py`` at its ``SMOKE`` scale and seed
1 runs through ``main`` in a scratch directory, as the benchmark lays it
out: inputs next to the pass directory, each call run from the pass
directory.  The sha256 of every artifact must match
``tests/data/workload_digests.json``, so a change that moves any bit of a
trajectory, transport, report or tensor file shows here.  Loading the file
by path keeps the benchmark out of the package.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from redhom.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "tests" / "data" / "workload_digests.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_artifacts_keep_their_digests(workloads, workload, tmp_path, monkeypatch,
                                               capsys):
    invocations, _ = workloads.build(workload, 1, str(tmp_path / "inputs"), workloads.SMOKE)
    (tmp_path / "pass").mkdir()
    monkeypatch.chdir(tmp_path / "pass")
    digests = {}
    for inv in invocations:
        assert main(inv.argv) == 0, inv.argv
        for name in inv.artifacts:
            digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == DIGESTS[workload]
