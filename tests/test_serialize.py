"""Golden-file tests of the CLI artifacts, and the row kernel and JSON array encoder
against ``fmt`` and ``json.dumps``.

The files under ``tests/data/golden`` hold the exact bytes each case must
write.  They change only when the output format changes on purpose.  Every
float is written by one rule, the text ``json.dumps`` gives it, so a CSV
file and its JSON twin must read back to the same float bits.
"""

import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from redhom import serialize
from redhom.cli import main
from redhom.connection import TensorAtOrigin
from redhom.transport import Trajectory

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

STIEFEL42_LC = "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n"
RIGID_BODY_LC = (
    "[algebra]\nname = rigid-body\ndim = 3\n"
    "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]\n\n"
    "[metric]\ngram = [1 0 0; 0 2 0; 0 0 3]\n\n[connection]\nalpha = levi_civita\n"
)
SO4_DENSE_LC = (
    "space = so(4)\n\n[metric]\ngram = [1.03 0.12 -0.17 0.05 0.04 -0.06; "
    "0.12 1.19 -0.09 -0.02 -0.05 -0.02; -0.17 -0.09 0.75 -0.09 -0.13 -0.05; "
    "0.05 -0.02 -0.09 1.27 -0.16 0.09; 0.04 -0.05 -0.13 -0.16 0.91 0.04; "
    "-0.06 -0.02 -0.05 0.09 0.04 1.07]\n\n[connection]\nalpha = levi_civita\n"
)
SEEDS = ["--z0=1,0,0,0,0", "--z0=0.2,-0.5,0.3,0.1,-0.4"]

# case -> (definition text, argv with {space}, {out} and {data} filled in per run)
CASES = {
    "geodesic": (STIEFEL42_LC, [
        "geodesic", "{space}", "--x0=0.3,-0.2,0.5,0.1,0.4", "--t1=0.2", "--step=0.02",
        "--out={out}/geo"]),
    # the rigid body's Levi-Civita alpha has a symmetric part, so x takes RK4 steps
    "geodesic_rk4": (RIGID_BODY_LC, [
        "geodesic", "{space}", "--x0=0.3,-0.5,0.8", "--t1=0.2", "--step=0.01",
        "--out={out}/geo"]),
    # a generic metric on so(4): 216 nonzero symmetric terms, so x takes the numpy RK4 loop
    "geodesic_dense": (SO4_DENSE_LC, [
        "geodesic", "{space}", "--x0=0.3,-0.5,0.8,0.1,-0.2,0.4", "--t1=0.2", "--step=0.01",
        "--out={out}/geo"]),
    "transport_one_parameter": (STIEFEL42_LC, [
        "transport", "{space}", "--curve=one_parameter:0.4,0.1,-0.3,0.2,0.5", *SEEDS,
        "--t1=0.2", "--step=0.02", "--out={out}/tr"]),
    "transport_group_file": (STIEFEL42_LC, [
        "transport", "{space}", "--curve=group_file:{data}/stiefel42_curve.csv", *SEEDS,
        "--out={out}/tr"]),
    # too coarse a grid for its curve: the meta carries the coarse-grid warning
    "transport_velocity_file": (STIEFEL42_LC, [
        "transport", "{space}", "--curve=velocity_file:{data}/stiefel42_velocities.csv", *SEEDS,
        "--out={out}/tr"]),
    "tensors": ("space = stiefel(4,2)\n", ["tensors", "{space}", "--out={out}/ten"]),
}


def run_case(case, tmp_path):
    """Run one case's CLI call; return its exit code and its output directory."""
    text, argv = CASES[case]
    space = tmp_path / "space.def"
    space.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    code = main([a.format(space=space, out=out, data=DATA) for a in argv])
    return code, out


def _json_leaves(value, path=""):
    """(dotted key, value) of each leaf of decoded JSON; an array is one leaf."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], f"{path}.{key}" if path else key)
    else:
        yield path, value


def _csv_columns(data: bytes) -> dict:
    """A CSV artifact as {column name: cells as floats}, its comment lines under "#"."""
    lines = data.decode().splitlines()
    header, *rows = [line for line in lines if not line.startswith("#")]
    cells = [row.split(",") for row in rows]
    columns = {"#": [line for line in lines if line.startswith("#")]}
    for j, name in enumerate(header.split(",")):
        columns[name] = [float(row[j]) if j < len(row) else None for row in cells]
    return columns


def _largest_deviation(a, b):
    """max |a - b| of two numeric values of one shape, else None."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype.kind not in "if" or b.dtype.kind not in "if":
        return None
    return float(np.max(np.abs(a - b), initial=0.0))


def golden_differences(name: str, actual: bytes, golden: bytes) -> list:
    """Each JSON key (dotted into nested objects) or CSV column in which the artifact
    ``name`` differs from its golden bytes, with its largest numeric deviation."""
    if name.endswith(".json"):
        pair = [dict(_json_leaves(json.loads(data))) for data in (actual, golden)]
    else:
        pair = [_csv_columns(data) for data in (actual, golden)]
    lines = []
    for key in sorted(set(pair[0]) | set(pair[1])):
        a, b = (side.get(key, "<missing>") for side in pair)
        if a == b:
            continue
        deviation = _largest_deviation(a, b)
        lines.append(f"{key}: largest deviation {deviation:.3e}" if deviation is not None
                     else f"{key}: {a!r:.60} != {b!r:.60}")
    return lines or ["no key differs: the bytes differ only in layout"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_files(case, tmp_path):
    code, out = run_case(case, tmp_path)
    assert code == 0
    golden = GOLDEN / case
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    report = []
    for name in names:
        got, want = (out / name).read_bytes(), (golden / name).read_bytes()
        if got != want:
            report += [f"{case}/{name} differs from its golden file in",
                       *("  " + line for line in golden_differences(name, got, want))]
    if report:
        pytest.fail("\n".join(report), pytrace=False)


def test_the_dense_geodesic_case_takes_the_numpy_rk4_loop(tmp_path, rk4_paths):
    assert run_case("geodesic_dense", tmp_path)[0] == 0
    assert rk4_paths["numpy"] and not rk4_paths["scalar"] and not rk4_paths["compiled"]


def test_the_velocity_file_case_carries_the_coarse_grid_warning(tmp_path):
    code, out = run_case("transport_velocity_file", tmp_path)
    assert code == 0
    for seed in ("tr_seed0.json", "tr_seed1.json"):
        assert json.loads((out / seed).read_text())["meta"]["warnings"] == [
            "transport grid too coarse: velocity finite-difference error ~2.742e-02"]


def test_golden_differences_name_each_key_and_its_largest_deviation():
    golden = (GOLDEN / "geodesic" / "geo.json").read_bytes()
    doc = json.loads(golden)
    assert golden_differences("geo.json", json.dumps(doc).encode(), golden) == [
        "no key differs: the bytes differ only in layout"]
    doc["frames"][3][1][2] += 0.5
    doc["meta"]["group_drift"] += 0.25
    doc["meta"]["integrator"] = "euler"
    assert golden_differences("geo.json", json.dumps(doc).encode(), golden) == [
        "frames: largest deviation 5.000e-01", "meta.group_drift: largest deviation 2.500e-01",
        "meta.integrator: 'euler' != 'rk4-magnus4'"]

    golden = (GOLDEN / "geodesic" / "geo.csv").read_bytes()
    comment, header, *rows = golden.decode().splitlines(keepends=True)
    cells = rows[4].split(",")
    column = header.split(",").index("x_2")
    cells[column] = repr(float(cells[column]) + 0.125)
    rows[4] = ",".join(cells)
    actual = "".join([comment, header, *rows]).encode()
    assert golden_differences("geo.csv", actual, golden) == ["x_2: largest deviation 1.250e-01"]


@pytest.mark.parametrize("rank", [2, 4])
def test_tensor_csv_refuses_a_tensor_not_of_rank_3(rank):
    tensor = TensorAtOrigin("curvature", np.zeros((2,) * rank))
    with pytest.raises(ValueError, match="^CSV output is defined for rank-3 tensors only$"):
        serialize.tensor_csv(tensor)


ARRAYS = [
    np.array([1.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-310, 0.1 + 0.2]),
    np.array([[math.nan, 2.0, -math.inf], [3.0, -0.0, 1e300]]),
    np.arange(24.0).reshape(2, 3, 4) / 7.0,
    np.where(np.arange(120) % 7 == 3, math.nan,
             np.arange(-60.0, 60.0) ** 3 / 7e4).reshape(2, 3, 4, 5),
    np.empty(0),
    np.empty((0, 3)),
    np.empty((2, 0)),
    np.empty((2, 0, 3)),
    np.array([[0.25, -1.0, 3.0]]),
    np.array([[[-2.5, 4.0]]]),
    np.array([7.0]),
]


@pytest.mark.parametrize("array", ARRAYS, ids=[str(a.shape) for a in ARRAYS])
def test_json_array_matches_json_dumps(array):
    reference = json.dumps(array.tolist(), indent=1)
    assert serialize.json_array(array) == reference
    nested = json.dumps({"a": array.tolist(), "b": [1]}, sort_keys=True, indent=1)
    assert '{\n "a": ' + serialize.json_array(array, level=1) + ',' in nested
    deep = json.dumps({"a": {"b": {"c": array.tolist()}}}, indent=1)
    assert '"c": ' + serialize.json_array(array, level=3) + "\n  }" in deep


def range_edges():
    """Each of +-1e-4 and +-1e16, where orjson's text stops matching repr's, with
    three neighbours on either side."""
    edges = []
    for edge in (1e-4, -1e-4, 1e16, -1e16):
        below = above = edge
        for _ in range(3):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, math.copysign(math.inf, edge))
            edges += [below, above]
        edges.append(edge)
    return np.array(edges).reshape(2, -1)


def short_decimals(values):
    """``values`` with the neighbours one ulp away on either side."""
    return np.stack([np.nextafter(values, -math.inf), values, np.nextafter(values, math.inf)])


CELL_RNG = np.random.default_rng(1990)
CELL_ARRAYS = {
    "bit-patterns": CELL_RNG.integers(-2**63, 2**63 - 1, 20000, dtype=np.int64,
                                      endpoint=True).view(float),
    "binades": np.ldexp(CELL_RNG.uniform(-1.0, 1.0, 20000), CELL_RNG.integers(-1074, 1025, 20000)),
    "positional-binades": np.ldexp(CELL_RNG.uniform(-1.0, 1.0, (100, 200)),
                                   CELL_RNG.integers(-15, 55, (100, 200))),
    "short-decimals": short_decimals(np.round(CELL_RNG.standard_normal(10000) * 1e6)
                                     / 10.0 ** CELL_RNG.integers(0, 14, 10000)),
    "zeros-and-subnormals": np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308,
                                      2.2250738585072014e-308, 1.0]),
    "not-finite": np.array([[math.nan, 1.5, math.inf], [-math.inf, -math.nan, 0.0]]),
    "range-edges": range_edges(),
    "empty": np.empty(0),
    "empty-rows": np.empty((0, 3)),
    "empty-columns": np.empty((2, 0)),
}


# the layouts of a block the kernel sees: a 1-D array (one row), rows of
# values, frames of d x d matrices, and the family's own shape
BLOCK_LAYOUTS = {
    "1-D": lambda a: a.ravel(),
    "rows": lambda a: a.ravel()[:a.size - a.size % 3].reshape(-1, 3),
    "frames": lambda a: a.ravel()[:a.size - a.size % 4].reshape(-1, 2, 2),
    "own": lambda a: a,
}


def same_text(text, reference):
    """``text == reference``; a failure shows where they first differ, not a full diff."""
    at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
              min(len(text), len(reference)))
    assert len(text) == len(reference) == at, (text[at - 40:at + 40], reference[at - 40:at + 40])


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS.values(), ids=BLOCK_LAYOUTS.keys())
@pytest.mark.parametrize("array", CELL_ARRAYS.values(), ids=CELL_ARRAYS.keys())
def test_kernel_rows_give_the_fmt_text_of_each_value(array, layout):
    block = layout(array)
    # json_array's 2-D view: one row for a 1-D block, else the innermost rows
    view = block.reshape(1, -1) if block.ndim == 1 else block.reshape(
        math.prod(block.shape[:-1]), block.shape[-1])
    rows = [",".join(serialize.fmt(v) for v in row) for row in view]
    same_text("\n".join(r.decode() for r in serialize._rows(view)), "\n".join(rows))
    reference = json.dumps(block.tolist(), indent=1)
    same_text(serialize.json_array(block), reference)
    same_text(serialize.json_array(block, level=2), reference.replace("\n", "\n  "))


@pytest.mark.parametrize("bad", [1e-7, 1e17, math.nan, -math.inf])
@pytest.mark.parametrize("shape", [(30,), (10, 3), (6, 3, 2), (4, 3, 2, 5)],
                         ids=["1-D", "2-D", "3-D", "4-D"])
def test_json_array_redoes_the_first_and_last_value_of_each_block(monkeypatch, shape, bad):
    # blocks of 6 values for 1-D, of two leading rows otherwise
    monkeypatch.setattr(serialize, "_BLOCK_VALUES", 6 if len(shape) == 1 else
                        2 * math.prod(shape[1:]))
    array = np.arange(1.0, math.prod(shape) + 1.0).reshape(shape) / 7.0
    flat = array.reshape(-1, 6 if len(shape) == 1 else 2 * math.prod(shape[1:]))
    flat[:, 0] = flat[:, -1] = bad
    reference = json.dumps(array.tolist(), indent=1)
    same_text(serialize.json_array(array), reference)
    same_text(serialize.json_array(array, level=1), reference.replace("\n", "\n "))


def test_orjson_writes_the_text_the_kernel_splits():
    # ``_rows`` splits rows on ``],[`` and cells on ``,``, and redoes null and
    # exponent-form cells; an orjson that writes otherwise must fail here, not
    # write wrong artifacts
    import orjson

    def dumps(values):
        return orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY)

    assert dumps([[0.25, -1.5], [3.0, -0.0]]) == b"[[0.25,-1.5],[3.0,-0.0]]"
    assert dumps([[1, 2, 3], [4, 5, 6]]) == b"[[1,2,3],[4,5,6]]"
    assert dumps([[math.nan, math.inf], [-math.inf, 1.0]]) == b"[[null,null],[null,1.0]]"
    assert dumps([1e-7, 1e16, -1e-7, -1e16]) == b"[1e-7,1e16,-1e-7,-1e16]"
    assert dumps([1e-4, 9999999999999998.0]) == b"[0.0001,9999999999999998.0]"


def in_range_trajectory(rows):
    """A trajectory with a transported field whose every value orjson writes as ``repr``
    does, and no step: the header's step is written by ``fmt``, not by the kernel."""
    rng = np.random.default_rng(11)

    def values(*shape):
        return rng.uniform(0.001, 1000.0, shape) * rng.choice([-1.0, 1.0], shape)

    frames, velocities = values(rows, 3, 3), values(rows, 4)
    return Trajectory(None, np.linspace(0.0, 1.0, rows), frames, velocities,
                      transported=values(rows, 4), meta={"integrator": "rk4"},
                      midpoints=velocities[1:])


@pytest.mark.parametrize("bad", [1e-7, 1e17, math.nan])
def test_only_cells_out_of_range_are_redone(tmp_path, monkeypatch, bad):
    calls = []
    real = serialize._json_float

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(serialize, "_json_float", counted)
    # 14 values a row: blocks of 100 rows
    monkeypatch.setattr(serialize, "_BLOCK_VALUES", 14 * 100)
    traj = in_range_trajectory(5000)
    write(tmp_path, traj, "in_range")
    assert calls == []
    # the first and last cell written, both sides of a block boundary, each array
    cells = [(traj.times, (0,)), (traj.transported, (4999, 3)), (traj.frames, (999, 2, 2)),
             (traj.frames, (1000, 0, 0)), (traj.velocities, (2500, 1))]
    for array, index in cells:
        array[index] = bad
    csv, _ = write(tmp_path, traj, "redone")
    assert len(calls) == len(cells)
    assert csv.splitlines()[2].startswith(serialize.fmt(bad) + ",")


def test_importing_the_cli_leaves_orjson_unloaded():
    # orjson is imported by the first array converted; ``check`` converts none
    source = str(Path(serialize.__file__).parents[1])
    probe = "import sys, redhom.cli; print('orjson' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": source}, check=True)
    assert run.stdout == "False\n"


def special_trajectory():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((4, 2, 2))
    frames[1, 0, 1] = math.nan
    velocities = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-300, 300, (4, 3))
    velocities[2, 1] = -math.inf
    transported = rng.standard_normal((4, 3))
    transported[0] = [-0.0, 5e-324, math.inf]
    meta = {"tainted": True, "blow_up": False, "step": 0.5, "drift": math.nan,
            "warnings": ["a", "b"], "fd_order": np.int64(4), "aborted_at": None}
    return Trajectory(None, np.linspace(0.0, 1.5, 4), frames, velocities,
                      transported=transported, meta=meta, midpoints=velocities[1:])


def write(tmp_path, traj, name="t"):
    """Write a trajectory's two files; return their texts."""
    prefix = str(tmp_path / name)
    serialize.write_trajectory(prefix, traj, "s", "a")
    return read(tmp_path, name)


def read(tmp_path, name):
    """The texts of the two files of ``name``."""
    prefix = str(tmp_path / name)
    return Path(prefix + ".csv").read_text(), Path(prefix + ".json").read_text()


def same_bits(a, b):
    """Equal float arrays bit for bit: NaN positions, signs of zero and all."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def test_trajectory_json_matches_json_dumps_of_its_payload(tmp_path):
    traj = special_trajectory()
    payload = {
        "meta": {**traj.meta, "fd_order": 4, "drift": math.nan, "space": "s", "alpha": "a"},
        "columns": serialize.trajectory_columns(traj),
        "times": traj.times.tolist(),
        "frames": traj.frames.tolist(),
        "velocities": traj.velocities.tolist(),
        "transported": traj.transported.tolist(),
    }
    reference = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert write(tmp_path, traj)[1] == reference
    assert '"tainted": true' in reference and '"blow_up": false' in reference
    assert '"drift": NaN' in reference


def test_trajectory_csv_matches_cell_by_cell_formatting(tmp_path):
    traj = special_trajectory()
    lines = [f"# space=s alpha=a step={serialize._json_float(0.5)} integrator=",
             ",".join(serialize.trajectory_columns(traj))]
    for i in range(len(traj)):
        row = [traj.times[i], *traj.frames[i].ravel(), *traj.velocities[i], *traj.transported[i]]
        lines.append(",".join(serialize._json_float(float(v)) for v in row))
    assert write(tmp_path, traj)[0] == "\n".join(lines) + "\n"


def test_shared_base_text_gives_the_same_files(tmp_path, monkeypatch):
    # two rows per block: the shared base text spans two blocks
    monkeypatch.setattr(serialize, "_BLOCK_VALUES", 2 * 8)
    traj = special_trajectory()
    # the seeds' rows of a block are converted together: out-of-range cells sit in the
    # same sample rows (0 and 3) of different seeds, with a plain row between them
    third = np.random.default_rng(4).standard_normal((4, 3))
    third[0], third[3] = [1e-5, 5e16, -math.inf], [5e-324, -0.0, 1e-5]
    seeds = [replace(traj, transported=z)
             for z in (traj.transported, traj.transported[::-1].copy(), third)]
    batch = replace(traj, transported=np.stack([s.transported for s in seeds], axis=1))
    serialize.write_trajectory(str(tmp_path / "batch"), batch, "s", "a")
    for i, seed in enumerate(seeds):
        files = write(tmp_path, seed, f"own{i}")
        assert read(tmp_path, f"batch_seed{i}") == files
        assert (serialize.trajectory_csv(seed, "s", "a"),
                serialize.trajectory_json(seed, "s", "a")) == files
    assert sorted(p.name for p in tmp_path.glob("batch*")) == [
        f"batch_seed{i}.{ext}" for i in range(3) for ext in ("csv", "json")]
    # a batch of one seed writes plain ``prefix``
    write(tmp_path, replace(traj, transported=batch.transported[:, 1:2]), "one")
    assert read(tmp_path, "one") == read(tmp_path, "own1")
    assert not list(tmp_path.glob("one_seed*"))


def test_a_batch_failing_midway_replaces_no_file(tmp_path, monkeypatch):
    traj = special_trajectory()
    batch = replace(traj, transported=np.stack([traj.transported] * 3, axis=1))
    (tmp_path / "b_seed0.csv").write_text("kept")
    emitted = []
    real = serialize._emit_trajectory

    def emit(*args):
        emitted.append(args)
        if len(emitted) == 3:
            raise OSError("no space left")
        return real(*args)

    monkeypatch.setattr(serialize, "_emit_trajectory", emit)
    with pytest.raises(OSError, match="no space left"):
        serialize.write_trajectory(str(tmp_path / "b"), batch, "s", "a")
    # the two seeds staged before the failure replace nothing and leave no temporary
    assert [p.name for p in tmp_path.iterdir()] == ["b_seed0.csv"]
    assert (tmp_path / "b_seed0.csv").read_text() == "kept"


@pytest.mark.parametrize("nan_column", [False, True], ids=["finite", "nan-column"])
@pytest.mark.parametrize("last_row", [
    pytest.param(None, id="constant"),
    pytest.param(lambda x: x.__setitem__(0, np.nextafter(x[0], math.inf)), id="one-ulp"),
    pytest.param(lambda x: x.__setitem__(1, -0.0), id="negative-zero"),
])
def test_a_constant_velocity_row_keeps_each_value_text(tmp_path, monkeypatch, last_row,
                                                        nan_column):
    # two rows per block: six rows span three blocks, all sharing one velocity row's text
    monkeypatch.setattr(serialize, "_BLOCK_VALUES", 2 * 9)
    velocities = np.tile([0.1 + 0.2, 0.0, math.nan if nan_column else 2.5, -1e-310], (6, 1))
    if last_row is not None:
        last_row(velocities[-1])
    traj = Trajectory(None, np.linspace(0.0, 1.0, 6), np.arange(24.0).reshape(6, 2, 2) / 7.0,
                      velocities, meta={"step": 0.2}, midpoints=velocities[1:])
    csv, text = write(tmp_path, traj)
    table = [line.split(",") for line in csv.splitlines()[2:]]
    for i, cells in enumerate(table):
        row = [traj.times[i], *traj.frames[i].ravel(), *traj.velocities[i]]
        assert cells == [json.dumps(float(v)) for v in row]
        assert (cells[-2] == "NaN") == nan_column
    if last_row is not None:                    # the moved value shows its own text
        assert table[-1][5:] != table[0][5:]
    payload = {"meta": {**traj.meta, "space": "s", "alpha": "a"},
               "columns": serialize.trajectory_columns(traj), "times": traj.times.tolist(),
               "frames": traj.frames.tolist(), "velocities": traj.velocities.tolist(),
               "transported": None}
    assert text == json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_csv_and_json_read_back_the_same_float_bits(tmp_path, monkeypatch):
    # three rows of t, frame and velocity cells per block: the four rows span two blocks
    monkeypatch.setattr(serialize, "_BLOCK_VALUES", 3 * 8)
    traj = special_trajectory()
    write(tmp_path, traj)
    table = np.loadtxt(tmp_path / "t.csv", delimiter=",", comments="#", skiprows=2, ndmin=2)
    cols = np.cumsum([1, 4, 3])
    csv = dict(zip(["times", "frames", "velocities", "transported"], np.split(table, cols, 1)))
    data = json.loads((tmp_path / "t.json").read_text())
    for key in csv:
        value = getattr(traj, key)
        assert same_bits(csv[key].reshape(value.shape), value), key
        assert same_bits(data[key], value), key
    assert np.signbit(csv["transported"][0, 0]) and csv["transported"][0, 1] == 5e-324


def golden_twins():
    """(csv, json) golden pairs that hold the same values."""
    pairs = sorted((p, p.with_suffix(".json")) for p in GOLDEN.glob("*/*.csv"))
    return [pair for pair in pairs if pair[1].exists()]


@pytest.mark.parametrize("pair", golden_twins(), ids=lambda p: f"{p[0].parent.name}/{p[0].name}")
def test_golden_csv_holds_the_float_bits_of_its_json_twin(pair):
    csv_path, json_path = pair
    data = json.loads(json_path.read_text())
    if "coefficients" in data:
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        assert same_bits(table[:, 3], data["coefficients"])
        return
    table = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    arrays = [np.asarray(data[k], dtype=float) for k in ("times", "frames", "velocities")]
    if data["transported"] is not None:
        arrays.append(np.asarray(data["transported"], dtype=float))
    joined = np.hstack([a.reshape(len(a), -1) for a in arrays])
    assert same_bits(table, joined)


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_an_artifact_gets_the_mode_a_plain_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        serialize.atomic_write_text(str(tmp_path / "artifact.json"), "{}\n")
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("artifact.json", "plain.json")]
    assert modes == [0o666 & ~umask] * 2
