"""How ``main`` reads argv, and what it does with hostile argv.

``cli._read_argv`` must give the namespace argparse gives, numpy arrays bit
for bit, or None, and None whenever argparse exits.  Every argv of one
hypothesis strategy, built from the CLI's own option tables, with the
sample files it names drawn alongside, must end in exit 0, 1 or 2 through
``main``, with no other exception and no RuntimeWarning; so must every
well-formed transport call along a drawn sample file.  Every number in the
artifacts of a call that exits 0 must be finite.  No argparse parser
is built for the argv the benchmark passes, and one is for help and errors.
"""

import argparse
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from redhom import cli, transport
from redhom.cli import main

# file, dim m and matrix size of each space the argv may name
SPACES = {
    "sphere2.def": ("space = sphere2\n", 2, 3),
    "rigid.def": ("[algebra]\nname = rigid-body\ndim = 3\n"
                  "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] "
                  "[0 -1 0; 1 0 0; 0 0 0]\n\n[metric]\ngram = [1 0 0; 0 2 0; 0 0 3]\n\n"
                  "[connection]\nalpha = levi_civita\n", 3, 3),
    "stiefel.def": ("space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n", 5, 4),
}
# signed zeros, denormals, the extremes, and a few plain numbers
NUMBERS = ("0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e300", "-1e300",
           "1e308", "0.5", "1", "-1")
EXTRAS = ("-h", "--help", "--", "--bogus", "--bogus=1", "other.def", "-1")
WITHIN_NORM = tuple(v for v in NUMBERS if abs(float(v)) <= transport.BLOWUP_NORM)
MAX_STEPS = 1e4
# sample-file time steps, 1e-300 to 1e3: neighbouring steps may differ by 300 orders of
# magnitude, and a step below the rounding of its time repeats that time
GAPS = (1e-300, 1e-150, 1e-12, 1e-6, 1e-3, 0.05, 0.7, 1.0, 1e3)
UNALLOCATABLE = 1e15     # steps whose time grid (8 PB) no machine allocates


def _floats(text):
    """The numbers the CLI reads from ``text``, or None where it refuses them."""
    try:
        values = [float(v) for v in str(text).replace(",", " ").split()]
    except ValueError:
        return None
    return values if values and all(map(math.isfinite, values)) else None


def _grid_steps(command, table, last):
    """The largest step count a time grid of the call holds (0 if none is built)."""
    def time(flag):
        values = _floats(last.get(flag, table.get(flag, {}).get("default")))
        return values[0] if values and len(values) == 1 else None

    t0, t1 = time("--t0"), time("--t1")
    steps = _floats(last.get("--steps", table.get("--steps", {}).get("default")))
    steps = [time("--step")] if command != "convergence" else steps or []
    spans = [(t1 - t0) / s for s in steps
             if s is not None and t0 is not None and t1 is not None and s > 0 and t1 > t0]
    # convergence refines its finest step tenfold for the reference
    return max(spans, default=0.0) * (transport.FINE_FACTOR if command == "convergence" else 1)


def _rotation(d, t):
    """A rotation of the first plane of R^d by the angle ``t``."""
    g = np.eye(d)
    g[:2, :2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    return g


@st.composite
def _rows(draw, times, numbers, width, d=None):
    """Data rows at ``times``: velocity cells drawn from ``numbers``, or (``d`` given) a
    rotation of the first plane by the row's time."""
    if d is None:
        rows = [[draw(st.sampled_from(numbers)) for _ in range(width)] for _ in times]
    else:
        rows = [list(map(repr, _rotation(d, t).ravel().tolist())) for t in times]
    return [[repr(t), *row] for t, row in zip(times, rows)]


@st.composite
def well_formed_sample_files(draw, width, d=None):
    """The text of a sample file every check of the file passes: 5 to 12 rows, each
    time step a ``GAPS`` step that advances the time in floating point, and velocity
    cells of ``NUMBERS`` within the blow-up norm.  Its grid, uniform, fine, coarse or
    wildly uneven, reaches the finite-difference stencil."""
    times = [0.0]
    for _ in range(draw(st.integers(4, 11))):
        times.append(times[-1] + draw(st.sampled_from(
            [gap for gap in GAPS if times[-1] + gap > times[-1]])))
    rows = draw(_rows(times, WITHIN_NORM, width, d))
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def sample_files(draw, width, d=None):
    """The text of a sample file: 1 to 12 rows of a time and ``width`` cells.

    The times start at 0 and step by ``GAPS``, drawn one step at a time, so
    a grid may be uniform, fine, coarse or wildly uneven.  Velocity rows
    hold cells of ``NUMBERS``; group rows (``d`` given) a rotation of the
    first plane by the row's time.  Now and then every row is one cell
    short or one long, one cell is non-finite, one time repeats or
    decreases, or one group matrix is singular.
    """
    count = draw(st.integers(1, 12))
    times = [0.0]
    for gap in draw(st.lists(st.sampled_from(GAPS), min_size=count - 1, max_size=count - 1)):
        times.append(times[-1] + gap)
    rows = draw(_rows(times, NUMBERS, width, d))
    spoil = draw(st.sampled_from([None] * 4 + ["short", "long", "non-finite", "time"]
                                 + ["singular"] * (d is not None)))
    r = draw(st.integers(0, count - 1))
    if spoil == "short":
        rows = [row[:-1] for row in rows]
    elif spoil == "long":
        rows = [row + ["0"] for row in rows]
    elif spoil == "non-finite":
        rows[r][draw(st.integers(0, width))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif spoil == "time" and r:
        rows[r][0] = repr(times[r - 1] - draw(st.sampled_from([0.0, 0.01])))
    elif spoil == "singular":
        rows[r][1:1 + d] = ["0"] * d            # the first row of the matrix
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def argvs(draw):
    """An argv for any command, its flags and defaults read off ``cli._COMMANDS``,
    and the text of each sample file it names: ``(argv, {name: text})``.

    Values come from ``NUMBERS``: scalars, vectors one entry short, right
    or one long, and empty values.  A flag is written ``--flag=value``,
    ``--flag value`` or abbreviated, repeated, or left out although
    required; now and then the file is missing, or a help flag, ``--``, an
    unknown flag or a second file joins.  A time grid holds at most
    ``MAX_STEPS`` steps, or more than ``UNALLOCATABLE``, which is refused
    before any step.  Sample files come from :func:`sample_files`.
    """
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    space = draw(st.sampled_from(sorted(SPACES)))
    _text, n, d = SPACES[space]
    number = st.sampled_from(NUMBERS)
    vector = st.integers(n - 1, n + 1).flatmap(
        lambda k: st.lists(number, min_size=k, max_size=k)).map(",".join)
    values = {
        "--tol": st.sampled_from(["group_drift=1e-3", "invariance=0", "bogus=1",
                                  "invariance=-1", "invariance", ""]),
        "--out": st.sampled_from(["o", "absent/o", ""]),
        "--x0": vector, "--z0": vector, "--t0": number, "--t1": number, "--step": number,
        "--steps": st.lists(number, min_size=0, max_size=4).map(",".join),
        "--curve": st.one_of(vector.map("one_parameter:".__add__), st.sampled_from([
            "velocity_file:v.csv", "group_file:g.csv", "group_file:absent.csv", "bogus:1"])),
    }
    table = dict(cli._COMMON + cli._COMMANDS[command][2])
    groups, last = [], {}
    if draw(st.integers(0, 9)):
        groups.append([space])
    for flag, kwargs in table.items():
        wanted = 1 if kwargs.get("required") else 0
        for _ in range(draw(st.sampled_from([wanted] * 6 + [0, 1, 2]))):
            if kwargs.get("action") == "store_true":
                groups.append([draw(st.sampled_from([flag] * 4 + [flag + "=1"]))])
                continue
            value = draw(values[flag])
            spelled = draw(st.sampled_from([flag] * 6 + [flag[:-1]]))
            groups.append(draw(st.sampled_from([[f"{spelled}={value}"], [spelled, value]])))
            last[flag] = value
    if not draw(st.integers(0, 9)):
        groups.append([draw(st.sampled_from(EXTRAS))])
    steps = _grid_steps(command, table, last)
    assume(steps <= MAX_STEPS or steps > UNALLOCATABLE)
    argv = [command] + [arg for group in draw(st.permutations(groups)) for arg in group]
    files = {}
    if any("v.csv" in arg for arg in argv):
        files["v.csv"] = draw(sample_files(n))
    if any("g.csv" in arg for arg in argv):
        files["g.csv"] = draw(sample_files(d * d, d))
    return argv, files


def _same(a, b):
    """Equal values of the same type, numpy arrays bit for bit and lists item by item."""
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_the_reader_gives_argparses_namespace_or_none(call):
    argv = cli._attach_vector_values(call[0])
    try:
        expected = cli.build_parser().parse_args(argv)
    except SystemExit:
        expected = None
    got = cli._read_argv(argv)
    if got is None:
        return
    assert expected is not None, argv
    assert vars(got).keys() == vars(expected).keys()
    for key, value in vars(expected).items():
        assert _same(vars(got)[key], value), (argv, key)


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    for name, (text, *_) in SPACES.items():
        (root / name).write_text(text)
    return root


# transport of a seed, or along a one-parameter direction, beyond the blow-up norm
HUGE_SEED = ["transport", "stiefel.def", "--curve=one_parameter:1,0,0,0,0",
             "--z0=1e308,1e308,0,0,0", "--out=o"]
HUGE_DIRECTION = ["transport", "rigid.def", "--curve=one_parameter:1e300,0,0", "--z0=1,0,0",
                  "--out=o"]
# the rotation samples of the benchmark's transport form
ROTATION = "".join(",".join(map(repr, [t, *_rotation(4, t).ravel().tolist()])) + "\n"
                   for t in (0.0, 0.05, 0.1))


def _numbers(path):
    """Every number of an artifact: the values of a JSON one, the cells of a CSV one
    below its comment lines and header."""
    if path.suffix == ".json":
        numbers = []

        def keep(text):
            numbers.append(float(text))     # NaN and +-Infinity among them
        json.loads(path.read_text(), parse_float=keep, parse_int=keep, parse_constant=keep)
        return numbers
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    return [float(cell) for row in rows for cell in row.split(",")]


def _documented_exit(root, monkeypatch, capsys, call):
    """Run ``main`` on ``call``'s argv in ``root``, its sample files written there, and
    require exit 0, 1 or 2, no other exception and no RuntimeWarning, and on exit 0
    artifacts that hold finite numbers only."""
    argv, files = call
    monkeypatch.chdir(root)                 # the default --out lands here too
    for path in root.rglob("*"):            # the artifacts of earlier calls
        if path.is_file() and path.name not in SPACES:
            path.unlink()
    for name, text in files.items():
        (root / name).write_text(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 0:
        for path in root.rglob("*"):
            if path.is_file() and path.name not in SPACES and path.name not in files:
                assert all(map(math.isfinite, _numbers(path))), (argv, path.name)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argvs())
@example((HUGE_SEED, {}))
@example((HUGE_DIRECTION, {}))
def test_any_argv_ends_in_a_documented_exit_code(hostile_dir, monkeypatch, capsys, call):
    _documented_exit(hostile_dir, monkeypatch, capsys, call)


@st.composite
def sample_file_calls(draw):
    """A well-formed transport call along a drawn sample file: (argv, {name: text})."""
    space = draw(st.sampled_from(sorted(SPACES)))
    _text, n, d = SPACES[space]
    kind, name, text = draw(st.one_of(
        *(files(n).map(lambda text: ("velocity_file", "v.csv", text))
          for files in (sample_files, well_formed_sample_files)),
        *(files(d * d, d).map(lambda text: ("group_file", "g.csv", text))
          for files in (sample_files, well_formed_sample_files))))
    seed = ",".join(["0.5"] * n)
    return ["transport", space, f"--curve={kind}:{name}", f"--z0={seed}", "--out=o"], {name: text}


# most argv of the strategy above fail before a sample file is read
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sample_file_calls())
def test_any_sample_file_ends_in_a_documented_exit_code(hostile_dir, monkeypatch, capsys, call):
    _documented_exit(hostile_dir, monkeypatch, capsys, call)


@pytest.mark.parametrize("argv, words", [
    (HUGE_SEED, "error: z0 has a coordinate of magnitude over the blow-up norm 1e+06"),
    (HUGE_DIRECTION, "error: one-parameter direction has a coordinate of magnitude over the "
                     "blow-up norm 1e+06"),
], ids=["z0", "one-parameter-direction"])
def test_a_seed_or_direction_over_the_blow_up_norm_exits_1(hostile_dir, monkeypatch, capsys,
                                                           argv, words):
    monkeypatch.chdir(hostile_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv[:-1], "--out=refused/o"]) == 1
    assert capsys.readouterr().err == words + "\n"


def _constructions(monkeypatch, argv):
    """The exit code of ``main(argv)`` and the ``argparse.ArgumentParser`` objects it built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, len(built)


@pytest.mark.parametrize("argv", [
    ["check", "rigid.def", "--json", "--out=c"],
    ["tensors", "rigid.def", "--out=t"],
    ["geodesic", "rigid.def", "--x0=0.3,-0.5,0.8", "--t1=0.1", "--step=0.01", "--out=g"],
    ["convergence", "rigid.def", "--x0=0.3,-0.5,0.8", "--t1=0.5", "--out=c"],
    ["transport", "stiefel.def", "--curve=group_file:rotation.csv", "--z0=1,0,0,0,0",
     "--z0=0,1,0,0,0", "--t1=0.1", "--step=0.05", "--out=tr"],
], ids=lambda argv: argv[0])
def test_the_benchmark_forms_build_no_parser(hostile_dir, monkeypatch, capsys, argv):
    monkeypatch.chdir(hostile_dir)
    (hostile_dir / "rotation.csv").write_text(ROTATION)
    assert _constructions(monkeypatch, argv) == (0, 0)
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["check", "--help"], 0),
    (["check", "rigid.def", "--js"], 0),
    (["geodesic", "rigid.def", "--t1=1", "--step=0.1"], 2),
], ids=["help", "abbreviation", "missing-required-flag"])
def test_help_abbreviations_and_errors_build_the_parser(hostile_dir, monkeypatch, capsys, argv,
                                                         code):
    monkeypatch.chdir(hostile_dir)
    got, built = _constructions(monkeypatch, argv)
    assert got == code and built >= 1
    capsys.readouterr()
