import json
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from redhom import catalog, cli, connection, deffile, reductive
from redhom.algebra import expm
from redhom.cli import main

SPHERE_BAD_ALPHA = "space = sphere2\n\n[connection]\nalpha = (1,1,1,0.3)\n"
SPHERE_SQUASHED_LC = (
    "space = sphere2\n\n[metric]\ngram = [1 0; 0 2]\n\n[connection]\nalpha = levi_civita\n"
)
RIGID_BODY_LC = (
    "[algebra]\nname = rigid-body\ndim = 3\n"
    "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]\n\n"
    "[metric]\ngram = [1 0 0; 0 2 0; 0 0 3]\n\n[connection]\nalpha = levi_civita\n"
)


def explicit_blocks(bundle):
    """[algebra] and [decomposition] blocks spelling out a catalog space."""
    c = bundle.dec.algebra.structure_constants
    quads = " ".join(f"({k + 1},{i + 1},{j + 1},{float(c[k, i, j])!r})"
                     for k, i, j in zip(*np.nonzero(c)) if i < j)
    vecs = lambda rows: " ".join("(" + ",".join(repr(float(x)) for x in r) + ")"
                                 for r in rows)
    return (f"[algebra]\ndim = {bundle.dec.algebra.dim}\nstructure_constants = {quads}\n\n"
            f"[decomposition]\nh_basis = {vecs(bundle.dec.h_basis)}\n"
            f"m_basis = {vecs(bundle.dec.m_basis)}\n")


def matrix_text(mat):
    """A matrix as a definition-file value, each entry at full precision."""
    return "[" + "; ".join(" ".join(map(repr, row)) for row in mat.tolist()) + "]"


def write(tmp_path, text, name="space.def"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def report_entry(report, check):
    return next(c for c in report["checks"] if c["check"] == check)


class TestTolFlag:
    @pytest.mark.parametrize("item, words", [
        ("bogus=1", "unknown tolerance name 'bogus'"),
        ("invariance=abc", "expected NAME=VALUE with a finite VALUE >= 0"),
        ("invariance=nan", "expected NAME=VALUE with a finite VALUE >= 0"),
        ("invariance", "expected NAME=VALUE with a finite VALUE >= 0"),
    ])
    def test_malformed_value_exits_2_naming_the_flag(self, tmp_path, capsys, item, words):
        path = write(tmp_path, "space = sphere2\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--tol", item])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol" in err and words in err


class TestToleranceOverride:
    def test_invariance_gate_and_verdict_move_together(self, tmp_path, capsys):
        path = write(tmp_path, SPHERE_BAD_ALPHA)
        assert main(["check", path]) == 2
        assert "residual 3.000e-01 > 1.0e-08" in capsys.readouterr().err

        code, report = run_json(capsys, ["check", path, "--tol", "invariance=10"])
        entry = report_entry(report, "alpha_invariance[explicit]")
        assert code == 0
        assert entry["pass"] and entry["tolerance"] == 10.0
        assert entry["max_residual"] == pytest.approx(0.3)

    def test_forced_alpha_is_judged_at_the_same_tolerance(self, tmp_path, capsys):
        path = write(tmp_path, SPHERE_BAD_ALPHA)
        code, report = run_json(capsys, ["check", path, "--force"])
        entry = report_entry(report, "alpha_invariance[explicit]")
        assert code == 1 and not entry["pass"] and entry["tainted"]

        code, report = run_json(capsys, ["check", path, "--force", "--tol", "invariance=10"])
        entry = report_entry(report, "alpha_invariance[explicit]")
        assert code == 0 and entry["pass"] and entry["tolerance"] == 10.0

    def test_levi_civita_gate_reads_metric_invariance(self, tmp_path, capsys):
        path = write(tmp_path, SPHERE_SQUASHED_LC)
        assert main(["check", path, "--tol", "invariance=10"]) == 2
        assert "metric is not Ad(H)-invariant" in capsys.readouterr().err

        code, report = run_json(capsys, ["check", path, "--tol", "metric_invariance=10"])
        entry = report_entry(report, "metric_invariance")
        assert code == 0
        assert entry["pass"] and entry["tolerance"] == 10.0
        assert entry["max_residual"] == pytest.approx(1.0)


@pytest.mark.parametrize("source", ["catalog", "[metric]"])
def test_levi_civita_gate_judges_a_catalog_metric_like_a_given_one(tmp_path, capsys, source):
    # the stiefel(4,2) metric has an invariance residual of about 6e-16
    text = "space = stiefel(4,2)\n"
    if source == "[metric]":
        text += f"\n[metric]\ngram = {matrix_text(catalog.stiefel(4, 2).metric.gram)}\n"
    path = write(tmp_path, text + "\n[connection]\nalpha = levi_civita\n")
    args = ["geodesic", path, "--x0=0.4,0.1,-0.3,0.2,0.5", "--t1=1", "--step=0.1",
            f"--out={tmp_path / 'o'}", "--tol", "metric_invariance=0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "invalid alpha: metric is not Ad(H)-invariant (residual 5.551e-16)" in err
    assert main([*args, "--force"]) == 0
    assert json.loads((tmp_path / "o.json").read_text())["meta"]["tainted"] is True


class TestTightenedAlphaGate:
    # canonical_first on stiefel(4,2) has an invariance residual of about 2e-16
    TOL = ["--tol", "invariance=0"]

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_implicit_alpha_failing_its_gate_is_reported(self, tmp_path, capsys, force):
        path = write(tmp_path, explicit_blocks(catalog.stiefel(4, 2)))
        code, report = run_json(capsys, ["check", path, *self.TOL, *force])
        entry = report_entry(report, "alpha_invariance[canonical_first]")
        assert code == 1 and not report["pass"]
        assert not entry["pass"] and entry["tolerance"] == 0.0 and entry["tainted"]
        assert 0.0 < entry["max_residual"] < 1e-14

    def test_requested_alpha_failing_its_gate_needs_force(self, tmp_path, capsys):
        text = explicit_blocks(catalog.stiefel(4, 2)) + "\n[connection]\nalpha = canonical_first\n"
        path = write(tmp_path, text)
        assert main(["check", path, *self.TOL]) == 2
        err = capsys.readouterr().err
        assert "line 10: invalid alpha" in err and "--force builds it anyway" in err

        code, report = run_json(capsys, ["check", path, *self.TOL, "--force"])
        entry = report_entry(report, "alpha_invariance[canonical_first]")
        assert code == 1 and not entry["pass"] and entry["tainted"]

    def test_named_and_explicit_spaces_report_alike(self, tmp_path, capsys):
        named = write(tmp_path, "space = stiefel(4,2)\n", "named.def")
        explicit = write(tmp_path, explicit_blocks(catalog.stiefel(4, 2)), "explicit.def")
        entries = []
        for path in (named, explicit):
            code, report = run_json(capsys, ["check", path, *self.TOL])
            assert code == 1
            entries.append(report_entry(report, "alpha_invariance[canonical_first]"))
        assert entries[0] == entries[1]


def test_conflicting_duplicate_alpha_quadruples_are_rejected(tmp_path, capsys):
    path = write(tmp_path, "space = sphere2\n\n[connection]\nalpha = (1,1,2,0.5) (1,1,2,0.0)\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "conflicting duplicate entry for (1, 1, 2)" in err


@pytest.mark.parametrize("text, line", [
    # 1e7^3 doubles: numpy would refuse the structure constants outright
    ("[algebra]\ndim = 10000000\nstructure_constants = (1, 2, 3, 1)\n", 2),
    ("space = stiefel(100000,2)\n", 1),
], ids=["dim-line", "named-space"])
def test_algebra_dim_above_the_cap_is_a_definition_error(tmp_path, capsys, monkeypatch, text,
                                                         line):
    # so(100000) must be refused from its name: building it would exhaust memory
    monkeypatch.setattr(deffile, "stiefel", lambda n, k: pytest.fail("stiefel was built"))
    assert main(["check", write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err and f"largest supported dim {deffile.MAX_DIM}" in err


def test_basis_residual_tolerance_reaches_the_generator_gate(tmp_path, capsys):
    # Ad of the rotation exp(0.7 L3) expands in the basis with a residual of about 3e-16
    rotation = expm(0.7 * catalog.so3().matrix_basis[2])
    text = ("[algebra]\ndim = 3\nstructure_constants = (3,1,2,1) (1,2,3,1) (2,3,1,1)\n"
            "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]"
            "\n\n[decomposition]\nh_basis = (0,0,1)\n"
            f"m_basis = (1,0,0) (0,1,0)\nh_generators = {matrix_text(rotation)}\n")
    path = write(tmp_path, text)
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["check", path, "--tol", "basis_residual=0"]) == 1
    err = capsys.readouterr().err
    assert "check failure: generator #0: Ad-conjugated basis matrix" in err
    assert "> 0.0e+00" in err


class TestGeodesicDrift:
    ARGS = ["--t1=10", "--step=0.1"]

    def test_drift_above_the_registry_exits_1_after_writing(self, tmp_path, capsys):
        # the frames stay on the group to round-off, so only a zero tolerance trips the gate;
        # a definition-file so(3) is gated like the catalog's, its basis being skew
        for name, text, x0 in (("sphere", "space = sphere2\n", "--x0=1,0.5"),
                               ("rigid", RIGID_BODY_LC, "--x0=0.3,-0.5,0.8")):
            out = tmp_path / name
            assert main(["geodesic", write(tmp_path, text), x0, *self.ARGS,
                         f"--out={out}", "--tol", "group_drift=0"]) == 1, name
            err = capsys.readouterr().err
            assert "group drift" in err and "exceeds tolerance group_drift 0.0e+00" in err
            assert out.with_suffix(".csv").exists() and out.with_suffix(".json").exists()
            assert json.loads(out.with_suffix(".json").read_text())["meta"]["group_drift"] > 0

    def test_tol_override_moves_the_drift_gate(self, tmp_path, capsys):
        path = write(tmp_path, "space = sphere2\n")
        out = str(tmp_path / "geo")
        assert main(["geodesic", path, "--x0=1,0.5", *self.ARGS, f"--out={out}",
                     "--tol", "group_drift=1e-4"]) == 0
        assert "group drift" not in capsys.readouterr().err


GRID_1E18 = ("error: t_span (0.0, 1e+18) holds 1e+18 steps of 1.0: more samples than "
             "memory can hold\n")


@pytest.mark.parametrize("command, args, code, words", [
    pytest.param("geodesic", ["--x0=1,0.5", "--t1=inf", "--step=0.1"], 2,
                 "argument --t1: expected one finite number", id="t1-inf"),
    pytest.param("geodesic", ["--x0=nan,0.5", "--t1=1", "--step=0.1"], 2,
                 "argument --x0: expected finite numbers", id="x0-nan"),
    pytest.param("geodesic", ["--x0=1,x", "--t1=1", "--step=0.1"], 2,
                 "argument --x0: expected finite numbers", id="x0-word"),
    pytest.param("geodesic", ["--x0=1,0.5", "--t1=1", "--step=1e400"], 2,
                 "argument --step: expected one finite number", id="step-overflow"),
    pytest.param("geodesic", ["--x0=1,0.5", "--t0=0,1", "--t1=1", "--step=0.1"], 2,
                 "argument --t0: expected one finite number", id="t0-two-values"),
    pytest.param("transport", ["--curve=one_parameter:1,0", "--z0=inf,0"], 2,
                 "argument --z0: expected finite numbers", id="z0-inf"),
    pytest.param("transport", ["--curve=one_parameter:1,nan", "--z0=1,0"], 2,
                 "definition error: --curve one_parameter: expected finite", id="curve-nan"),
    pytest.param("convergence", ["--x0=1,0.5", "--steps=0.1,-inf,0.05"], 2,
                 "argument --steps: expected finite numbers", id="steps-inf"),
    # a wrong length is not a malformed number: exit 1 with geodesic's message
    pytest.param("convergence", ["--x0=1,2,3"], 1, "x0 must have length 2", id="x0-length"),
    # finite numbers, but the step count overflows
    pytest.param("geodesic", ["--x0=1,0.5", "--t0=-1e308", "--t1=1e308", "--step=1"], 1,
                 "error: t_span (-1e+308, 1e+308) holds too many steps", id="span-overflow"),
    # a count no host can allocate (8 EB of times): the refusal names span and step
    pytest.param("geodesic", ["--x0=1,0.5", "--t1=1e18", "--step=1"], 1, GRID_1E18,
                 id="grid-too-large"),
    pytest.param("transport", ["--curve=one_parameter:1,0", "--z0=1,0", "--t1=1e18",
                               "--step=1"], 1, GRID_1E18, id="transport-grid-too-large"),
    # finite, but over the blow-up norm before the first step
    pytest.param("geodesic", ["--x0=1e7,0.5", "--t1=1", "--step=0.1"], 1,
                 "error: x0 has a coordinate of magnitude over the blow-up norm 1e+06",
                 id="x0-over-blow-up-norm"),
])
def test_malformed_or_non_finite_numbers_are_rejected(tmp_path, capsys, command, args, code,
                                                      words):
    path = write(tmp_path, "space = sphere2\n")
    try:
        got = main([command, path, *args, f"--out={tmp_path / 'o'}"])
    except SystemExit as exc:
        got = exc.code
    assert got == code and words in capsys.readouterr().err
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("kind, width", [("group_file", 9), ("velocity_file", 2)])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_curve_file_with_a_non_finite_cell_is_a_definition_error(tmp_path, capsys, kind,
                                                                  width, bad):
    rows = [[0.1 * i, *np.eye(3).ravel()][:1 + width] for i in range(5)]
    rows[2][1 + width // 2] = bad
    samples = tmp_path / "curve.csv"
    samples.write_text("# t, sample\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    path = write(tmp_path, "space = sphere2\n\n[connection]\nalpha = levi_civita\n")
    assert main(["transport", path, f"--curve={kind}:{samples}", "--z0=1,0",
                 f"--out={tmp_path / 'o'}"]) == 2
    captured = capsys.readouterr()
    assert f"sample file {samples}: data row 3 holds a non-finite value" in captured.err
    assert "drift" not in captured.out
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("kind, width", [("group_file", 9), ("velocity_file", 2)])
@pytest.mark.parametrize("times, message", [
    ([0.0], "data row 1 is the only one; a curve needs at least two"),
    ([0.0, 0.1, 0.1, 0.3], "data row 3 has time 0.1, not after row 2's 0.1"),
    ([0.0, 0.2, 0.1], "data row 3 has time 0.1, not after row 2's 0.2")],
    ids=["one-row", "repeated", "decreasing"])
def test_curve_file_whose_times_do_not_increase_is_a_definition_error(
        tmp_path, capsys, kind, width, times, message):
    samples = tmp_path / "curve.csv"
    samples.write_text("# t, sample\n" + "".join(
        ",".join(map(str, [t, *np.eye(3).ravel()][:1 + width])) + "\n" for t in times))
    path = write(tmp_path, "space = sphere2\n\n[connection]\nalpha = levi_civita\n")
    assert main(["transport", path, f"--curve={kind}:{samples}", "--z0=1,0",
                 f"--out={tmp_path / 'o'}"]) == 2
    assert capsys.readouterr().err == f"definition error: sample file {samples}: {message}\n"
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("kind, width, message", [
    ("group_file", 8, "group sample rows must hold 9 matrix entries, got 8"),
    ("group_file", 10, "group sample rows must hold 9 matrix entries, got 10"),
    ("velocity_file", 1, "velocity sample rows must hold 2 coordinates, got 1"),
    ("velocity_file", 9, "velocity sample rows must hold 2 coordinates, got 9")],
    ids=["group-narrow", "group-wide", "velocity-narrow", "velocity-wide"])
def test_curve_file_whose_rows_have_another_width_is_a_definition_error(
        tmp_path, capsys, kind, width, message):
    samples = tmp_path / "curve.csv"
    samples.write_text("# t, sample\n" + "".join(
        ",".join(map(str, [t, *np.eye(4).ravel()][:1 + width])) + "\n" for t in (0.0, 0.1)))
    path = write(tmp_path, "space = sphere2\n\n[connection]\nalpha = levi_civita\n")
    assert main(["transport", path, f"--curve={kind}:{samples}", "--z0=1,0",
                 f"--out={tmp_path / 'o'}"]) == 2
    assert capsys.readouterr().err == f"definition error: sample file {samples}: {message}\n"
    assert not list(tmp_path.glob("o*"))


def rotation_about_e1(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def transport_sphere2_along(tmp_path, kind, rows, *options):
    """``main``'s exit code for a sphere2 transport of z0 = (1, 0) along a ``kind``
    sample file of ``rows``, with ``options``, RuntimeWarnings raised as errors, and the
    sample file."""
    samples = tmp_path / "curve.csv"
    samples.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    path = write(tmp_path, "space = sphere2\n\n[connection]\nalpha = levi_civita\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["transport", path, f"--curve={kind}:{samples}", "--z0=1,0",
                     f"--out={tmp_path / 'o'}", *options])
    return code, samples


def test_group_file_with_a_singular_row_is_a_definition_error(tmp_path, capsys):
    rows = [[0.1 * i, *rotation_about_e1(0.1 * i).ravel().tolist()] for i in range(5)]
    rows[3][1:4] = [0.0, 0.0, 0.0]
    code, samples = transport_sphere2_along(tmp_path, "group_file", rows)
    assert code == 2
    assert capsys.readouterr().err == (f"definition error: sample file {samples}: data row 4 "
                                       "holds a numerically singular matrix (|det| = 0.000e+00)\n")
    assert not list(tmp_path.glob("o*"))


def rotation_rows(times, scales=None):
    """Data rows of the rotations about e1 by 0.1 i at ``times``, row i scaled by
    ``scales[i]``."""
    scales = [1.0] * len(times) if scales is None else scales
    return [[float(t), *(s * rotation_about_e1(0.1 * i)).ravel().tolist()]
            for i, (t, s) in enumerate(zip(times, scales))]


@pytest.mark.parametrize("scale, drift", [(1e200, "inf"), (1.0 + 1e-6, "2.000e-06")])
def test_group_file_with_a_row_off_the_group_exits_1_naming_it(tmp_path, capsys, scale, drift):
    # log |det| takes the floor test of 1e200 rotations without an overflow warning
    rows = rotation_rows(0.1 * np.arange(6), [1.0, 1.0, scale, 1.0, 1.0, 1.0])
    code, _ = transport_sphere2_along(tmp_path, "group_file", rows)
    assert code == 1
    assert capsys.readouterr().err == (f"error: group sample data row 3: orthogonality drift "
                                       f"{drift} exceeds group_drift 1.0e-08\n")
    assert not list(tmp_path.glob("o*"))


def test_group_drift_tolerance_reaches_the_group_samples(tmp_path, capsys, monkeypatch):
    original, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(args) or original(*args))
    rows = rotation_rows(0.1 * np.arange(6), [1.0, 1.0, 1.0 + 1e-6, 1.0, 1.0, 1.0])
    code, _ = transport_sphere2_along(tmp_path, "group_file", rows, "--tol=group_drift=1e-5")
    assert code == 0
    assert all(line.startswith("warning: ") for line in capsys.readouterr().err.splitlines())
    assert sorted(p.name for p in tmp_path.glob("o*")) == ["o.csv", "o.json"]
    assert solves        # samples that far off the group are inverted by LU


def test_group_file_whose_step_squares_to_overflow_exits_1_naming_it(tmp_path, capsys):
    # rotations 1e300 apart: step times velocity is 0.1, but the Magnus commutator's
    # weight h^2 overflows, and inf times its vanishing commutator would be nan
    code, _ = transport_sphere2_along(tmp_path, "group_file", rotation_rows(
        1e300 * np.arange(6)))
    captured = capsys.readouterr()
    assert code == 1 and captured.err == (
        "error: a step of 1e+300 is too long: its square, which weighs the Magnus "
        "commutator, overflows\n")
    assert "drift" not in captured.out
    assert not list(tmp_path.glob("o*"))


# six samples 1e-300 apart: the rotations about e1 by 0, 0.1, ..., 0.5, whose lifted
# velocity of 1e299 varies in its last bits, which the stencil divides by 1e-300 into an
# overflow; and a velocity of 1e300
TINY_STEPS = {
    "group_file": ([[1e-300 * i, *rotation_about_e1(0.1 * i).ravel().tolist()]
                    for i in range(6)],
                   "the finite-difference derivative of the velocities is not finite at "
                   "sample 1: their times are too close for their values"),
    "velocity_file": ([[1e-300 * i, 1e300, 0.0] for i in range(6)],
                      "velocity sample data row 1 has a coordinate of magnitude over the "
                      "blow-up norm 1e+06"),
}


@pytest.mark.parametrize("kind", sorted(TINY_STEPS))
def test_curve_file_whose_derivative_overflows_exits_1_before_any_step(tmp_path, capsys, kind):
    rows, message = TINY_STEPS[kind]
    code, _ = transport_sphere2_along(tmp_path, kind, rows)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == f"error: {message}\n"
    assert "drift" not in captured.out
    assert not list(tmp_path.glob("o*"))


def test_velocity_file_on_gaps_near_the_smallest_normal_float_is_transported(tmp_path, capsys):
    # steps of 1e-300: the stencils weigh ratios of steps, so no product of two steps
    # underflows, and the derivatives of 1e298 and their spread are finite
    rows = [[1e-300 * i, float(np.cos(0.01 * i)), float(np.sin(0.01 * i))] for i in range(8)]
    code, _ = transport_sphere2_along(tmp_path, "velocity_file", rows)
    capsys.readouterr()
    assert code == 0
    texts = [(tmp_path / f"o.{ext}").read_text() for ext in ("csv", "json")]
    assert not any(word in text for text in texts for word in ("NaN", "Infinity"))
    # sphere2's Levi-Civita alpha vanishes, so the field keeps its coordinates
    z = np.array(json.loads(texts[1])["transported"])
    assert np.max(np.abs(z - [1.0, 0.0])) <= 1e-15


def test_group_file_on_an_algebra_without_matrices_is_refused(tmp_path, capsys):
    samples = tmp_path / "curve.csv"
    samples.write_text("0,1,0,0,0,1,0,0,0,1\n0.1,1,0,0,0,1,0,0,0,1\n")
    path = write(tmp_path, SO3_CONSTANTS + "\n[connection]\nalpha = canonical_first\n")
    assert main(["transport", path, f"--curve=group_file:{samples}", "--z0=1,0,0",
                 f"--out={tmp_path / 'o'}"]) == 1
    assert capsys.readouterr().err == "error: user-algebra has no matrix realization\n"
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("kind", ["group_file", "velocity_file"])
@pytest.mark.parametrize("text", ["", "# t, sample\n\n"], ids=["empty", "comments-only"])
def test_curve_file_without_data_rows_is_a_definition_error(tmp_path, capsys, kind, text):
    samples = tmp_path / "curve.csv"
    samples.write_text(text)
    path = write(tmp_path, "space = stiefel(4,2)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["transport", path, f"--curve={kind}:{samples}", "--z0=1,0,0,0,0",
                     f"--out={tmp_path / 'o'}"])
    assert code == 2
    assert capsys.readouterr().err == \
        f"definition error: sample file {samples} holds no data rows\n"
    assert not list(tmp_path.glob("o*"))


def test_seed_lengths_are_checked_before_the_curve_is_read(tmp_path, capsys):
    path = write(tmp_path, "space = sphere2\n")
    missing = tmp_path / "missing.csv"
    assert main(["transport", path, f"--curve=group_file:{missing}", "--z0=1,0,0",
                 f"--out={tmp_path / 'o'}"]) == 1
    assert capsys.readouterr().err == "error: each --z0 must hold 2 coordinates\n"


class TestNegativeVectorValue:
    def test_separate_geodesic_x0_parses_like_the_attached_form(self, tmp_path):
        path = write(tmp_path, "space = sphere2\n")
        args = ["--t1=1", "--step=0.1"]
        assert main(["geodesic", path, "--x0", "-0.3,0.2", *args,
                     f"--out={tmp_path / 'sep'}"]) == 0
        assert main(["geodesic", path, "--x0=-0.3,0.2", *args,
                     f"--out={tmp_path / 'att'}"]) == 0
        for ext in ("csv", "json"):
            assert (tmp_path / f"sep.{ext}").read_bytes() == (tmp_path / f"att.{ext}").read_bytes()

    def test_separate_transport_seeds(self, tmp_path):
        path = write(tmp_path, "space = sphere2\n")
        assert main(["transport", path, "--curve", "one_parameter:-0.3,0.2",
                     "--z0", "-1,0", "--z0", "-.5,1", "--t1=0.1", "--step=0.01",
                     f"--out={tmp_path / 'tr'}"]) == 0
        first = json.loads((tmp_path / "tr_seed1.json").read_text())["transported"][0]
        assert first == [-0.5, 1.0]


@pytest.mark.parametrize("blocker", ["missing-directory", "directory-at-the-path"])
@pytest.mark.parametrize("argv, first_file", [
    (["geodesic", "--x0=1,0,0,0,0", "--t1=1", "--step=0.1"], "o.csv"),
    (["transport", "--curve=one_parameter:1,0,0,0,0", "--z0=1,0,0,0,0", "--t1=0.1",
      "--step=0.05"], "o.csv"),
    (["tensors"], "o_torsion.json"),
    (["check", "--json"], "o.report.json"),
], ids=["geodesic", "transport", "tensors", "check"])
def test_an_unwritable_out_exits_1_naming_the_path(tmp_path, capsys, argv, first_file, blocker):
    space = write(tmp_path, "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n")
    out = tmp_path / "missing" / "o" if blocker == "missing-directory" else tmp_path / "o"
    target = out.parent / first_file
    if blocker == "directory-at-the-path":
        target.mkdir()
    assert main([argv[0], space, *argv[1:], f"--out={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(target)) in err
    assert not list(tmp_path.rglob(".redhom-*"))


def test_a_batch_with_a_directory_target_writes_nothing(tmp_path, capsys):
    space = write(tmp_path, "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n")
    blocker = tmp_path / "b" / "o_seed1.csv"
    blocker.mkdir(parents=True)
    assert main(["transport", space, "--curve=one_parameter:1,0,0,0,0", "--z0=1,0,0,0,0",
                 "--z0=0,1,0,0,0", "--t1=0.1", "--step=0.05",
                 f"--out={tmp_path / 'b' / 'o'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(blocker)) in err
    assert list((tmp_path / "b").iterdir()) == [blocker]


def test_a_tensors_set_with_a_directory_target_writes_nothing(tmp_path, capsys):
    space = write(tmp_path, "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n")
    blocker = tmp_path / "t" / "o_curvature.json"
    blocker.mkdir(parents=True)
    assert main(["tensors", space, f"--out={tmp_path / 't' / 'o'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(blocker)) in err
    assert list((tmp_path / "t").iterdir()) == [blocker]


def test_torsion_check_reads_the_antisymmetry_tolerance(tmp_path, capsys):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    for args, tol in (([], 1e-12), (["--tol", "antisymmetry=1e-6"], 1e-6)):
        code, report = run_json(capsys, ["check", path, *args])
        entry = report_entry(report, "torsion_free[canonical_first]")
        assert code == 0
        assert entry["tolerance"] == tol and entry["max_residual"] == 0.0


# each gated command on stiefel(4,2), its argv past the file
GATED = [
    ["geodesic", "--x0=0.4,0.1,-0.3,0.2,0.5", "--t1=1", "--step=0.1"],
    ["transport", "--curve=one_parameter:0.4,0.1,-0.3,0.2,0.5", "--z0=1,0,0,0,0", "--t1=1",
     "--step=0.1"],
    ["tensors"],
    ["convergence", "--x0=0.4,0.1,-0.3,0.2,0.5", "--t1=0.5", "--steps=0.1,0.05,0.025"]]


@pytest.mark.parametrize("argv", GATED, ids=lambda argv: argv[0])
def test_commands_gate_on_the_battery_once(tmp_path, capsys, argv):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    command = [argv[0], path, f"--out={tmp_path / 't'}", *argv[1:]]
    failing = ["--tol", "metric_invariance=1e-20"]
    assert main(command + failing) == 1
    assert "mandatory checks failed" in capsys.readouterr().err
    # the failed battery is reported, and nothing is integrated or written beside it
    assert [p.name for p in tmp_path.glob("t*")] == ["t.report.json"]
    assert main(command) == 0
    assert len(list(tmp_path.glob("t*"))) > 1
    metas = {"geodesic": [".json"], "transport": [".json"], "convergence": [".json"],
             "tensors": ["_torsion.json", "_curvature.json"]}[argv[0]]
    for suffix in metas:
        doc = json.loads((tmp_path / f"t{suffix}").read_text())
        assert doc.get("meta", doc)["tainted"] is False, suffix

    # forced, the same battery lets the command run: no report, every output tainted
    assert main([argv[0], path, f"--out={tmp_path / 'f'}", *argv[1:], *failing, "--force"]) == 0
    written = sorted(p.name for p in tmp_path.glob("f*"))
    assert written and "f.report.json" not in written
    for suffix in metas:
        doc = json.loads((tmp_path / f"f{suffix}").read_text())
        assert doc.get("meta", doc)["tainted"] is True, suffix


@pytest.mark.parametrize("argv", [["check"], *GATED], ids=lambda argv: argv[0])
def test_an_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, "--out=", *argv[1:]])
    assert exc.value.code == 2
    assert "argument --out: expected a non-empty path prefix" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["space.def"]


def test_a_definition_that_is_not_utf8_exits_2_naming_path_and_line(tmp_path, capsys):
    path = tmp_path / "space.def"
    path.write_bytes(b"space = sphere2\n# caf\xff\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"definition error: line 2: {path} is not UTF-8 text")
    assert "byte 0xff" in err


@pytest.mark.parametrize("data", [b"space = sphere2\r# caf\xff\r",
                                  b"space = sphere2\r\n# caf\xff\r\n"],
                         ids=["cr", "crlf"])
def test_a_non_utf8_byte_is_located_on_the_line_the_parser_counts(tmp_path, capsys, data):
    path = tmp_path / "space.def"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"definition error: line 2: {path} is not UTF-8 text")


def test_out_defaults_to_redhom_out(tmp_path, monkeypatch):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    monkeypatch.chdir(tmp_path)
    assert main(["tensors", path]) == 0
    assert (tmp_path / "redhom_out_torsion.json").exists()


def test_check_on_a_named_space_computes_each_residual_once(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def count(name):
        """Count the calls of ``name`` through every package module that imports it."""
        for module in (catalog, cli, connection, deffile, reductive):
            original = getattr(module, name, None)
            if original is None:
                continue

            def wrapper(*args, _original=original, **kwargs):
                calls[name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

    for name in ("diagnostic_battery", "check_ad_H_invariance_bilinear",
                 "check_metric_invariance", "curvature"):
        count(name)
    named = write(tmp_path, "space = stiefel(4,2)\n", "named.def")
    lc = write(tmp_path, "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n", "lc.def")
    x0, out = "0.4,0.1,-0.3,0.2,0.5", f"--out={tmp_path / 'o'}"
    # only the reported alpha is built: canonical_first for check, levi_civita otherwise;
    # the curvature tensor is assembled by tensors alone, once
    for argv, curvatures in (
            (["check", named], 0),
            (["geodesic", lc, f"--x0={x0}", "--t1=1", "--step=0.1", out], 0),
            (["transport", lc, f"--curve=one_parameter:{x0}", "--z0=1,0,0,0,0", "--t1=1",
              "--step=0.1", out], 0),
            (["tensors", lc, out], 1)):
        calls.clear()
        assert main(argv) == 0, argv[0]
        # a Counter compares a missing name as 0
        assert calls == Counter({"diagnostic_battery": 1, "check_ad_H_invariance_bilinear": 1,
                                 "check_metric_invariance": 1, "curvature": curvatures}), \
            argv[0]


def test_check_of_stiefel_16_2_stays_below_96_mib_traced(tmp_path, capsys):
    # so(16) has dim 120, so its whole (n, n, d, d) commutator table is 29.5 MB; formed
    # a block of rows at a time, the traced peak stays near 76 MiB
    path = write(tmp_path, "space = stiefel(16,2)\n")
    tracemalloc.start()
    try:
        code, report = run_json(capsys, ["check", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert report_entry(report, "jacobi")["max_residual"] == 0.0
    assert peak < 96 * 2 ** 20


NON_CLOSED_BASES = [  # (dim, matrix_basis, how far its commutators leave its span)
    # [L1, L2] = L3 leaves span(L1, L2): the constants read off the basis are 0, off by |L3|
    (2, "[0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0]", "1.000e+00"),
    # constants read off this basis also break Jacobi; the commutator gate is named first
    (3, "[0 0; 1 1] [-1 -1; 1 1] [-1 -1; 1 0]", "5.000e-01"),
]


def test_non_closed_matrix_basis_is_a_located_commutator_consistency_error(tmp_path, capsys):
    for dim, basis, residual in NON_CLOSED_BASES:
        path = write(tmp_path, f"[algebra]\ndim = {dim}\nmatrix_basis = {basis}\n")
        for tol in ([], ["--tol", "basis_residual=1"]):
            assert main(["check", path, *tol]) == 2
            assert capsys.readouterr().err == (
                "definition error: line 3: invalid algebra: matrix commutators leave the span "
                f"of the basis by {residual}\n")
    path = write(tmp_path, f"[algebra]\ndim = 2\nmatrix_basis = {NON_CLOSED_BASES[0][1]}\n")
    assert main(["check", path, "--tol", "commutator_consistency=2"]) == 0
    assert "[PASS] commutator_consistency: residual 1.000e+00 tol 2.0e+00" in \
        capsys.readouterr().out


def test_tensors_of_a_matrix_basis_so3_read_exact_constants(tmp_path):
    # the constants read off the rotation generators are so3()'s integers, so the
    # Levi-Civita sectional curvature of the (1, 2) plane is exactly -1/4
    text = RIGID_BODY_LC.replace("[1 0 0; 0 2 0; 0 0 3]", "[0 1 0; 1 0 0; 0 0 1]")
    assert main(["tensors", write(tmp_path, text), f"--out={tmp_path / 't'}"]) == 0
    assert (tmp_path / "t_sectional.csv").read_text() == \
        "i,j,sectional\n1,2,-0.25\n1,3,degenerate\n2,3,degenerate\n"


def test_tensors_write_null_planes_as_degenerate(tmp_path):
    # an indefinite gram on so(3) with no isotropy: the planes (1, 3) and (2, 3) are null
    text = RIGID_BODY_LC.split("[connection]")[0].replace("[1 0 0; 0 2 0; 0 0 3]",
                                                         "[0 1 0; 1 0 0; 0 0 1]")
    assert main(["tensors", write(tmp_path, text), f"--out={tmp_path / 't'}"]) == 0
    assert (tmp_path / "t_sectional.csv").read_text() == \
        "i,j,sectional\n1,2,-0.0\n1,3,degenerate\n2,3,degenerate\n"


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in ("check", "geodesic", "transport", "tensors",
                                          "convergence")),
    ["--help"], [], ["bogus"],
    ["geodesic", "space.def", "--t1=1", "--step=0.1"],
    ["convergence", "space.def"],
    ["check", "space.def", "--bogus"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_parser_prints_for_help_and_errors(capsys, argv):
    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        return (exc.value.code, *capsys.readouterr())

    full = run(lambda: cli.build_parser().parse_args(argv))
    assert run(lambda: main(argv)) == full
    assert full[0] in (0, 2) and "".join(full[1:])


SO3_CONSTANTS = "[algebra]\ndim = 3\nstructure_constants = (1,2,3,1) (2,3,1,1) (3,1,2,1)\n"
SO3_MATRICES = RIGID_BODY_LC.split("\n\n")[0] + "\n"
SO3_SIGMA = "sigma = [1 0 0; 0 -1 0; 0 0 -1]\n"
SO3_GRAM = "biinvariant_gram = [1 0 0; 0 1 0; 0 0 1]\n"
TRANSPORT = ["transport", "--z0=1,0", "--t1=0.1", "--step=0.05"]

# (id, definition text or None for a missing file, argv after the file or None for
# ``check``, the line the message names or None, a fragment of the message)
LOCATED_ERRORS = [
    ("unterminated-block-header", "space = sphere2\n[metric\n", None, 2,
     "unterminated block header"),
    ("unknown-block", "space = sphere2\n[frobnicate]\n", None, 2, "unknown block [frobnicate]"),
    ("missing-equals", "space sphere2\n", None, 1, "expected 'key = value'"),
    ("unknown-key", "space = sphere2\n[metric]\nfoo = 1\n", None, 3,
     "unknown key 'foo' in block [metric]"),
    ("duplicate-space", "space = sphere2\nspace = sphere2\n", None, 2, "duplicate 'space' key"),
    ("duplicate-key", "space = sphere2\n[metric]\ngram = [1 0; 0 1]\ngram = [1 0; 0 1]\n",
     None, 4, "duplicate key 'gram'"),
    ("not-a-number", "space = sphere2\n[metric]\ngram = [1 x; 0 1]\n", None, 3,
     "not a number: 'x'"),
    ("non-finite-literal", "space = sphere2\n[metric]\ngram = [1 inf; 0 1]\n", None, 3,
     "non-finite literal 'inf'"),
    ("malformed-bracketed-value", "space = sphere2\n[metric]\ngram = [1 0; 0 1] junk\n", None,
     3, "malformed value near 'junk'"),
    ("no-bracketed-group", "space = sphere2\n[metric]\ngram =\n", None, 3,
     "expected at least one bracketed group"),
    ("unequal-matrix-rows", "space = sphere2\n[metric]\ngram = [1 0; 1]\n", None, 3,
     "matrix rows have unequal lengths"),
    ("non-quadruple", "[algebra]\ndim = 3\nstructure_constants = (1,2,3)\n", None, 3,
     "expected (k, i, j, value) quadruples"),
    ("non-integer-index", "[algebra]\ndim = 3\nstructure_constants = (1,2.5,3,1)\n", None, 3,
     "indices must be integers"),
    ("constant-index-out-of-range", "[algebra]\ndim = 3\nstructure_constants = (4,2,3,1)\n",
     None, 3, "index k=4 out of range 1..3"),
    ("non-zero-equal-slots", "[algebra]\ndim = 3\nstructure_constants = (1,2,2,1)\n", None, 3,
     "entry (1, 2, 2) with equal bracket slots must vanish"),
    ("conflicting-mirror", "[algebra]\ndim = 3\nstructure_constants = (1,2,3,1) (1,3,2,1)\n",
     None, 3, "conflicting duplicate entry for (1, 3, 2)"),
    ("missing-dim", "[algebra]\nname = a\nstructure_constants = (1,2,3,1)\n", None, 2,
     "[algebra] needs a 'dim' key"),
    ("non-integer-dim", "[algebra]\ndim = 2.5\nstructure_constants = (1,2,3,1)\n", None, 2,
     "'dim' must be a positive integer"),
    ("neither-constants-nor-basis", "[algebra]\ndim = 3\n", None, 2,
     "[algebra] needs structure_constants or matrix_basis"),
    ("sigma-with-m-basis", SO3_CONSTANTS + "[decomposition]\n" + SO3_SIGMA
     + "m_basis = (0,1,0) (0,0,1)\n", None, 5, "sigma excludes m_basis/biinvariant_gram"),
    ("sigma-shape", SO3_CONSTANTS + "[decomposition]\nsigma = [1 0; 0 -1]\n", None, 5,
     "sigma must be one 3x3 matrix, got 2x2"),
    ("gram-with-m-basis", SO3_CONSTANTS + "[decomposition]\nh_basis = (1,0,0)\n" + SO3_GRAM
     + "m_basis = (0,1,0) (0,0,1)\n", None, 6, "biinvariant_gram excludes m_basis"),
    ("gram-without-h-basis", SO3_CONSTANTS + "[decomposition]\n" + SO3_GRAM, None, 5,
     "biinvariant_gram needs h_basis"),
    ("gram-shape", SO3_CONSTANTS + "[decomposition]\nh_basis = (1,0,0)\n"
     "biinvariant_gram = [1 0; 0 1]\n", None, 6, "biinvariant_gram must be one 3x3 matrix"),
    ("h-basis-length", SO3_CONSTANTS + "[decomposition]\nh_basis = (1,0)\n" + SO3_GRAM, None, 5,
     "each h_basis vector needs dim = 3 coordinates"),
    ("generators-without-m-basis", SO3_MATRICES + "[decomposition]\n" + SO3_SIGMA
     + "h_generators = [1 0 0; 0 -1 0; 0 0 -1]\n", None, 7,
     "h_generators only combine with explicit bases"),
    ("generators-without-matrix-basis", SO3_CONSTANTS + "[decomposition]\nh_basis = (1,0,0)\n"
     "m_basis = (0,1,0) (0,0,1)\nh_generators = [1 0 0; 0 -1 0; 0 0 -1]\n", None, 7,
     "h_generators need a matrix_basis"),
    ("generator-shape", SO3_MATRICES + "[decomposition]\nh_basis = (1,0,0)\n"
     "m_basis = (0,1,0) (0,0,1)\nh_generators = [1 0; 0 -1]\n", None, 8,
     "h_generators must be 3x3 matrices"),
    ("decomposition-without-bases", SO3_CONSTANTS + "[decomposition]\nh_basis = (1,0,0)\n",
     None, 5, "[decomposition] needs m_basis, sigma or biinvariant_gram"),
    ("named-space-with-algebra", "space = sphere2\n" + SO3_CONSTANTS, None, 1,
     "a named space excludes [algebra]/[decomposition] blocks"),
    ("no-space", "[metric]\ngram = [1 0; 0 1]\n", None, None,
     "definition needs either 'space = ...' or an [algebra] block"),
    ("alpha-index-out-of-range", "space = sphere2\n[connection]\nalpha = (3,1,1,0.5)\n", None,
     3, "alpha index k=3 out of range 1..2"),
    ("unknown-alpha-word", "space = sphere2\n[connection]\nalpha = bogus\n", None, 3,
     "alpha must be one of"),
    # whitespace separates tokens, never the digits of one number
    ("digits-apart-stiefel", "space = stiefel(1 2,3)\n", None, 1,
     "unknown named space 'stiefel(1 2,3)'"),
    ("digits-apart-so", "space = so(1 0)\n", None, 1, "unknown named space 'so(1 0)'"),
    ("unreadable-definition", None, None, None, "cannot read"),
    ("unknown-curve-prefix", "space = sphere2\n", [*TRANSPORT, "--curve=spline:1,0"], None,
     "--curve must be one_parameter:<coords>, velocity_file:<path> or group_file:<path>"),
    ("group-rows-of-wrong-width", "space = sphere2\n",
     [*TRANSPORT, "--curve=group_file:{dir}/wide.csv"], None,
     "group sample rows must hold 9 matrix entries, got 2"),
    ("unreadable-sample-file", "space = sphere2\n",
     [*TRANSPORT, "--curve=velocity_file:{dir}/absent.csv"], None, "cannot read samples from"),
    ("malformed-sample-file", "space = sphere2\n",
     [*TRANSPORT, "--curve=velocity_file:{dir}/malformed.csv"], None, "malformed sample file"),
]


@pytest.mark.parametrize("text, argv, line, words", [row[1:] for row in LOCATED_ERRORS],
                         ids=[row[0] for row in LOCATED_ERRORS])
def test_malformed_input_ends_in_a_located_definition_error(tmp_path, capsys, text, argv, line,
                                                             words):
    path = write(tmp_path, text) if text is not None else str(tmp_path / "absent.def")
    (tmp_path / "wide.csv").write_text("0,1,0\n0.1,1,0\n")
    (tmp_path / "malformed.csv").write_text("0,1,0\n0.1,oops,0\n")
    command, *rest = argv or ["check"]
    assert main([command, path, *(a.format(dir=tmp_path) for a in rest),
                 f"--out={tmp_path / 'o'}"]) == 2
    err = capsys.readouterr().err
    located = re.match(r"definition error: line (\d+)[,:]", err)
    assert (int(located.group(1)) if located else None) == line
    assert words in err
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("space, text, x0", [
    ("rigid-body", RIGID_BODY_LC, "0.3,-0.5,0.8"),
    ("stiefel(4,2)", "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n",
     "0.4,0.1,-0.3,0.2,0.5")], ids=["rigid-body", "stiefel(4,2)"])
def test_convergence_out_writes_its_result(tmp_path, capsys, space, text, x0):
    out = tmp_path / "conv"
    assert main(["convergence", write(tmp_path, text), f"--x0={x0}", "--t1=0.5",
                 "--steps=0.1,0.05,0.025", f"--out={out}"]) == 0
    printed = capsys.readouterr().out
    result = json.loads(out.with_suffix(".json").read_text())
    assert sorted(result) == ["errors", "exact", "slope", "space", "steps", "tainted"]
    assert result["steps"] == [0.1, 0.05, 0.025] and result["space"] == space
    assert result["tainted"] is False
    assert len(result["errors"]) == 3
    if space == "stiefel(4,2)":
        # a Levi-Civita alpha with no symmetric part: the reference is expm(T mat(x0))
        assert result["exact"] is True and result["slope"] is None
        assert "convergence: exact" in printed
        return
    assert result["exact"] is False and f"measured order {result['slope']:.3f}" in printed
    assert result["errors"][0] > result["errors"][1] > result["errors"][2] > 0
    assert 3.5 < result["slope"] < 4.5
