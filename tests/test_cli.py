import json
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
    # a count numpy refuses at once, so nothing is allocated
    pytest.param("geodesic", ["--x0=1,0.5", "--t1=1e18", "--step=1"], 1,
                 "error: Unable to allocate", id="grid-too-large"),
    pytest.param("transport", ["--curve=one_parameter:1,0", "--z0=1,0", "--t1=1e18",
                               "--step=1"], 1, "error: Unable to allocate",
                 id="transport-grid-too-large"),
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


def test_torsion_check_reads_the_antisymmetry_tolerance(tmp_path, capsys):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    for args, tol in (([], 1e-12), (["--tol", "antisymmetry=1e-6"], 1e-6)):
        code, report = run_json(capsys, ["check", path, *args])
        entry = report_entry(report, "torsion_free[canonical_first]")
        assert code == 0
        assert entry["tolerance"] == tol and entry["max_residual"] == 0.0


def test_tensors_gate_on_the_battery_once(tmp_path, capsys):
    path = write(tmp_path, "space = stiefel(4,2)\n")
    out = str(tmp_path / "t")
    assert main(["tensors", path, f"--out={out}", "--tol", "metric_invariance=1e-20"]) == 1
    assert "mandatory checks failed" in capsys.readouterr().err
    assert not (tmp_path / "t_curvature.json").exists()
    assert main(["tensors", path, f"--out={out}"]) == 0
    assert (tmp_path / "t_curvature.json").exists()


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
def test_the_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        return (exc.value.code, *capsys.readouterr())

    full = run(lambda: cli.build_parser().parse_args(argv))
    assert run(lambda: main(argv)) == full
    assert full[0] in (0, 2) and "".join(full[1:])
