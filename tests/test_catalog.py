import ast
import itertools
import os
import re

import numpy as np
import pytest

import redhom as rh

SPACES = {
    "sphere2": rh.sphere2,
    "stiefel(4,2)": lambda: rh.stiefel(4, 2),
    "stiefel(5,2)": lambda: rh.stiefel(5, 2),
    "grassmann_like(4,2)": lambda: rh.grassmann_like(4, 2),
    "grassmann_like(5,2)": lambda: rh.grassmann_like(5, 2),
    "stiefel(10,2)": lambda: rh.stiefel(10, 2),
    "grassmann_like(8,4)": lambda: rh.grassmann_like(8, 4),
    "so(4)/{e}": lambda: rh.group_as_space(rh.so_n(4)),
    "rigid-body": lambda: rh.group_as_space(rh.so3(), np.diag([1.0, 2.0, 3.0]),
                                            name="rigid-body"),
}

# (check, pass, tolerance, residual) of every report, as recorded from a
# battery that recomputed each residual itself; the collector must agree
ALGEBRA_AND_SPLIT = [
    ("antisymmetry", True, 1e-12, 0.0),
    ("jacobi", True, 1e-12, 0.0),
    ("commutator_consistency", True, 1e-10, 0.0),
    ("projection_identities", True, 1e-12, 0.0),
    ("h_subalgebra", True, 1e-10, 0.0),
    ("reductivity", True, 1e-10, 0.0),
]


def _alpha_rows(label, residual, metric=True):
    rows = [(f"alpha_invariance[{label}]", True, 1e-8, residual),
            (f"tensor_assembly[{label}]", True, 1e-10, 0.0)]
    if label == "canonical_first":
        rows.append(("torsion_free[canonical_first]", True, 1e-12, 0.0))
    if metric:
        rows.append(("is_metric", True, 1e-10, 0.0))
    return rows


_NORMAL_METRIC = [("metric_invariance", True, 1e-8, 5.551115123125783e-16),
                  ("naturally_reductive", True, 1e-10, 0.0)]
_RIGID_METRIC = [("metric_invariance", True, 1e-8, 0.0),
                 ("naturally_reductive", False, 1e-10, 2.0)]
_EPS = 2.220446049250313e-16

ALPHAS = {
    "canonical_first": lambda space: rh.canonical_first(space.dec),
    "canonical_second": lambda space: rh.canonical_second(space.dec),
    "levi_civita": lambda space: rh.levi_civita_alpha(space.dec, space.metric),
}

# one battery per (space, alpha) pair
GOLDEN = {
    ("sphere2", "canonical_first"): _NORMAL_METRIC + _alpha_rows("canonical_first", 0.0),
    ("stiefel(4,2)", "canonical_first"): _NORMAL_METRIC + _alpha_rows("canonical_first", _EPS),
    ("stiefel(4,2)", "levi_civita"): _NORMAL_METRIC + _alpha_rows("levi_civita", _EPS),
    ("stiefel(5,2)", "canonical_first"): _NORMAL_METRIC + _alpha_rows("canonical_first", _EPS),
    ("stiefel(5,2)", "levi_civita"): _NORMAL_METRIC + _alpha_rows("levi_civita", _EPS),
    ("grassmann_like(4,2)", "canonical_first"):
        _NORMAL_METRIC + _alpha_rows("canonical_first", 0.0),
    ("grassmann_like(4,2)", "canonical_second"):
        _NORMAL_METRIC + _alpha_rows("canonical_second", 0.0),
    ("grassmann_like(5,2)", "canonical_first"):
        _NORMAL_METRIC + _alpha_rows("canonical_first", 0.0),
    ("grassmann_like(5,2)", "canonical_second"):
        _NORMAL_METRIC + _alpha_rows("canonical_second", 0.0),
    ("stiefel(10,2)", "canonical_first"):
        _NORMAL_METRIC + _alpha_rows("canonical_first", _EPS),
    ("stiefel(10,2)", "levi_civita"): _NORMAL_METRIC + _alpha_rows("levi_civita", _EPS),
    ("grassmann_like(8,4)", "canonical_first"):
        _NORMAL_METRIC + _alpha_rows("canonical_first", 0.0),
    ("grassmann_like(8,4)", "canonical_second"):
        _NORMAL_METRIC + _alpha_rows("canonical_second", 0.0),
    ("so(4)/{e}", "canonical_first"): _alpha_rows("canonical_first", 0.0, metric=False),
    ("rigid-body", "canonical_first"): _RIGID_METRIC + [
        ("alpha_invariance[canonical_first]", True, 1e-8, 0.0),
        ("tensor_assembly[canonical_first]", True, 1e-10, 0.0),
        ("torsion_free[canonical_first]", True, 1e-12, 0.0),
        ("is_metric", False, 1e-10, 1.0),
    ],
    ("rigid-body", "levi_civita"): _RIGID_METRIC + _alpha_rows("levi_civita", 0.0),
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def battery(request):
    """The space's name and, per alpha of its ``GOLDEN`` pairs, (label, reports)."""
    space = SPACES[request.param]()
    labels = [label for name, label in GOLDEN if name == request.param]
    return request.param, [(label, rh.diagnostic_battery(space, ALPHAS[label](space)))
                           for label in labels]


class TestCatalogBattery:
    def test_every_mandatory_check_passes(self, battery):
        _, batteries = battery
        for label, reports in batteries:
            failed = [r.check for r in reports if r.mandatory and not r.passed]
            assert failed == [], label

    def test_reports_match_the_recorded_golden_values(self, battery):
        name, batteries = battery
        assert batteries
        for label, reports in batteries:
            golden = ALGEBRA_AND_SPLIT + GOLDEN[name, label]
            assert [(r.check, r.passed, r.tolerance) for r in reports] == \
                [row[:3] for row in golden]
            for report, row in zip(reports, golden):
                assert report.max_residual == pytest.approx(row[3], abs=1e-14), report.check

    def test_override_rejudges_stored_residuals(self):
        bundle = rh.stiefel(4, 2)
        alpha = rh.canonical_first(bundle.dec)
        reports = rh.diagnostic_battery(bundle, alpha, {"invariance": 1e-20, "jacobi": 0.5})
        by_name = {r.check: r for r in reports}
        assert by_name["jacobi"].tolerance == 0.5
        inv = by_name["alpha_invariance[canonical_first]"]
        assert inv.tolerance == 1e-20 and not inv.passed
        # the stored report keeps the verdict of the tolerance it was built with
        assert alpha.invariance.passed

    def test_each_stored_report_is_judged_by_the_key_its_constructor_recorded(self):
        bundle = rh.stiefel(4, 2)
        alpha = rh.canonical_first(bundle.dec)
        keys = {r.check: r.key for r in (*bundle.dec.algebra.reports, *bundle.dec.reports)}
        assert keys["projection_identities"] == "projection"
        assert keys["h_subalgebra"] == "subalgebra"
        assert alpha.invariance.key == "invariance"
        reports = rh.diagnostic_battery(bundle, alpha,
                                        {"projection": 0.25, "subalgebra": 0.5})
        by_name = {r.check: r for r in reports}
        assert by_name["projection_identities"].tolerance == 0.25
        assert by_name["h_subalgebra"].tolerance == 0.5


def _so2():
    return rh.StructuredLieAlgebra(np.zeros((1, 1, 1)), [[[0.0, -1.0], [1.0, 0.0]]],
                                   name="so(2)")


def _open_isotropy():
    # sigma = identity fixes all of so(3): h = g and m = {0}
    with pytest.warns(UserWarning, match=r"m = \{0\}"):
        dec = rh.symmetric_decomposition(rh.so3(), np.eye(3))
    return (rh.SpaceBundle(dec, rh.MetricOnM(dec, np.zeros((0, 0)))),
            [rh.canonical_first(dec), rh.canonical_second(dec)])


def _group_with_metric(algebra, gram):
    space = rh.group_as_space(algebra, gram)
    return space, [rh.canonical_first(space.dec),
                   rh.levi_civita_alpha(space.dec, space.metric)]


EMPTY_SHAPES = {
    "dim-1 algebra": lambda: _group_with_metric(_so2(), np.eye(1)),
    "m = {0}": _open_isotropy,
    "h = {0}": lambda: _group_with_metric(rh.so3(), np.diag([1.0, 2.0, 3.0])),
}


@pytest.mark.parametrize("case", sorted(EMPTY_SHAPES))
def test_empty_and_unit_shapes_go_through_curvature_and_the_battery(case):
    bundle, alphas = EMPTY_SHAPES[case]()
    n = bundle.dec.N
    for alpha in alphas:
        assert rh.curvature(alpha).coeffs.shape == (n,) * 4
        reports = rh.diagnostic_battery(bundle, alpha)
        assert [r.check for r in reports if r.mandatory and not r.passed] == []
        assert "metric_invariance" in [r.check for r in reports]


def test_tensor_assembly_reads_the_h_leak_curvature_gates_on(so3):
    # m = span(L1, L2 + L3) is not ad(L3)-stable, so [[X, Y]_h, Z] leaves m by 2;
    # a loosened reductivity gate lets the split through
    dec = rh.build_decomposition(so3, [[0, 0, 1]], [[1, 0, 0], [0, 1, 1]],
                                 tolerances={"reductivity": 2.0})
    assert dec.curvature_h_leak == pytest.approx(2.0)
    bundle, alpha = rh.SpaceBundle(dec, None), rh.canonical_second(dec)
    with pytest.raises(ValueError, match="leaves m by 2.000e"):
        rh.curvature(alpha)
    row = rh.diagnostic_battery(bundle, alpha)[-1]
    assert row.check == "tensor_assembly[canonical_second]" and not row.passed
    assert row.max_residual == np.inf and "leaves m by 2.000e+00" in row.note
    row = rh.diagnostic_battery(bundle, alpha, {"curvature_h_leak": 2.5})[-1]
    assert row.passed and row.max_residual == 0.0 and row.note == ""
    assert rh.curvature(alpha, tol=2.5).coeffs.shape == (2,) * 4


def test_battery_refuses_an_alpha_of_another_decomposition(sphere2):
    with pytest.raises(ValueError, match="different decompositions"):
        rh.diagnostic_battery(sphere2, rh.canonical_first(rh.sphere2().dec))


class TestConstructorReports:
    def test_antisymmetry_is_measured_before_the_repair(self, so3):
        c = np.array(so3.structure_constants)
        c[2, 0, 1] += 1e-13
        alg = rh.StructuredLieAlgebra(c, so3.matrix_basis)
        assert alg.reports[0].check == "antisymmetry"
        assert alg.reports[0].max_residual == pytest.approx(1e-13, rel=1e-6)

    def test_unchecked_alpha_keeps_its_invariance_residual(self, sphere2):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 0] = 0.3
        alpha = rh.AlphaMap(sphere2.dec, coeffs, unchecked=True)
        assert not alpha.invariance.passed
        assert alpha.invariance.max_residual == pytest.approx(0.3)

    def test_decomposition_error_names_the_worst_pair(self, so3):
        # h = span(L1, L2) is not closed: [L1, L2] = L3 lies in m
        with pytest.raises(rh.DecompositionError, match=r"\[h\[0\], h\[1\]\]"):
            rh.build_decomposition(so3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]])

    def test_loosened_tolerance_reaches_the_decomposition_gate(self, so3):
        h, m = [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]
        dec = rh.build_decomposition(so3, h, m,
                                     tolerances={"subalgebra": 2.0, "reductivity": 2.0})
        sub = next(r for r in dec.reports if r.check == "h_subalgebra")
        assert sub.max_residual == pytest.approx(1.0) and sub.passed


@pytest.mark.parametrize("overrides, names", [
    ({"jacobi_tol": 1e-9}, "['jacobi_tol']"),
    ({"jacobi": 1e-9, "drift": 1.0, "Jacobi": 1.0}, "['Jacobi', 'drift']"),
])
def test_unknown_tolerance_names_are_refused(overrides, names):
    with pytest.raises(KeyError, match=re.escape(f"unknown tolerance names: {names}")):
        rh.resolve_tolerances(overrides)


def test_no_module_but_reporting_defines_a_tolerance_constant():
    """Every gate reads the one registry in ``reporting``; no module keeps a copy."""
    package = os.path.dirname(rh.__file__)
    offenders = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "reporting.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            offenders += [f"{filename}:{t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
    assert offenders == []


# so(3) with no isotropy under two more grams: one not diagonal, one with null planes
SECTIONAL_SPACES = {
    **SPACES,
    "so(3) non-diagonal gram": lambda: rh.group_as_space(
        rh.so3(), np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.1]])),
    "so(3) null planes": lambda: rh.group_as_space(
        rh.so3(), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),
}


def float_bits(entries):
    """``(i, j, value)`` entries with each value as its float bits, or None."""
    return [(i, j, None if v is None else np.float64(v).view(np.uint64)) for i, j, v in entries]


@pytest.mark.parametrize("name", sorted(SECTIONAL_SPACES))
def test_basis_sectional_table_is_sectional_curvature_to_the_bit(name, rng):
    space = SECTIONAL_SPACES[name]()
    dec, n = space.dec, space.dec.N
    noise = 0.1 * rng.standard_normal((n, n))
    metric = space.metric or rh.MetricOnM(dec, np.eye(n) + noise + noise.T)
    alphas = [rh.canonical_first(dec), rh.levi_civita_alpha(dec, metric)]
    if not dec.q:
        # no isotropy, so a random alpha is invariant: a curvature with no zero pattern
        alphas.append(rh.AlphaMap(dec, rng.standard_normal((n, n, n))))
    eye = np.eye(n)
    for alpha in alphas:
        riem = rh.curvature(alpha)
        expected = []
        for i, j in itertools.combinations(range(n), 2):
            try:
                expected.append((i, j, rh.sectional_curvature(riem, metric, eye[i], eye[j])))
            except ValueError:
                expected.append((i, j, None))
        table = rh.basis_sectional_curvatures(riem, metric)
        assert float_bits(table) == float_bits(expected), alpha.label


# a printf-style float conversion, or a format spec asking for round-trip precision
SECOND_NUMBER_RULE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[eEfFgG]|\.(?:1[5-9]|[2-9]\d)[eEfFgG]")


def test_no_module_formats_floats_by_a_second_rule():
    """Artifacts write every float by the one rule of ``serialize.fmt`` (the text
    ``json.dumps`` gives it).  No string constant may hold a ``%g``-style
    template or a ``.17g``-style round-trip spec, which would bring back a second
    text for the same value; short console specs such as ``.3e`` stay allowed."""
    package = os.path.dirname(rh.__file__)
    offenders = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        offenders += [f"{filename}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and SECOND_NUMBER_RULE.search(node.value)]
    assert offenders == []


def test_no_module_contracts_three_matrices_in_one_unoptimized_einsum():
    """An einsum over three or more operands of rank >= 2 without ``optimize=``
    runs as one loop over every index at once; write it as matrix products or
    give it a contraction path.  Per-step calls on vectors (``"kij,i,j->k"``)
    are exempt."""
    package = os.path.dirname(rh.__file__)
    offenders = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"):
                continue
            if any(k.arg == "optimize" for k in node.keywords):
                continue
            spec = node.args[0] if node.args else None
            if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
                offenders.append(f"{filename}:{node.lineno}")
                continue
            operands = spec.value.split("->")[0].split(",")
            if sum(len(term.strip()) >= 2 for term in operands) >= 3:
                offenders.append(f"{filename}:{node.lineno}")
    assert offenders == []


def package_trees():
    """(file name, parsed module) for every module of the package."""
    package = os.path.dirname(rh.__file__)
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as handle:
                yield filename, ast.parse(handle.read())


def test_no_module_imports_a_name_it_never_uses():
    """Every name an ``import`` binds is read somewhere in its module, so a name
    left behind when its last use goes is caught.  ``__init__`` is exempt: its
    imports are the package's public names."""
    offenders = []
    for filename, tree in package_trees():
        if filename == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{filename}:{line}: {name}" for name, line in imported.items()
                      if name not in read]
    assert offenders == []


def test_only_the_decomposition_reads_its_change_of_basis():
    """``_cob`` and ``_cob_inv`` stay inside ``reductive``; other modules split
    algebra matrices through ``ReductiveDecomposition.split_matrices``."""
    offenders = [f"{filename}:{node.lineno}" for filename, tree in package_trees()
                 if filename != "reductive.py" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("_cob", "_cob_inv")]
    assert offenders == []


def calls_outside(callees, owners):
    """``file:line`` of each call to a name in ``callees`` made outside the
    ``file:scope`` functions in ``owners``."""
    offenders = []

    def visit(node, filename, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and f"{filename}:{scope}" not in owners:
                callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if callee in callees:
                    offenders.append(f"{filename}:{child.lineno}")
            visit(child, filename, inner)

    for filename, tree in package_trees():
        visit(tree, filename, "")
    return offenders


def test_only_the_constructors_measure_invariance():
    """Each invariance residual is measured once, by the constructor that keeps it:
    ``MetricOnM`` for a metric and ``AlphaMap`` for an alpha.  Everything else,
    the battery and the Levi-Civita gate included, judges the stored report."""
    assert calls_outside({"check_metric_invariance", "check_ad_H_invariance_bilinear"},
                         {"reductive.py:MetricOnM.__init__",
                          "connection.py:AlphaMap.__init__"}) == []


def test_each_input_check_has_one_owner():
    """A curve's samples are checked by the ``CurveSpec`` constructors alone, and a
    group matrix's determinant (or its log, which does not overflow) is taken only
    where it is held to ``DET_FLOOR``: ``build_decomposition`` for a generator of H,
    ``CurveSpec.group_samples`` for a sample of a curve."""
    assert calls_outside({"_check_samples"}, {"transport.py:CurveSpec.velocity_samples",
                                              "transport.py:CurveSpec.group_samples"}) == []
    assert calls_outside({"det", "slogdet"}, {"reductive.py:build_decomposition",
                                              "transport.py:CurveSpec.group_samples"}) == []


def test_transport_inverts_frames_through_one_helper():
    """``transport._inverse_times`` is the one place ``transport.py`` calls ``solve``: it
    takes the LU only for frames off the orthogonal group or on another algebra."""
    assert [call for call in calls_outside({"solve"}, {"transport.py:_inverse_times"})
            if call.startswith("transport.py:")] == []


def test_one_helper_differentiates_sampled_curves():
    """Every finite difference of a sampled curve comes from ``transport._fd_derivatives``,
    the one caller of the Lagrange stencil ``_fd``, which alone builds its weights, for
    every width; no module calls ``np.gradient``, so a second stencil cannot come back
    unnoticed.  The grid test ``_is_uniform`` makes one decision, in ``_magnus_frames``:
    whether a generator is constant."""
    assert calls_outside({"gradient"}, set()) == []
    assert calls_outside({"_fd"}, {"transport.py:_fd_derivatives"}) == []
    assert calls_outside({"_fd_weights"}, {"transport.py:_fd"}) == []
    assert calls_outside({"_is_uniform"}, {"transport.py:_magnus_frames"}) == []


def test_no_module_solves_least_squares():
    """Matrices become algebra coordinates only through the algebra's cached dual
    basis (``algebra.expand_in_matrix_basis``); no module calls ``lstsq``."""
    assert calls_outside({"lstsq"}, set()) == []


def test_only_the_trajectory_builder_measures_frame_diagnostics():
    """Every curve gets its ``frame_diagnostics`` from ``transport._diagnosed``,
    the one builder of a measured trajectory."""
    assert calls_outside({"frame_diagnostics"}, {"transport.py:_diagnosed"}) == []


def test_no_module_but_serialize_names_seed_files():
    """``serialize.write_trajectory`` owns a seed batch's file names; no other module
    spells a ``_seed`` suffix."""
    offenders = [f"{filename}:{node.lineno}" for filename, tree in package_trees()
                 if filename != "serialize.py" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and "_seed" in node.value]
    assert offenders == []
