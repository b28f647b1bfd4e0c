"""Oracle tests of geodesics, lifts and parallel transport.

Levi-Civita transport must conserve every inner product z_a(t)^T G z_b(t),
at coarse steps too; along a one-parameter curve it must meet the closed
form expm(-t alpha(x0, .)) z0; lift plus transport must converge with order
4 on a sampled curve; seeds transported together must come out bit for bit
as when each seed is transported alone; and one CLI call must build one
propagator whatever its number of seeds.  Geodesic and velocity-curve
frames must stay on the group and meet the closed form exp(t X) where one exists; a
geodesic's velocity must be parallel along it; lifted frames must differ
from the sampled curve by an isotropy element; the metric adjoint field
must give the Levi-Civita geodesic equation; and the convergence probe
must fit its order against the steps the runs take, against a reference
that meets a long-double solution of the joint (x, g) system to 2e-4 of
the finest run's error, in 950 RK4 steps on the command line, and must
end in exit 1 when one of its runs blows up.  Where alpha's
symmetric part vanishes a geodesic's velocity must stay x0 bit for bit;
elsewhere the block-guarded RK4 must match a per-step einsum RK4 kept
here, on the rigid body and on seeded symmetric forms at n = 5, 6 and 9,
keep the rigid body's energy and momentum norm, and end a blow-up at the
sample the per-step guard ends it, with frames still on the group;
frames built a block at a time must meet the per-step ``g @ inc`` loop in
long double to a few ulps, and its bits over a constant generator's first
block, and convergence runs must skip the frame diagnostics;
an x0, a seed or a one-parameter direction already over the blow-up norm,
a step whose exponential would overflow, a time grid no array can hold,
malformed curve samples (each named by its data row), a derivative
that overflows and a midpoint interpolated over the blow-up norm, or to
nan, are rejected before any step, as is every malformed
curve, trajectory or base a library call is given, and the
convergence probe counts its steps without building their grids.  Each
quantity is derived once: a constant-velocity geodesic is the one-parameter
curve bit for bit, built from one exponential, as are the frames of
constant velocity samples; transport along a one-parameter curve or a
naturally reductive geodesic builds one exponential for its propagator;
one transport call judges is_metric once; and each finite-difference warning
reaches the command line.  The five-point stencil must keep the fixed
uniform-grid coefficients to 1e-12 on a uniform grid, differentiate a quartic
exactly on a nonuniform one, and refuse, without a nan, a grid of gaps near
1e-300.
"""

import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import redhom as rh
from redhom import transport
from redhom.algebra import expm
from redhom.cli import main
from redhom.connection import AlphaMap, levi_civita_alpha
from redhom.transport import (CurveSpec, Trajectory, convergence_probe, geodesic,
                              geodesic_convergence, horizontal_lift, parallel_transport,
                              realize_curve)
from conftest import m_bracket

DATA = Path(__file__).parent / "data"
STIEFEL42_LC = "space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n"
RIGID_BODY = (
    "[algebra]\ndim = 3\n"
    "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]\n\n"
    "[metric]\ngram = [1 0 0; 0 2 0; 0 0 3]\n\n[connection]\nalpha = {alpha}\n"
)
# so(3) as a group, no metric, and the alpha of riccati_alpha below: x_1' = x_1^2
RICCATI = RIGID_BODY.split("[metric]")[0] + "[connection]\nalpha = (1, 1, 1, -1)\n"
DRIFT_LINE = "transport: drift of the metric on transported seeds"


def lifted_curve(dec):
    raw = np.loadtxt(DATA / "stiefel42_curve.csv", delimiter=",", comments="#")
    spec = CurveSpec.group_samples(raw[:, 0], raw[:, 1:].reshape(-1, 4, 4))
    return realize_curve(dec, spec)


def test_levi_civita_transport_conserves_the_metric(stiefel42, rng):
    dec, metric = stiefel42.dec, stiefel42.metric
    alpha = levi_civita_alpha(dec, metric)
    for step, t1 in [(0.01, 1.0), (0.1, 10.0)]:       # fine, then coarse and long
        base = geodesic(alpha, rng.standard_normal(dec.N), (0.0, t1), step)
        zs = parallel_transport(alpha, base, rng.standard_normal((3, dec.N))).transported
        gram = np.einsum("tak,kl,tbl->tab", zs, metric.gram, zs)
        assert np.max(np.abs(gram - gram[0])) <= 1e-13, step


def test_one_parameter_transport_meets_the_closed_form(stiefel42, rng):
    # x(t) = x0 is constant, so z' = -alpha(x0, z) has z(t) = expm(-t alpha(x0, .)) z0
    dec = stiefel42.dec
    alpha = levi_civita_alpha(dec, stiefel42.metric)
    x0, z0 = rng.standard_normal((2, dec.N))
    base = realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 10.0), 0.01))
    zs = parallel_transport(alpha, base, z0).transported
    generator = -np.tensordot(alpha.coeffs, x0, (1, 0))
    closed = expm(base.times[:, None, None] * generator) @ z0
    assert np.max(np.abs(zs - closed)) <= 1e-13


@pytest.mark.parametrize("curve", ["one_parameter", "geodesic"])
def test_transport_along_a_constant_velocity_takes_one_exponential(stiefel42, monkeypatch,
                                                                  rng, curve):
    # the lift of exp(t x0) has the constant velocity x0: one propagator exponential
    dec = stiefel42.dec
    alpha = levi_civita_alpha(dec, stiefel42.metric)
    x0 = rng.standard_normal(dec.N)
    base = (realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 3.0), 0.01))
            if curve == "one_parameter" else geodesic(alpha, x0, (0.0, 3.0), 0.01))
    exps = count_calls(monkeypatch, transport, "expm")
    parallel_transport(alpha, base, rng.standard_normal((3, dec.N)))
    # one call of one matrix, not a stack of step exponentials
    assert [args[0].shape for args in exps] == [(dec.N, dec.N)]


def test_lift_and_transport_converge_with_order_four(stiefel42, rng):
    # c(s) = expm(s X + s^2 Y) leaves the horizontal directions, so the lift works
    dec = stiefel42.dec
    alpha = levi_civita_alpha(dec, stiefel42.metric)
    gens = np.tensordot(rng.standard_normal((2, dec.algebra.dim)), dec.algebra.matrix_basis, 1)
    X, Y = gens / np.linalg.norm(gens, axis=(1, 2), keepdims=True)   # unit norm: asymptotic at 20
    z0 = rng.standard_normal(dec.N)

    def run(intervals):
        s = np.linspace(0.0, 1.0, intervals + 1)[:, None, None]
        lifted = realize_curve(dec, CurveSpec.group_samples(s.ravel(), expm(s * X + s * s * Y)))
        return lifted.frames[-1], parallel_transport(alpha, lifted, z0).transported[-1]

    g_ref, z_ref = run(1280)

    def error(step):
        g, z = run(round(1.0 / step))
        return max(np.max(np.abs(g - g_ref)), np.max(np.abs(z - z_ref)))

    result = convergence_probe(error, [1 / 20, 1 / 40, 1 / 80, 1 / 160])
    assert abs(result.slope - 4.0) <= 0.15


def test_batched_seeds_match_one_seed_calls_bitwise(stiefel42, rng):
    dec = stiefel42.dec
    alpha = levi_civita_alpha(dec, stiefel42.metric)
    base = lifted_curve(dec)
    seeds = rng.standard_normal((3, dec.N))
    batch = parallel_transport(alpha, base, seeds)
    assert batch.transported.shape == (len(base), 3, dec.N)
    for s in range(3):
        single = parallel_transport(alpha, base, seeds[s].copy())
        assert single.transported.shape == (len(base), dec.N)
        assert batch.transported[:, s].tobytes() == single.transported.tobytes()


def test_seed_of_wrong_length_is_rejected(stiefel42):
    alpha = levi_civita_alpha(stiefel42.dec, stiefel42.metric)
    base = lifted_curve(stiefel42.dec)
    with pytest.raises(ValueError, match="z0 must have length 5"):
        parallel_transport(alpha, base, np.ones((2, 4)))


def test_seed_over_the_blow_up_norm_is_rejected(stiefel42):
    alpha = levi_civita_alpha(stiefel42.dec, stiefel42.metric)
    base = lifted_curve(stiefel42.dec)
    seeds = np.zeros((2, 5))
    seeds[1, :2] = 1e308
    with pytest.raises(ValueError, match="z0 has a coordinate of magnitude over the blow-up"):
        parallel_transport(alpha, base, seeds)


def run_transport(tmp_path, text, curve, seeds):
    space = tmp_path / "space.def"
    space.write_text(text)
    return main(["transport", str(space), f"--curve={curve}",
                 *(f"--z0={z}" for z in seeds), "--t1=0.2", "--step=0.02",
                 f"--out={tmp_path / 'tr'}"])


def test_one_transition_sequence_per_cli_call(tmp_path, monkeypatch):
    # the N x N propagators; the one-parameter frames are d x d
    calls = []
    original = transport._magnus_frames

    def counted(*args):
        if args[0].shape == (5, 5):
            calls.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(transport, "_magnus_frames", counted)
    code = run_transport(tmp_path, STIEFEL42_LC, "one_parameter:0.4,0.1,-0.3,0.2,0.5",
                         ["1,0,0,0,0", "0,1,0,0,0", "0.2,-0.5,0.3,0.1,-0.4"])
    assert code == 0
    assert calls == [10]
    assert sorted(p.name for p in tmp_path.glob("tr_seed*")) == [
        f"tr_seed{i}.{ext}" for i in range(3) for ext in ("csv", "json")]


@pytest.mark.parametrize("alpha, printed", [
    ("levi_civita", True),
    ("canonical_first", False),     # (1/2)[X, Y] is not skew for an anisotropic inertia
])
def test_metric_drift_is_printed_only_for_metric_alphas(tmp_path, capsys, alpha, printed):
    code = run_transport(tmp_path, RIGID_BODY.format(alpha=alpha), "one_parameter:0.3,-0.2,0.5",
                         ["1,0,0", "0,0.5,-0.5"])
    assert code == 0
    assert (DRIFT_LINE in capsys.readouterr().out) is printed


def test_wrong_seed_length_on_the_command_line_exits_1(tmp_path, capsys):
    code = run_transport(tmp_path, STIEFEL42_LC, "one_parameter:0.4,0.1,-0.3,0.2,0.5",
                         ["1,0,0,0,0", "1,0,0"])
    assert code == 1
    assert "each --z0 must hold 5 coordinates" in capsys.readouterr().err


def orthogonality_defect(frames):
    eye = np.eye(frames.shape[-1])
    return np.max(np.abs(np.einsum("mji,mjk->mik", frames, frames) - eye))


def test_canonical_first_geodesic_is_the_one_parameter_curve(stiefel42, rng):
    dec = stiefel42.dec
    alpha = rh.canonical_first(dec)
    assert alpha.label == "canonical_first"
    x0 = rng.standard_normal(dec.N)
    geo = geodesic(alpha, x0, (0.0, 2.0), 0.05)
    closed = np.array([expm(t * dec.m_matrix(x0)) for t in geo.times])
    assert np.max(np.abs(geo.frames - closed)) <= 1e-13


@pytest.mark.parametrize("build", [rh.sphere2, lambda: rh.stiefel(6, 2),
                                   lambda: rh.grassmann_like(6, 3)],
                         ids=["sphere2", "stiefel62", "grassmann63"])
def test_levi_civita_geodesic_keeps_its_velocity_bitwise(build, rng):
    # naturally reductive: the Levi-Civita alpha is skew, so x' = -alpha(x, x) = 0
    bundle = build()
    dec = bundle.dec
    x0 = rng.standard_normal(dec.N)
    geo = geodesic(levi_civita_alpha(dec, bundle.metric), x0, (0.0, 2.0), 0.05)
    assert len(geo) == 41 and not geo.meta["blow_up"]
    assert geo.velocities.tobytes() == np.tile(x0, (41, 1)).tobytes()
    closed = np.array([expm(t * dec.m_matrix(x0)) for t in geo.times])
    assert np.max(np.abs(geo.frames - closed)) <= 1e-13
    one = realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 2.0), 0.05))
    assert geo.frames.tobytes() == one.frames.tobytes()


def count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` made through any ``redhom`` namespace
    that binds it (``from .x import f`` copies the name)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "redhom"]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_constant_velocity_geodesic_takes_one_exponential(monkeypatch, rng):
    bundle = rh.stiefel(6, 2)
    alpha = levi_civita_alpha(bundle.dec, bundle.metric)
    exps = count_calls(monkeypatch, transport, "expm")
    magnus = count_calls(monkeypatch, transport, "_magnus_frames")
    geo = geodesic(alpha, rng.standard_normal(bundle.dec.N), (0.0, 50.0), 0.01)
    assert len(geo) == 5001
    # the frames come from the one propagator, whose data test finds the constant generator
    assert len(exps) == 1 and len(magnus) == 1


def test_one_transport_call_judges_is_metric_once(tmp_path, monkeypatch, capsys):
    calls = count_calls(monkeypatch, rh.connection, "is_metric")
    code = run_transport(tmp_path, STIEFEL42_LC, "one_parameter:0.4,0.1,-0.3,0.2,0.5",
                         ["1,0,0,0,0", "0,1,0,0,0"])
    assert code == 0
    assert len(calls) == 1
    assert DRIFT_LINE in capsys.readouterr().out


def so4_element():
    return np.tensordot([0.4, 0.1, -0.3, 0.2, 0.5, 0.3], rh.so_n(4).matrix_basis, 1)


def velocity_samples():
    t = np.linspace(0.0, 1.0, 11)
    return t, np.column_stack([np.sin(8 * t), np.cos(5 * t), t, 0 * t, t * t])


def coarse_group_samples():
    t = np.linspace(0.0, 1.0, 11)
    return t, expm(3 * t[:, None, None] * so4_element()).reshape(len(t), -1)


NONUNIFORM_TIMES = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.8])


def nonuniform_group_samples():
    t = NONUNIFORM_TIMES
    return t, expm(t[:, None, None] * so4_element()).reshape(len(t), -1)


def nonuniform_velocity_samples():
    t = NONUNIFORM_TIMES
    return t, np.column_stack([np.sin(t), np.cos(t), t, 0 * t, t * t])


def short_velocity_samples():
    t = np.linspace(0.0, 0.2, 3)
    return t, np.column_stack([t, 1 + 0 * t, -t, 0 * t, t * t])


# a grid of 5 or more samples, uniform or not, gets an error estimate; only a shorter one
# warns that it has none
@pytest.mark.parametrize("kind, samples, warning", [
    ("velocity_file", velocity_samples, "transport grid too coarse"),
    ("group_file", coarse_group_samples, "samples too coarse"),
    ("group_file", nonuniform_group_samples, "samples too coarse"),
    ("velocity_file", nonuniform_velocity_samples, "transport grid too coarse"),
    ("velocity_file", short_velocity_samples, "short grid"),
], ids=["transport-grid", "coarse-samples", "nonuniform-samples", "nonuniform-velocities",
        "short-velocities"])
def test_finite_difference_warnings_reach_the_command_line(tmp_path, capsys, kind, samples,
                                                           warning):
    times, rows = samples()
    path = tmp_path / "samples.csv"
    np.savetxt(path, np.column_stack([times, rows]), delimiter=",")
    assert run_transport(tmp_path, STIEFEL42_LC, f"{kind}:{path}", ["1,0,0,0,0"]) == 0
    err = capsys.readouterr().err
    assert err.count(f"warning: {warning}") == 1
    assert ("not estimated" in err) == (len(times) < 5)


def fd4_uniform(y, h):
    """The fixed fourth-order coefficients of a uniform grid of step h: (1, -8, 0, 8, -1)
    / 12h inside, and the one-sided five-point rows at the two nodes nearest each end."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = np.tensordot(c0, y[:5], axes=(0, 0)) / h
    d[1] = np.tensordot(c1, y[:5], axes=(0, 0)) / h
    d[-1] = -np.tensordot(c0, y[-1:-6:-1], axes=(0, 0)) / h
    d[-2] = -np.tensordot(c1, y[-1:-6:-1], axes=(0, 0)) / h
    return d


@pytest.mark.parametrize("samples, t1", [(1001, 1.0), (5001, 10.0)])
def test_the_stencil_keeps_the_fixed_coefficients_on_a_uniform_grid(rng, samples, t1):
    # the weights see the nodes linspace stores, which sit up to ulp(t1)/2 off i*h
    times = np.linspace(0.0, t1, samples)
    values = rng.standard_normal((samples, 6, 6))
    derivs, order, spread = transport._fd_derivatives(times, values, "samples", spread=True)
    reference = fd4_uniform(values, t1 / (samples - 1))
    assert order == 4
    assert np.max(np.abs(derivs - reference)) <= 1e-12 * np.max(np.abs(reference))
    # the spread's three-node partner is np.gradient's second-order stencil, to round-off
    three = np.gradient(values, times, axis=0, edge_order=2)
    assert np.max(np.abs(derivs - spread - three)) <= 1e-14 * np.max(np.abs(three))


def test_a_nonuniform_grid_is_differenced_to_fourth_order_with_an_estimate(stiefel42, rng):
    times = NONUNIFORM_TIMES
    poly = rng.standard_normal((5, 3, 3))
    values = np.polynomial.polynomial.polyval(times, poly).transpose(2, 0, 1)
    derivs, order, _ = transport._fd_derivatives(times, values, "samples")
    exact = np.polynomial.polynomial.polyval(times, np.polynomial.polynomial.polyder(poly))
    # the stencil differentiates a quartic exactly, on any five nodes
    assert order == 4
    assert np.max(np.abs(derivs - exact.transpose(2, 0, 1))) <= 1e-12
    rows = expm(times[:, None, None] * so4_element())
    lift = horizontal_lift(stiefel42.dec, CurveSpec.group_samples(times, rows))
    assert lift.meta["fd_order"] == 4 and lift.meta["fd_error_estimate"] > 0.0
    assert transport.FD_UNESTIMATED not in lift.meta["warnings"]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_the_stencil_differentiates_a_polynomial_of_its_degree_exactly(rng, k):
    times = np.cumsum(rng.uniform(0.02, 0.3, 12))
    poly = rng.standard_normal((k, 2, 3))
    values = np.polynomial.polynomial.polyval(times, poly).transpose(2, 0, 1)
    exact = np.polynomial.polynomial.polyval(times, np.polynomial.polynomial.polyder(poly))
    assert np.max(np.abs(transport._fd(times, values, k) - exact.transpose(2, 0, 1))) <= 1e-12


@pytest.mark.parametrize("samples, order", [(2, 1), (3, 2), (4, 3), (5, 4), (9, 4)])
def test_the_order_is_one_less_than_the_stencil_width(sphere2, samples, order):
    times = np.linspace(0.0, 0.4, samples)
    xs = np.column_stack([np.cos(times), np.sin(times)])
    _, fd_order, spread = transport._fd_derivatives(times, xs, "samples", spread=True)
    assert fd_order == order and (spread is None) == (samples < 5)
    if samples >= 3:        # frame_diagnostics measures nothing on two samples
        curve = realize_curve(sphere2.dec, CurveSpec.velocity_samples(times, xs))
        assert curve.meta["fd_order"] == order


def test_gaps_near_the_smallest_normal_float_are_differenced_with_a_finite_spread():
    # rotations 0.1 apart at gaps of 1e-300: the derivatives are 1e299, and the three-node
    # partner of the spread divides by no product of two gaps
    times = 1e-300 * np.arange(7)
    rows = expm(0.1 * np.arange(7)[:, None, None] * so4_element())
    derivs, order, spread = transport._fd_derivatives(times, rows, "samples", spread=True)
    assert order == 4
    assert np.isfinite(derivs).all() and np.isfinite(spread).all()


def rk4_reference(coeffs, x0, h, nsteps):
    """Per-step einsum RK4 and blow-up guard: (samples up to the last within the norm,
    index of the first sample beyond it or None)."""
    def field(v):
        return -np.einsum("kij,i,j->k", coeffs, v, v)

    xs = [np.asarray(x0, dtype=float)]
    for _ in range(nsteps):
        x = xs[-1]
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.max(np.abs(x)) > transport.BLOWUP_NORM:
            return np.array(xs), len(xs)
        xs.append(x)
    return np.array(xs), None


def test_rigid_body_geodesic_matches_the_per_step_rk4(rigid_body):
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    gram = rigid_body.metric.gram
    x0 = np.array([0.3, -0.5, 0.8])
    geo = geodesic(alpha, x0, (0.0, 50.0), 0.01)
    ref, aborted = rk4_reference(alpha.coeffs, x0, 0.01, 5000)
    assert aborted is None and len(geo) == 5001
    assert np.max(np.abs(geo.velocities - ref)) <= 1e-13
    # energy x^T G x and momentum norm |G x| are conserved; rk4_reference keeps them to
    # 2.4e-11 and 1.4e-11 here
    energy = np.einsum("mi,ij,mj->m", geo.velocities, gram, geo.velocities)
    momentum = np.linalg.norm(geo.velocities @ gram, axis=1)
    assert np.max(np.abs(energy - energy[0])) <= 5e-11
    assert np.max(np.abs(momentum - momentum[0])) <= 3e-11


def test_long_stiefel_geodesic_stays_on_its_closed_form():
    # 50,000 steps of one exponential's powers, a block at a time: drift and distance
    # from exp(t X) grow to about 1e-12 here
    scipy_linalg = pytest.importorskip("scipy.linalg")
    bundle = rh.stiefel(6, 2)
    x0 = np.random.default_rng(3).standard_normal(bundle.dec.N)
    x0 /= np.linalg.norm(x0)
    geo = geodesic(levi_civita_alpha(bundle.dec, bundle.metric), x0, (0.0, 100.0), 0.002)
    assert len(geo) == 50001 and geo.meta["group_drift"] <= 2e-12
    mat = np.einsum("k,kab->ab", x0, bundle.dec.m_matrices)
    for i in np.linspace(0, len(geo) - 1, 60).astype(int):
        want = scipy_linalg.expm(geo.times[i] * mat)
        assert np.max(np.abs(geo.frames[i] - want)) <= 2e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_rigid_body_frames_stay_on_the_group(seed):
    # 30,000 Magnus steps of varying increments, a block of prefix products at a time
    rng = np.random.default_rng(seed)
    body = rh.group_as_space(rh.so3(), np.diag(rng.uniform(1.0, 3.0, 3)))
    x0 = rng.standard_normal(3)
    geo = geodesic(levi_civita_alpha(body.dec, body.metric), x0 / np.linalg.norm(x0),
                   (0.0, 60.0), 0.002)
    assert len(geo) == 30001 and geo.meta["group_drift"] <= 1e-13


def symmetric_form(n, seed):
    """A seeded symmetric form on R^n, s[k, i, j] = s[k, j, i], and a direction."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n, n))
    return 0.5 * (c + np.swapaxes(c, 1, 2)), rng.standard_normal(n)


@pytest.mark.parametrize("n, seed, scale, nsteps, aborted", [
    (5, 5, 0.1, 100, None),
    (6, 6, 0.1, 100, None),
    (9, 9, 0.1, 100, None),
    (6, 1, 0.3, 400, 297),                          # a blow-up past the fourth guard block
], ids=["n5", "n6", "n9", "n6-blow-up"])
def test_rk4_matches_the_per_step_reference_on_symmetric_forms(n, seed, scale, nsteps, aborted):
    # the field is two flattened products; from n = 9 BLAS blocks them differently from
    # the per-slab products, so the samples agree to round-off, not bit for bit
    sym, direction = symmetric_form(n, seed)
    x0 = scale * direction
    ref, ref_aborted = rk4_reference(sym, x0, 0.01, nsteps)
    assert ref_aborted == aborted                   # the case covers what its id says
    xs, dxs = transport._rk4_velocities(-sym, x0, 0.01, nsteps)
    assert len(xs) == len(dxs) == len(ref)
    scale_of_row = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(np.abs(xs - ref) / scale_of_row) <= 1e-13
    field = -np.einsum("kij,mi,mj->mk", sym, xs, xs)
    assert np.max(np.abs(dxs - field) / np.max(np.abs(field), axis=1, keepdims=True)) <= 1e-13


def frames_by_products(g0, incs):
    """The per-step ``g = g @ inc`` loop, in the dtype of ``g0``."""
    frames = [g0]
    g = g0
    for inc in incs:
        g = g @ inc
        frames.append(g)
    return np.array(frames)


def test_frame_products_meet_the_long_double_per_step_loop(stiefel42, rigid_body,
                                                            monkeypatch, rng):
    # the blocked products round in another order than the per-step loop; both stay
    # within a few ulps of the loop carried out in long double on the same increments
    increments = []

    def recorded(a):
        out = expm(a)
        increments.append(out)
        return out

    monkeypatch.setattr(transport, "expm", recorded)
    nsteps = 2 * transport.MAGNUS_BLOCK + 17        # three blocks of exponentials
    for dec, basis in ((stiefel42.dec, stiefel42.dec.m_matrices),
                       (rigid_body.dec, rigid_body.dec.m_matrices),
                       (stiefel42.dec, np.transpose(
                           levi_civita_alpha(stiefel42.dec, stiefel42.metric).coeffs,
                           (1, 2, 0)))):
        times = np.linspace(0.0, 1.0, nsteps + 1)
        xs = np.sin(np.outer(times, rng.uniform(1.0, 3.0, dec.N)) + rng.uniform(0, 1, dec.N))
        g0 = np.eye(basis.shape[1])
        increments.clear()
        frames = transport._magnus_frames(g0, basis, times, xs, 0.5 * (xs[:-1] + xs[1:]),
                                          np.diff(times))
        exact = frames_by_products(g0.astype(np.longdouble),
                                   np.concatenate(increments).astype(np.longdouble))
        assert np.max(np.abs(frames - exact)) <= 5e-14

        # a constant generator: the powers of one exponential, the first block's as the
        # per-step loop writes them
        increments.clear()
        still = np.tile(xs[0], (nsteps + 1, 1))
        frames = transport._magnus_frames(g0, basis, times, still, still[1:], np.diff(times))
        assert len(increments) == 1
        block = transport.MAGNUS_BLOCK + 1
        assert np.array_equal(frames[:block],
                              frames_by_products(g0, [increments[0]] * (block - 1)))
        exact = frames_by_products(g0.astype(np.longdouble),
                                   [increments[0].astype(np.longdouble)] * nsteps)
        assert np.max(np.abs(frames - exact)) <= 5e-14


def riccati_alpha():
    """x_1' = x_1^2 on so(3) as a group: x_1 = a / (1 - a t) blows up at t = 1/a."""
    coeffs = np.zeros((3, 3, 3))
    coeffs[0, 0, 0] = -1.0
    return AlphaMap(rh.group_as_space(rh.so3()).dec, coeffs)


@pytest.mark.parametrize("first_over", [
    pytest.param(lambda block: block // 2, id="in-first-block"),
    pytest.param(lambda block: 2 * block, id="at-block-end"),
    pytest.param(lambda block: 2 * block + 1, id="at-block-start"),
])
def test_blow_up_ends_where_a_per_step_guard_ends_it(first_over):
    alpha = riccati_alpha()
    h, first = 0.01, first_over(transport.GUARD_BLOCK)
    a = 1.0 / (h * (first - 1))                     # blow-up time (first - 1) steps
    x0 = [a, 0.2, -0.1]
    ref, aborted = rk4_reference(alpha.coeffs, x0, h, 4 * first)
    assert aborted == first                         # the case covers what its id says
    geo = geodesic(alpha, x0, (0.0, 4 * first * h), h)
    assert geo.meta["blow_up"] and len(geo) == first
    assert geo.meta["aborted_at"] == pytest.approx(first * h, abs=1e-12)
    assert 1.0 / a < geo.meta["aborted_at"] <= 1.0 / a + h * (1 + 1e-12)
    assert np.max(np.abs(geo.velocities)) <= transport.BLOWUP_NORM
    np.testing.assert_allclose(geo.velocities, ref, rtol=1e-13, atol=0)
    assert geo.meta["group_drift"] <= 1e-13


@pytest.mark.parametrize("make_alpha", [
    pytest.param(riccati_alpha, id="rk4"),
    pytest.param(lambda: rh.canonical_first(rh.sphere2().dec), id="no-symmetric-part"),
])
def test_x0_over_the_blow_up_norm_is_rejected_before_any_step(make_alpha):
    alpha = make_alpha()
    x0 = np.zeros(alpha.dec.N)
    x0[0] = -transport.BLOWUP_NORM                  # on the norm, shrinking: integrated
    assert len(geodesic(alpha, x0, (0.0, 1e-9), 1e-9)) == 2
    for over in (np.nextafter(transport.BLOWUP_NORM, np.inf), 1e7, -1e7):
        x0[0] = over
        with pytest.raises(ValueError, match="over the blow-up norm"):
            geodesic(alpha, x0, (0.0, 1.0), 0.01)


def test_one_parameter_direction_over_the_blow_up_norm_is_rejected(stiefel42):
    spec = CurveSpec.one_parameter([1e300, 0.0, 0.0, 0.0, 0.0], (0.0, 1.0), 0.1)
    with pytest.raises(ValueError, match="one-parameter direction has a coordinate of "
                                         "magnitude over the blow-up norm 1e"):
        realize_curve(stiefel42.dec, spec)


# one step of 1e300 or more along a velocity of order 1, on each path to an exponential
@pytest.mark.parametrize("run", [
    pytest.param(lambda body: geodesic(rh.canonical_first(rh.sphere2().dec), [1.0, 0.5],
                                       (0.0, 1e300), 1e300), id="one-parameter-geodesic"),
    # a steady rotation about a principal axis: RK4 keeps x, and the Magnus step is refused
    pytest.param(lambda body: geodesic(levi_civita_alpha(body.dec, body.metric),
                                       [0.0, 0.5, 0.0], (0.0, 1e308), 1e308), id="rk4-geodesic"),
    pytest.param(lambda body: realize_curve(rh.sphere2().dec, CurveSpec.one_parameter(
        [1.0, 0.5], (0.0, 1e300), 1e300)), id="one-parameter-curve"),
    pytest.param(lambda body: geodesic_convergence(rh.canonical_first(rh.sphere2().dec),
                                                   [1.0, 0.5], (0.0, 1e300),
                                                   [1e300, 5e299, 3e299]), id="exact-reference"),
])
def test_a_step_over_the_blow_up_norm_is_rejected_before_its_exponential(rigid_body, run):
    with pytest.raises(ValueError, match=r"a step of \S+ along a velocity coordinate of "
                                         r"magnitude \S+ is over the blow-up norm 1e\+06"):
        run(rigid_body)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curve_samples_must_be_finite(bad):
    # a nan passes the singularity cut and the time-order test; each kind rejects it itself
    times = np.linspace(0.0, 1.0, 5)
    cases = {CurveSpec.group_samples: np.tile(np.eye(3), (5, 1, 1)),
             CurveSpec.velocity_samples: np.zeros((5, 2))}
    for make, values in cases.items():
        make(times, values)
        spoiled = values.copy()
        spoiled[2].flat[1] = bad
        stamps = times.copy()
        stamps[4] = bad
        for args, row in (((times, spoiled), 3), ((stamps, values), 5)):
            with pytest.raises(ValueError, match=f"^data row {row} holds a non-finite value$"):
                make(*args)


FIVE = np.linspace(0.0, 1.0, 5)


def sphere2_alpha(space):
    return levi_civita_alpha(space.dec, space.metric)


def resting_base(dec, samples):
    """A trajectory of ``samples`` samples resting at the identity frame."""
    return Trajectory(dec, np.arange(float(samples)), np.tile(np.eye(3), (samples, 1, 1)),
                      np.zeros((samples, 2)))


def transport_along_velocities(space, times, xs):
    base = realize_curve(space.dec, CurveSpec.velocity_samples(times, xs))
    return parallel_transport(sphere2_alpha(space), base, [1.0, 0.0])


# six velocity samples 1e-310 apart, alternating between +-1e6: each step is short, but
# the derivative of the velocities overflows
SUBNORMAL_TIMES = 1e-310 * np.arange(6)
ALTERNATING = np.array([[1e6 * (-1) ** i, 0.0] for i in range(6)])


@pytest.mark.parametrize("refuse, message", [
    pytest.param(lambda s: geodesic(sphere2_alpha(s), [1.0, 0.0], (1.0, 0.0), 0.1),
                 "t_span must be a nonempty interval", id="reversed-span"),
    pytest.param(lambda s: geodesic(sphere2_alpha(s), [1.0, 0.0], (0.5, 0.5), 0.1),
                 "t_span must be a nonempty interval", id="empty-span"),
    pytest.param(lambda s: Trajectory(s.dec, np.zeros(3), np.zeros((2, 3, 3)), np.zeros((3, 2))),
                 "times, frames and velocities must have equal length", id="trajectory-lengths"),
    pytest.param(lambda s: Trajectory(s.dec, np.zeros(3), np.zeros((3, 3, 3)), np.zeros((3, 2)),
                                      transported=np.zeros((2, 2))),
                 "transported samples must match the time grid", id="transported-length"),
    pytest.param(lambda s: horizontal_lift(s.dec, CurveSpec.one_parameter([1.0, 0.0], (0, 1),
                                                                          0.1)),
                 "horizontal_lift expects a group_samples curve", id="lift-of-another-kind"),
    pytest.param(lambda s: horizontal_lift(s.dec, CurveSpec.group_samples(
        FIVE, np.tile(np.eye(2), (5, 1, 1)))),
                 "group samples must be 3x3 matrices", id="lift-of-2x2-matrices"),
    pytest.param(lambda s: parallel_transport(sphere2_alpha(s), resting_base(s.dec, 1), [1, 0]),
                 "base trajectory has no intervals to integrate over", id="one-sample-base"),
    pytest.param(lambda s: parallel_transport(sphere2_alpha(s), resting_base(rh.sphere2().dec, 2),
                                              [1, 0]),
                 "alpha and base trajectory use different decompositions",
                 id="base-on-another-decomposition"),
    pytest.param(lambda s: realize_curve(s.dec, CurveSpec(kind="spline")),
                 "unknown curve kind 'spline'", id="unknown-kind"),
    pytest.param(lambda s: realize_curve(s.dec, CurveSpec.velocity_samples(
        FIVE, np.zeros((5, 3)))),
                 r"velocity samples must have shape \(len\(times\), 2\)", id="velocity-width"),
    pytest.param(lambda s: CurveSpec.velocity_samples(FIVE, np.zeros((4, 2))),
                 r"samples of shape \(4, 2\) do not pair with times \(5,\)",
                 id="unpaired-samples"),
    pytest.param(lambda s: CurveSpec.group_samples([], np.zeros((0, 3, 3))),
                 "a curve needs at least two data rows, got none", id="no-samples"),
    pytest.param(lambda s: CurveSpec.group_samples(FIVE, np.stack(
        [np.eye(3)] * 2 + [np.diag([1.0, 1.0, 1e-13])] * 3)),
                 r"data row 3 holds a numerically singular matrix \(\|det\| = 1\.000e-13\)",
                 id="singular-sample"),
    pytest.param(lambda s: realize_curve(s.dec, CurveSpec.velocity_samples(
        FIVE, [[0.0, 0.0]] * 3 + [[0.0, 2e6]] * 2)),
                 r"velocity sample data row 4 has a coordinate of magnitude over the blow-up "
                 r"norm 1e\+06", id="velocity-over-the-blow-up-norm"),
    pytest.param(lambda s: transport_along_velocities(s, SUBNORMAL_TIMES, ALTERNATING),
                 "the finite-difference derivative of the velocities is not finite at sample 1: "
                 "their times are too close for their values",
                 id="derivative-overflow"),
    # unit velocities whose first steps are 1e-300 and the next 1e3: the Hermite midpoint
    # of a long step takes the 1e300 derivatives of the short ones
    pytest.param(lambda s: realize_curve(s.dec, CurveSpec.velocity_samples(
        [0.0, 1e-300, 2e-300, 1e3, 2e3, 3e3], ALTERNATING / 1e6)),
                 r"a step of 1000 along a velocity coordinate of magnitude 5\.83\d*e\+302 is "
                 r"over the blow-up norm 1e\+06", id="midpoint-over-the-blow-up-norm"),
    pytest.param(lambda s: transport._refuse_long_step(0.1, np.zeros(2), np.array([np.nan])),
                 r"a step of 0.1 along a velocity coordinate of magnitude nan is over the "
                 r"blow-up norm 1e\+06", id="midpoint-nan"),
])
def test_malformed_curves_and_trajectories_are_refused(sphere2, refuse, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}$"):
            refuse(sphere2)


def test_blow_up_on_the_command_line_writes_the_partial_trajectory(tmp_path, capsys):
    space = tmp_path / "riccati.def"
    space.write_text(RICCATI)
    out = tmp_path / "geo"
    assert main(["geodesic", str(space), "--x0=1,0.2,-0.1", "--t1=2", "--step=0.01",
                 f"--out={out}"]) == 1
    err = capsys.readouterr().err
    assert "blow-up abort at t = 1.01; partial trajectory written" in err
    assert "Traceback" not in err and "group drift" not in err
    assert out.with_suffix(".csv").exists()
    meta = json.loads(out.with_suffix(".json").read_text())["meta"]
    assert meta["aborted_at"] == 1.01 and meta["group_drift"] <= 1e-13


def test_geodesic_frames_stay_orthogonal(sphere2):
    geo = geodesic(rh.canonical_first(sphere2.dec), [1.0, 0.5], (0.0, 10.0), 0.1)
    assert len(geo) == 101
    assert orthogonality_defect(geo.frames) <= 1e-13
    assert geo.meta["group_drift"] <= 1e-13


def test_constant_velocity_samples_give_the_one_parameter_frames(stiefel42):
    dec = stiefel42.dec
    x0 = np.array([0.4, 0.1, -0.3, 0.2, 0.5])
    one = realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 1.0), 0.01))
    spec = CurveSpec.velocity_samples(one.times, np.tile(x0, (len(one), 1)))
    sampled = realize_curve(dec, spec)
    assert sampled.meta["curve"] == "piecewise_velocity"
    assert sampled.frames.tobytes() == one.frames.tobytes()
    assert orthogonality_defect(sampled.frames) <= 1e-13


def test_convergence_order_is_fitted_against_the_steps_taken(rigid_body):
    # 0.2 does not divide 0.5: that run takes three steps of 1/6
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    result = geodesic_convergence(alpha, [0.3, -0.5, 0.8], (0.0, 0.5),
                                  [0.2, 0.1, 0.05, 0.025])
    assert result.steps == [0.5 / 3, 0.1, 0.05, 0.025]
    assert abs(result.slope - 4.0) <= 0.05


def long_double_frame(alpha, x0, t1, nsteps):
    """g(t1) by RK4 in long double on the joint system x' = -alpha(x, x), g' = g mat(x)."""
    coeffs = alpha.coeffs.astype(np.longdouble).reshape(alpha.dec.N, -1)
    basis = alpha.dec.m_matrices.astype(np.longdouble)
    d = basis.shape[1]
    basis = basis.reshape(alpha.dec.N, -1).T

    def field(x, g):
        return -coeffs @ np.outer(x, x).ravel(), g @ (basis @ x).reshape(d, d)

    h = np.longdouble(t1) / nsteps
    x, g = np.array(x0, dtype=np.longdouble), np.eye(d, dtype=np.longdouble)
    for _ in range(nsteps):
        k1 = field(x, g)
        k2 = field(x + h / 2 * k1[0], g + h / 2 * k1[1])
        k3 = field(x + h / 2 * k2[0], g + h / 2 * k2[1])
        k4 = field(x + h * k3[0], g + h * k3[1])
        x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        g = g + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return g


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
def test_convergence_reference_is_accurate_beyond_the_finest_run(rigid_body):
    # an independent solution of the joint (x, g) system; 4000 steps meet 16000 to 1.4e-15
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    x0, t_span = [0.3, -0.5, 0.8], (0.0, 2.0)
    truth = long_double_frame(alpha, x0, 2.0, 4000)
    result = geodesic_convergence(alpha, x0, t_span, [0.2, 0.1, 0.05, 0.025])
    ref = geodesic(alpha, x0, t_span, min(result.steps) / transport.FINE_FACTOR).frames[-1]
    # an order-4 reference at a tenth of the finest step errs by 1e-4 of that run's
    # error (1.5e-13 of 1.5e-9 here); at a fifth of it, by 1.6e-3
    finest = min(result.errors)
    assert float(np.max(np.abs(ref - truth))) <= 2e-4 * finest
    for step, error in zip(result.steps, result.errors):
        exact = float(np.max(np.abs(geodesic(alpha, x0, t_span, step).frames[-1] - truth)))
        assert abs(error - exact) <= 2e-4 * finest, step


def test_convergence_runs_are_the_geodesic_runs_undiagnosed(rigid_body, monkeypatch):
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    x0, t_span, steps = [0.3, -0.5, 0.8], (0.0, 0.5), [0.1, 0.05, 0.025]
    ref = geodesic(alpha, x0, t_span, 0.025 / transport.FINE_FACTOR).frames[-1]
    errors = [float(np.max(np.abs(geodesic(alpha, x0, t_span, s).frames[-1] - ref)))
              for s in steps]
    diagnosed = count_calls(monkeypatch, transport, "frame_diagnostics")
    assert geodesic_convergence(alpha, x0, t_span, steps).errors == errors
    assert diagnosed == []


def test_convergence_takes_950_rk4_steps(tmp_path, monkeypatch):
    # four runs of 10 + 20 + 40 + 80 steps and a reference of 800 (8150 at a hundredth)
    taken = []
    rk4 = transport._rk4_velocities

    def counted(neg_sym, x0, h, nsteps):
        taken.append(nsteps)
        return rk4(neg_sym, x0, h, nsteps)

    monkeypatch.setattr(transport, "_rk4_velocities", counted)
    space = tmp_path / "rigid.def"
    space.write_text(RIGID_BODY.format(alpha="levi_civita"))
    assert main(["convergence", str(space), "--x0=0.3,-0.5,0.8", "--t1=2"]) == 0
    assert sorted(taken) == [10, 20, 40, 80, 800]


def test_convergence_of_a_blow_up_exits_1_naming_the_run(tmp_path, capsys):
    # every run of x_1' = x_1^2 from x_1 = 1 aborts near t = 1, each at its own time
    space = tmp_path / "riccati.def"
    space.write_text(RICCATI)
    out = tmp_path / "conv"
    assert main(["convergence", str(space), "--x0=1,0,0", "--t1=2", f"--out={out}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: the geodesic at step 0.0025 blows up at t = 1.0025; "
                            "no order can be measured\n")
    assert "measured order" not in captured.out
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("space, tol", [("stiefel42", 1e-13), ("rigid_body", 1e-10)])
def test_levi_civita_geodesic_velocity_is_self_parallel(space, tol, request, rng):
    bundle = request.getfixturevalue(space)
    alpha = levi_civita_alpha(bundle.dec, bundle.metric)
    x0 = rng.standard_normal(bundle.dec.N)
    geo = geodesic(alpha, x0, (0.0, 1.0), 0.01)
    transported = parallel_transport(alpha, geo, x0).transported
    assert np.max(np.abs(transported - geo.velocities)) <= tol


def test_lifted_frames_differ_from_the_samples_by_isotropy(stiefel42):
    dec = stiefel42.dec
    raw = np.loadtxt(DATA / "stiefel42_curve.csv", delimiter=",", comments="#")
    samples = raw[:, 1:].reshape(-1, 4, 4)
    hs = np.linalg.solve(samples, lifted_curve(dec).frames)     # c^-1 g
    block = np.any(dec.h_matrices != 0, axis=(0, 1))            # the SO(2) corner
    assert block.tolist() == [False, False, True, True]
    outside = ~np.outer(block, block)
    assert np.max(np.abs((hs - np.eye(4))[:, outside])) <= 1e-13
    assert orthogonality_defect(hs[:, 2:, 2:]) <= 1e-14


@pytest.mark.parametrize("space", ["stiefel42", "rigid_body"])
def test_adjoint_field_is_minus_the_levi_civita_alpha(space, request, rng):
    bundle = request.getfixturevalue(space)
    dec, gram = bundle.dec, bundle.metric.gram
    alpha = levi_civita_alpha(dec, bundle.metric)
    for x in rng.standard_normal((5, dec.N)):
        ad_x = np.column_stack([m_bracket(dec, x, e) for e in np.eye(dec.N)])
        adjoint = np.linalg.solve(gram, ad_x.T @ (gram @ x))
        assert np.max(np.abs(adjoint + alpha(x, x))) <= 1e-13


@pytest.mark.parametrize("steps, taken", [("0.1,0.1,0.1", "0.1, 0.1, 0.1"),
                                          ("3,2,1", "2, 2, 1")])
def test_convergence_needs_three_distinct_steps_taken(tmp_path, capsys, steps, taken):
    # 3 does not fit in [0, 2]: that run takes one step of 2, as the run at 2 does
    space = tmp_path / "rigid.def"
    space.write_text(RIGID_BODY.format(alpha="levi_civita"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["convergence", str(space), "--x0=0.3,-0.5,0.8", "--t1=2",
                     f"--steps={steps}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: an order estimate needs three distinct steps; "
                            f"the steps taken are {taken}\n")
    assert "measured order" not in captured.out


def test_convergence_counts_its_steps_without_building_their_grids(rigid_body):
    # the grids of 1e7, 1e7 and 5e6 steps would take 76 MiB before the refusal
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="three distinct steps; the steps taken are 1, 1, 2"):
            geodesic_convergence(alpha, [0.3, -0.5, 0.8], (0.0, 1e7), [1, 1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_time_grid_no_array_can_hold_exits_1_naming_span_and_step(tmp_path, capsys):
    space = tmp_path / "rigid.def"
    space.write_text(RIGID_BODY.format(alpha="levi_civita"))
    code = main(["geodesic", str(space), "--x0=1,0,0", "--t1=1e300", "--step=1",
                 f"--out={tmp_path / 'geo'}"])
    assert code == 1
    assert capsys.readouterr().err == ("error: t_span (0.0, 1e+300) holds 1e+300 steps of 1.0: "
                                       "more samples than one array can hold\n")
    assert not list(tmp_path.glob("geo*"))


@pytest.mark.parametrize("errors", [
    {1e-3: 6.0e-14, 2e-3: 5.3e-14, 4e-3: 1.4e-13},     # smallest step not the smallest error
    {1e-3: 2e-12, 2e-3: 2e-12, 4e-3: 3e-11},           # a tie is no decrease
    {1e-3: 1e-11, 2e-3: float("nan"), 4e-3: 1e-9},
])
def test_convergence_probe_refuses_errors_that_do_not_decrease(errors):
    with pytest.raises(ValueError, match="do not decrease as the step shrinks; round-off"):
        convergence_probe(errors.__getitem__, [4e-3, 1e-3, 2e-3])


def test_convergence_probe_keeps_the_exact_sentinel_and_fits_decreasing_errors():
    noise = convergence_probe({1e-3: 6e-14, 2e-3: 1e-14, 4e-3: 9e-14}.__getitem__,
                              [1e-3, 2e-3, 4e-3])
    assert noise.exact and noise.slope is None
    result = convergence_probe(lambda step: 3.0 * step ** 4, [4e-3, 1e-3, 2e-3])
    assert not result.exact and result.slope == pytest.approx(4.0, abs=1e-12)


# -- the inverse of a frame stack -------------------------------------------------------


def magnus_frame_stacks(stiefel42, rigid_body):
    """(name, times, frames) of a 5000-step stiefel(6,2) geodesic, a 5000-step rigid-body
    RK4 geodesic and the stiefel(4,2) lift of ``tests/data/stiefel42_curve.csv``."""
    stiefel62 = rh.stiefel(6, 2)
    x0 = np.linspace(-0.6, 0.7, stiefel62.dec.N)
    for name, trajectory in (
            ("stiefel62", geodesic(levi_civita_alpha(stiefel62.dec, stiefel62.metric), x0,
                                   (0.0, 10.0), 0.002)),
            ("rigid_body", geodesic(levi_civita_alpha(rigid_body.dec, rigid_body.metric),
                                    [0.3, -0.5, 0.8], (0.0, 10.0), 0.002)),
            ("stiefel42_lift", lifted_curve(stiefel42.dec))):
        yield name, trajectory.times, trajectory.frames


def test_inverse_of_orthogonal_frames_matches_solve(stiefel42, rigid_body, rng):
    for name, times, frames in magnus_frame_stacks(stiefel42, rigid_body):
        e = transport._orthogonality_defect(frames)
        assert np.max(np.abs(e)) <= transport.NEWTON_SCHULZ_DRIFT, name     # no LU taken
        for b in (transport._fd_derivatives(times, frames, "frames")[0],
                  rng.standard_normal(frames.shape)):
            deviation = np.max(np.abs(transport._inverse_times(frames, b, e)
                                      - np.linalg.solve(frames, b)))
            assert deviation <= 1e-15 * np.max(np.abs(b)), name


@pytest.mark.parametrize("scale", [1.0 + 1e-7, 1e3])
def test_inverse_off_the_orthogonal_group_is_solve_bitwise(stiefel42, rng, scale):
    frames = lifted_curve(stiefel42.dec).frames * scale
    b = rng.standard_normal(frames.shape)
    e = transport._orthogonality_defect(frames)
    assert np.max(np.abs(e)) > transport.NEWTON_SCHULZ_DRIFT
    reference = np.linalg.solve(frames, b)
    assert transport._inverse_times(frames, b, e).tobytes() == reference.tobytes()
    assert transport._inverse_times(frames, b, None).tobytes() == reference.tobytes()


def test_orthogonal_frames_are_diagnosed_and_lifted_without_an_lu(stiefel42, monkeypatch):
    bundle = rh.stiefel(6, 2)
    geo = geodesic(levi_civita_alpha(bundle.dec, bundle.metric),
                   np.linspace(-0.6, 0.7, bundle.dec.N), (0.0, 10.0), 0.002)
    assert len(geo) == 5001
    original, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(args) or original(*args))
    diagnosed = transport.frame_diagnostics(bundle.dec, geo.times, geo.frames, geo.velocities)
    assert diagnosed["velocity_residual"] <= 1e-9
    lifted_curve(stiefel42.dec)
    assert solves == []
