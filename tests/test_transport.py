"""Oracle tests of geodesics, lifts and parallel transport.

Levi-Civita transport must conserve every inner product z_a(t)^T G z_b(t),
at coarse steps too; along a one-parameter curve it must meet the closed
form expm(-t alpha(x0, .)) z0; lift plus transport must converge with order
4 on a sampled curve; seeds transported together must come out bit for bit
as when each seed is transported alone; and one CLI call must build one
sequence of step exponentials whatever its number of seeds.  Geodesic and velocity-curve frames must stay
on the group and meet the closed form exp(t X) where one exists; a
geodesic's velocity must be parallel along it; lifted frames must differ
from the sampled curve by an isotropy element; the metric adjoint field
must give the Levi-Civita geodesic equation; and the convergence probe
must fit its order against the steps the runs take.  Where alpha's
symmetric part vanishes a geodesic's velocity must stay x0 bit for bit;
elsewhere the block-guarded RK4 must match a per-step einsum RK4 kept
here, keep the rigid body's energy and momentum norm, and end a blow-up
at the sample the per-step guard ends it, with frames still on the group.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import redhom as rh
from redhom import transport
from redhom.algebra import expm
from redhom.cli import main
from redhom.connection import AlphaMap, levi_civita_alpha
from redhom.transport import (CurveSpec, convergence_probe, geodesic, geodesic_convergence,
                              parallel_transport, realize_curve)

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
    base = realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 10.0)), step=0.01)
    zs = parallel_transport(alpha, base, z0).transported
    generator = -np.tensordot(alpha.coeffs, x0, (1, 0))
    closed = expm(base.times[:, None, None] * generator) @ z0
    assert np.max(np.abs(zs - closed)) <= 1e-13


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


def run_transport(tmp_path, text, curve, seeds):
    space = tmp_path / "space.def"
    space.write_text(text)
    return main(["transport", str(space), f"--curve={curve}",
                 *(f"--z0={z}" for z in seeds), "--t1=0.2", "--step=0.02",
                 f"--out={tmp_path / 'tr'}"])


def test_one_transition_sequence_per_cli_call(tmp_path, monkeypatch):
    calls = []
    original = transport._magnus_frames

    def counted(*args):
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
    alpha = stiefel42.suggested_alphas[0]
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
    geo = geodesic(sphere2.suggested_alphas[0], [1.0, 0.5], (0.0, 10.0), 0.1)
    assert len(geo) == 101
    assert orthogonality_defect(geo.frames) <= 1e-13
    assert geo.meta["group_drift"] <= 1e-13


def test_constant_velocity_samples_give_the_one_parameter_frames(stiefel42):
    dec = stiefel42.dec
    x0 = np.array([0.4, 0.1, -0.3, 0.2, 0.5])
    one = realize_curve(dec, CurveSpec.one_parameter(x0, (0.0, 1.0)), step=0.01)
    spec = CurveSpec.velocity_samples(one.times, np.tile(x0, (len(one), 1)))
    sampled = realize_curve(dec, spec)
    assert sampled.meta["curve"] == "piecewise_velocity"
    assert np.max(np.abs(sampled.frames - one.frames)) <= 1e-13
    assert orthogonality_defect(sampled.frames) <= 1e-13


def test_convergence_order_is_fitted_against_the_steps_taken(rigid_body):
    # 0.2 does not divide 0.5: that run takes three steps of 1/6
    alpha = levi_civita_alpha(rigid_body.dec, rigid_body.metric)
    result = geodesic_convergence(alpha, [0.3, -0.5, 0.8], (0.0, 0.5),
                                  [0.2, 0.1, 0.05, 0.025])
    assert result.steps == [0.5 / 3, 0.1, 0.05, 0.025]
    assert abs(result.slope - 4.0) <= 0.05


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
        adjoint = np.linalg.solve(gram, dec.ad_m_matrix(x).T @ (gram @ x))
        assert np.max(np.abs(adjoint + alpha(x, x))) <= 1e-13
