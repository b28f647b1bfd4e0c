"""Extrinsic oracle for lift and transport: the Stiefel manifold in R^{n x k}.

A frame curve g(t) in SO(n) maps to the point Y(t) = g(t) Y0 of V(n, k),
Y0 the first k columns of I, and a transported field z(t) to the tangent
vector Delta(t) = g(t) mat(z(t)) Y0.  Edelman, Arias and Smith (SIAM J.
Matrix Anal. Appl. 20(2), 1998) give the ambient Christoffel function Gamma
of the canonical and the Euclidean metric; a parallel field solves
Delta' + Gamma(Y', Delta) = 0.  That equation is integrated here by scipy's
DOP853 from the closed-form Y(t) and Y'(t) alone, with no alpha, lift or
frame, and compared with ``realize_curve`` plus ``parallel_transport``
(Levi-Civita) along the non-geodesic curve c(t) = exp(t A1) exp(t^2 A2).
The error must fall with order 4 as the samples double, on uniform grids
and on grids whose inner times are moved by up to 20% of a step.  One case
runs ``main`` on a sample file of the curve: the field it writes must be
the library's, bit for bit, and meet the oracle as closely.  Velocity
samples x(t) give frames with no lift: those of g' = g mat(x(t)), checked
against DOP853 in the group, must converge with order 4 too.
"""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import redhom as rh
from redhom.cli import main
from redhom.connection import levi_civita_alpha
from redhom.transport import CurveSpec, parallel_transport, realize_curve

T1 = 1.5
INTERVALS = (100, 200, 400)


def canonical_christoffel(y, d1, d2):
    proj = np.eye(len(y)) - y @ y.T
    return (0.5 * (d1 @ d2.T + d2 @ d1.T) @ y
            + 0.5 * y @ (d1.T @ proj @ d2 + d2.T @ proj @ d1))


def euclidean_christoffel(y, d1, d2):
    return 0.5 * y @ (d1.T @ d2 + d2.T @ d1)


def canonical_gram(mats, y0):
    # tr(X1^T X2) / 2 = tr(A1^T A2) / 2 + tr(B1^T B2) for X = [[A, -B^T], [B, 0]]
    return 0.5 * np.einsum("iab,jab->ij", mats, mats)


def euclidean_gram(mats, y0):
    # tr((X1 Y0)^T X2 Y0) = tr(A1^T A2) + tr(B1^T B2); Ad(H) = SO(n - k) keeps it
    cols = mats @ y0
    return np.einsum("iab,jab->ij", cols, cols)


METRICS = {"canonical": (canonical_gram, canonical_christoffel),
           "euclidean": (euclidean_gram, euclidean_christoffel)}


def skew(rng, n, scale):
    a = rng.standard_normal((n, n))
    return scale * (a - a.T)


def sample_times(intervals, grid, rng):
    """``intervals + 1`` times over [0, T1]: uniform, or each inner time moved by up to
    20% of a step."""
    t = np.linspace(0.0, T1, intervals + 1)
    if grid == "moved":
        t[1:-1] += rng.uniform(-0.2, 0.2, intervals - 1) * (T1 / intervals)
    return t


def oracle(times, a1, a2, y0, delta0, christoffel):
    """Delta(t) at ``times`` from Delta' = -Gamma(Y', Delta) along Y = c(t) Y0, by DOP853."""
    shape = delta0.shape

    def field(t, flat):
        e1, e2 = expm(t * a1), expm(t * t * a2)
        y, ydot = e1 @ e2 @ y0, e1 @ (a1 + 2 * t * a2) @ e2 @ y0
        return np.concatenate([-christoffel(y, ydot, d).ravel()
                               for d in flat.reshape(shape)])

    sol = solve_ivp(field, (times[0], times[-1]), delta0.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    return sol.y.T.reshape((len(times),) + shape)


def assert_order_four(n, k, metric, grid):
    """Lift plus transport of two seeds on stiefel(n, k) at ``INTERVALS`` samples of
    ``grid`` meet the oracle with order 4."""
    bundle = rh.stiefel(n, k)
    dec = bundle.dec
    make_gram, christoffel = METRICS[metric]
    y0 = np.eye(n)[:, :k]
    gram = make_gram(dec.m_matrices, y0)
    canonical = canonical_gram(dec.m_matrices, y0)
    # the catalog metric is a multiple of the canonical one, so its Levi-Civita alpha is too
    scale = bundle.metric.gram[0, 0] / canonical[0, 0]
    assert np.max(np.abs(bundle.metric.gram - scale * canonical)) <= 1e-14
    alpha = levi_civita_alpha(dec, rh.MetricOnM(dec, gram))

    rng = np.random.default_rng(10 * n + k)
    a1, a2 = skew(rng, n, 0.5), skew(rng, n, 0.3)
    seeds = rng.standard_normal((2, dec.N))

    def curve(t):
        return expm(t[:, None, None] * a1) @ expm((t * t)[:, None, None] * a2)

    grids, deltas = [sample_times(intervals, grid, rng) for intervals in INTERVALS], []
    for t in grids:
        base = realize_curve(dec, CurveSpec.group_samples(t, curve(t)))
        assert base.meta["fd_order"] == 4
        z = parallel_transport(alpha, base, seeds).transported
        mats = np.einsum("tsk,kab->tsab", z, dec.m_matrices)
        deltas.append(base.frames[:, None] @ mats @ y0)

    t = np.unique(np.concatenate(grids))
    truth = oracle(t, a1, a2, y0, deltas[-1][0], christoffel)
    # the oracle's Delta stays tangent: Y^T Delta is skew
    tangency = np.swapaxes(curve(t) @ y0, 1, 2)[:, None] @ truth
    assert np.max(np.abs(tangency + np.swapaxes(tangency, 2, 3))) <= 1e-11

    errors = np.array([np.max(np.abs(delta - truth[np.searchsorted(t, times)]))
                       for times, delta in zip(grids, deltas)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(orders >= 3.7), (errors, orders)


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
def test_lift_and_transport_meet_the_extrinsic_oracle_with_order_four(n, k, metric):
    assert_order_four(n, k, metric, "uniform")


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
def test_lift_and_transport_keep_order_four_on_moved_grids(n, k, metric):
    assert_order_four(n, k, metric, "moved")


def test_the_command_line_transports_as_the_library_and_meets_the_oracle(tmp_path):
    # stiefel(4,2) with its catalog metric, a multiple of the canonical one, and the
    # curve and seeds of the in-process test's stiefel(4,2) case
    bundle = rh.stiefel(4, 2)
    dec = bundle.dec
    rng = np.random.default_rng(42)
    a1, a2 = skew(rng, 4, 0.5), skew(rng, 4, 0.3)
    seeds = rng.standard_normal((2, dec.N))
    t = np.linspace(0.0, T1, INTERVALS[1] + 1)
    mats = expm(t[:, None, None] * a1) @ expm((t * t)[:, None, None] * a2)
    curve = tmp_path / "curve.csv"
    curve.write_text("".join(",".join(map(repr, [s, *m.ravel().tolist()])) + "\n"
                             for s, m in zip(t.tolist(), mats)))
    space = tmp_path / "space.def"
    space.write_text("space = stiefel(4,2)\n\n[connection]\nalpha = levi_civita\n")
    out = tmp_path / "tr"
    assert main(["transport", str(space), f"--curve=group_file:{curve}",
                 *(f"--z0={','.join(map(repr, z.tolist()))}" for z in seeds),
                 f"--out={out}"]) == 0
    written = np.array([json.loads((tmp_path / f"tr_seed{s}.json").read_text())["transported"]
                        for s in range(len(seeds))]).swapaxes(0, 1)

    base = realize_curve(dec, CurveSpec.group_samples(t, mats))
    z = parallel_transport(levi_civita_alpha(dec, bundle.metric), base, seeds).transported
    assert written.tobytes() == z.tobytes()

    y0 = np.eye(4)[:, :2]
    deltas = base.frames[:, None] @ np.einsum("tsk,kab->tsab", written, dec.m_matrices) @ y0
    truth = oracle(t, a1, a2, y0, deltas[0], canonical_christoffel)
    # the in-process test, on this curve and these seeds, measures 3.86e-9 at 200 intervals
    assert np.max(np.abs(deltas - truth)) <= 4e-9


@pytest.mark.parametrize("grid", ["uniform", "moved"])
def test_frames_of_velocity_samples_meet_an_independent_solve_with_order_four(grid):
    # velocity samples give no group samples to lift: the frames of g' = g mat(x(t)),
    # x(t) = c0 + sin(2t) c1 + 0.3 t^2 c2, are checked against DOP853 in the group
    dec = rh.stiefel(4, 2).dec
    rng = np.random.default_rng(3)
    c0, c1, c2 = rng.standard_normal((3, dec.N))

    def velocity(t):
        t = np.asarray(t)[..., None]
        return c0 + np.sin(2 * t) * c1 + 0.3 * t * t * c2

    grids = [sample_times(intervals, grid, rng) for intervals in INTERVALS]
    frames = []
    for t in grids:
        trajectory = realize_curve(dec, CurveSpec.velocity_samples(t, velocity(t)))
        assert trajectory.meta["warnings"] == []
        frames.append(trajectory.frames)

    t = np.unique(np.concatenate(grids))
    d = dec.algebra.matrix_dim
    sol = solve_ivp(lambda s, g: (g.reshape(d, d) @ dec.m_matrix(velocity(s))).ravel(),
                    (0.0, T1), np.eye(d).ravel(), method="DOP853", t_eval=t, rtol=1e-13,
                    atol=1e-13)
    assert sol.success, sol.message
    truth = sol.y.T.reshape(-1, d, d)
    errors = np.array([np.max(np.abs(g - truth[np.searchsorted(t, times)]))
                       for times, g in zip(grids, frames)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(orders >= 3.7), (errors, orders)
