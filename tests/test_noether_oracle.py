"""Noether momenta of geodesics: an oracle that needs no reference run.

For the Levi-Civita alpha of a G-invariant metric, every Y in g generates
an isometry, and along a geodesic with horizontal frame g(t) and velocity
x(t) the momentum

    J_Y(t) = <x(t), pr_m Ad_{g(t)^-1} Y>_G

stays constant.  Here Ad_{g^-1} Y = g^-1 Y g is expanded in the algebra
basis by least squares and split along h + m by ``conftest.hm_coords``,
so neither the bracket tables nor alpha enter it.  Where alpha has a
symmetric part the geodesic is RK4 plus Magnus frames, and the drift
max |J - J(0)| must fall with order 4 as the step halves; on the catalog
spaces the Levi-Civita geodesics are one-parameter curves, built as the
powers of one exponential, and J holds to round-off.
"""

import numpy as np
import pytest

import redhom as rh
from conftest import hm_coords
from redhom.connection import levi_civita_alpha
from redhom.transport import geodesic
from test_stiefel_oracle import euclidean_gram

STEPS = (0.1, 0.05, 0.025)


def momenta(dec, gram, traj):
    """J_Y(t_i) for each basis vector Y of g: shape (samples, dim g)."""
    basis = dec.algebra.matrix_basis
    g = traj.frames
    conj = np.einsum("tab,jbc,tcd->tjad", np.linalg.inv(g), basis, g)
    flat = basis.reshape(len(basis), -1).T
    coords = np.linalg.lstsq(flat, conj.reshape(-1, flat.shape[0]).T, rcond=None)[0]
    m = hm_coords(dec, coords)[dec.q:].T.reshape(len(g), len(basis), dec.N)
    return np.einsum("tn,nk,tjk->tj", traj.velocities, gram, m)


def momentum_drift(dec, gram, x0, t1, step):
    geo = geodesic(levi_civita_alpha(dec, rh.MetricOnM(dec, gram)), x0, (0.0, t1), step)
    assert not geo.meta["blow_up"]
    j = momenta(dec, gram, geo)
    return float(np.max(np.abs(j - j[0])))


def rigid_body():
    bundle = rh.group_as_space(rh.so3(), np.diag([1.0, 2.0, 3.0]))
    return bundle.dec, bundle.metric.gram


def stiefel_euclidean(n, k):
    dec = rh.stiefel(n, k).dec
    return dec, euclidean_gram(dec.m_matrices, np.eye(n)[:, :k])


@pytest.mark.parametrize("make", [
    pytest.param(rigid_body, id="rigid-body"),
    pytest.param(lambda: stiefel_euclidean(4, 2), id="stiefel42-euclidean"),
    pytest.param(lambda: stiefel_euclidean(6, 3), id="stiefel63-euclidean"),
])
def test_momenta_drift_with_order_four(make):
    dec, gram = make()
    x0 = np.random.default_rng(dec.N).standard_normal(dec.N)
    x0 /= np.linalg.norm(x0)
    errors = np.array([momentum_drift(dec, gram, x0, 5.0, step) for step in STEPS])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(orders >= 3.7), (errors, orders)


@pytest.mark.parametrize("build", [rh.sphere2, lambda: rh.stiefel(4, 2),
                                   lambda: rh.stiefel(6, 2), lambda: rh.grassmann_like(6, 3)],
                         ids=["sphere2", "stiefel42", "stiefel62", "grassmann63"])
def test_momenta_of_catalog_levi_civita_geodesics_hold_to_round_off(build):
    bundle = build()
    x0 = np.random.default_rng(bundle.dec.N).standard_normal(bundle.dec.N)
    assert momentum_drift(bundle.dec, bundle.metric.gram, x0, 2.0, 0.05) <= 1e-14
