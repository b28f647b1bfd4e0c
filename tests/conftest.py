import numpy as np
import pytest

import redhom as rh
from redhom import algebra, transport


@pytest.fixture(scope="session")
def so3():
    return rh.so3()


@pytest.fixture(scope="session")
def so4():
    return rh.so_n(4)


@pytest.fixture(scope="session")
def sphere2():
    return rh.sphere2()


@pytest.fixture(scope="session")
def stiefel42():
    return rh.stiefel(4, 2)


@pytest.fixture(scope="session")
def grassmann42():
    return rh.grassmann_like(4, 2)


@pytest.fixture(scope="session")
def rigid_body():
    return rh.group_as_space(rh.so3(), np.diag([1.0, 2.0, 3.0]), name="rigid-body")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def commutator_coords(algebra, a, b):
    """Independent bracket oracle: matrix commutator expanded by least squares."""
    ma = np.einsum("i,iab->ab", np.asarray(a, float), algebra.matrix_basis)
    mb = np.einsum("i,iab->ab", np.asarray(b, float), algebra.matrix_basis)
    comm = ma @ mb - mb @ ma
    flat = algebra.matrix_basis.reshape(algebra.dim, -1).T
    coords, *_ = np.linalg.lstsq(flat, comm.ravel(), rcond=None)
    return coords


def ad_matrix(algebra, a):
    """Oracle for ad_a: column j is the commutator oracle of a and basis vector j."""
    return np.column_stack([commutator_coords(algebra, a, e) for e in np.eye(algebra.dim)])


def group_exp(algebra, v, t=1.0):
    """exp(t v) as a matrix of the realized group of ``algebra``."""
    return rh.expm(t * np.tensordot(v, algebra.matrix_basis, 1))


def hm_coords(dec, v):
    """Coordinates of the ambient vector(s) ``v`` (columns) in the basis of
    h then m, solved against the public bases: h-coordinates in the first
    ``dec.q`` rows, m-coordinates after them."""
    return np.linalg.solve(np.vstack([dec.h_basis, dec.m_basis]).T, v)


def m_bracket(dec, x, y):
    """Oracle for [X, Y]_m in m-coordinates: the commutator of the embedded vectors."""
    full = commutator_coords(dec.algebra, x @ dec.m_basis, y @ dec.m_basis)
    return hm_coords(dec, full)[dec.q:]


def restrict_to_m(dec, op):
    """The m-block of an ambient linear map and its leak, the largest
    h-component it gives an m-vector."""
    s = hm_coords(dec, op @ dec.m_basis.T)
    return s[dec.q:], float(np.max(np.abs(s[: dec.q]), initial=0.0))


def rebase(space, P, Q):
    """``space`` built again in the m basis P.A and the h basis Q.eta, with the gram
    P G P^T: the same split, the same metric and the same geometry in other
    coordinates.  An m-vector with coordinates x on A has coordinates P^-T x on P.A."""
    dec = space.dec
    new = rh.build_decomposition(dec.algebra, Q @ dec.h_basis, P @ dec.m_basis)
    metric = None if space.metric is None else rh.MetricOnM(new, P @ space.metric.gram @ P.T)
    return rh.SpaceBundle(new, metric, f"rebased {space.name}")


def seeded_change_of_basis(space, seed, spread=0.3):
    """``(P, Q)``: I plus ``spread`` times a seeded normal matrix, of sizes dim m and
    dim h, Q drawn first."""
    rng = np.random.default_rng(seed)
    q_mat = np.eye(space.dec.q) + spread * rng.standard_normal((space.dec.q, space.dec.q))
    return np.eye(space.dec.N) + spread * rng.standard_normal((space.dec.N,) * 2), q_mat


def dense_jacobi_residual(c):
    """The Jacobi residual as the dense per-l loop sums it: for each output index l,
    t[k, i, j] = sum_m c[l, m, k] c[m, i, j], plus its two cyclic shifts."""
    jac_max = 0.0
    for c_l in np.swapaxes(c, 1, 2):
        t = np.tensordot(c_l, c, 1)
        jac = t + t.transpose(2, 0, 1)
        jac += t.transpose(1, 2, 0)
        jac_max = float(np.maximum(jac_max, np.max(np.abs(jac))))
    return jac_max


def commutator_table(basis):
    """Structure constants read off the whole (n, n, d, d) commutator table at once,
    and its commutator-consistency residual: the unblocked formula."""
    flat = basis.reshape(len(basis), -1)
    dual = np.linalg.solve(flat @ flat.T, flat).reshape(basis.shape)
    prod = basis[:, None] @ basis
    comm = prod - np.swapaxes(prod, 0, 1)
    c = np.tensordot(dual, comm, ((1, 2), (2, 3)))
    c = 0.5 * (c - np.swapaxes(c, 1, 2))
    return c, float(np.max(np.abs(comm - np.tensordot(c, basis, (0, 0)))))


@pytest.fixture()
def jacobi_paths(monkeypatch):
    """Counts the calls of each Jacobi path of the algebra constructor."""
    calls = {"support": 0, "dense": 0}
    for path in calls:
        real = getattr(algebra, f"_jacobi_{path}")

        def counted(*args, _real=real, _path=path):
            calls[_path] += 1
            return _real(*args)
        monkeypatch.setattr(algebra, f"_jacobi_{path}", counted)
    return calls


@pytest.fixture()
def rk4_paths(monkeypatch):
    """Counts the calls of each RK4 kernel of the geodesic integrator, and the scalar
    kernels compiled from an empty kernel cache."""
    calls = {"scalar": 0, "numpy": 0, "compiled": 0}
    for path in ("scalar", "numpy"):
        real = getattr(transport, f"_rk4_{path}")

        def counted(*args, _real=real, _path=path):
            calls[_path] += 1
            return _real(*args)
        monkeypatch.setattr(transport, f"_rk4_{path}", counted)

    def compiled(*args):
        calls["compiled"] += 1
        return compile(*args)
    transport._rk4_kernel.cache_clear()
    monkeypatch.setattr(transport, "compile", compiled, raising=False)
    yield calls
    transport._rk4_kernel.cache_clear()          # no kernel compiled by the counter stays
