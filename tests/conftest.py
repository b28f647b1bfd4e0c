import numpy as np
import pytest

import redhom as rh


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
