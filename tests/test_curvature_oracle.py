"""Closed forms for the curvature tensor: O'Neill's formula and the Gauss equation.

Every catalog metric is the bi-invariant B(X, Y) = tr(X^T Y)/2 of so(n)
restricted to m.  For B-orthonormal X and Y in m the sectional curvature
of its Levi-Civita derivative is

    K(X, Y) = 1/4 |[X, Y]_m|^2 + |[X, Y]_h|^2

(O'Neill, Michigan Math. J. 13, 1966).  The right side is formed from
matrix commutators here: ``m_matrix`` realizes X and Y, and
``split_matrices`` gives the m-part of [X, Y]; its h-part is the rest.
Neither alpha, nor the bracket tables, nor the metric's gram enters it.

The Euclidean metric of the Stiefel manifold V(n, k), gram_ij =
tr((A_i Y0)^T (A_j Y0)) with Y0 the first k columns of I, is the metric
induced from R^{n x k}; for k >= 2 it is not naturally reductive.  The
Gauss equation gives its whole (0,4) curvature tensor,

    <R(X, Y)Z, W> = <II(X, W), II(Y, Z)> - <II(Y, W), II(X, Z)>,

with the second fundamental form II(D1, D2) = 1/2 Y0 (D1^T D2 + D2^T D1)
of Edelman, Arias and Smith (SIAM J. Matrix Anal. Appl. 20(2), 1998),
evaluated on the tangent vectors D = A Y0.  Only matrix products of the
realized m-basis enter the right side.
"""

import numpy as np
import pytest

from redhom import catalog
from redhom.connection import curvature, levi_civita_alpha, sectional_curvature
from redhom.reductive import MetricOnM

SPACES = {
    "sphere2": catalog.sphere2,
    "stiefel(3,1)": lambda: catalog.stiefel(3, 1),
    "stiefel(4,2)": lambda: catalog.stiefel(4, 2),
    "stiefel(6,3)": lambda: catalog.stiefel(6, 3),
    "stiefel(12,2)": lambda: catalog.stiefel(12, 2),
    "grassmann(5,2)": lambda: catalog.grassmann_like(5, 2),
    "grassmann(8,4)": lambda: catalog.grassmann_like(8, 4),
}
PLANES = 50


def b_form(a, b):
    """tr(A^T B)/2 of two matrices."""
    return 0.5 * float(np.sum(a * b))


@pytest.mark.parametrize("name", list(SPACES))
def test_sectional_curvature_meets_oneills_formula(name):
    bundle = SPACES[name]()
    dec, metric = bundle.dec, bundle.metric
    m_mats = np.array([dec.m_matrix(e) for e in np.eye(dec.N)])
    gram_b = 0.5 * np.einsum("iab,jab->ij", m_mats, m_mats)
    # the premise: the catalog metric is B on m
    assert np.max(np.abs(metric.gram - gram_b)) < 1e-14
    riem = curvature(levi_civita_alpha(dec, metric))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(PLANES):
        x, y = rng.standard_normal((2, dec.N))
        x /= np.sqrt(x @ gram_b @ x)
        y -= (x @ gram_b @ y) * x
        y /= np.sqrt(y @ gram_b @ y)
        xm, ym = dec.m_matrix(x), dec.m_matrix(y)
        bracket = xm @ ym - ym @ xm
        _h, m, _resid = dec.split_matrices(bracket[None])
        bracket_m = dec.m_matrix(m[0])
        bracket_h = bracket - bracket_m
        expected = 0.25 * b_form(bracket_m, bracket_m) + b_form(bracket_h, bracket_h)
        worst = max(worst, abs(sectional_curvature(riem, metric, x, y) - expected))
    assert worst <= 1e-13


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3), (12, 2)])
def test_euclidean_stiefel_curvature_meets_the_gauss_equation(n, k):
    dec = catalog.stiefel(n, k).dec
    tangents = dec.m_matrices @ np.eye(n)[:, :k]
    gram = np.einsum("iab,jab->ij", tangents, tangents)
    riem = curvature(levi_civita_alpha(dec, MetricOnM(dec, gram)))
    lowered = np.einsum("lijk,lw->ijkw", riem.coeffs, gram)

    # Y0^T Y0 = I, so <II(A, B), II(C, D)> = 1/4 tr(sym(A, B) sym(C, D)), with
    # sym(A, B) = A^T B + B^T A
    products = np.einsum("iab,jac->ijbc", tangents, tangents)
    sym = products + products.transpose(1, 0, 2, 3)
    second = 0.25 * np.einsum("abxy,cdxy->abcd", sym, sym)
    # axes (X, Y, Z, W): <II(X, W), II(Y, Z)> - <II(Y, W), II(X, Z)>
    gauss = second.transpose(0, 2, 3, 1) - second.transpose(2, 0, 3, 1)
    assert np.max(np.abs(lowered - gauss)) <= 1e-13
