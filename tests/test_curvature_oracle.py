"""O'Neill's formula: a closed form for the curvature of a normal homogeneous space.

Every catalog metric is the bi-invariant B(X, Y) = tr(X^T Y)/2 of so(n)
restricted to m.  For B-orthonormal X and Y in m the sectional curvature
of its Levi-Civita derivative is

    K(X, Y) = 1/4 |[X, Y]_m|^2 + |[X, Y]_h|^2

(O'Neill, Michigan Math. J. 13, 1966).  The right side is formed from
matrix commutators here: ``m_matrix`` realizes X and Y, and
``split_matrices`` gives the m-part of [X, Y]; its h-part is the rest.
Neither alpha, nor the bracket tables, nor the metric's gram enters it.
"""

import numpy as np
import pytest

from redhom import catalog
from redhom.connection import curvature, levi_civita_alpha, sectional_curvature

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
