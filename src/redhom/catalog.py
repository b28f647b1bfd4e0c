"""Ready-made spaces: rotation groups, the 2-sphere, Stiefel and Grassmann quotients.

Two so(n) conventions coexist here.  ``so_n(n)`` carries the lexicographic
skew basis ``E_ab = e_a e_b^T - e_b e_a^T`` (a < b), which scales to any n
and is orthonormal for the bi-invariant product <X, Y> = tr(X^T Y)/2.
``so3()`` carries the familiar rotation generators L1, L2, L3 about the
coordinate axes with the cyclic table [L1, L2] = L3 etc., matching the
cross-product picture used in the rigid-body example.  Both give only the
matrices: the algebra reads the structure constants off their commutators
through its dual basis, exactly, since each commutator is a signed basis
matrix and the basis is orthogonal under the Frobenius product.

Each constructor returns a space's geometry: algebra, decomposition,
metric and name.  An alpha, which fixes the invariant covariant derivative,
is chosen separately and built by :mod:`~redhom.connection`
(``canonical_first(space.dec)``, ``levi_civita_alpha(space.dec, space.metric)``).

Every bundle constructed here passes the gates of the constructors it is
built from (algebra, decomposition, metric), and the tests hold every
catalog space with each of its usual alphas to a fully passing
:func:`diagnostic_battery`; a catalog constructor returning an invalid
space is a bug, not a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructuredLieAlgebra
from .connection import (
    AlphaMap,
    curvature_h_leak_note,
    is_metric,
    naturally_reductive_check,
    torsion,
)
from .reductive import (
    MetricOnM,
    ReductiveDecomposition,
    build_decomposition,
    normal_decomposition,
    symmetric_decomposition,
)
from .reporting import CheckReport, resolve_tolerances

__all__ = [
    "SpaceBundle",
    "so_n",
    "so3",
    "sphere2",
    "stiefel",
    "grassmann_like",
    "group_as_space",
    "diagnostic_battery",
]


@dataclass
class SpaceBundle:
    """A validated decomposition and an optional metric on m; the algebra is ``dec.algebra``."""

    dec: ReductiveDecomposition
    metric: MetricOnM | None
    name: str = ""


def _pair_index(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def so_n(n: int) -> StructuredLieAlgebra:
    """Skew-symmetric matrices with the lexicographic E_ab basis (a < b)."""
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    pairs = _pair_index(n)
    basis = np.zeros((len(pairs), n, n))
    for idx, (a, b) in enumerate(pairs):
        basis[idx, a, b] = 1.0
        basis[idx, b, a] = -1.0
    return StructuredLieAlgebra(None, basis, name=f"so({n})")


def so3() -> StructuredLieAlgebra:
    """so(3) in the rotation-generator basis: [L1, L2] = L3 cyclically."""
    l1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    l2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    l3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return StructuredLieAlgebra(None, np.array([l1, l2, l3]), name="so(3)")


def sphere2() -> SpaceBundle:
    """The round 2-sphere as the rotation group modulo rotations about one axis.

    h = span(L3), m = span(L1, L2); the split is the canonical one of the
    symmetric pair given by conjugation with diag(-1, -1, 1), so [m, m] lies
    in h and the first canonical derivative (equal to Levi-Civita for the
    round metric) has vanishing coefficients.
    """
    alg = so3()
    dec = build_decomposition(alg, h_basis=[[0.0, 0.0, 1.0]],
                              m_basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SpaceBundle(dec=dec, metric=MetricOnM(dec, np.eye(2)), name="sphere2")


def biinvariant_gram(algebra: StructuredLieAlgebra) -> np.ndarray:
    """Gram matrix of <X, Y> = tr(X^T Y)/2 on the realized basis."""
    algebra._require_matrices()
    b = algebra.matrix_basis
    return 0.5 * np.einsum("iab,jab->ij", b, b)


def stiefel(n: int, k: int) -> SpaceBundle:
    """SO(n)/SO(n-k) with the normal metric from the bi-invariant product.

    The subgroup is the lower-right SO(n-k) block; m is its orthogonal
    complement, and the restricted metric makes the space naturally
    reductive, so the first canonical and Levi-Civita derivatives agree.
    """
    if not 1 <= k < n:
        raise ValueError("stiefel(n, k) needs 1 <= k < n")
    alg = so_n(n)
    pairs = _pair_index(n)
    h_rows = [i for i, (a, b) in enumerate(pairs) if a >= k and b >= k]
    h_basis = np.eye(alg.dim)[h_rows]
    dec, metric = normal_decomposition(alg, biinvariant_gram(alg), h_basis)
    return SpaceBundle(dec=dec, metric=metric, name=f"stiefel({n},{k})")


def grassmann_like(n: int, k: int) -> SpaceBundle:
    """The symmetric quotient of SO(n) fixed by conjugation with diag(I_k, -I_{n-k}).

    h is the block algebra so(k) + so(n-k), m the off-diagonal block of
    dimension k(n-k); both canonical derivatives vanish.  The quotient by
    the center is not modeled; all computation lives on the pair.
    """
    if not 1 <= k < n:
        raise ValueError("grassmann_like(n, k) needs 1 <= k < n")
    alg = so_n(n)
    pairs = _pair_index(n)
    # conjugation by diag(I_k, -I_{n-k}) fixes same-block E_ab, flips crossing ones
    signs = np.array([1.0 if (a < k) == (b < k) else -1.0 for a, b in pairs])
    sigma = np.diag(signs)
    dec = symmetric_decomposition(alg, sigma)
    metric = MetricOnM(dec, dec.m_basis @ biinvariant_gram(alg) @ dec.m_basis.T)
    return SpaceBundle(dec=dec, metric=metric, name=f"grassmann({n},{k})")


def group_as_space(algebra: StructuredLieAlgebra, gram=None, name: str = "") -> SpaceBundle:
    """A Lie group viewed as the quotient by the trivial subgroup.

    h = {0}, m = g, every projection is the identity, and any scalar
    product is invariant since there is no isotropy to respect.
    """
    dec = build_decomposition(algebra, h_basis=[], m_basis=np.eye(algebra.dim))
    return SpaceBundle(dec=dec, metric=MetricOnM(dec, gram) if gram is not None else None,
                       name=name or f"{algebra.name}/{{e}}")


# -- diagnostic battery -------------------------------------------------------------


def diagnostic_battery(bundle: SpaceBundle, alpha: AlphaMap,
                       tolerances=None) -> list[CheckReport]:
    """Collect the construction-level checks of a bundle and one alpha on it.

    Residuals the constructors measured (algebra, decomposition, metric
    and alpha invariance, and the decomposition's ``curvature_h_leak``,
    which decides whether the curvature tensor assembles) are only
    collected and judged here against ``resolve_tolerances(tolerances)``;
    no curvature tensor is assembled.  Only torsion-freeness and the
    informational checks (natural reductivity, is_metric) are computed.
    ``alpha`` must be built on ``bundle.dec``.
    """
    dec = bundle.dec
    if alpha.dec is not dec:
        raise ValueError("alpha and bundle use different decompositions")
    tols = resolve_tolerances(tolerances)
    reports = [r.judged(tols) for r in (*dec.algebra.reports, *dec.reports)]

    if bundle.metric is not None:
        reports.append(bundle.metric.invariance.judged(tols))
        reports.append(naturally_reductive_check(dec, bundle.metric,
                                                 tol=tols["naturally_reductive"]))

    rep = alpha.invariance.judged(tols)
    rep.check = f"alpha_invariance[{alpha.label}]"
    rep.tainted = not alpha.checked
    reports.append(rep)
    # the curvature tensor assembles exactly when the decomposition's h-leak passes
    note = curvature_h_leak_note(dec, tols["curvature_h_leak"])
    reports.append(CheckReport.from_residual(
        f"tensor_assembly[{alpha.label}]", float("inf") if note else 0.0,
        tols["curvature_h_leak"], note=note))
    if alpha.label == "canonical_first":
        tor = torsion(alpha).coeffs
        # the torsion of (1/2)[X, Y]_m is the antisymmetry defect of the m-bracket table
        reports.append(CheckReport.from_residual(
            "torsion_free[canonical_first]",
            float(np.max(np.abs(tor))) if tor.size else 0.0, tols["antisymmetry"],
            key="antisymmetry"))
    if bundle.metric is not None:
        reports.append(is_metric(alpha, bundle.metric, tol=tols["is_metric"]))

    return reports
