"""Invariant covariant derivatives as coefficient data on m.

An invariant covariant derivative on the quotient is determined by a
bilinear map ``alpha: m x m -> m`` commuting with the isotropy action.  We
store alpha as a rank-3 coefficient array ``a[k, i, j]`` over the chosen
m-basis, i.e. ``alpha(A_i, A_j) = sum_k a[k, i, j] A_k``.  Everything else
in this module (torsion, curvature, metric diagnostics) is a contraction
of that array with the bracket tables cached on the decomposition.

Conventions, with all vectors in m-coordinates:

* value at the base point:   ``-[X, Y]_m + alpha(X, Y)``
* torsion:                   ``alpha(X, Y) - alpha(Y, X) - [X, Y]_m``
* curvature:                 ``alpha(X, alpha(Y, Z)) - [[X, Y]_h, Z]
  - alpha([X, Y]_m, Z) - alpha(Y, alpha(X, Z))``
* metric compatibility:      ``alpha(X, .)`` skew-adjoint for every X
* Levi-Civita:               ``alpha = 1/2 [X, Y]_m + U`` with
  ``2 <U(X,Y), Z> = <[Z,X]_m, Y> + <X, [Z,Y]_m>``

Metric compatibility, natural reductivity and metric invariance each ask a
stack of maps L to be g-skew; :func:`~redhom.reductive.skewness` measures all three.
``basis_sectional_curvatures`` reads the sectional curvature of every basis
plane off the curvature array; ``sectional_curvature`` takes any one plane.
"""

from __future__ import annotations

import numpy as np

from .reductive import (MetricOnM, ReductiveDecomposition, check_ad_H_invariance_bilinear,
                        skewness)
from .reporting import CheckReport, DEFAULT_TOLERANCES, resolve_tolerances

__all__ = [
    "AlphaMap",
    "TensorAtOrigin",
    "canonical_first",
    "canonical_second",
    "levi_civita_alpha",
    "torsion",
    "curvature",
    "curvature_h_leak_note",
    "naturally_reductive_check",
    "is_metric",
    "sectional_curvature",
    "basis_sectional_curvatures",
]

LABELS = ("explicit", "canonical_first", "canonical_second", "levi_civita")


class AlphaMap:
    """Coefficient model of an isotropy-invariant bilinear map on m.

    Invariance is enforced at construction, against the ``invariance``
    entry of ``resolve_tolerances(tolerances)``, unless ``unchecked=True``
    is passed, in which case the map is marked tainted and every downstream
    report says so (a non-invariant alpha does not define a connection on
    the quotient; integrating with one is exploratory only).  Either way
    the residual is kept as the ``invariance`` report.
    """

    def __init__(self, dec: ReductiveDecomposition, coeffs, label: str = "explicit",
                 unchecked: bool = False, tolerances=None):
        if label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (dec.N, dec.N, dec.N):
            raise ValueError(
                f"alpha coefficients must have shape ({dec.N},) * 3, got {coeffs.shape}"
            )
        report = check_ad_H_invariance_bilinear(
            dec, coeffs, tol=resolve_tolerances(tolerances)["invariance"])
        if not unchecked and not report.passed:
            raise ValueError(
                "bilinear map is not Ad(H)-invariant "
                f"(residual {report.max_residual:.3e} > {report.tolerance:.1e})"
            )
        coeffs.setflags(write=False)
        self.invariance = report
        self.dec = dec
        self.coeffs = coeffs
        self.label = label
        self.checked = not unchecked

    def __call__(self, x, y) -> np.ndarray:
        """Evaluate alpha(X, Y) in m-coordinates."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dec.N,) or y.shape != (self.dec.N,):
            raise ValueError(f"expected m-coordinate vectors of length {self.dec.N}")
        return np.einsum("kij,i,j->k", self.coeffs, x, y)

    def __repr__(self):
        taint = "" if self.checked else ", unchecked"
        return f"AlphaMap({self.label}, N={self.dec.N}{taint})"


class TensorAtOrigin:
    """Torsion (rank 3) or curvature (rank 4) coefficients on the m-basis."""

    def __init__(self, kind: str, coeffs: np.ndarray, tainted: bool = False):
        if kind not in ("torsion", "curvature"):
            raise ValueError("kind must be 'torsion' or 'curvature'")
        coeffs = np.asarray(coeffs, dtype=float)
        coeffs.setflags(write=False)
        self.kind = kind
        self.coeffs = coeffs
        self.tainted = tainted

    def __call__(self, *vectors) -> np.ndarray:
        want = self.coeffs.ndim - 1
        if len(vectors) != want:
            raise ValueError(f"{self.kind} tensor takes {want} vectors")
        out = self.coeffs
        for v in vectors:
            out = np.tensordot(out, np.asarray(v, dtype=float), axes=([1], [0]))
        return out

    def __repr__(self):
        return f"TensorAtOrigin({self.kind}, shape={self.coeffs.shape})"


def canonical_first(dec: ReductiveDecomposition, unchecked: bool = False,
                    tolerances=None) -> AlphaMap:
    """alpha(X, Y) = 1/2 [X, Y]_m: the torsion-free canonical derivative."""
    return AlphaMap(dec, 0.5 * dec.m_bracket_tensor, label="canonical_first",
                    unchecked=unchecked, tolerances=tolerances)


def canonical_second(dec: ReductiveDecomposition) -> AlphaMap:
    """alpha = 0: one-parameter curves are geodesics and frames are parallel."""
    return AlphaMap(dec, np.zeros((dec.N,) * 3), label="canonical_second")


def levi_civita_alpha(dec: ReductiveDecomposition, metric: MetricOnM,
                      unchecked: bool = False, tolerances=None) -> AlphaMap:
    """alpha of the Levi-Civita derivative of an invariant metric.

    For each basis pair the symmetric part U solves ``2 G u = r`` with
    ``r_l = <[A_l, A_i]_m, A_j> + <A_i, [A_l, A_j]_m>``; the gram matrix is
    factored once and reused for all N^2 right-hand sides.  The gate reads
    the residual the metric measured at construction, ``metric.invariance``,
    judged at the ``metric_invariance`` tolerance: a metric failing it is
    rejected unless ``unchecked=True``, which yields a tainted map (the
    formula still defines the Levi-Civita derivative at the base point, but
    not an invariant one).  ``metric`` must be a metric on ``dec``.
    """
    if metric.dec is not dec:
        raise ValueError("metric and alpha use different decompositions")
    tols = resolve_tolerances(tolerances)
    if not unchecked:
        report = metric.invariance.judged(tols)
        if not report.passed:
            raise ValueError(
                f"metric is not Ad(H)-invariant (residual {report.max_residual:.3e}); "
                "its Levi-Civita derivative is not invariant"
            )
    g = metric.gram
    b = dec.m_bracket_tensor
    n = dec.N
    # r[l, i, j] = <[A_l, A_i]_m, A_j> + <A_i, [A_l, A_j]_m>
    r = np.einsum("kli,kj->lij", b, g) + np.einsum("klj,ki->lij", b, g)
    u = np.linalg.solve(2.0 * g, r.reshape(n, n * n)).reshape(n, n, n)
    return AlphaMap(dec, 0.5 * b + u, label="levi_civita", unchecked=unchecked,
                    tolerances=tols)


def torsion(alpha: AlphaMap) -> TensorAtOrigin:
    """Torsion tensor; exactly antisymmetric in its two inputs by construction."""
    a = alpha.coeffs
    t = a - np.swapaxes(a, 1, 2) - alpha.dec.m_bracket_tensor
    return TensorAtOrigin("torsion", t, tainted=not alpha.checked)


def curvature_h_leak_note(dec: ReductiveDecomposition, tol: float) -> str:
    """Why the curvature tensor on ``dec`` does not assemble at ``tol``, or ``""``.

    It does not when ``dec.curvature_h_leak``, the h-part of [[X, Y]_h, Z],
    exceeds ``tol`` (a NaN leak exceeds every tolerance).
    """
    leak = dec.curvature_h_leak
    if leak <= tol:
        return ""
    return f"[[X, Y]_h, Z] leaves m by {leak:.3e}; decomposition is inconsistent"


def curvature(alpha: AlphaMap,
              tol: float = DEFAULT_TOLERANCES["curvature_h_leak"]) -> TensorAtOrigin:
    """Curvature tensor R[l, i, j, k] = coords of R(A_i, A_j) A_k.

    The term [[X, Y]_h, Z] is a full-algebra bracket; reductivity guarantees
    it lands in m.  That is asserted rather than silently projected away:
    the decomposition's ``curvature_h_leak`` must be at most ``tol``, else
    ValueError (see :func:`curvature_h_leak_note`).
    """
    dec = alpha.dec
    a = alpha.coeffs
    note = curvature_h_leak_note(dec, tol)
    if note:
        raise ValueError(note)

    # alpha(A_i, alpha(A_j, A_k)); its (i, j) swap is alpha(A_j, alpha(A_i, A_k))
    term1 = np.tensordot(a, a, 1)
    term4 = term1.swapaxes(1, 2)
    # alpha([A_i, A_j]_m, A_k); the product has axes (l, k, i, j)
    term3 = np.tensordot(a, dec.m_bracket_tensor, (1, 0)).transpose(0, 2, 3, 1)
    # m-coordinates of [[A_i, A_j]_h, A_k] = sum_r ([A_i, A_j]_h)^r [eta_r, A_k];
    # the product has axes (l, k, i, j)
    term2 = np.tensordot(dec._h_m_bracket[dec.q:], dec._m_pair_bracket_h,
                         (1, 0)).transpose(0, 2, 3, 1)

    r = term1 - term2 - term3 - term4
    return TensorAtOrigin("curvature", r, tainted=not alpha.checked)


def _worst_triple(diff, tol):
    """Largest entry of a residual over basis triples, and its triple as the witness
    when it is over ``tol``: (worst, witnesses)."""
    worst = float(np.max(diff)) if diff.size else 0.0
    witnesses = []
    if diff.size and worst > tol:
        i, j, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        witnesses = [{"triple": [int(i), int(j), int(k)], "residual": worst}]
    return worst, witnesses


def naturally_reductive_check(dec: ReductiveDecomposition, metric: MetricOnM,
                              tol: float = DEFAULT_TOLERANCES["naturally_reductive"]
                              ) -> CheckReport:
    """Residual of <[X, Y]_m, Z> = <X, [Y, Z]_m>: ad_m(A_j) g-skew, at each (i, j, k)."""
    res = skewness(dec.m_bracket_tensor.transpose(1, 0, 2), metric.gram)
    worst, witnesses = _worst_triple(np.abs(res).transpose(1, 0, 2), tol)
    return CheckReport.from_residual(
        "naturally_reductive", worst, tol, witnesses=witnesses, mandatory=False
    )


def is_metric(alpha: AlphaMap, metric: MetricOnM,
              tol: float = DEFAULT_TOLERANCES["is_metric"]) -> CheckReport:
    """Residual of <alpha(X, Y), Z> = -<Y, alpha(X, Z)>: alpha(A_i, .) g-skew, at (i, j, l)."""
    res = skewness(alpha.coeffs.transpose(1, 0, 2), metric.gram)
    worst, witnesses = _worst_triple(np.abs(res), tol)
    return CheckReport.from_residual(
        "is_metric", worst, tol, witnesses=witnesses, mandatory=False,
        tainted=not alpha.checked,
    )


def sectional_curvature(riem: TensorAtOrigin, metric: MetricOnM, x, y) -> float:
    """<R(X, Y)Y, X> of the curvature tensor ``riem``, normalized by the gram area
    of the (X, Y) plane.

    Indefinite metrics make some planes null; a denominator below 1e-12 is
    refused instead of divided by.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = metric.gram
    denom = (x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2
    # no registry key: a singularity cut on the division below, not a tolerance
    if abs(denom) < 1e-12:
        raise ValueError(f"degenerate plane: gram area {denom:.3e} below 1e-12")
    num = riem(x, y, y) @ g @ x
    return float(num / denom)


def basis_sectional_curvatures(riem: TensorAtOrigin, metric: MetricOnM) -> list:
    """``(i, j, K)`` for each basis plane (A_i, A_j), i < j, in row-major order.

    K is ``sectional_curvature(riem, metric, A_i, A_j)`` to the bit, or None where
    that refuses a degenerate plane.  The numerators <R(A_i, A_j)A_j, A_i> come
    from one matmul of the stacked rows ``R[:, i, j, j]`` by the gram, each row a
    vector of its own: one matrix product would sum in another order.
    """
    g = metric.gram
    i, j = np.triu_indices(len(g), 1)
    num = (riem.coeffs[:, i, j, j].T[:, None] @ g)[np.arange(len(i)), 0, i]
    denom = g[i, i] * g[j, j] - g[i, j] ** 2
    # no registry key: the singularity cut of sectional_curvature
    return [(a, b, None if abs(d) < 1e-12 else float(n / d))
            for a, b, n, d in zip(i.tolist(), j.tolist(), num, denom)]
