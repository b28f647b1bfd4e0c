"""Finite-dimensional Lie algebras and matrix Lie groups.

A Lie algebra is stored through its structure constants ``c[k, i, j]``,
meaning ``[xi_i, xi_j] = sum_k c[k, i, j] xi_k`` in a fixed basis
``xi_1, ..., xi_n``.  Optionally the basis carries a matrix realization,
which unlocks the group-level operations: the matrix exponential and the
adjoint representation ``Ad_g``.

All objects are immutable after construction; every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .reporting import CheckReport, DEFAULT_TOLERANCES, resolve_tolerances

__all__ = [
    "StructuredLieAlgebra",
    "GroupElement",
    "expm",
    "expand_in_matrix_basis",
]

# no registry key: a singularity cut for group elements (inverted later), not a tolerance
DET_FLOOR = 1e-12

# Scaling-and-squaring parameters: scale until the 1-norm is at most 0.5,
# then evaluate a Taylor block of this order.  Remainder < 0.5^13/13! ~ 2e-14.
_EXPM_SERIES_ORDER = 12
_EXPM_NORM_CAP = 0.5


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    ``a`` is one square matrix or a (..., d, d) stack; each matrix of a
    stack is scaled and squared by its own 1-norm.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.maximum(norm1 / _EXPM_NORM_CAP, 1.0))).astype(int)
    b = a / (2.0 ** squarings)[..., None, None]
    eye = np.eye(a.shape[-1])
    out = eye.copy()
    for j in range(_EXPM_SERIES_ORDER, 0, -1):
        out = eye + (b @ out) / j
    for k in range(squarings.max(initial=0)):
        out = np.where((squarings > k)[..., None, None], out @ out, out)
    return out


def expand_in_matrix_basis(
    basis: np.ndarray,
    targets: np.ndarray,
    residual_tol: float = DEFAULT_TOLERANCES["basis_residual"],
    what: str = "matrix",
    strict: bool = True,
):
    """Express matrices as linear combinations of a matrix basis.

    ``basis`` has shape (n, d, d) and ``targets`` (m, d, d) or (d, d).
    Returns the coefficient array of shape (m, n) (or (n,)).  In strict
    mode the least squares residual of each expansion must stay below
    ``residual_tol`` relative to the target scale, otherwise the target
    does not lie in the span and a ValueError is raised.  With
    ``strict=False`` the per-target relative residuals are returned
    alongside the coefficients instead.
    """
    basis = np.asarray(basis, dtype=float)
    targets = np.asarray(targets, dtype=float)
    single = targets.ndim == 2
    if single:
        targets = targets[None]
    n = basis.shape[0]
    mat = basis.reshape(n, -1).T          # (d*d, n)
    rhs = targets.reshape(targets.shape[0], -1).T
    coeffs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid = mat @ coeffs - rhs
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=0))
    worst = np.max(np.abs(resid), axis=0) / scale
    out = coeffs.T
    if not strict:
        return (out[0], worst[0]) if single else (out, worst)
    if np.any(worst > residual_tol):
        k = int(np.argmax(worst))
        raise ValueError(
            f"{what} #{k} is not in the span of the algebra basis "
            f"(residual {worst[k]:.3e} > {residual_tol:.1e})"
        )
    return out[0] if single else out


def _check_vector(coords, dim: int) -> np.ndarray:
    v = np.asarray(coords, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"expected coefficient vector of length {dim}, got shape {v.shape}")
    return v


class StructuredLieAlgebra:
    """A Lie algebra given by structure constants, optionally matrix-realized.

    Construction validates antisymmetry (violations within the
    ``antisymmetry`` tolerance are canonicalized exactly, larger ones
    rejected), the Jacobi identity, and, when a matrix basis is supplied,
    that matrix commutators match the structure constants and that the
    basis matrices are linearly independent, at ``resolve_tolerances(tolerances)``.
    ``reports`` keeps the residuals (antisymmetry measured before the repair).
    ``orthogonal`` holds when every basis matrix is exactly skew, so the
    group lies in O(d): group elements and frames are then gated on their
    orthogonality drift.
    """

    def __init__(self, structure_constants, matrix_basis=None, name: str = "",
                 tolerances=None):
        tols = resolve_tolerances(tolerances)
        c = np.array(structure_constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be a cubic array, got shape {c.shape}")
        n = c.shape[0]

        asym = float(np.max(np.abs(c + np.swapaxes(c, 1, 2)))) if n else 0.0
        if not asym <= tols["antisymmetry"]:       # a NaN fails too
            raise ValueError(
                f"structure constants violate antisymmetry by {asym:.3e} "
                f"(> {tols['antisymmetry']:.1e}); refusing to repair"
            )
        c = 0.5 * (c - np.swapaxes(c, 1, 2))

        # per output index l: t[k, i, j] = sum_m c[l, m, k] c[m, i, j], the l-coordinate
        # of [[xi_i, xi_j], xi_k]; the Jacobi sum is t plus its two cyclic shifts
        jac_max = 0.0
        for c_l in np.swapaxes(c, 1, 2):
            t = np.tensordot(c_l, c, 1)
            jac = t + t.transpose(2, 0, 1)
            jac += t.transpose(1, 2, 0)
            jac_max = float(np.maximum(jac_max, np.max(np.abs(jac))))
        if not jac_max <= tols["jacobi"]:
            raise ValueError(f"Jacobi identity violated: max residual {jac_max:.3e}")
        reports = [CheckReport.from_residual("antisymmetry", asym, tols["antisymmetry"]),
                   CheckReport.from_residual("jacobi", jac_max, tols["jacobi"])]

        self.dim = n
        self.structure_constants = c
        self.name = name or f"lie-algebra(dim={n})"
        self.orthogonal = False
        self.matrix_basis = None
        self.matrix_dim = None

        if matrix_basis is not None:
            basis = np.array(matrix_basis, dtype=float)
            if basis.ndim != 3 or basis.shape[0] != n or basis.shape[1] != basis.shape[2]:
                raise ValueError(
                    f"matrix basis must have shape ({n}, d, d), got {basis.shape}"
                )
            rank = np.linalg.matrix_rank(basis.reshape(n, -1))
            if rank < n:
                raise ValueError("matrix basis is linearly dependent")
            prod = basis[:, None] @ basis          # prod[i, j] = xi_i xi_j
            comm = prod - np.swapaxes(prod, 0, 1)
            model = np.tensordot(c, basis, (0, 0))
            err = float(np.max(np.abs(comm - model)))
            if not err <= tols["commutator_consistency"]:
                raise ValueError(
                    f"matrix commutators disagree with structure constants by {err:.3e}"
                )
            reports.append(CheckReport.from_residual(
                "commutator_consistency", err, tols["commutator_consistency"]))
            self.matrix_basis = basis
            self.matrix_dim = basis.shape[1]
            self.orthogonal = np.array_equal(basis, -basis.swapaxes(1, 2))
        self.reports = tuple(reports)

        for arr in (self.structure_constants, self.matrix_basis):
            if arr is not None:
                arr.setflags(write=False)

    # -- algebra-level operations -------------------------------------------------

    def bracket(self, a, b) -> np.ndarray:
        """Lie bracket [a, b] in basis coordinates."""
        a = _check_vector(a, self.dim)
        b = _check_vector(b, self.dim)
        return np.einsum("kij,i,j->k", self.structure_constants, a, b)

    def ad(self, a) -> np.ndarray:
        """Matrix of ad_a = [a, .] acting on coordinate vectors."""
        a = _check_vector(a, self.dim)
        return np.einsum("kij,i->kj", self.structure_constants, a)

    def matrix(self, a) -> np.ndarray:
        """Matrix realization of a coordinate vector."""
        self._require_matrices()
        a = _check_vector(a, self.dim)
        return np.einsum("i,iab->ab", a, self.matrix_basis)

    # -- group-level operations ---------------------------------------------------

    def group_exp(self, a, t: float = 1.0) -> "GroupElement":
        """Group element exp(t a) from the matrix exponential."""
        self._require_matrices()
        return GroupElement(expm(float(t) * self.matrix(a)), self)

    def adjoint_Ad(self, g: "GroupElement",
                   residual_tol: float = DEFAULT_TOLERANCES["basis_residual"]) -> np.ndarray:
        """Matrix of Ad_g : xi -> g xi g^-1 in the chosen basis.

        Fails if some conjugated basis matrix leaves the span of the
        realized algebra by more than ``residual_tol``, which signals that g
        does not normalize it.
        """
        self._require_matrices()
        mat = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=float)
        ginv = np.linalg.inv(mat)
        conj = mat @ self.matrix_basis @ ginv
        coeffs = expand_in_matrix_basis(
            self.matrix_basis, conj, residual_tol, what="Ad-conjugated basis matrix"
        )
        return coeffs.T  # column i = coords of g xi_i g^-1

    def _require_matrices(self):
        if self.matrix_basis is None:
            raise ValueError(f"{self.name} has no matrix realization")

    def __repr__(self):
        real = f", d={self.matrix_dim}" if self.matrix_basis is not None else ""
        return f"StructuredLieAlgebra({self.name!r}, n={self.dim}{real})"


class GroupElement:
    """An invertible matrix tagged with the algebra whose group it belongs to."""

    def __init__(self, matrix, algebra: StructuredLieAlgebra,
                 drift_tol: float = DEFAULT_TOLERANCES["group_drift"]):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"group element must be a square matrix, got shape {mat.shape}")
        det = np.linalg.det(mat)
        if abs(det) < DET_FLOOR:
            raise ValueError(f"matrix is numerically singular (|det| = {abs(det):.3e})")
        if algebra.orthogonal:
            drift = float(np.max(np.abs(mat.T @ mat - np.eye(mat.shape[0]))))
            if not drift <= drift_tol:
                raise ValueError(
                    f"orthogonality drift {drift:.3e} exceeds {drift_tol:.1e}"
                )
        mat.setflags(write=False)
        self.matrix = mat
        self.algebra = algebra

    def __repr__(self):
        return f"GroupElement(d={self.matrix.shape[0]}, algebra={self.algebra.name!r})"
