"""Finite-dimensional Lie algebras and matrix Lie groups.

A Lie algebra is stored through its structure constants ``c[k, i, j]``,
meaning ``[xi_i, xi_j] = sum_k c[k, i, j] xi_k`` in a fixed basis
``xi_1, ..., xi_n``.  Optionally the basis carries a matrix realization,
which unlocks the adjoint representation ``Ad_g`` of group elements.  A
realized algebra caches the Frobenius dual of its basis, and that dual
basis is the one place where matrices become coordinates: the structure
constants when only matrices are given, Ad_g, and every expansion through
:func:`expand_in_matrix_basis`.

All objects are immutable after construction; every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math

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
# Largest block of a stack exponentiated at once, in float64 values (64 KiB).
_EXPM_BLOCK_VALUES = 2 ** 13


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    ``a`` is one square matrix or a (..., d, d) stack; each matrix of a
    stack is scaled and squared by its own 1-norm, a block of at most
    ``_EXPM_BLOCK_VALUES`` values at a time, so that the five or so
    temporaries of one block stay small however large the stack.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    d = a.shape[-1]
    stack = a.reshape(math.prod(a.shape[:-2]), d, d)
    out = np.empty_like(stack)
    size = max(1, _EXPM_BLOCK_VALUES // max(d * d, 1))
    for i in range(0, len(stack), size):
        out[i:i + size] = _expm_block(stack[i:i + size])
    return out.reshape(a.shape)


def _expm_block(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (B, d, d) stack, each scaled by its own 1-norm."""
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


def expand_in_matrix_basis(algebra: "StructuredLieAlgebra", targets: np.ndarray):
    """Coordinates of matrices in the realized basis of ``algebra``.

    ``targets`` is one (d, d) matrix or a (..., d, d) stack.  The
    coordinates are the Frobenius products with the algebra's cached dual
    basis, which recover the coordinates of any matrix in the span.
    Returns ``(coeffs (..., n), residual (...))``, where ``residual`` is the
    largest entry of target minus its expansion over ``max(1, largest
    |target| entry)``: a matrix off the span is reported, not rejected.
    """
    algebra._require_matrices()
    targets = np.asarray(targets, dtype=float)
    coeffs = np.tensordot(targets, algebra.dual_basis, ((-2, -1), (1, 2)))
    resid = np.tensordot(coeffs, algebra.matrix_basis, 1) - targets
    scale = np.maximum(1.0, np.max(np.abs(targets), axis=(-2, -1)))
    return coeffs, np.max(np.abs(resid), axis=(-2, -1)) / scale


class StructuredLieAlgebra:
    """A Lie algebra given by structure constants, optionally matrix-realized.

    It holds validated tables, not per-vector operations: callers contract
    ``structure_constants`` for brackets, and ``adjoint_Ad`` needs the
    realization.  With a matrix basis the structure constants may be omitted
    (``None``): they are then read off the basis commutators through the
    Frobenius dual basis ``(B B^T)^-1 B``, which the algebra caches as
    ``dual_basis`` and :func:`expand_in_matrix_basis` uses for every
    matrix-to-coordinates expansion.  Construction validates antisymmetry
    (violations within the ``antisymmetry`` tolerance are canonicalized
    exactly, larger ones rejected), when a matrix basis is supplied that
    the basis matrices are linearly independent and that their commutators
    match the structure constants (for derived constants: that the
    commutators stay in the span), and the Jacobi identity, at
    ``resolve_tolerances(tolerances)``.  ``reports`` keeps the residuals
    (antisymmetry measured before the repair).  ``orthogonal`` holds when
    every basis matrix is exactly skew, so the group lies in O(d): group
    elements and frames are then gated on their orthogonality drift.
    """

    def __init__(self, structure_constants, matrix_basis=None, name: str = "",
                 tolerances=None):
        tols = resolve_tolerances(tolerances)
        derived = structure_constants is None
        if derived and matrix_basis is None:
            raise ValueError("an algebra needs structure constants or a matrix basis")
        c = None if derived else np.array(structure_constants, dtype=float)
        if not derived and (c.ndim != 3 or len(set(c.shape)) != 1):
            raise ValueError(f"structure constants must be a cubic array, got shape {c.shape}")
        basis = dual = None
        if matrix_basis is not None:
            basis = np.array(matrix_basis, dtype=float)
            if basis.ndim != 3 or basis.shape[1] != basis.shape[2] or (
                    not derived and len(basis) != len(c)):
                raise ValueError(f"matrix basis must have shape "
                                 f"({'n' if derived else len(c)}, d, d), got {basis.shape}")
            flat = basis.reshape(len(basis), -1)
            if np.linalg.matrix_rank(flat) < len(basis):
                raise ValueError("matrix basis is linearly dependent")
            dual = np.linalg.solve(flat @ flat.T, flat).reshape(basis.shape)
            prod = basis[:, None] @ basis          # prod[i, j] = xi_i xi_j
            comm = prod - np.swapaxes(prod, 0, 1)
            if derived:                            # c[k, i, j]: xi_k-coordinate of comm[i, j]
                c = np.tensordot(dual, comm, ((1, 2), (2, 3)))
        n = c.shape[0]

        asym = float(np.max(np.abs(c + np.swapaxes(c, 1, 2)))) if n else 0.0
        if not asym <= tols["antisymmetry"]:       # a NaN fails too
            raise ValueError(
                f"structure constants violate antisymmetry by {asym:.3e} "
                f"(> {tols['antisymmetry']:.1e}); refusing to repair"
            )
        c = 0.5 * (c - np.swapaxes(c, 1, 2))
        reports = [CheckReport.from_residual("antisymmetry", asym, tols["antisymmetry"])]
        if basis is not None:      # before Jacobi: constants read off a non-closed basis fail here
            err = float(np.max(np.abs(comm - np.tensordot(c, basis, (0, 0)))))
            if not err <= tols["commutator_consistency"]:
                what = "leave the span of the basis" if derived else \
                    "disagree with structure constants"
                raise ValueError(f"matrix commutators {what} by {err:.3e}")

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
        reports.append(CheckReport.from_residual("jacobi", jac_max, tols["jacobi"]))

        self.dim = n
        self.structure_constants = c
        self.name = name or f"lie-algebra(dim={n})"
        self.orthogonal = False
        self.matrix_basis = basis
        self.dual_basis = dual
        self.matrix_dim = None
        if basis is not None:
            reports.append(CheckReport.from_residual(
                "commutator_consistency", err, tols["commutator_consistency"]))
            self.matrix_dim = basis.shape[1]
            self.orthogonal = np.array_equal(basis, -basis.swapaxes(1, 2))
        self.reports = tuple(reports)

        for arr in (self.structure_constants, self.matrix_basis, self.dual_basis):
            if arr is not None:
                arr.setflags(write=False)

    def adjoint_Ad(self, g: "GroupElement",
                   residual_tol: float = DEFAULT_TOLERANCES["basis_residual"]) -> np.ndarray:
        """Matrix of Ad_g : xi -> g xi g^-1 in the chosen basis.

        Fails if some conjugated basis matrix leaves the span of the
        realized algebra by more than ``residual_tol``, which signals that g
        does not normalize it.
        """
        self._require_matrices()
        mat = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=float)
        coeffs, resid = expand_in_matrix_basis(self, mat @ self.matrix_basis @ np.linalg.inv(mat))
        if not np.all(resid <= residual_tol):      # a NaN fails too
            k = int(np.argmax(resid))
            raise ValueError(
                f"Ad-conjugated basis matrix #{k} is not in the span of the algebra basis "
                f"(residual {resid[k]:.3e} > {residual_tol:.1e})"
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
