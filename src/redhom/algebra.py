"""Finite-dimensional Lie algebras and matrix Lie groups.

A Lie algebra is stored through its structure constants ``c[k, i, j]``,
meaning ``[xi_i, xi_j] = sum_k c[k, i, j] xi_k`` in a fixed basis
``xi_1, ..., xi_n``.  Optionally the basis carries a matrix realization,
which unlocks the adjoint representation ``Ad_g`` of group elements.  A
realized algebra caches the Frobenius dual of its basis, and that dual
basis is the one place where matrices become coordinates: the structure
constants when only matrices are given, Ad_g, and every expansion through
:func:`expand_in_matrix_basis`.

Construction never holds the whole (n, n, d, d) table of basis
commutators: it reads the constants off the commutators, and measures how
far the commutators are from the constants, a block of basis rows at a
time.  The Jacobi identity is checked exactly, by one of two paths that
differ only in the order of their sums.  The dense loop costs about n^5
multiply-adds, zero or not; the support path sums only the nonzero
products of the constants, which for so(8) are 4032 of the 28^5 = 17.2
million.  The constructor picks the path it estimates cheaper from n and
the number of nonzero products, so so(n) takes the support path and dense
constants the dense loop.

All objects are immutable after construction; every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .reporting import CheckReport, DEFAULT_TOLERANCES, resolve_tolerances

__all__ = [
    "StructuredLieAlgebra",
    "expm",
    "expand_in_matrix_basis",
]

# no registry key: the singularity cut of every group matrix (inverted later), not a tolerance
DET_FLOOR = 1e-12

# Scaling-and-squaring parameters: scale until the 1-norm is at most 0.5, then sum
# the Taylor series of each block to the smallest degree m <= 12 whose remainder
# bound theta^(m+1)/(m+1)! is at most 2^-64, theta the block's largest scaled
# 1-norm; _EXPM_DEGREE_NORMS[m] is the largest theta degree m takes.  At the cap the
# degree is 12 and the remainder < 0.5^13/13! ~ 2e-14; a Magnus step (theta ~ 3e-3)
# takes degree 6.
_EXPM_SERIES_ORDER = 12
_EXPM_NORM_CAP = 0.5
_EXPM_DEGREE_NORMS = np.array([(2.0 ** -64 * math.factorial(m + 1)) ** (1.0 / (m + 1))
                               for m in range(_EXPM_SERIES_ORDER)])
# Largest block of a stack exponentiated at once, in float64 values (64 KiB).
_EXPM_BLOCK_VALUES = 2 ** 13
# Largest block of basis commutators, or of Jacobi slot values, formed at once (128 KiB).
_BLOCK_VALUES = 2 ** 14
# Cost model that picks the Jacobi path, in µs, fitted with one BLAS thread on a
# 2-vCPU x86_64 host: the dense loop costs about this per output index l and per
# multiply-add (n^5 in all), the support path about this per call and per nonzero
# product.  so(3) (12 products) and dense 3-dimensional constants (108) fall on either
# side; at that size both paths take 50-70 µs.
_DENSE_SLICE_US, _DENSE_MADD_US = 22.0, 9e-5
_SUPPORT_CALL_US, _SUPPORT_TERM_US = 60.0, 0.15


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
    """exp of each matrix of a (B, d, d) stack, each scaled by its own 1-norm, the
    Taylor series summed to the one degree the largest scaled norm needs."""
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.maximum(norm1 / _EXPM_NORM_CAP, 1.0))).astype(int)
    scale = 2.0 ** squarings
    b = a / scale[..., None, None]
    degree = int(np.searchsorted(_EXPM_DEGREE_NORMS, np.max(norm1 / scale, initial=0.0)))
    eye = np.eye(a.shape[-1])
    out = eye.copy()
    for j in range(degree, 0, -1):
        out = b @ out
        out /= j
        out += eye
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


def _commutator_residual(basis, c, dual=None):
    """Largest |[xi_i, xi_j] - sum_k c[k, i, j] xi_k|, formed a block of rows i at a time.

    Each block holds at most ``_BLOCK_VALUES`` commutator values (one row if
    a row is larger), never the whole (n, n, d, d) table.  With ``dual``, the
    rows of ``c`` are first written with the dual-basis coordinates of the
    block's commutators, and the residual is how far those leave the span.
    Every commutator keeps its bits.  The contractions are those of the
    full table split by rows, and BLAS may sum a split product in another
    order: the constants and residual keep their bits when the table fits
    one block (n d <= 128) or every sum is exact, as for so(n).
    """
    n, d = len(basis), basis.shape[1]
    rows = max(1, _BLOCK_VALUES // max(n * d * d, 1))
    err = 0.0
    for i in range(0, n, rows):
        block = basis[i:i + rows, None]
        comm = block @ basis                     # comm[r, j] = [xi_{i+r}, xi_j]
        comm -= basis @ block
        if dual is not None:
            c[:, i:i + rows] = np.tensordot(dual, comm, ((1, 2), (2, 3)))
        comm -= np.tensordot(c[:, i:i + rows], basis, (0, 0))
        err = np.maximum(err, np.abs(comm, out=comm).max())
    return float(err)


def _support_is_cheaper(n, terms_per_l):
    """Whether ``_jacobi_support`` is estimated faster than ``_jacobi_dense``.

    It also needs every l's terms to fit one block.  Pure in (n, counts): the
    same constants always take the same path.
    """
    terms = int(terms_per_l.sum())
    if terms and terms_per_l.max() > _BLOCK_VALUES // 3:
        return False
    support_us = _SUPPORT_CALL_US + terms * _SUPPORT_TERM_US if terms else 0.0
    return support_us < n * _DENSE_SLICE_US + n ** 5 * _DENSE_MADD_US


def _jacobi_dense(c):
    """Largest |Jacobi sum| over all indices, one output index l at a time.

    For each l, ``t[k, i, j] = sum_m c[l, m, k] c[m, i, j]`` is the
    l-coordinate of [[xi_i, xi_j], xi_k], and the Jacobi sum is t plus its
    two cyclic shifts: about n^5 multiply-adds, nonzero or not.
    """
    jac_max = 0.0
    for c_l in np.swapaxes(c, 1, 2):
        t = np.tensordot(c_l, c, 1)
        jac = t + t.transpose(2, 0, 1)
        jac += t.transpose(1, 2, 0)
        jac_max = float(np.maximum(jac_max, np.max(np.abs(jac))))
    return jac_max


def _jacobi_support(c, terms_per_l):
    """The same residual as ``_jacobi_dense``, summed over the nonzero products only.

    The nonzeros of c, in (l, m, k) order, serve both as the factors
    c[l, m, k] and, grouped by their first index, as the factors c[m, i, j].
    Each product c[l, m, k] c[m, i, j] is added to its three cyclic slots
    (l; k, i, j), (l; j, k, i) and (l; i, j, k); the slot sums are found by
    sorting the slot keys.  A block of whole output indices l is formed at a
    time, at most ``_BLOCK_VALUES`` slot values, and since every slot keeps
    its term's l, no sum crosses a block.  On integer constants, such as
    so(n)'s, every sum is exact; elsewhere the sums run in another order than
    the dense loop's, and the residual may differ in its last bits.
    """
    n = len(c)
    l, m, k = np.nonzero(c)
    val = c[l, m, k]
    start = np.zeros(n + 1, dtype=np.intp)       # the nonzeros of c[m] are start[m]:start[m + 1]
    np.cumsum(np.bincount(l, minlength=n), out=start[1:])
    partners = start[m + 1] - start[m]           # terms of each nonzero as the factor c[l, m, k]
    counts, cap = terms_per_l.tolist(), _BLOCK_VALUES // 3      # a term fills three slots
    jac_max = 0.0
    l0 = 0
    while l0 < n:
        l1, count = l0 + 1, counts[l0]
        while l1 < n and count + counts[l1] <= cap:
            count += counts[l1]
            l1 += 1
        e0, e1 = start[l0], start[l1]
        l0 = l1
        if not count:
            continue
        reps = partners[e0:e1]
        # per term, the nonzero a is its factor c[l, m, k] and the nonzero b its c[m, i, j]
        a = np.repeat(np.arange(e0, e1), reps)
        b = np.arange(count) + np.repeat(start[m[e0:e1]] - (np.cumsum(reps) - reps), reps)
        terms = val[a] * val[b]
        ll, kk, ii, jj = l[a] * n, k[a], m[b], k[b]
        keys = np.empty((3, count), dtype=np.int64)
        keys[0] = ((ll + kk) * n + ii) * n + jj
        keys[1] = ((ll + jj) * n + kk) * n + ii
        keys[2] = ((ll + ii) * n + jj) * n + kk
        order = keys.ravel().argsort()
        slots = keys.ravel()[order]
        first = np.flatnonzero(np.concatenate(([True], slots[1:] != slots[:-1])))
        sums = np.add.reduceat(terms[order % count], first)
        jac_max = float(np.maximum(jac_max, np.max(np.abs(sums))))
    return jac_max


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

    The basis commutators are formed a block of rows at a time, and derived
    constants are measured against them in the same pass, unless the
    antisymmetry repair changed them.  The Jacobi residual is exact on
    either path: ``_jacobi_support`` when ``_support_is_cheaper`` says so
    (every so(n)), else ``_jacobi_dense``, which keeps the residual bits of
    dense constants.
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
            if derived:                            # c[k, i, j]: xi_k-coordinate of [xi_i, xi_j]
                c = np.empty((len(basis),) * 3)
                err = _commutator_residual(basis, c, dual)
        n = c.shape[0]

        asym = float(np.max(np.abs(c + np.swapaxes(c, 1, 2)))) if n else 0.0
        if not asym <= tols["antisymmetry"]:       # a NaN fails too
            raise ValueError(
                f"structure constants violate antisymmetry by {asym:.3e} "
                f"(> {tols['antisymmetry']:.1e}); refusing to repair"
            )
        raw = c
        c = 0.5 * (c - np.swapaxes(c, 1, 2))
        reports = [CheckReport.from_residual("antisymmetry", asym, tols["antisymmetry"])]
        if basis is not None:      # before Jacobi: constants read off a non-closed basis fail here
            if not (derived and np.array_equal(c, raw)):      # else measured as read
                err = _commutator_residual(basis, c)
            if not err <= tols["commutator_consistency"]:
                what = "leave the span of the basis" if derived else \
                    "disagree with structure constants"
                raise ValueError(f"matrix commutators {what} by {err:.3e}")

        nz = c != 0                # per output index l, its nonzero products c[l, m, k] c[m, i, j]
        terms_per_l = nz.sum(axis=2) @ nz.sum(axis=(1, 2))
        jac_max = (_jacobi_support(c, terms_per_l) if _support_is_cheaper(n, terms_per_l)
                   else _jacobi_dense(c))
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

    def adjoint_Ad(self, g, residual_tol: float = DEFAULT_TOLERANCES["basis_residual"]
                   ) -> np.ndarray:
        """Matrix of Ad_g : xi -> g xi g^-1 in the chosen basis, for a group matrix ``g``.

        Fails if some conjugated basis matrix leaves the span of the
        realized algebra by more than ``residual_tol``, which signals that g
        does not normalize it; ``build_decomposition`` checks a generator first.
        """
        self._require_matrices()
        mat = np.asarray(g, dtype=float)
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

