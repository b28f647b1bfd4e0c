"""Reductive decompositions g = h (+) m, their bracket tables and invariance checks.

The decomposition is encoded by coefficient bases of the subalgebra h and
the complement m inside an ambient :class:`~redhom.algebra.StructuredLieAlgebra`.
Validity means: direct sum, h a subalgebra, and [h, m] contained in m (the
infinitesimal form of stability of m under the isotropy action).  Stability
under disconnected parts of the isotropy group cannot be certified from h
alone; callers may supply discrete generators, which are then spot-checked,
and reports state that otherwise only the identity component was verified.
No projector is formed: :func:`build_decomposition` contracts the structure
constants with the (h, m) change of basis once, and every gate and table is
a slice of that one array, so all leaks are measured in (h, m)-coordinates.

The isotropy checks act with stacks of endomorphisms of m: the action L of
each h-basis direction (the derivation condition) and the sampled group
action R (the pull-back condition).  As [h, m] lies in m, Ad(exp t eta) on m
is exp(t L), so the samples are one batched exponential of N x N matrices.
Each residual is a stacked contraction evaluated a block of operators at a
time, so no temporary exceeds ``_STACK_VALUES`` values.  Every stacked matrix
product has the shape of the per-operator one, so the residuals equal a
per-operator loop bit for bit.  ``skewness`` is the one form of "L is g-skew".
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .algebra import DET_FLOOR, StructuredLieAlgebra, expand_in_matrix_basis, expm
from .reporting import CheckReport, DEFAULT_TOLERANCES, resolve_tolerances

__all__ = [
    "MetricOnM",
    "ReductiveDecomposition",
    "DecompositionError",
    "build_decomposition",
    "symmetric_decomposition",
    "normal_decomposition",
    "check_ad_H_invariance_bilinear",
    "check_metric_invariance",
]

# Parameters at which the finite (group-level) invariance condition is
# sampled along exp(t eta) for each identity-component direction eta.
_FINITE_SAMPLE_TIMES = (0.3, 0.7, 1.1)
# Largest temporary of a stacked invariance residual, in float64 values (128 KiB).
_STACK_VALUES = 2 ** 14


class DecompositionError(ValueError):
    """Raised when the requested splitting is not a reductive decomposition."""


class MetricOnM:
    """Gram matrix of a scalar product on the m of ``dec``; indefinite signatures allowed.

    Its isotropy-invariance residual is measured once, here, and kept as the
    ``invariance`` report (callers re-judge it with ``CheckReport.judged``).
    A non-invariant product is kept: :func:`~redhom.connection.levi_civita_alpha`
    gates on that report.
    """

    def __init__(self, dec: ReductiveDecomposition, gram):
        g = np.array(gram, dtype=float)
        if g.shape != (dec.N, dec.N):
            raise ValueError(f"gram matrix must be {dec.N}x{dec.N} (dim m), got shape {g.shape}")
        # before the asymmetry check, where inf - inf would make a NaN with a warning
        if not np.isfinite(g).all():
            raise ValueError("gram matrix has a non-finite entry")
        asym = float(np.max(np.abs(g - g.T))) if g.size else 0.0
        # no registry key: validates an input matrix, which is then symmetrized exactly
        if asym > 1e-12:
            raise ValueError(f"gram matrix is asymmetric by {asym:.3e}")
        g = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(g)
        svals = np.abs(eigs)                # the singular values of a symmetric matrix
        # no registry key: a numerical-rank cut (inverse condition number), not a tolerance
        if svals.size and svals.min() < 1e-10 * svals.max():
            raise ValueError(
                f"gram matrix is numerically degenerate "
                f"(condition {svals.max() / max(svals.min(), 1e-300):.3e})"
            )
        g.setflags(write=False)
        self.dec = dec
        self.gram = g
        self.signature = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
        self.invariance = check_metric_invariance(dec, self)

    def __repr__(self):
        return f"MetricOnM(dim={self.dec.N}, signature={self.signature})"


class ReductiveDecomposition:
    """Validated splitting g = h (+) m with its cached bracket tables.

    Not constructed directly; use :func:`build_decomposition`,
    :func:`symmetric_decomposition` or :func:`normal_decomposition`.
    Its tables are ``m_bracket_tensor`` ([m, m]_m) and ``h_action`` (h on m),
    with ``_m_pair_bracket_h`` ([m, m]_h) and ``_h_m_bracket`` ([h, m]), all
    read-only and in (h, m)-coordinates.  ``reports`` holds the residuals
    :func:`build_decomposition` gated on.
    """

    def __init__(self, algebra, h_basis, m_basis, h_generators, generator_actions,
                 cob_inv, h_m_bracket, m_pair_bracket, reports):
        self.algebra = algebra
        self.h_basis = h_basis            # (q, n) rows = coordinate vectors
        self.m_basis = m_basis            # (N, n)
        self.h_generators = h_generators  # tuple of read-only (d, d) arrays, or ()
        self._generator_actions = generator_actions   # Ad of each generator restricted to m
        self.reports = tuple(reports)
        self._cob_inv = cob_inv           # inverse of the matrix with columns h basis, m basis
        self.q = h_basis.shape[0]
        self.N = m_basis.shape[0]

        self._h_m_bracket = h_m_bracket                # (q+N, q, N): coords of [eta_r, A_l]
        self._m_pair_bracket_h = m_pair_bracket[: self.q]   # (q, N, N): [A_i, A_j]_h
        # enforce exact antisymmetry of the m-bracket table: i<j entries are
        # authoritative, the mirror is their exact negation
        bm = m_pair_bracket[self.q:]
        iu = np.triu_indices(self.N, 1)
        exact = np.zeros_like(bm)
        exact[:, iu[0], iu[1]] = bm[:, iu[0], iu[1]]
        exact[:, iu[1], iu[0]] = -bm[:, iu[0], iu[1]]
        self.m_bracket_tensor = exact     # (N, N, N): coords of [A_i, A_j]_m
        # action of each h-basis vector on m: L[r][k, l] = m-coords of [eta_r, A_l]
        self.h_action = np.ascontiguousarray(np.swapaxes(h_m_bracket[self.q:], 0, 1))

        if algebra.matrix_basis is not None:
            self.m_matrices = np.tensordot(m_basis, algebra.matrix_basis, 1)
            self.h_matrices = np.tensordot(h_basis, algebra.matrix_basis, 1)
        else:
            self.m_matrices = None
            self.h_matrices = None

        for arr in (self.h_basis, self.m_basis, self.m_bracket_tensor, self.h_action, cob_inv):
            arr.setflags(write=False)

    # -- coordinate plumbing ------------------------------------------------------

    def split_matrices(self, mats):
        """h- and m-coordinates of a stack of (M, d, d) algebra matrices.

        Returns ``(h (M, q), m (M, N), residual (M,))``, where ``residual``
        is each dual-basis expansion's relative residual
        (:func:`~redhom.algebra.expand_in_matrix_basis`), so a matrix off
        the algebra is reported, not rejected.
        """
        coords, resid = expand_in_matrix_basis(self.algebra, mats)
        split = self._cob_inv @ coords.T
        return split[: self.q].T, split[self.q:].T, resid

    def m_matrix(self, x) -> np.ndarray:
        """Matrix realization of an m-vector (requires a realized algebra)."""
        if self.m_matrices is None:
            self.algebra._require_matrices()
        return np.einsum("i,ibc->bc", np.asarray(x, dtype=float), self.m_matrices)

    @cached_property
    def isotropy_samples(self) -> tuple:
        """``(witnesses, operators)`` of the sampled isotropy action on m.

        ``operators`` is an (S, N, N) stack: exp(t L) for the action L of
        each h-basis direction on m (``h_action``) and each sample time, in
        (h_index, t) order, all from one batched :func:`~redhom.algebra.expm`,
        then each generator's action; ``witnesses`` names each operator in
        the same order.
        """
        witnesses = tuple({"kind": "finite", "h_index": r, "t": t}
                          for r in range(self.q) for t in _FINITE_SAMPLE_TIMES)
        ops = expm(np.array(_FINITE_SAMPLE_TIMES)[:, None, None] * self.h_action[:, None])
        ops = ops.reshape(len(witnesses), self.N, self.N)
        witnesses += tuple({"kind": "generator", "index": k}
                           for k in range(len(self._generator_actions)))
        return witnesses, np.concatenate([ops, *(a[None] for a in self._generator_actions)])

    @cached_property
    def curvature_h_leak(self) -> float:
        """Largest h-coordinate of [[A_i, A_j]_h, A_k] over basis triples.

        Reductivity puts these brackets in m, so this is round-off on a valid
        decomposition; it depends on the decomposition alone, and
        :func:`~redhom.connection.curvature` gates on it for every alpha.
        """
        leak = np.tensordot(self._h_m_bracket[: self.q], self._m_pair_bracket_h, (1, 0))
        return float(np.max(np.abs(leak), initial=0.0))

    def __repr__(self):
        return (
            f"ReductiveDecomposition({self.algebra.name!r}, "
            f"dim h={self.q}, dim m={self.N})"
        )


def build_decomposition(algebra: StructuredLieAlgebra, h_basis, m_basis,
                        h_generators=None, tolerances=None) -> ReductiveDecomposition:
    """Validate bases of h and m and assemble the decomposition.

    Raises :class:`DecompositionError` when the sum is not direct, h is not
    a subalgebra, or some [eta, X] leaks out of m (the worst pair and its
    largest leaking (h, m)-coordinate are reported), and ValueError when a
    basis row does not hold dim g coordinates.  Gates read
    ``resolve_tolerances(tolerances)``.  Each of the ``h_generators`` is checked
    here alone, a failure naming it as ``generator #k``.
    """
    tols = resolve_tolerances(tolerances)
    n = algebra.dim
    h = _basis_rows(h_basis, n, "h_basis")
    m = _basis_rows(m_basis, n, "m_basis")
    q, N = h.shape[0], m.shape[0]
    if q + N != n:
        raise DecompositionError(f"dim h + dim m = {q}+{N} != {n} = dim g")

    cob = np.vstack([h, m]).T
    if n:
        svals = np.linalg.svd(cob, compute_uv=False)
        # no registry key: a numerical-rank cut guarding the inverse below, not a tolerance
        if svals[-1] < 1e-12 * max(svals[0], 1.0):
            raise DecompositionError("h-basis and m-basis do not form a direct sum")
    cob_inv = np.linalg.inv(cob)
    # the projections onto h and m are complementary idempotents exactly when this vanishes
    resid = float(np.max(np.abs(cob_inv @ cob - np.eye(n)), initial=0.0))
    if resid > tols["projection"]:
        raise DecompositionError(f"projection identities violated by {resid:.3e}")

    # the one contraction of the structure constants with the bases: (h, m)-coordinates
    # of [eta_r, b] for every basis vector b, (n, q, n), and of [A_i, A_j], (n, N, N),
    # as two read-only views of one array; every gate and table reads a slice of them
    cc = algebra.structure_constants @ cob      # cc[k, a, b]: coords of [xi_a, b]
    flat = cob_inv @ np.concatenate([(h @ cc).reshape(n, q * n),
                                     (m @ cc[:, :, q:]).reshape(n, N * N)], axis=1)
    flat.setflags(write=False)
    h_brackets = flat[:, : q * n].reshape(n, q, n)
    m_brackets = flat[:, q * n:].reshape(n, N, N)

    # h must close under the bracket: m-part of [h[r], h[s]] for r < s
    sub, pair = _worst_leak(h_brackets[q:, :, :q], upper=True)
    if sub > tols["subalgebra"]:
        raise DecompositionError(f"h is not a subalgebra: [h[{pair[0]}], h[{pair[1]}]] "
                                 f"leaks into m by {sub:.3e}")
    # [h, m] must stay in m: h-part of [h[r], m[i]]
    red, pair = _worst_leak(h_brackets[:q, :, q:])
    if red > tols["reductivity"]:
        raise DecompositionError(f"not reductive: [h[{pair[0]}], m[{pair[1]}]] has h-leak "
                                 f"{red:.3e} (> {tols['reductivity']:.1e})")
    reports = [CheckReport.from_residual(check, value, tols[key], key=key)
               for check, value, key in (("projection_identities", resid, "projection"),
                                         ("h_subalgebra", sub, "subalgebra"),
                                         ("reductivity", red, "reductivity"))]

    gens, actions = [], []
    if h_generators:
        if algebra.matrix_basis is None:
            raise DecompositionError("h_generators require a matrix-realized algebra")
        worst, d = 0.0, algebra.matrix_dim
        for k, gen in enumerate(h_generators):
            g = np.array(gen, dtype=float)
            try:
                if g.shape != (d, d):
                    raise ValueError(f"must be a {d}x{d} matrix, got shape {g.shape}")
                det = abs(np.linalg.det(g))
                if det < DET_FLOOR:
                    raise ValueError(f"matrix is numerically singular (|det| = {det:.3e})")
                drift = float(np.max(np.abs(g.T @ g - np.eye(d)))) if algebra.orthogonal else 0.0
                if not drift <= tols["group_drift"]:
                    raise ValueError(f"orthogonality drift {drift:.3e} exceeds "
                                     f"{tols['group_drift']:.1e}")
                ad = algebra.adjoint_Ad(g, tols["basis_residual"])
            except ValueError as exc:        # misshapen, singular, off O(d), or not normalizing g
                raise DecompositionError(f"generator #{k}: {exc}") from exc
            s = cob_inv @ ad @ cob
            leak = float(np.max(np.abs(s[: q, q:]))) if q and N else 0.0
            if leak > tols["generator_stability"]:
                raise DecompositionError(
                    f"generator #{k} does not stabilize m (leak {leak:.3e})"
                )
            worst = max(worst, leak)
            g.setflags(write=False)
            gens.append(g)
            actions.append(s[q:, q:])
        reports.append(CheckReport.from_residual(
            "generator_stability", worst, tols["generator_stability"]))

    return ReductiveDecomposition(algebra, h, m, tuple(gens), tuple(actions), cob_inv,
                                  h_brackets[:, :, q:], m_brackets, reports)


def _basis_rows(basis, n: int, name: str) -> np.ndarray:
    """``basis`` as a (k, n) array of coordinate rows; rows of another width are refused."""
    rows = np.array(basis, dtype=float) if len(basis) else np.zeros((0, n))
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"{name} rows must hold dim g = {n} coordinates, "
                         f"got shape {rows.shape}")
    return rows


def _worst_leak(coords, upper=False):
    """Largest |coordinate| in ``coords`` (k, a, b) over all columns (a, b), over
    a < b when ``upper``, and the (a, b) of the worst column."""
    leaks = np.max(np.abs(coords), axis=0, initial=0.0)
    if upper:
        leaks = np.triu(leaks, 1)
    if not leaks.size:
        return 0.0, (0, 0)
    pair = np.unravel_index(int(np.argmax(leaks)), leaks.shape)
    return float(leaks[pair]), (int(pair[0]), int(pair[1]))


def symmetric_decomposition(algebra: StructuredLieAlgebra, sigma,
                            tolerances=None) -> ReductiveDecomposition:
    """Canonical decomposition from an involutive algebra automorphism.

    h is the +1 eigenspace, m the -1 eigenspace of sigma, extracted from the
    projectors (I +- sigma)/2 with rank threshold 1e-10.  The result always
    satisfies [m, m] in h, which is verified before returning.
    """
    n = algebra.dim
    s = np.asarray(sigma, dtype=float)
    if s.shape != (n, n):
        raise ValueError(f"sigma must be a {n}x{n} coefficient matrix, got {s.shape}")
    # no registry key for this and the next gate: they validate the input sigma, and
    # [m, m] in h, which is what the split must deliver, is gated at "subalgebra" below
    if float(np.max(np.abs(s @ s - np.eye(n)))) > 1e-12:
        raise DecompositionError("sigma is not involutive (sigma^2 != identity)")
    c = algebra.structure_constants
    lhs = np.tensordot(s, c, 1)
    rhs = s.T @ (c @ s)
    auto = float(np.max(np.abs(lhs - rhs)))
    if auto > 1e-10:
        raise DecompositionError(
            f"sigma is not a Lie algebra automorphism (residual {auto:.3e})")

    def eigenbasis(projector):
        u, sv, _ = np.linalg.svd(projector)
        # no registry key: a numerical-rank cut on a projector whose singular values are 0 or 1
        rank = int(np.sum(sv > 1e-10))
        return u[:, :rank].T

    h = eigenbasis(0.5 * (np.eye(n) + s))
    m = eigenbasis(0.5 * (np.eye(n) - s))
    if m.shape[0] == 0:
        warnings.warn(
            "sigma fixes the whole algebra: m = {0}, the isotropy group is open",
            stacklevel=2,
        )
    tols = resolve_tolerances(tolerances)
    dec = build_decomposition(algebra, h, m, tolerances=tols)
    # largest m-component of [m, m]; zero characterizes symmetric pairs
    resid = float(np.max(np.abs(dec.m_bracket_tensor), initial=0.0))
    if resid > tols["subalgebra"]:
        raise DecompositionError(
            f"eigenspace split fails [m, m] in h by {resid:.3e}"
        )
    return dec


def normal_decomposition(algebra: StructuredLieAlgebra, biinvariant_gram, h_basis,
                         tolerances=None):
    """Orthogonal-complement decomposition from an ad-invariant scalar product.

    Returns ``(decomposition, metric)`` where m is the gram-orthogonal
    complement of h and the metric is the gram matrix restricted to m.  The
    input gram must be symmetric, nondegenerate and ad-invariant; h must be
    nondegenerate with respect to it, otherwise the complement is not a
    complement and an error is raised.
    """
    n = algebra.dim
    g = np.asarray(biinvariant_gram, dtype=float)
    if g.shape != (n, n):
        raise ValueError(f"gram must be {n}x{n}, got {g.shape}")
    # no registry key for the symmetry and ad-invariance gates: they validate the input
    # gram; the degeneracy gates below and the null-space cut are numerical-rank cuts
    if float(np.max(np.abs(g - g.T))) > 1e-12:
        raise DecompositionError("bi-invariant gram must be symmetric")
    svals = np.linalg.svd(g, compute_uv=False)
    if svals[-1] < 1e-10 * svals[0]:
        raise DecompositionError("bi-invariant gram is numerically degenerate")
    c = algebra.structure_constants
    t1 = np.tensordot(c, g, (0, 0))                                  # <[xi_a, xi_b], xi_c>
    t2 = (g @ c.reshape(n, -1)).reshape(n, n, n).transpose(1, 0, 2)  # <xi_b, [xi_a, xi_c]>
    adres = float(np.max(np.abs(t1 + t2)))
    if adres > 1e-10:
        raise DecompositionError(f"gram is not ad-invariant (residual {adres:.3e})")

    h = _basis_rows(h_basis, n, "h_basis")
    q = h.shape[0]
    if q:
        gh = h @ g @ h.T
        sv = np.linalg.svd(gh, compute_uv=False)
        if sv[-1] < 1e-10 * max(sv[0], 1.0):
            raise DecompositionError(
                "h is degenerate w.r.t. the gram: orthogonal complement is not a complement"
            )
        # null space of (h . gram): vectors gram-orthogonal to every h row
        _, sv_full, vt = np.linalg.svd(h @ g)
        rank = int(np.sum(sv_full > 1e-12 * max(sv_full[0], 1.0)))
        m = vt[rank:]
    else:
        m = np.eye(n)
    dec = build_decomposition(algebra, h, m, tolerances=tolerances)
    metric = MetricOnM(dec, dec.m_basis @ g @ dec.m_basis.T)
    return dec, metric


# -- invariance checks ------------------------------------------------------------


def _stacked_residuals(residual, ops, per_op: int) -> np.ndarray:
    """max |residual(block)| per operator of the (S, N, N) stack ``ops``.

    ``residual`` maps a block of operators to a (B, ...) array of ``per_op``
    values each; blocks hold at most ``_STACK_VALUES`` values.
    """
    size = max(1, _STACK_VALUES // max(per_op, 1))
    maxima = [np.zeros(0)]
    for i in range(0, len(ops), size):
        block = np.abs(residual(ops[i:i + size]))
        maxima.append(np.max(block, axis=tuple(range(1, block.ndim)), initial=0.0))
    return np.concatenate(maxima)


def _isotropy_report(check: str, key: str, dec: ReductiveDecomposition, tol: float,
                     derivation, pullback, per_op: int) -> CheckReport:
    """Worst residual of an invariance condition under the isotropy action.

    ``derivation(L)`` is evaluated on the stack of actions L of the h-basis
    directions on m (``dec.h_action``), ``pullback(R)`` on the stack of
    ``dec.isotropy_samples``, each a block of at most ``_STACK_VALUES``
    values at a time (``per_op`` values per operator).  The witness is the
    first NaN residual, otherwise the first largest one; there is none when
    every residual is 0.
    """
    witnesses, ops = dec.isotropy_samples
    cases = [{"kind": "infinitesimal", "h_index": r} for r in range(dec.q)] + list(witnesses)
    res = np.concatenate([_stacked_residuals(derivation, dec.h_action, per_op),
                          _stacked_residuals(pullback, ops, per_op)])
    nan = np.isnan(res)
    worst, witness = 0.0, []
    if nan.any() or (res > 0.0).any():
        i = int(np.argmax(nan if nan.any() else res))
        worst = float(res[i])
        witness = [{**cases[i], "residual": worst}]
    note = "identity-component verified"
    if dec.h_generators:
        note += f" plus {len(dec.h_generators)} discrete generator(s)"
    return CheckReport.from_residual(check, worst, tol, witnesses=witness, note=note,
                                     key=key)


def check_ad_H_invariance_bilinear(dec: ReductiveDecomposition, coeffs,
                                   tol: float = DEFAULT_TOLERANCES["invariance"]
                                   ) -> CheckReport:
    """Verify that a bilinear map m x m -> m commutes with the isotropy action.

    ``coeffs`` is its (N, N, N) coefficient array ``a[k, i, j]``.  Checks the
    infinitesimal condition L a(X, Y) = a(L X, Y) + a(X, L Y) for every
    h-basis direction, the finite condition R a(X, Y) = a(R X, R Y) along
    exp(t eta) at a few sample times, and the finite condition for any
    supplied discrete generators.  Failures are reported, never raised.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    N = dec.N
    if coeffs.shape != (N, N, N):
        raise ValueError(f"alpha coefficients must have shape ({N}, {N}, {N})")
    flat = coeffs.reshape(N, N * N)

    def derivation(acts):
        lhs = (acts @ flat).reshape(len(acts), N, N, N)
        return lhs - (acts.swapaxes(1, 2)[:, None] @ coeffs + coeffs @ acts[:, None])

    def pullback(ops):
        lhs = (ops @ flat).reshape(len(ops), N, N, N)
        return lhs - ops.swapaxes(1, 2)[:, None] @ (coeffs @ ops[:, None])   # R^T a[k] R

    return _isotropy_report("ad_H_invariance_bilinear", "invariance", dec, tol,
                            derivation, pullback, N ** 3)


def skewness(acts, gram) -> np.ndarray:
    """L^T G + G L for each L of the (S, N, N) stack ``acts``: zero where L is G-skew."""
    return acts.swapaxes(1, 2) @ gram + gram @ acts


def check_metric_invariance(dec: ReductiveDecomposition, metric: MetricOnM) -> CheckReport:
    """Verify isotropy invariance of a scalar product on m (report, never raise)."""
    g = metric.gram
    return _isotropy_report(
        "metric_invariance", "metric_invariance", dec, DEFAULT_TOLERANCES["metric_invariance"],
        lambda acts: skewness(acts, g), lambda ops: ops.swapaxes(1, 2) @ g @ ops - g, dec.N ** 2)
