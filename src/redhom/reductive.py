"""Reductive decompositions g = h (+) m with projections and invariance checks.

The decomposition is encoded by coefficient bases of the subalgebra h and
the complement m inside an ambient :class:`~redhom.algebra.StructuredLieAlgebra`.
Validity means: direct sum, h a subalgebra, and [h, m] contained in m (the
infinitesimal form of stability of m under the isotropy action).  Stability
under disconnected parts of the isotropy group cannot be certified from h
alone; callers may supply discrete generators, which are then spot-checked,
and reports state that otherwise only the identity component was verified.

The isotropy checks act with stacks of endomorphisms of m: the action L of
each h-basis direction (the derivation condition) and the sampled group
action R (the pull-back condition).  The samples exp(t ad eta) come from one
batched exponential, and each residual is a stacked contraction evaluated a
block of operators at a time, so no temporary exceeds ``_STACK_VALUES``
values.  Every stacked matrix product has the shape of the per-operator one,
so the residuals equal a per-operator loop bit for bit.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .algebra import StructuredLieAlgebra, GroupElement, expand_in_matrix_basis, expm
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
        asym = float(np.max(np.abs(g - g.T))) if g.size else 0.0
        # no registry key: validates an input matrix, which is then symmetrized exactly
        if asym > 1e-12:
            raise ValueError(f"gram matrix is asymmetric by {asym:.3e}")
        g = 0.5 * (g + g.T)
        if g.size:
            svals = np.linalg.svd(g, compute_uv=False)
            # no registry key: a numerical-rank cut (inverse condition number), not a tolerance
            if svals[-1] < 1e-10 * svals[0]:
                raise ValueError(
                    f"gram matrix is numerically degenerate "
                    f"(condition {svals[0] / max(svals[-1], 1e-300):.3e})"
                )
            eigs = np.linalg.eigvalsh(g)
            sig = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
        else:
            sig = (0, 0)
        g.setflags(write=False)
        self.dec = dec
        self.gram = g
        self.signature = sig
        self.invariance = check_metric_invariance(dec, self)

    def __repr__(self):
        return f"MetricOnM(dim={self.dec.N}, signature={self.signature})"


class ReductiveDecomposition:
    """Validated splitting g = h (+) m with projections and cached contractions.

    Not constructed directly; use :func:`build_decomposition`,
    :func:`symmetric_decomposition` or :func:`normal_decomposition`.
    ``reports`` holds the residuals :func:`build_decomposition` gated on.
    """

    def __init__(self, algebra, h_basis, m_basis, pr_h, pr_m, h_generators,
                 generator_actions, cob, cob_inv, reports):
        self.algebra = algebra
        self.h_basis = h_basis            # (q, n) rows = coordinate vectors
        self.m_basis = m_basis            # (N, n)
        self.pr_h = pr_h                  # (n, n)
        self.pr_m = pr_m
        self.h_generators = h_generators  # tuple of GroupElement or ()
        self._generator_actions = generator_actions   # Ad of each generator restricted to m
        self.reports = tuple(reports)
        self._cob = cob                   # columns: h basis then m basis
        self._cob_inv = cob_inv
        self.q = h_basis.shape[0]
        self.N = m_basis.shape[0]

        # c_m[k, a, j]: ambient coordinates of [xi_a, A_j]
        c_m = algebra.structure_constants @ m_basis.T
        # ambient coordinates of [A_i, A_j] for the m-basis
        coords = cob_inv @ (m_basis @ c_m).reshape(algebra.dim, -1)
        coords = coords.reshape(algebra.dim, self.N, self.N)
        bm = coords[self.q:]
        # enforce exact antisymmetry of the m-bracket table: i<j entries are
        # authoritative, the mirror is their exact negation
        iu = np.triu_indices(self.N, 1)
        exact = np.zeros_like(bm)
        exact[:, iu[0], iu[1]] = bm[:, iu[0], iu[1]]
        exact[:, iu[1], iu[0]] = -bm[:, iu[0], iu[1]]
        self.m_bracket_tensor = exact     # (N, N, N): coords of [A_i, A_j]_m
        self._m_pair_bracket_h = coords[: self.q]

        # action of each h-basis vector on m: L[r][k, l] = m-coords of [eta_r, A_l]
        act = h_basis @ c_m
        act = (cob_inv @ act.reshape(algebra.dim, -1)).reshape(algebra.dim, self.q, self.N)
        self._h_m_bracket = act           # (q+N, q, N): coords of [eta_r, A_l]
        self.h_action = np.ascontiguousarray(np.swapaxes(act[self.q:], 0, 1))  # (q, N, N)

        if algebra.matrix_basis is not None:
            self.m_matrices = np.tensordot(m_basis, algebra.matrix_basis, 1)
            self.h_matrices = np.tensordot(h_basis, algebra.matrix_basis, 1)
        else:
            self.m_matrices = None
            self.h_matrices = None

        for arr in (self.h_basis, self.m_basis, self.pr_h, self.pr_m,
                    self.m_bracket_tensor):
            arr.setflags(write=False)

    # -- coordinate plumbing ------------------------------------------------------

    def m_coords(self, v) -> np.ndarray:
        """m-coordinates (w.r.t. the A-basis) of an ambient coordinate vector."""
        return (self._cob_inv @ np.asarray(v, dtype=float))[self.q:]

    def m_embed(self, x) -> np.ndarray:
        """Ambient coordinates of an m-vector given in the A-basis."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.N,):
            raise ValueError(f"expected m-coordinates of length {self.N}, got shape {x.shape}")
        return self.m_basis.T @ x

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

    def project_m(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.algebra.dim,):
            raise ValueError(f"expected ambient vector of length {self.algebra.dim}")
        return self.pr_m @ v

    def project_h(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.algebra.dim,):
            raise ValueError(f"expected ambient vector of length {self.algebra.dim}")
        return self.pr_h @ v

    def bracket_m(self, x, y) -> np.ndarray:
        """[X, Y]_m in m-coordinates for X, Y given in m-coordinates."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.einsum("kij,i,j->k", self.m_bracket_tensor, x, y)

    def ad_m_matrix(self, x) -> np.ndarray:
        """Matrix of Y -> [X, Y]_m on m-coordinates."""
        x = np.asarray(x, dtype=float)
        return np.einsum("kij,i->kj", self.m_bracket_tensor, x)

    def m_matrix(self, x) -> np.ndarray:
        """Matrix realization of an m-vector (requires a realized algebra)."""
        if self.m_matrices is None:
            self.algebra._require_matrices()
        return np.einsum("i,ibc->bc", np.asarray(x, dtype=float), self.m_matrices)

    def restrict_to_m(self, op: np.ndarray):
        """Restrict an ambient-coordinates linear map to m.

        Returns the (N, N) block in the A-basis together with the leak, the
        largest h-component the map produces out of m.
        """
        s = self._cob_inv @ np.asarray(op, dtype=float) @ self._cob
        block = s[self.q:, self.q:]
        leak = float(np.max(np.abs(s[: self.q, self.q:]))) if self.q and self.N else 0.0
        return block, leak

    @cached_property
    def isotropy_samples(self) -> tuple:
        """``(witnesses, operators)`` of the sampled isotropy action on m.

        ``operators`` is an (S, N, N) stack: exp(t ad eta) restricted to m per
        h-basis direction and sample time, all from one batched
        :func:`~redhom.algebra.expm`, then each generator's action;
        ``witnesses`` names each operator in the same order.
        """
        q, N = self.q, self.N
        witnesses = tuple({"kind": "finite", "h_index": r, "t": t}
                          for r in range(q) for t in _FINITE_SAMPLE_TIMES)
        ops = np.zeros((0, N, N))
        if q:
            ads = np.array([self.algebra.ad(eta) for eta in self.h_basis])
            flows = expm(np.array(_FINITE_SAMPLE_TIMES)[:, None, None] * ads[:, None])
            ops = (self._cob_inv @ flows @ self._cob)[..., q:, q:].reshape(len(witnesses), N, N)
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

    def symmetric_pair_residual(self) -> float:
        """Largest m-component of [m, m]; zero characterizes symmetric pairs."""
        if self.N == 0:
            return 0.0
        return float(np.max(np.abs(self.m_bracket_tensor)))

    def __repr__(self):
        return (
            f"ReductiveDecomposition({self.algebra.name!r}, "
            f"dim h={self.q}, dim m={self.N})"
        )


def build_decomposition(algebra: StructuredLieAlgebra, h_basis, m_basis,
                        h_generators=None, tolerances=None) -> ReductiveDecomposition:
    """Validate bases of h and m and assemble the projections.

    Raises :class:`DecompositionError` when the sum is not direct, h is not
    a subalgebra, or some [eta, X] leaks out of m (the worst pair and its
    leak norm are reported).  Gates read ``resolve_tolerances(tolerances)``.
    """
    tols = resolve_tolerances(tolerances)
    n = algebra.dim
    h = np.array(h_basis, dtype=float).reshape(-1, n) if len(h_basis) else np.zeros((0, n))
    m = np.array(m_basis, dtype=float).reshape(-1, n) if len(m_basis) else np.zeros((0, n))
    q, N = h.shape[0], m.shape[0]
    if q + N != n:
        raise DecompositionError(f"dim h + dim m = {q}+{N} != {n} = dim g")

    cob = np.vstack([h, m]).T if n else np.zeros((0, 0))
    if N + q:
        svals = np.linalg.svd(cob, compute_uv=False)
        # no registry key: a numerical-rank cut guarding the inverse below, not a tolerance
        if svals.size and svals[-1] < 1e-12 * max(svals[0], 1.0):
            raise DecompositionError("h-basis and m-basis do not form a direct sum")
    cob_inv = np.linalg.inv(cob) if n else cob.copy()

    sel_h = np.zeros((n, n))
    sel_h[: q, : q] = np.eye(q)
    pr_h = cob @ sel_h @ cob_inv
    pr_m = np.eye(n) - pr_h
    # projector identities are structural; verify they hold to tolerance
    resid = max(
        float(np.max(np.abs(pr_h + pr_m - np.eye(n)))),
        float(np.max(np.abs(pr_h @ pr_h - pr_h))),
        float(np.max(np.abs(pr_m @ pr_m - pr_m))),
        float(np.max(np.abs(pr_m @ pr_h))),
    ) if n else 0.0
    if resid > tols["projection"]:
        raise DecompositionError(f"projection identities violated by {resid:.3e}")

    c = algebra.structure_constants
    # h must close under the bracket: m-part of [h[r], h[s]] for r < s
    sub, pair = 0.0, (0, 0)
    if N:
        sub, pair = _worst_leak(pr_m, np.einsum("kij,ri,sj->krs", c, h, h, optimize=True),
                                upper=True)
    if sub > tols["subalgebra"]:
        raise DecompositionError(
            f"h is not a subalgebra: [h[{pair[0]}], h[{pair[1]}]] leaks into m "
            f"with norm {sub:.3e}"
        )
    # [h, m] must stay in m: h-part of [h[r], m[i]]
    red, pair = _worst_leak(pr_h, np.einsum("kij,ri,lj->krl", c, h, m, optimize=True))
    if red > tols["reductivity"]:
        raise DecompositionError(
            f"not reductive: [h[{pair[0]}], m[{pair[1]}]] has h-leak {red:.3e} "
            f"(> {tols['reductivity']:.1e})"
        )
    reports = [CheckReport.from_residual(check, value, tols[key], key=key)
               for check, value, key in (("projection_identities", resid, "projection"),
                                         ("h_subalgebra", sub, "subalgebra"),
                                         ("reductivity", red, "reductivity"))]

    gens, actions = [], []
    if h_generators:
        if algebra.matrix_basis is None:
            raise DecompositionError("h_generators require a matrix-realized algebra")
        worst = 0.0
        for k, gen in enumerate(h_generators):
            try:
                g = gen if isinstance(gen, GroupElement) else GroupElement(
                    gen, algebra, drift_tol=tols["group_drift"])
                ad = algebra.adjoint_Ad(g, tols["basis_residual"])
            except ValueError as exc:        # singular, off O(d), or not normalizing g
                raise DecompositionError(f"generator #{k}: {exc}") from exc
            s = cob_inv @ ad @ cob
            leak = float(np.max(np.abs(s[: q, q:]))) if q and N else 0.0
            if leak > tols["generator_stability"]:
                raise DecompositionError(
                    f"generator #{k} does not stabilize m (leak {leak:.3e})"
                )
            worst = max(worst, leak)
            gens.append(g)
            actions.append(s[q:, q:])
        reports.append(CheckReport.from_residual(
            "generator_stability", worst, tols["generator_stability"]))

    return ReductiveDecomposition(algebra, h, m, pr_h, pr_m, tuple(gens), tuple(actions),
                                  cob, cob_inv, reports)


def _worst_leak(projector, brackets, upper=False):
    """Largest entry of ``projector`` applied to each bracket column.

    ``brackets`` has shape (n, a, b); returns the maximum over all columns
    (over a < b when ``upper``) and the (a, b) index of the worst one.
    """
    n, rows, cols = brackets.shape
    leaks = np.max(np.abs(projector @ brackets.reshape(n, rows * cols)), axis=0, initial=0.0)
    leaks = leaks.reshape(rows, cols)
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
    resid = dec.symmetric_pair_residual()
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
    t1 = np.einsum("kab,kc->abc", c, g)      # <[xi_a, xi_b], xi_c>
    t2 = np.einsum("bk,kac->abc", g, c)      # <xi_b, [xi_a, xi_c]>
    adres = float(np.max(np.abs(t1 + t2)))
    if adres > 1e-10:
        raise DecompositionError(f"gram is not ad-invariant (residual {adres:.3e})")

    h = np.array(h_basis, dtype=float).reshape(-1, n) if len(h_basis) else np.zeros((0, n))
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


def check_metric_invariance(dec: ReductiveDecomposition, metric: MetricOnM,
                            tol: float = DEFAULT_TOLERANCES["metric_invariance"]
                            ) -> CheckReport:
    """Verify isotropy invariance of a scalar product on m (report, never raise)."""
    g = metric.gram
    return _isotropy_report(
        "metric_invariance", "metric_invariance", dec, tol,
        lambda acts: acts.swapaxes(1, 2) @ g + g @ acts,
        lambda ops: ops.swapaxes(1, 2) @ g @ ops - g, dec.N ** 2)
