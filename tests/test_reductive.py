import functools
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import redhom as rh
from redhom import reductive
from redhom.algebra import expm
from redhom.reductive import _FINITE_SAMPLE_TIMES, DecompositionError
from conftest import (ad_matrix, commutator_coords, group_exp, hm_coords, m_bracket, rebase,
                      restrict_to_m, seeded_change_of_basis)
from test_catalog import SPACES

E1, E2, E3 = np.eye(3)


@pytest.fixture(scope="module")
def s2dec(sphere2):
    return sphere2.dec


def span_projector(rows):
    b = np.atleast_2d(np.asarray(rows, float))
    return b.T @ np.linalg.solve(b @ b.T, b)


class TestBuildDecomposition:
    def test_sphere_split_is_valid(self, so3):
        dec = rh.build_decomposition(so3, [E3], [E1, E2])
        # bracket-table oracle: [E3, E1] = E2 and [E3, E2] = -E1 stay in m
        assert np.allclose(commutator_coords(so3, E3, E1), E2, atol=1e-14)
        assert np.allclose(commutator_coords(so3, E3, E2), -E1, atol=1e-14)
        assert dec.q == 1 and dec.N == 2

    def test_reductivity_violation_reported_with_leak(self, so3):
        with pytest.raises(DecompositionError, match="h-leak"):
            rh.build_decomposition(so3, [E3], [E1 + E3, E2])

    def test_h_not_subalgebra(self, so3):
        with pytest.raises(DecompositionError, match="subalgebra"):
            rh.build_decomposition(so3, [E1, E2], [E3])

    def test_not_direct_sum(self, so3):
        with pytest.raises(DecompositionError):
            rh.build_decomposition(so3, [E3], [E1, E1 + E3])

    def test_dimension_mismatch(self, so3):
        with pytest.raises(DecompositionError, match="dim"):
            rh.build_decomposition(so3, [E3], [E1])

    def test_trivial_subgroup(self, so3):
        dec = rh.build_decomposition(so3, [], np.eye(3))
        assert dec.q == 0
        assert dec.reports[0].check == "projection_identities"
        assert dec.reports[0].max_residual == 0.0

    def test_generator_stability(self, so3):
        flip = np.diag([-1.0, -1.0, 1.0])  # stabilizes span(E1, E2)
        dec = rh.build_decomposition(so3, [E3], [E1, E2], h_generators=[flip])
        assert len(dec.h_generators) == 1
        with pytest.raises(DecompositionError, match="stabilize"):
            swap = rh.expm(np.pi / 2 * so3.matrix_basis[0])  # rotates E2 into E3
            rh.build_decomposition(so3, [E3], [E1, E2], h_generators=[swap])

    def test_basis_rows_of_another_width_are_refused(self, so4):
        # three rows of width 2 hold 6 numbers, but no vector of the 6-dimensional so(4)
        with pytest.raises(ValueError, match=r"h_basis rows must hold dim g = 6 coordinates, "
                                             r"got shape \(3, 2\)"):
            rh.build_decomposition(so4, [[1, 0], [0, 0], [0, 0]], np.eye(6)[1:])
        with pytest.raises(ValueError, match=r"m_basis rows .* got shape \(5, 7\)"):
            rh.build_decomposition(so4, np.eye(6)[:1], np.eye(7)[1:6])

    def test_every_kept_table_is_read_only(self):
        dec = rh.stiefel(4, 2).dec          # not the session fixture: a write must not leak
        for name in ("h_basis", "m_basis", "m_bracket_tensor", "h_action", "_h_m_bracket",
                     "_m_pair_bracket_h", "_cob_inv"):
            table = getattr(dec, name)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1.0


def unrealized_so3():
    """so(3) from its structure constants alone: no matrix basis."""
    return rh.StructuredLieAlgebra(rh.so3().structure_constants, name="bare-so3")


@pytest.mark.parametrize("refuse, error, message", [
    pytest.param(lambda: rh.build_decomposition(unrealized_so3(), [E3], [E1, E2],
                                                h_generators=[np.eye(3)]),
                 DecompositionError, "h_generators require a matrix-realized algebra",
                 id="generators-of-an-unrealized-algebra"),
    pytest.param(lambda: rh.symmetric_decomposition(rh.so3(), np.eye(2)),
                 ValueError, r"sigma must be a 3x3 coefficient matrix, got \(2, 2\)",
                 id="sigma-shape"),
    pytest.param(lambda: rh.normal_decomposition(rh.so3(), np.eye(4), [E3]),
                 ValueError, r"gram must be 3x3, got \(4, 4\)", id="biinvariant-gram-shape"),
    pytest.param(lambda: rh.check_ad_H_invariance_bilinear(rh.sphere2().dec, np.zeros((2, 2))),
                 ValueError, r"alpha coefficients must have shape \(2, 2, 2\)",
                 id="alpha-coefficient-shape"),
    pytest.param(lambda: rh.build_decomposition(unrealized_so3(), [E3], [E1, E2]).m_matrix(
        [1.0, 0.0]), ValueError, "bare-so3 has no matrix realization",
                 id="m-matrix-of-an-unrealized-algebra"),
])
def test_malformed_decomposition_inputs_are_refused(refuse, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        refuse()


REBASED = {"sphere2": rh.sphere2, "stiefel(5,2)": lambda: rh.stiefel(5, 2),
           "grassmann_like(5,2)": lambda: rh.grassmann_like(5, 2)}


def rebased_bases(name, seed=7):
    """The algebra, and writable copies of the h and m bases of ``rebase`` under seeded,
    well-conditioned P and Q: the same split in bases that are not orthonormal."""
    space = REBASED[name]()
    dec = rebase(space, *seeded_change_of_basis(space, seed)).dec
    return dec.algebra, np.array(dec.h_basis), np.array(dec.m_basis)


def oracle_worst_pair(alg, h, m, rows, cols, part, upper=False):
    """Worst (r, s) of ``part`` (a slice of the h-then-m coordinates) of the
    commutator oracle of ``rows[r]`` and ``cols[s]``, and its value."""
    bases = SimpleNamespace(h_basis=h, m_basis=m)
    leaks = {(r, s): np.max(np.abs(hm_coords(bases, commutator_coords(alg, x, y))[part]))
             for r, x in enumerate(rows) for s, y in enumerate(cols) if not upper or r < s}
    pair = max(leaks, key=leaks.get)
    return pair, leaks[pair]


class TestRebasedBases:
    """Gates on bases that are not orthonormal name the pair the oracle finds worst."""

    @pytest.mark.parametrize("name", ["stiefel(5,2)", "grassmann_like(5,2)"])
    def test_broken_reductivity_names_the_oracle_worst_pair(self, name):
        alg, h, m = rebased_bases(name)
        m[0] += 0.5 * h[0]                   # still g = h + m, but m is not ad(h)-stable
        (r, s), leak = oracle_worst_pair(alg, h, m, h, m, slice(0, len(h)))
        with pytest.raises(DecompositionError, match=rf"\[h\[{r}\], m\[{s}\]\] has h-leak "
                                                     rf"{leak:.3e} "):
            rh.build_decomposition(alg, h, m)

    @pytest.mark.parametrize("name", ["stiefel(5,2)", "grassmann_like(5,2)"])
    def test_broken_subalgebra_names_the_oracle_worst_pair(self, name):
        alg, h, m = rebased_bases(name)
        h[0] += 0.5 * m[0]                   # still g = h + m, but h does not close
        (r, s), leak = oracle_worst_pair(alg, h, m, h, h, slice(len(h), None), upper=True)
        with pytest.raises(DecompositionError, match=rf"\[h\[{r}\], h\[{s}\]\] leaks into m "
                                                     rf"by {leak:.3e}$"):
            rh.build_decomposition(alg, h, m)


class TestSplitMatrices:
    def test_basis_split(self, s2dec, so3):
        h, m, resid = s2dec.split_matrices(np.tensordot(E1 + 2 * E3, so3.matrix_basis, 1)[None])
        assert np.allclose(h, [[2.0]], atol=1e-14) and np.allclose(m, [[1.0, 0.0]], atol=1e-14)
        assert resid[0] <= 1e-15

    def test_sum_reconstructs_50_random_vectors(self, s2dec, so3, rng):
        v = rng.standard_normal((50, 3))
        h, m, _ = s2dec.split_matrices(np.tensordot(v, so3.matrix_basis, 1))
        assert np.max(np.abs(h @ s2dec.h_basis + m @ s2dec.m_basis - v)) <= 1e-14
        assert np.max(np.abs(np.concatenate([h, m], 1) - hm_coords(s2dec, v.T).T)) <= 1e-14

    def test_coordinate_roundtrip(self, s2dec, rng):
        x = rng.standard_normal(2)
        h, m, _ = s2dec.split_matrices(s2dec.m_matrix(x)[None])
        assert np.allclose(h, 0.0, atol=1e-14) and np.allclose(m[0], x, atol=1e-14)


class TestBracketM:
    def test_sphere_pair_lands_in_h(self, s2dec):
        got = s2dec.m_bracket_tensor[:, 0, 1]
        assert np.allclose(got, m_bracket(s2dec, *np.eye(2)), atol=1e-14)
        assert np.allclose(got, 0.0, atol=1e-14)

    def test_trivial_subgroup_gives_full_bracket(self, so3):
        dec = rh.build_decomposition(so3, [], np.eye(3))
        assert np.allclose(dec.m_bracket_tensor, so3.structure_constants, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(SPACES) + [f"rebased {n}" for n in sorted(REBASED)])
    def test_tables_are_the_commutators_in_the_h_m_basis(self, name):
        """[A_i, A_j] split into its m- and h-parts, and [eta_r, A_l], against the
        commutator oracle expanded in the public bases, also in rebased ones."""
        rebased = name.startswith("rebased ")
        dec = (rh.build_decomposition(*rebased_bases(name.split(" ", 1)[1])) if rebased
               else SPACES[name]().dec)
        alg, q = dec.algebra, dec.q
        pairs = np.array([[hm_coords(dec, commutator_coords(alg, x, y)) for y in dec.m_basis]
                          for x in dec.m_basis]).transpose(2, 0, 1)
        acts = np.array([[hm_coords(dec, commutator_coords(alg, eta, a)) for a in dec.m_basis]
                         for eta in dec.h_basis]).reshape(q, dec.N, alg.dim)
        for table, oracle in ((dec.m_bracket_tensor, pairs[q:]),
                              (dec._m_pair_bracket_h, pairs[:q]),
                              (dec.h_action, acts[:, :, q:].transpose(0, 2, 1)),
                              (dec._h_m_bracket, acts.transpose(2, 0, 1))):
            assert np.max(np.abs(table - oracle), initial=0.0) <= 1e-13
        assert dec.reports[0].max_residual <= 1e-15

    def test_m_bracket_tensor_exactly_antisymmetric(self, stiefel42, grassmann42):
        for bundle in (stiefel42, grassmann42):
            b = bundle.dec.m_bracket_tensor
            assert np.array_equal(b, -np.swapaxes(b, 1, 2))


class TestBilinearInvarianceCheck:
    def test_half_bracket_passes(self, sphere2, stiefel42):
        for bundle in (sphere2, stiefel42):
            dec = bundle.dec
            rep = rh.check_ad_H_invariance_bilinear(dec, 0.5 * dec.m_bracket_tensor)
            assert rep.passed

    def test_zero_passes(self, s2dec):
        rep = rh.check_ad_H_invariance_bilinear(s2dec, np.zeros((2, 2, 2)))
        assert rep.passed and rep.max_residual == 0.0

    def test_projection_onto_first_coordinate_fails(self, s2dec):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 0] = 1.0  # alpha(A_i, A_j) = delta_i1 delta_j1 A_1
        rep = rh.check_ad_H_invariance_bilinear(s2dec, coeffs)
        assert not rep.passed
        assert rep.max_residual > 1e-8
        assert rep.witnesses

    def test_matches_the_per_case_einsum_loop(self):
        dec = rh.stiefel(5, 2).dec
        coeffs = np.random.default_rng(3).standard_normal((dec.N,) * 3)
        worst, witness = 0.0, None
        cases = [({"kind": "infinitesimal", "h_index": r}, act, False)
                 for r, act in enumerate(dec.h_action)]
        cases += [(w, op, True) for w, op in zip(*dec.isotropy_samples)]
        for case, op, finite in cases:
            lhs = np.einsum("kl,lij->kij", op, coeffs)
            if finite:
                rhs = np.einsum("kpq,pi,qj->kij", coeffs, op, op)
            else:
                rhs = (np.einsum("klj,li->kij", coeffs, op)
                       + np.einsum("kil,lj->kij", coeffs, op))
            res = float(np.max(np.abs(lhs - rhs)))
            if res > worst:
                worst, witness = res, case
        rep = rh.check_ad_H_invariance_bilinear(dec, coeffs)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(worst, rel=1e-13)
        assert [{k: v for k, v in w.items() if k != "residual"}
                for w in rep.witnesses] == [witness]
        # and bit for bit with one matrix product per operator
        assert bits(rep) == bits(per_case_report(dec, alpha=coeffs)[:2])

    @pytest.mark.parametrize("case", sorted(SPACES) + [
        "h_generators", "generators_only", "nan_coefficient", "all_zero", "m_zero"])
    def test_stacked_reports_equal_the_per_case_loop(self, case, monkeypatch):
        dec, alphas, grams = isotropy_case(case)
        stacked = []                    # every residual, as each block stack returns it
        real = reductive._stacked_residuals
        monkeypatch.setattr(reductive, "_stacked_residuals",
                            lambda *args: stacked.append(real(*args)) or stacked[-1])
        reports = [(rh.check_ad_H_invariance_bilinear(dec, a), {"alpha": a}) for a in alphas]
        reports += [(rh.MetricOnM(dec, g).invariance, {"gram": g}) for g in grams]
        assert len(stacked) == 2 * len(reports)     # the derivation, then the pull-back
        for k, (rep, operand) in enumerate(reports):
            worst, witnesses, residuals = per_case_report(dec, **operand)
            assert np.array_equal(np.concatenate(stacked[2 * k:2 * k + 2]), residuals,
                                  equal_nan=True)
            assert bits(rep) == bits((worst, witnesses))

    def test_the_cases_reach_every_witness_rule(self):
        def reports(case):
            dec, alphas, grams = isotropy_case(case)
            return ([rh.check_ad_H_invariance_bilinear(dec, a) for a in alphas]
                    + [rh.MetricOnM(dec, g).invariance for g in grams])

        kinds = {(w["kind"], bool(np.isnan(w["residual"])))
                 for case in ("stiefel(4,2)", "generators_only", "nan_coefficient")
                 for r in reports(case) for w in r.witnesses}
        assert kinds == {("infinitesimal", False), ("finite", False), ("generator", False),
                         ("infinitesimal", True)}
        for case in ("all_zero", "m_zero"):
            assert all(r.max_residual == 0.0 and not r.witnesses for r in reports(case))

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_samples_are_the_full_ad_flow_restricted_to_m(self, name):
        """exp(t L) on m is the m-block of exp(t ad eta), since [h, m] lies in m."""
        dec = isotropy_case(name)[0]
        witnesses, ops = dec.isotropy_samples
        assert len(ops) == len(witnesses) == dec.q * len(_FINITE_SAMPLE_TIMES)
        for w, op in zip(witnesses, ops):
            ad = ad_matrix(dec.algebra, dec.h_basis[w["h_index"]])
            full, leak = restrict_to_m(dec, expm(w["t"] * ad))
            assert leak <= 1e-14
            assert np.max(np.abs(op - full), initial=0.0) <= 1e-14

    def test_note_mentions_identity_component(self, s2dec):
        rep = rh.check_ad_H_invariance_bilinear(s2dec, np.zeros((2, 2, 2)))
        assert "identity-component" in rep.note


class TestMetricInvarianceCheck:
    def test_round_metric_passes(self, s2dec):
        assert rh.check_metric_invariance(s2dec, rh.MetricOnM(s2dec, np.eye(2))).passed

    def test_trivial_subgroup_any_metric_passes(self, so3, rng):
        dec = rh.build_decomposition(so3, [], np.eye(3))
        m = rng.standard_normal((3, 3))
        rep = rh.check_metric_invariance(dec, rh.MetricOnM(dec, m @ m.T + 3 * np.eye(3)))
        assert rep.passed and rep.max_residual == 0.0

    def test_squashed_metric_fails(self, s2dec):
        metric = rh.MetricOnM(s2dec, np.diag([1.0, 2.0]))
        rep = rh.check_metric_invariance(s2dec, metric)
        assert not rep.passed
        # the metric keeps the same report, measured once at construction
        assert metric.invariance == rep


class TestSymmetricDecomposition:
    def test_axis_flip_gives_expected_eigenspaces(self, so3):
        # conjugation by diag(1,-1,-1) fixes E1 and flips E2, E3
        sigma = np.diag([1.0, -1.0, -1.0])
        dec = rh.symmetric_decomposition(so3, sigma)
        assert dec.q == 1 and dec.N == 2
        assert np.allclose(span_projector(dec.h_basis), span_projector([E1]), atol=1e-12)
        assert np.allclose(span_projector(dec.m_basis), span_projector([E2, E3]), atol=1e-12)

    def test_three_bracket_inclusions(self, so3, grassmann42):
        dec = rh.symmetric_decomposition(so3, np.diag([1.0, -1.0, -1.0]))
        for d in (dec, grassmann42.dec):
            assert np.max(np.abs(d.m_bracket_tensor)) <= 1e-10
            for r in range(d.q):
                for i in range(d.N):
                    br = commutator_coords(d.algebra, d.h_basis[r], d.m_basis[i])
                    assert np.max(np.abs(hm_coords(d, br)[: d.q])) <= 1e-10

    def test_identity_involution_degenerate(self, so3):
        with pytest.warns(UserWarning, match="m = \\{0\\}"):
            dec = rh.symmetric_decomposition(so3, np.eye(3))
        assert dec.N == 0 and dec.q == 3

    def test_non_involution_rejected(self, so3):
        with pytest.raises(ValueError, match="involutive"):
            rh.symmetric_decomposition(so3, 2.0 * np.eye(3))

    def test_non_automorphism_rejected(self, so3):
        swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="automorphism"):
            rh.symmetric_decomposition(so3, swap)


class TestNormalDecomposition:
    def test_so3_round(self, so3):
        dec, metric = rh.normal_decomposition(so3, np.eye(3), [E3])
        assert np.allclose(span_projector(dec.m_basis), span_projector([E1, E2]), atol=1e-12)
        assert np.allclose(metric.gram, np.eye(2), atol=1e-12)

    def test_trivial_h(self, so3):
        dec, metric = rh.normal_decomposition(so3, np.eye(3), [])
        assert dec.N == 3
        assert np.allclose(metric.gram, np.eye(3), atol=1e-12)

    def test_output_is_naturally_reductive(self, so3, stiefel42):
        dec, metric = rh.normal_decomposition(so3, np.eye(3), [E3])
        assert rh.naturally_reductive_check(dec, metric).passed
        assert rh.naturally_reductive_check(stiefel42.dec, stiefel42.metric).passed

    def test_degenerate_h_rejected(self):
        abelian = rh.StructuredLieAlgebra(np.zeros((2, 2, 2)), name="r2")
        gram = np.diag([1.0, -1.0])
        with pytest.raises(DecompositionError, match="degenerate"):
            rh.normal_decomposition(abelian, gram, [[1.0, 1.0]])  # null direction

    def test_basis_rows_of_another_width_are_refused(self, so4):
        with pytest.raises(ValueError, match=r"h_basis rows must hold dim g = 6 coordinates, "
                                             r"got shape \(3, 2\)"):
            rh.normal_decomposition(so4, np.eye(6), [[1, 0], [0, 0], [0, 0]])

    def test_non_ad_invariant_gram_rejected(self, so3):
        with pytest.raises(ValueError, match="ad-invariant"):
            rh.normal_decomposition(so3, np.diag([1.0, 2.0, 3.0]), [E3])


class TestIsotropyRestriction:
    def test_ad_h_preserves_m_on_catalog_spaces(self, sphere2, stiefel42, grassmann42):
        for bundle in (sphere2, stiefel42, grassmann42):
            dec, alg = bundle.dec, bundle.dec.algebra
            for r in range(dec.q):
                for t in (0.3, 0.9):
                    g = group_exp(alg, dec.h_basis[r], t)
                    _, leak = restrict_to_m(dec, alg.adjoint_Ad(g))
                    assert leak <= 1e-9


def flat(n):
    """The decomposition of the abelian algebra R^n with h = {0}: dim m = n."""
    return rh.build_decomposition(rh.StructuredLieAlgebra(np.zeros((n, n, n))), [], np.eye(n))


class TestMetricOnM:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            rh.MetricOnM(flat(2), [[1.0, 0.5], [0.2, 1.0]])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            rh.MetricOnM(flat(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_nan_gram_rejected(self):
        with pytest.raises(ValueError, match="gram matrix has a non-finite entry"):
            rh.MetricOnM(flat(2), [[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gram_rejected(self, bad):
        # inf - inf in an asymmetry check would raise the RuntimeWarning the test
        # configuration turns into an error, not this ValueError
        with pytest.raises(ValueError, match="gram matrix has a non-finite entry"):
            rh.MetricOnM(flat(2), [[1.0, bad], [bad, 1.0]])

    def test_gram_of_the_wrong_size_rejected(self, s2dec):
        for gram in (np.eye(3), np.ones(2), np.eye(2)[:, :1]):
            with pytest.raises(ValueError, match=r"must be 2x2 \(dim m\)"):
                rh.MetricOnM(s2dec, gram)

    def test_signature(self):
        assert rh.MetricOnM(flat(3), np.diag([2.0, -1.0, 1.0])).signature == (2, 1)
        assert rh.MetricOnM(flat(4), np.eye(4)).signature == (4, 0)


# -- per-case oracle of the isotropy reports ------------------------------------


def bits(report):
    """Residual and witnesses as text: equal texts mean equal float bits, NaN included."""
    if isinstance(report, rh.CheckReport):
        report = (report.max_residual, list(report.witnesses))
    return json.dumps(report, sort_keys=True)


def per_case_report(dec, alpha=None, gram=None):
    """``(worst, witnesses, residuals)`` from one operator at a time.

    Each exponential is formed on its own and each residual is a product of
    2-d matrices.  The witness is the first NaN, otherwise the first strict
    maximum, as a loop that keeps the worst so far finds it.
    """
    if alpha is not None:
        def derivation(act):
            return np.tensordot(act, alpha, 1) - (act.T @ alpha + alpha @ act)

        def pullback(op):
            return np.tensordot(op, alpha, 1) - op.T @ (alpha @ op)
    else:
        def derivation(act):
            return act.T @ gram + gram @ act

        def pullback(op):
            return op.T @ gram @ op - gram
    cases = [({"kind": "infinitesimal", "h_index": r}, derivation, act)
             for r, act in enumerate(dec.h_action)]
    cases += [({"kind": "finite", "h_index": r, "t": t}, pullback, expm(t * act))
              for r, act in enumerate(dec.h_action) for t in _FINITE_SAMPLE_TIMES]
    cases += [({"kind": "generator", "index": k}, pullback, op)
              for k, op in enumerate(dec._generator_actions)]
    residuals = [float(np.max(np.abs(residual(op)), initial=0.0)) for _, residual, op in cases]
    worst, witnesses = 0.0, []
    for (witness, _, _), res in zip(cases, residuals):
        if not res <= worst:
            worst, witnesses = res, [{**witness, "residual": res}]
            if np.isnan(res):
                break
    return worst, witnesses, np.array(residuals)


@functools.cache
def isotropy_case(name):
    """``(decomposition, alpha coefficient arrays, gram matrices)`` of a named case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name in SPACES:
        space = SPACES[name]()
        dec, N = space.dec, space.dec.N
        alphas = [rh.canonical_first(dec).coeffs, rng.standard_normal((N,) * 3)]
        a = rng.standard_normal((N, N))
        grams = [a @ a.T + N * np.eye(N)]
        if space.metric is not None:
            alphas.append(rh.levi_civita_alpha(dec, space.metric).coeffs)
            grams.append(space.metric.gram)
        return dec, alphas, grams
    so3 = rh.so3()
    flip = np.diag([1.0, -1.0, -1.0])       # Ad(flip) keeps E1 and negates E2, E3
    if name == "h_generators":
        dec = rh.build_decomposition(so3, [E1], [E2, E3], h_generators=[flip])
        return dec, [rng.standard_normal((2, 2, 2))], [np.diag([1.0, 2.0])]
    if name == "generators_only":            # q = 0: only the generator can fail
        dec = rh.build_decomposition(so3, [], np.eye(3), h_generators=[flip])
        return dec, [rng.standard_normal((3, 3, 3))], [np.array(
            [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]])]
    if name == "nan_coefficient":
        dec = rh.stiefel(4, 2).dec
        coeffs = rng.standard_normal((dec.N,) * 3)
        coeffs[2, 1, 3] = np.nan
        return dec, [coeffs], []
    if name == "all_zero":
        dec = rh.stiefel(5, 2).dec
        return dec, [np.zeros((dec.N,) * 3)], []
    if name == "m_zero":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = rh.symmetric_decomposition(so3, np.eye(3))
        return dec, [np.zeros((0, 0, 0))], [np.zeros((0, 0))]
    raise KeyError(name)
