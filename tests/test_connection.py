import numpy as np
import pytest

import redhom as rh
from conftest import commutator_coords, hm_coords, m_bracket, rebase, seeded_change_of_basis
from test_catalog import SPACES

E1, E2, E3 = np.eye(3)
X1, X2 = np.eye(2)


@pytest.fixture(scope="module")
def free_so3():
    """so(3) as a quotient by the trivial subgroup: every bilinear map is invariant."""
    return rh.build_decomposition(rh.so3(), [], np.eye(3))


class TestAlphaMap:
    def test_canonical_first_on_sphere_vanishes(self, sphere2):
        a = rh.canonical_first(sphere2.dec)
        assert np.max(np.abs(a.coeffs)) == 0.0
        assert np.allclose(a(X1, X2), 0.0)

    def test_canonical_first_on_group(self, free_so3):
        a = rh.canonical_first(free_so3)
        # oracle: half the commutator, [E1, E2] = E3
        assert np.allclose(a(E1, E2), 0.5 * E3, atol=1e-14)

    def test_canonical_second_is_zero_map(self, stiefel42, rng):
        a = rh.canonical_second(stiefel42.dec)
        x, y = rng.standard_normal((2, stiefel42.dec.N))
        assert np.array_equal(a(x, y), np.zeros(stiefel42.dec.N))

    def test_bilinearity_zero_argument(self, free_so3, rng):
        a = rh.canonical_first(free_so3)
        x = rng.standard_normal(3)
        assert np.allclose(a(x, np.zeros(3)), 0.0)

    def test_invariance_enforced_at_construction(self, sphere2):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="invariant"):
            rh.AlphaMap(sphere2.dec, coeffs)
        tainted = rh.AlphaMap(sphere2.dec, coeffs, unchecked=True)
        assert not tainted.checked

    def test_nan_coefficients_fail_the_invariance_gate(self, sphere2):
        coeffs = np.full((2, 2, 2), np.nan)
        with pytest.raises(ValueError, match="invariant"):
            rh.AlphaMap(sphere2.dec, coeffs)
        report = rh.AlphaMap(sphere2.dec, coeffs, unchecked=True).invariance
        assert np.isnan(report.max_residual) and not report.passed
        assert [w["kind"] for w in report.witnesses] == ["infinitesimal"]

    def test_shape_validated(self, sphere2):
        with pytest.raises(ValueError, match="shape"):
            rh.AlphaMap(sphere2.dec, np.zeros((3, 3, 3)))


@pytest.mark.parametrize("refuse, message", [
    pytest.param(lambda s: rh.AlphaMap(s.dec, np.zeros((2, 2, 2)), label="christoffel"),
                 r"label must be one of \('explicit', 'canonical_first', 'canonical_second', "
                 r"'levi_civita'\)", id="alpha-label"),
    pytest.param(lambda s: rh.TensorAtOrigin("ricci", np.zeros((2, 2))),
                 "kind must be 'torsion' or 'curvature'", id="tensor-kind"),
    pytest.param(lambda s: rh.canonical_second(s.dec)([1.0, 0.0, 0.0], [1.0, 0.0]),
                 "expected m-coordinate vectors of length 2", id="alpha-vector-length"),
    pytest.param(lambda s: rh.canonical_second(s.dec)(np.eye(2), [1.0, 0.0]),
                 "expected m-coordinate vectors of length 2", id="alpha-vector-stack"),
    pytest.param(lambda s: rh.torsion(rh.canonical_second(s.dec))([1.0, 0.0]),
                 "torsion tensor takes 2 vectors", id="torsion-vector-count"),
    pytest.param(lambda s: rh.curvature(rh.canonical_second(s.dec))(*np.eye(2)),
                 "curvature tensor takes 3 vectors", id="curvature-vector-count"),
])
def test_malformed_connection_inputs_are_refused(sphere2, refuse, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        refuse(sphere2)


class TestLeviCivita:
    def test_naturally_reductive_collapse_to_canonical_first(self, sphere2, stiefel42):
        for bundle in (sphere2, stiefel42):
            lc = rh.levi_civita_alpha(bundle.dec, bundle.metric)
            cf = rh.canonical_first(bundle.dec)
            assert np.max(np.abs(lc.coeffs - cf.coeffs)) <= 1e-10

    def test_sphere_levi_civita_vanishes(self, sphere2):
        lc = rh.levi_civita_alpha(sphere2.dec, sphere2.metric)
        assert np.max(np.abs(lc.coeffs)) <= 1e-14

    def test_rigid_body_matches_euler_equations(self, rigid_body, rng):
        # oracle: omega' = I^-1 (I omega x omega), hand-coded cross product
        lc = rh.levi_civita_alpha(rigid_body.dec, rigid_body.metric)
        inertia = np.diag([1.0, 2.0, 3.0])
        for _ in range(20):
            x = rng.standard_normal(3)
            euler_rhs = np.linalg.solve(inertia, np.cross(inertia @ x, x))
            assert np.max(np.abs(lc(x, x) + euler_rhs)) <= 1e-12

    def test_non_invariant_metric_rejected(self, sphere2):
        bad = rh.MetricOnM(sphere2.dec, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="invariant"):
            rh.levi_civita_alpha(sphere2.dec, bad)
        tainted = rh.levi_civita_alpha(sphere2.dec, bad, unchecked=True)
        assert not tainted.checked

    def test_metric_of_another_decomposition_rejected(self, sphere2):
        # its stored invariance report measures the other decomposition's isotropy
        other = rh.sphere2()
        with pytest.raises(ValueError, match="different decompositions"):
            rh.levi_civita_alpha(sphere2.dec, other.metric)

    def test_u_part_symmetric(self, rigid_body):
        lc = rh.levi_civita_alpha(rigid_body.dec, rigid_body.metric)
        u = lc.coeffs - 0.5 * rigid_body.dec.m_bracket_tensor
        assert np.max(np.abs(u - np.swapaxes(u, 1, 2))) <= 1e-13


class TestTorsion:
    def test_canonical_first_exactly_torsion_free(self, sphere2, stiefel42,
                                                  grassmann42, rigid_body):
        for bundle in (sphere2, stiefel42, grassmann42, rigid_body):
            t = rh.torsion(rh.canonical_first(bundle.dec))
            assert np.max(np.abs(t.coeffs)) == 0.0

    def test_canonical_second_torsion_is_minus_bracket(self, free_so3, rng):
        t = rh.torsion(rh.canonical_second(free_so3))
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(t(x, y), -m_bracket(free_so3, x, y), atol=1e-14)

    def test_levi_civita_torsion_free(self, rigid_body):
        t = rh.torsion(rh.levi_civita_alpha(rigid_body.dec, rigid_body.metric))
        assert np.max(np.abs(t.coeffs)) <= 1e-10

    def test_exactly_antisymmetric(self, rigid_body, rng):
        t = rh.torsion(rh.levi_civita_alpha(rigid_body.dec, rigid_body.metric))
        x, y = rng.standard_normal((2, 3))
        assert np.array_equal(t(x, y), -t(y, x))


class TestCurvature:
    def test_sphere_spot_value(self, sphere2):
        # hand evaluation: alpha = 0, so R(A1, A2)A2 = -[[A1, A2]_h, A2] = A1
        r = rh.curvature(rh.canonical_first(sphere2.dec))
        assert np.allclose(r(X1, X2, X2), X1, atol=1e-13)
        assert rh.sectional_curvature(r, sphere2.metric, X1, X2) == pytest.approx(1.0, abs=1e-12)

    def test_abelian_algebra_flat(self):
        abelian = rh.StructuredLieAlgebra(np.zeros((2, 2, 2)), name="r2")
        dec = rh.build_decomposition(abelian, [], np.eye(2))
        r = rh.curvature(rh.canonical_second(dec))
        assert np.max(np.abs(r.coeffs)) == 0.0

    def test_group_with_zero_alpha_flat(self, free_so3):
        r = rh.curvature(rh.canonical_second(free_so3))
        assert np.max(np.abs(r.coeffs)) == 0.0

    def test_antisymmetry_in_first_slots(self, stiefel42, grassmann42, rng):
        for bundle in (stiefel42, grassmann42):
            r = rh.curvature(rh.canonical_first(bundle.dec))
            assert np.max(np.abs(r.coeffs + np.swapaxes(r.coeffs, 1, 2))) <= 1e-12
            x, y, z = rng.standard_normal((3, bundle.dec.N))
            assert np.max(np.abs(r(x, y, z) + r(y, x, z))) <= 1e-12

    def test_infinitesimal_invariance_identity(self, sphere2, stiefel42, grassmann42):
        # [eta, R(X,Y)Z]_m = R([eta,X]_m,Y)Z + R(X,[eta,Y]_m)Z + R(X,Y)[eta,Z]_m
        for bundle in (sphere2, stiefel42, grassmann42):
            dec = bundle.dec
            r = rh.curvature(rh.canonical_first(dec)).coeffs
            for idx in range(dec.q):
                act = dec.h_action[idx]
                lhs = np.einsum("kl,lijm->kijm", act, r)
                rhs = (np.einsum("kljm,li->kijm", r, act)
                       + np.einsum("kilm,lj->kijm", r, act)
                       + np.einsum("kijl,lm->kijm", r, act))
                assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_grassmann_matches_direct_bracket_contraction(self, grassmann42):
        # R(X,Y)Z = alpha(X, alpha(Y,Z)) - [[X,Y]_h, Z] - alpha([X,Y]_m, Z) - alpha(Y, alpha(X,Z)),
        # assembled by hand from vectors with the full-algebra bracket of the h-part:
        # on grassmann(4,2) alpha = 0, on stiefel(5,2) Levi-Civita alpha != 0, and on
        # so(3)/{e} (h = {0}, so every bilinear map is invariant) a random alpha
        free = rh.build_decomposition(rh.so3(), [], np.eye(3))
        stiefel52 = rh.stiefel(5, 2)
        alphas = [rh.canonical_first(grassmann42.dec),
                  rh.levi_civita_alpha(stiefel52.dec, stiefel52.metric),
                  rh.AlphaMap(free, np.random.default_rng(11).standard_normal((3, 3, 3)))]
        for alpha in alphas:
            dec, alg = alpha.dec, alpha.dec.algebra
            r = rh.curvature(alpha)
            rng = np.random.default_rng(7)
            for _ in range(10):
                x, y, z = rng.standard_normal((3, dec.N))
                xy = hm_coords(dec, commutator_coords(alg, x @ dec.m_basis, y @ dec.m_basis))
                hpart = xy[: dec.q] @ dec.h_basis
                want = (alpha(x, alpha(y, z))
                        - hm_coords(dec, commutator_coords(alg, hpart, z @ dec.m_basis))[dec.q:]
                        - alpha(xy[dec.q:], z)
                        - alpha(y, alpha(x, z)))
                assert np.max(np.abs(r(x, y, z) - want)) <= 1e-12


def assert_witness_is_a_worst_triple(rep, residual, n):
    """``rep``'s residual is the largest ``residual(i, j, k)`` and its witness reaches it;
    ``residual`` is evaluated one basis triple at a time."""
    res = np.array([[[residual(*np.eye(n)[[i, j, k]]) for k in range(n)] for j in range(n)]
                    for i in range(n)])
    ((i, j, k),) = [w["triple"] for w in rep.witnesses]
    assert rep.max_residual == pytest.approx(res.max(), rel=1e-12)
    assert res[i, j, k] == pytest.approx(res.max(), rel=1e-12)


class TestNaturallyReductive:
    def test_normal_and_symmetric_spaces_pass(self, sphere2, stiefel42, grassmann42):
        for bundle in (sphere2, stiefel42, grassmann42):
            assert rh.naturally_reductive_check(bundle.dec, bundle.metric).passed

    def test_rigid_body_fails_with_witness(self, rigid_body):
        rep = rh.naturally_reductive_check(rigid_body.dec, rigid_body.metric)
        assert not rep.passed
        assert rep.witnesses and "triple" in rep.witnesses[0]
        assert not rep.mandatory

    def test_witness_is_a_worst_triple(self, stiefel42, rng):
        dec, n = stiefel42.dec, stiefel42.dec.N
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        rep = rh.naturally_reductive_check(dec, rh.MetricOnM(dec, g))
        assert_witness_is_a_worst_triple(rep, lambda x, y, z: abs(
            m_bracket(dec, x, y) @ g @ z - x @ g @ m_bracket(dec, y, z)), n)


class TestIsMetric:
    def test_canonical_second_always_metric(self, rigid_body, stiefel42):
        for bundle in (rigid_body, stiefel42):
            a = rh.canonical_second(bundle.dec)
            rep = rh.is_metric(a, bundle.metric)
            assert rep.passed and rep.max_residual == 0.0

    def test_levi_civita_metric_for_its_own_gram(self, rigid_body, stiefel42):
        for bundle in (rigid_body, stiefel42):
            lc = rh.levi_civita_alpha(bundle.dec, bundle.metric)
            assert rh.is_metric(lc, bundle.metric).passed

    def test_canonical_first_metric_iff_naturally_reductive(self, stiefel42, rigid_body):
        assert rh.is_metric(rh.canonical_first(stiefel42.dec), stiefel42.metric).passed
        rep = rh.is_metric(rh.canonical_first(rigid_body.dec), rigid_body.metric)
        assert not rep.passed

    def test_witness_is_a_worst_triple(self, free_so3, rng):
        g = np.diag([1.0, 2.0, 3.0])
        alpha = rh.AlphaMap(free_so3, rng.standard_normal((3, 3, 3)))
        rep = rh.is_metric(alpha, rh.MetricOnM(free_so3, g))
        assert_witness_is_a_worst_triple(rep, lambda x, y, z: abs(
            alpha(x, y) @ g @ z + y @ g @ alpha(x, z)), 3)

    def test_equivalence_with_skewness_on_20_random_maps(self, free_so3, rng):
        # exact-skew constructions pass, symmetric perturbations fail
        gram = np.diag([1.0, 2.0, 3.0])
        metric = rh.MetricOnM(free_so3, gram)
        ginv = np.linalg.inv(gram)
        for trial in range(20):
            coeffs = np.empty((3, 3, 3))
            for i in range(3):
                s = rng.standard_normal((3, 3))
                skew = 0.5 * (s - s.T)
                coeffs[:, i, :] = ginv @ skew  # G @ alpha(A_i, .) = skew
            a = rh.AlphaMap(free_so3, coeffs)
            assert rh.is_metric(a, metric).passed
            bad = coeffs.copy()
            bad[0, trial % 3, 0] += 0.1  # symmetric-direction bump
            rep = rh.is_metric(rh.AlphaMap(free_so3, bad), metric)
            assert not rep.passed


class TestSectionalCurvature:
    def test_degenerate_plane_refused(self):
        abelian = rh.StructuredLieAlgebra(np.zeros((3, 3, 3)), name="r3")
        dec = rh.build_decomposition(abelian, [], np.eye(3))
        metric = rh.MetricOnM(dec, np.diag([1.0, -1.0, 1.0]))
        a = rh.canonical_second(dec)
        # (1, 1, 0) is a null direction orthogonal to (0, 0, 1)
        with pytest.raises(ValueError, match="degenerate plane"):
            rh.sectional_curvature(rh.curvature(a), metric, [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    def test_tainted_flag_propagates(self, sphere2):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 0] = 1.0
        tainted = rh.AlphaMap(sphere2.dec, coeffs, unchecked=True)
        assert rh.torsion(tainted).tainted
        assert rh.is_metric(tainted, sphere2.metric).tainted


ALPHAS = {"canonical_first": lambda space: rh.canonical_first(space.dec),
          "canonical_second": lambda space: rh.canonical_second(space.dec),
          "levi_civita": lambda space: rh.levi_civita_alpha(space.dec, space.metric)}


def in_basis(coeffs, P):
    """Coefficients of a (1, k) tensor on the basis A, moved to the basis P.A:
    ``out[d, a, b, ...] = sum P^-1[l, d] P[a, i] P[b, j] ... coeffs[l, i, j, ...]``."""
    out = np.tensordot(np.linalg.inv(P).T, coeffs, (1, 0))
    for axis in range(1, coeffs.ndim):
        out = np.moveaxis(np.tensordot(P, out, (1, axis)), 0, axis)
    return out


def ricci_scalar(riem, metric):
    """g^jk Ric_jk with Ric_jk = sum_i R[i, i, j, k], the trace of X -> R(X, A_j) A_k."""
    return float(np.einsum("jk,iijk->", np.linalg.inv(metric.gram), riem.coeffs))


def assert_close(got, want, rel=1e-12):
    """``got`` equals ``want`` to ``rel`` of the larger of 1 and the largest |want|."""
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(np.subtract(got, want)), initial=0.0)) <= rel * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_alpha_torsion_and_curvature_are_tensors(name, alpha, seed):
    """The same space in the m basis P.A and the h basis Q.eta, with gram P G P^T
    (``rebase``): alpha and T transform as (1, 2) tensors, R as a (1, 3) tensor, and
    the sectional curvature of a fixed plane, of each new basis plane, and the Ricci
    scalar stay the same.  Most catalog grams are I on their own basis, where a g for a
    g^-1 or a wrong slot of g can hide; every gram here is a full P G P^T."""
    space = SPACES[name]()
    if space.metric is None:                # so(4) as a group: its bi-invariant metric
        space = rh.group_as_space(space.dec.algebra, rh.biinvariant_gram(space.dec.algebra))
    # a spread of 0.6 / sqrt(dim m) keeps P within a condition number of 30 up to dim 17
    P, Q = seeded_change_of_basis(space, seed, 0.6 / np.sqrt(space.dec.N))
    moved = rebase(space, P, Q)
    a, a_moved = ALPHAS[alpha](space), ALPHAS[alpha](moved)
    r, r_moved = rh.curvature(a), rh.curvature(a_moved)
    for old, new in ((a, a_moved), (rh.torsion(a), rh.torsion(a_moved)), (r, r_moved)):
        assert_close(new.coeffs, in_basis(old.coeffs, P))
    # the plane (A_1, A_2), on P.A spanned by the vectors of coordinates P^-T x, P^-T y
    x, y = np.eye(space.dec.N)[:2]
    p_inv_t = np.linalg.inv(P).T
    assert_close(rh.sectional_curvature(r_moved, moved.metric, p_inv_t @ x, p_inv_t @ y),
                 rh.sectional_curvature(r, space.metric, x, y))
    # the basis plane (B_i, B_j) of B = P.A is the plane (P[i], P[j]) on A
    assert_close([k for _, _, k in rh.basis_sectional_curvatures(r_moved, moved.metric)],
                 [rh.sectional_curvature(r, space.metric, P[i], P[j])
                  for i, j in zip(*np.triu_indices(space.dec.N, 1))])
    assert_close(ricci_scalar(r_moved, moved.metric), ricci_scalar(r, space.metric))
