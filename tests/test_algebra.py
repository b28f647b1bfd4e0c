import re

import numpy as np
import pytest

import redhom as rh
from redhom.algebra import expand_in_matrix_basis
from redhom.deffile import build_space, parse_definition
from redhom.reductive import DecompositionError

from conftest import (ad_matrix, commutator_coords, commutator_table, dense_jacobi_residual,
                      group_exp)

E1, E2, E3 = np.eye(3)
RIGID_BODY_ALGEBRA = (
    "[algebra]\nname = rigid-body\ndim = 3\n"
    "matrix_basis = [0 0 0; 0 0 -1; 0 1 0] [0 0 1; 0 0 0; -1 0 0] [0 -1 0; 1 0 0; 0 0 0]\n"
)


def three_generator_violation():
    """[e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3: antisymmetric, and the cyclic sum is -(e1+e2+e3)."""
    c = np.zeros((3, 3, 3))
    for (k, i, j, v) in ((0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 2, 0, 1.0)):
        c[k, i, j] = v
        c[k, j, i] = -v
    return c


def direct_sum(a, b):
    """Structure constants of the direct sum of two algebras."""
    c = np.zeros((len(a) + len(b),) * 3)
    c[:len(a), :len(a), :len(a)] = a
    c[len(a):, len(a):, len(a):] = b
    return c


def so_n_perturbed(n, seed=3):
    """so(n)'s constants moved by 1e-9 on their support, antisymmetry kept."""
    c = np.array(rh.so_n(n).structure_constants)
    c += 1e-9 * np.random.default_rng(seed).standard_normal(c.shape) * (c != 0)
    return 0.5 * (c - np.swapaxes(c, 1, 2))


def random_dense_constants(dim, seed=5):
    c = np.random.default_rng(seed).standard_normal((dim, dim, dim))
    return c - np.swapaxes(c, 1, 2)          # antisymmetric, but not a Lie algebra


# (constants, the Jacobi path the constructor takes for them, a floor under their residual)
JACOBI_INPUTS = {
    **{f"dense({dim})": (lambda dim=dim: random_dense_constants(dim), "dense", 1.0)
       for dim in range(3, 11)},
    **{f"so({n})+1e-9": (lambda n=n: so_n_perturbed(n), "support", 1e-10) for n in (5, 8, 12)},
    "violation+so(6)": (lambda: direct_sum(rh.so_n(6).structure_constants,
                                           three_generator_violation()), "support", 0.5),
}


def rodrigues(axis, angle):
    """Closed-form rotation about a unit axis: the oracle for the exponential of so(3)."""
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def ad_series(algebra, a, terms=20):
    """Oracle for Ad(exp(a)): the exponential of ad_a summed to `terms`."""
    ada = ad_matrix(algebra, a)
    out = np.zeros((algebra.dim, algebra.dim))
    power = np.eye(algebra.dim)
    fact = 1.0
    for j in range(terms + 1):
        out += power / fact
        power = power @ ada
        fact *= j + 1
    return out


class TestBracket:
    def test_so3_cyclic_table_matches_commutator_oracle(self, so3):
        c, e = so3.structure_constants, np.eye(3)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.allclose(c[:, i, j], commutator_coords(so3, e[i], e[j]), atol=1e-12)
            assert np.allclose(c[:, i, j], e[k], atol=1e-14)

    def test_matches_commutator_on_every_basis_pair(self, so3, so4):
        for alg in (so3, so4):
            e = np.eye(alg.dim)
            for i, j in np.ndindex(alg.dim, alg.dim):
                oracle = commutator_coords(alg, e[i], e[j])
                assert np.max(np.abs(alg.structure_constants[:, i, j] - oracle)) <= 1e-10


class TestGroupExp:
    def test_zero_time_gives_identity(self, so3, rng):
        v = rng.standard_normal(3)
        assert np.allclose(group_exp(so3, v, 0.0), np.eye(3), atol=1e-15)

    def test_rodrigues_oracle(self, so3, rng):
        for _ in range(10):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-3.0, 3.0)
            got = group_exp(so3, axis, angle)
            assert np.max(np.abs(got - rodrigues(axis, angle))) <= 1e-13

    def test_rotation_about_z(self, so3):
        theta = 0.7
        got = group_exp(so3, E3, theta)
        want = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                         [np.sin(theta), np.cos(theta), 0.0],
                         [0.0, 0.0, 1.0]])
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_one_parameter_inverse(self, so3, rng):
        v = rng.standard_normal(3)
        prod = group_exp(so3, v, 1.3) @ group_exp(so3, v, -1.3)
        assert np.max(np.abs(prod - np.eye(3))) <= 1e-12

    def test_one_parameter_homomorphism(self, so3, so4, rng):
        for alg in (so3, so4):
            v = rng.standard_normal(alg.dim)
            for _ in range(5):
                s, t = rng.uniform(-2.0, 2.0, size=2)
                lhs = group_exp(alg, v, s + t)
                rhs = group_exp(alg, v, s) @ group_exp(alg, v, t)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_requires_matrix_realization(self):
        abelian = rh.StructuredLieAlgebra(np.zeros((2, 2, 2)), name="r2")
        with pytest.raises(ValueError, match="r2 has no matrix realization"):
            expand_in_matrix_basis(abelian, np.eye(2))


class TestExpm:
    def test_against_scipy(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for scale in (0.1, 1.0, 10.0):
            a = scale * rng.standard_normal((6, 6))
            assert np.max(np.abs(rh.expm(a) - scipy_linalg.expm(a))) <= 1e-10 * max(
                1.0, np.max(np.abs(scipy_linalg.expm(a))))

    @pytest.mark.parametrize("norm", [1e-8, 1e-6, 1e-4, 3e-3, 1e-2, 0.1, 0.5])
    def test_small_norms_meet_scipy_at_the_degree_they_take(self, rng, norm):
        # below the 0.5 cap each block sums the Taylor series only to the degree its
        # largest 1-norm needs, down to 2 at 1e-8; the result still meets scipy to round-off
        scipy_linalg = pytest.importorskip("scipy.linalg")
        stack = rng.standard_normal((20, 6, 6))
        stack *= norm / np.abs(stack).sum(axis=1).max(axis=1)[:, None, None]
        for a in stack:
            want = scipy_linalg.expm(a)
            assert np.max(np.abs(rh.expm(a) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            rh.expm(np.zeros((2, 3)))

    def test_stack_matches_one_matrix_at_a_time(self, rng):
        # norms from 1e-3 to 1e2 give each matrix its own number of squarings
        stack = rng.standard_normal((2, 6, 4, 4)) * np.logspace(-3, 2, 6)[:, None, None]
        got = rh.expm(stack)
        assert got.shape == stack.shape
        for i, j in np.ndindex(2, 6):
            one = rh.expm(stack[i, j])
            assert np.max(np.abs(got[i, j] - one)) <= 1e-15 * max(1.0, np.max(np.abs(one)))


class TestAdjointAd:
    def test_identity(self, so3):
        assert np.allclose(so3.adjoint_Ad(np.eye(3)), np.eye(3), atol=1e-14)

    def test_matches_ad_series_oracle(self, so3, so4, rng):
        for alg in (so3, so4):
            v = 0.6 * rng.standard_normal(alg.dim)
            got = alg.adjoint_Ad(group_exp(alg, v))
            assert np.max(np.abs(got - ad_series(alg, v))) <= 1e-10

    def test_automorphism_property(self, so3, rng):
        # the action build_decomposition keeps for a generator of the trivial H is Ad_g
        g = group_exp(so3, rng.standard_normal(3))
        ad_g = rh.build_decomposition(so3, [], np.eye(3), h_generators=[g])._generator_actions[0]
        assert np.array_equal(ad_g, so3.adjoint_Ad(g))
        for _ in range(10):
            a, b = rng.standard_normal((2, 3))
            lhs = ad_g @ commutator_coords(so3, a, b)
            rhs = commutator_coords(so3, ad_g @ a, ad_g @ b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_homomorphism(self, so4, rng):
        g = group_exp(so4, rng.standard_normal(6), 0.8)
        h = group_exp(so4, rng.standard_normal(6), -0.5)
        lhs = so4.adjoint_Ad(g @ h)
        rhs = so4.adjoint_Ad(g) @ so4.adjoint_Ad(h)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_non_normalizing_element_rejected(self, so3):
        # a raw matrix: as a generator of H, build_decomposition would refuse its drift first
        with pytest.raises(ValueError, match="span"):
            so3.adjoint_Ad(np.diag([2.0, 1.0, 1.0]))


class TestConstructionValidation:
    def test_antisymmetry_violation_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0
        c[0, 1, 0] = -1.0 + 1e-6
        with pytest.raises(ValueError, match="antisymmetry"):
            rh.StructuredLieAlgebra(c)

    def test_tiny_antisymmetry_noise_canonicalized(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0
        c[0, 1, 0] = -1.0 + 1e-13
        alg = rh.StructuredLieAlgebra(c)
        cc = alg.structure_constants
        assert np.array_equal(cc, -np.swapaxes(cc, 1, 2))

    @pytest.mark.parametrize("embed", [None, 6], ids=["alone", "in so(6)"])
    def test_jacobi_violation_rejected(self, embed, jacobi_paths):
        c = three_generator_violation()
        if embed:
            c = direct_sum(rh.so_n(embed).structure_constants, c)
        jacobi_paths.update(support=0, dense=0)     # count the construction below only
        with pytest.raises(ValueError, match="Jacobi identity violated"):
            rh.StructuredLieAlgebra(c)
        assert jacobi_paths == {"support": 1, "dense": 0}

    def test_nan_structure_constant_rejected(self, so3):
        c = np.array(so3.structure_constants)
        c[0, 1, 2] = c[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="antisymmetry by nan"):
            rh.StructuredLieAlgebra(c)

    def test_matrix_commutator_consistency_enforced(self, so3):
        wrong = np.array([so3.matrix_basis[0], so3.matrix_basis[1],
                          2.0 * so3.matrix_basis[2]])
        with pytest.raises(ValueError, match="commutators"):
            rh.StructuredLieAlgebra(so3.structure_constants, wrong)

    def test_dependent_matrix_basis_rejected(self, so3):
        dep = np.array([so3.matrix_basis[0], so3.matrix_basis[1],
                        so3.matrix_basis[0] + so3.matrix_basis[1]])
        with pytest.raises(ValueError):
            rh.StructuredLieAlgebra(so3.structure_constants, dep)

    @pytest.mark.parametrize("case", JACOBI_INPUTS)
    def test_jacobi_residual_matches_the_three_einsum_cyclic_sum(self, case, jacobi_paths):
        make, path, floor = JACOBI_INPUTS[case]
        c = make()
        jacobi_paths.update(support=0, dense=0)     # count the construction below only
        alg = rh.StructuredLieAlgebra(c, tolerances={"jacobi": np.inf})
        assert jacobi_paths == {"dense": 0, "support": 0, path: 1}
        c = alg.structure_constants
        jacobi = next(r for r in alg.reports if r.check == "jacobi").max_residual
        assert jacobi > floor
        reference = dense_jacobi_residual(c)
        if path == "dense":                     # the dense loop keeps its bits
            assert jacobi == reference
        else:                                   # the same sums, in another order
            assert jacobi == pytest.approx(reference, rel=1e-13)
        if len(c) <= 28:                        # the einsums hold n^4 values each
            jac = (np.einsum("mij,lmk->lijk", c, c)
                   + np.einsum("mjk,lmi->lijk", c, c)
                   + np.einsum("mki,lmj->lijk", c, c))
            assert jacobi == pytest.approx(np.max(np.abs(jac)), rel=1e-13)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_so_n_constants_read_off_the_basis_are_exact(self, n):
        alg = rh.so_n(n)
        assert set(np.unique(alg.structure_constants)) <= {-1.0, 0.0, 1.0}
        report = next(r for r in alg.reports if r.check == "commutator_consistency")
        assert report.max_residual == 0.0

    def test_so3_constants_are_the_levi_civita_symbol(self, so3):
        i, j, k = np.indices((3, 3, 3))
        eps = (i - j) * (j - k) * (k - i) / 2.0
        assert np.array_equal(so3.structure_constants, np.moveaxis(eps, 2, 0))

    def test_constants_or_a_basis_are_required(self):
        with pytest.raises(ValueError, match="structure constants or a matrix basis"):
            rh.StructuredLieAlgebra(None)

    @pytest.mark.parametrize("make", [rh.so3] + [lambda n=n: rh.so_n(n) for n in range(2, 17)],
                             ids=["so3"] + [f"so({n})" for n in range(2, 17)])
    def test_jacobi_passes_for_catalog(self, make, jacobi_paths):
        alg = make()
        assert jacobi_paths == {"support": 1, "dense": 0}
        assert next(r for r in alg.reports if r.check == "jacobi").max_residual == 0.0
        c = alg.structure_constants
        if alg.dim <= 28:                       # the einsums hold n^4 values each
            jac = (np.einsum("mij,lmk->lijk", c, c)
                   + np.einsum("mjk,lmi->lijk", c, c)
                   + np.einsum("mki,lmj->lijk", c, c))
            assert np.max(np.abs(jac)) <= 1e-12

    @pytest.mark.parametrize("make", [
        *(lambda n=n: rh.so_n(n).matrix_basis for n in range(2, 13)),
        lambda: rh.so3().matrix_basis,
        lambda: build_space(parse_definition(RIGID_BODY_ALGEBRA))[0].dec.algebra.matrix_basis,
        lambda: np.tensordot(np.random.default_rng(4).standard_normal((6, 6)),
                             rh.so_n(4).matrix_basis, 1),
    ], ids=[f"so({n})" for n in range(2, 13)] + ["so3", "rigid-body", "recombined so(4)"])
    def test_constants_read_a_block_of_rows_at_a_time_keep_their_bits(self, make):
        basis = make()
        alg = rh.StructuredLieAlgebra(None, basis)
        c, err = commutator_table(np.array(basis))
        assert np.array_equal(alg.structure_constants, c)
        report = next(r for r in alg.reports if r.check == "commutator_consistency")
        assert report.max_residual == err


def generators_of_trivial_h(alg, *gens):
    """build_decomposition of ``alg`` over H = {e} with the generators ``gens``."""
    return rh.build_decomposition(alg, [], np.eye(alg.dim), h_generators=list(gens))


class TestGeneratorChecks:
    """build_decomposition is the one check of a generator of H; each failure names it."""

    def test_singular_rejected(self, so3):
        with pytest.raises(DecompositionError, match=r"^generator #1: matrix is numerically "
                                                     r"singular \(\|det\| = 0\.000e\+00\)$"):
            generators_of_trivial_h(so3, np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9,)])
    def test_another_shape_rejected(self, so3, shape):
        with pytest.raises(DecompositionError, match=rf"^generator #0: must be a 3x3 matrix, "
                                                     rf"got shape {re.escape(str(shape))}$"):
            generators_of_trivial_h(so3, np.ones(shape))

    def test_orthogonality_drift_guard(self, so3):
        # orthogonal is derived from the basis, so a definition-file so(3) is gated too
        rigid_body, _ = build_space(parse_definition(RIGID_BODY_ALGEBRA))
        for alg in (so3, rigid_body.dec.algebra):
            assert alg.orthogonal is True
            for diagonal in ([1.0 + 1e-5, 1.0, 1.0], [np.nan, 1.0, 1.0]):
                with pytest.raises(DecompositionError, match=r"^generator #0: orthogonality "
                                                             r"drift .* exceeds 1\.0e-08$"), \
                        np.errstate(invalid="ignore"):
                    generators_of_trivial_h(alg, np.diag(diagonal))
        # the same brackets on a conjugated, non-skew basis: a group outside O(3), whose
        # conjugated rotations normalize the algebra but drift far from O(3)
        p = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        skewed = rh.StructuredLieAlgebra(so3.structure_constants,
                                         p @ so3.matrix_basis @ np.linalg.inv(p))
        assert skewed.orthogonal is False
        assert rh.StructuredLieAlgebra(so3.structure_constants).orthogonal is False
        g = p @ group_exp(so3, np.array([0.3, -0.2, 0.5])) @ np.linalg.inv(p)
        assert np.max(np.abs(g.T @ g - np.eye(3))) > 0.1
        assert len(generators_of_trivial_h(skewed, g).h_generators) == 1

    def test_kept_generators_are_read_only_copies(self, so3):
        flip = np.diag([-1.0, -1.0, 1.0])
        (kept,) = generators_of_trivial_h(so3, flip).h_generators
        assert np.array_equal(kept, flip) and kept is not flip
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0


@pytest.mark.parametrize("constants, basis, message", [
    pytest.param(np.zeros((3, 3, 2)), None, r"structure constants must be a cubic array, got "
                 r"shape \(3, 3, 2\)", id="constants-not-cubic"),
    pytest.param(np.zeros((3, 3)), None, r"structure constants must be a cubic array, got "
                 r"shape \(3, 3\)", id="constants-of-rank-2"),
    pytest.param(np.zeros((3, 3, 3)), np.zeros((2, 3, 3)), r"matrix basis must have shape "
                 r"\(3, d, d\), got \(2, 3, 3\)", id="basis-of-another-length"),
    pytest.param(None, np.zeros((3, 3, 2)), r"matrix basis must have shape \(n, d, d\), got "
                 r"\(3, 3, 2\)", id="basis-not-square"),
])
def test_malformed_algebra_inputs_are_refused(constants, basis, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rh.StructuredLieAlgebra(constants, basis)


class TestExpandInBasis:
    def test_residual_gate(self, so3):
        sym = np.eye(3)  # symmetric matrix is not in the skew span
        coeffs, resid = expand_in_matrix_basis(so3, sym)
        assert coeffs.shape == (3,) and resid > 1e-2
        g = np.diag([2.0, 1.0, 1.0])
        _, resid = expand_in_matrix_basis(so3, g @ so3.matrix_basis @ np.linalg.inv(g))
        with pytest.raises(ValueError, match=f"not in the span .*{np.max(resid):.3e}"):
            so3.adjoint_Ad(g)
        so3.adjoint_Ad(g, residual_tol=np.max(resid))
        with pytest.raises(ValueError, match="residual nan"):
            so3.adjoint_Ad(np.diag([np.nan, 1.0, 1.0]))

    def test_roundtrip(self, so4, rng):
        v = rng.standard_normal((2, 6))
        mats = np.einsum("ri,iab->rab", v, so4.matrix_basis)
        back, resid = expand_in_matrix_basis(so4, mats)
        assert np.max(np.abs(back - v)) <= 1e-12 and np.all(resid <= 1e-15)
        single, _ = expand_in_matrix_basis(so4, mats[0])
        assert np.array_equal(single, back[0])
