import numpy as np
import pytest

from symkry import (
    BasisMatrix,
    QuadraticHamiltonianSystem,
    apply_J,
    apply_J_inverse,
    canonical_J,
    join_state,
    omega,
    orthonormal_defect,
    split_state,
    symplectic_defect,
)
from symkry.core import SYMPLECTIC, _norm

from conftest import (
    check_hamiltonian_matrix,
    dense_action,
    jvp_matches_finite_difference,
    random_hamiltonian_matrix,
    random_quadratic_system,
)


class TestApplyJ:
    def test_canonical_pair_smallest(self):
        # J e1 = -e2 in dimension 2
        assert np.array_equal(apply_J(np.array([1.0, 0.0])), np.array([0.0, -1.0]))

    def test_block_swap_with_sign(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(apply_J(v), np.array([3.0, 4.0, -1.0, -2.0]))

    def test_applied_twice_negates(self, rng):
        v = rng.standard_normal(10)
        assert np.array_equal(apply_J(apply_J(v)), -v)

    def test_inverse_roundtrip(self, rng):
        v = rng.standard_normal(8)
        assert np.allclose(apply_J(apply_J_inverse(v)), v)
        assert np.allclose(apply_J_inverse(apply_J(v)), v)

    def test_inverse_undoes_J_exactly(self, rng):
        v = rng.standard_normal(8)
        assert np.array_equal(apply_J_inverse(apply_J(v)), v)

    @pytest.mark.parametrize("fn", [apply_J, apply_J_inverse])
    def test_out_is_written_and_returned_bit_equal(self, fn, rng):
        block = rng.standard_normal((3, 8))
        targets = np.full((3, 8), np.nan)
        cases = [
            (rng.standard_normal(8), np.full(8, np.nan)),  # a vector
            (block[1], targets[2]),  # a row of a block
            (block.T, targets.T),  # a transposed block view
        ]
        for v, out in cases:
            assert fn(v, out=out) is out
            assert np.array_equal(out, fn(v))

    @pytest.mark.parametrize("fn,sign", [(apply_J, 1.0), (apply_J_inverse, -1.0)])
    def test_allocating_form_is_c_order_block_swap(self, fn, sign, rng):
        v = rng.standard_normal((3, 8)).T  # J acts on axis 0 of the view
        got = fn(v)
        assert got.flags.c_contiguous
        assert np.array_equal(got, sign * np.concatenate([v[4:], -v[:4]]))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            apply_J(np.ones(5))

    def test_matches_dense_J(self, rng):
        J = canonical_J(3)
        v = rng.standard_normal(6)
        assert np.allclose(apply_J(v), J @ v)
        M = rng.standard_normal((6, 4))
        assert np.allclose(apply_J(M), J @ M)


@pytest.mark.parametrize("n", [0, 1, 7, 22, 800, 801])
def test_norm_is_numpys_bit_for_bit(rng, n):
    # the hot paths' sqrt(v . v) gives np.linalg.norm's bits on a
    # contiguous vector, at any scale
    for _ in range(50):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150)
        assert _norm(v) == np.linalg.norm(v)


class TestOmega:
    def test_darboux_pair(self):
        n = 4
        e1 = np.eye(2 * n)[0]
        f1 = np.eye(2 * n)[n]
        assert omega(e1, f1) == 1.0

    def test_skew_on_same_vector(self, rng):
        x = rng.standard_normal(12)
        assert abs(omega(x, x)) < 1e-14 * (x @ x)

    def test_antisymmetry(self, rng):
        x, y = rng.standard_normal((2, 16))
        assert abs(omega(x, y) + omega(y, x)) < 1e-14

    def test_agrees_with_apply_J(self, rng):
        # omega(x, y) = <x, J y>; applying J to the first argument flips sign
        x, y = rng.standard_normal((2, 10))
        assert np.isclose(omega(x, y), x @ apply_J(y))
        assert np.isclose(omega(x, y), -(apply_J(x) @ y))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            omega(np.ones(4), np.ones(6))


class TestStateSplitting:
    def test_split_join_roundtrip(self, rng):
        x = rng.standard_normal(14)
        q, p = split_state(x)
        assert len(q) == len(p) == 7
        assert np.array_equal(join_state(q, p), x)

    def test_unequal_halves_rejected(self):
        with pytest.raises(ValueError):
            join_state(np.ones(3), np.ones(4))


class TestSymplecticLeftInverse:
    def test_canonical_embedding_extracts_coordinates(self):
        n, k = 4, 2
        E = np.eye(2 * n)
        U = np.column_stack([E[0], E[1], E[n], E[n + 1]])
        basis = BasisMatrix(U, SYMPLECTIC)
        v = np.arange(1.0, 2 * n + 1)
        assert np.allclose(basis.left_apply(v), [1.0, 2.0, 5.0, 6.0])

    def test_left_inverse_roundtrip(self, rng):
        n, k = 5, 2
        E = np.eye(2 * n)
        U = np.column_stack([E[0], E[2], E[n], E[n + 2]])
        zeta = rng.standard_normal(2 * k)
        basis = BasisMatrix(U, SYMPLECTIC)
        assert np.allclose(basis.left_apply(U @ zeta), zeta, atol=1e-10)

    def test_lanczos_basis_left_inverse_identity(self, rng):
        from symkry import hamiltonian_lanczos

        A = random_hamiltonian_matrix(rng, 6)
        out = hamiltonian_lanczos(dense_action(A), rng.standard_normal(12), 3)
        U = out.basis.columns
        UdU = BasisMatrix(U, SYMPLECTIC).left_apply(U)
        assert np.linalg.norm(UdU - np.eye(U.shape[1])) < 1e-10

    def test_left_of_the_wrong_shape_is_refused(self):
        U = np.eye(8)[:, [0, 4]]
        assert BasisMatrix(U, SYMPLECTIC, left=U.T).left_apply(U).tolist() == [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="left has shape"):
            BasisMatrix(U, SYMPLECTIC, left=U)

    @pytest.mark.parametrize("columns, kind, message", [
        (np.ones(8), SYMPLECTIC, "columns must be a 2-d array"),
        (np.ones((8, 2, 1)), SYMPLECTIC, "columns must be a 2-d array"),
        (np.eye(8)[:, :2], "unitary", "unknown basis kind 'unitary'"),
    ], ids=["vector", "three-d", "unknown-kind"])
    def test_malformed_basis_is_refused(self, columns, kind, message):
        with pytest.raises(ValueError, match=message):
            BasisMatrix(columns, kind)


class TestExports:
    def test_all_names_resolve_without_duplicates(self):
        import symkry

        assert len(symkry.__all__) == len(set(symkry.__all__))
        missing = [name for name in symkry.__all__ if not hasattr(symkry, name)]
        assert missing == []


class TestStructuralChecks:
    def test_hamiltonian_construction(self, rng):
        A = random_hamiltonian_matrix(rng, 5)
        assert check_hamiltonian_matrix(A, 1e-10)

    def test_generic_matrix_is_not_hamiltonian(self, rng):
        A = rng.standard_normal((10, 10))
        assert not check_hamiltonian_matrix(A, 1e-8)

    def test_zero_matrix(self):
        assert check_hamiltonian_matrix(np.zeros((6, 6)), 1e-12)

    def test_symplectic_canonical_embedding(self):
        n = 3
        E = np.eye(2 * n)
        U = np.column_stack([E[0], E[n]])
        assert symplectic_defect(U) <= 1e-12

    def test_plain_arnoldi_basis_not_symplectic(self, rng):
        from symkry import arnoldi

        A = random_hamiltonian_matrix(rng, 3)
        out = arnoldi(dense_action(A), rng.standard_normal(6), 4)
        assert orthonormal_defect(out.basis.columns) <= 1e-10
        assert symplectic_defect(out.basis.columns) > 1e-10

    def test_scaling_breaks_symplecticity(self):
        n = 3
        E = np.eye(2 * n)
        U = 2.0 * np.column_stack([E[0], E[n]])
        assert symplectic_defect(U) > 1e-10

    def test_odd_column_count_rejected(self):
        with pytest.raises(ValueError):
            symplectic_defect(np.ones((6, 3)))


class TestDarbouxRelations:
    def test_symplectic_arnoldi_basis_darboux(self, rng):
        from symkry import symplectic_arnoldi

        A = random_hamiltonian_matrix(rng, 8)
        out = symplectic_arnoldi(dense_action(A), rng.standard_normal(16), 4)
        U = out.basis.columns
        k = U.shape[1] // 2
        V, W = U[:, :k], U[:, k:]
        for i in range(k):
            for j in range(k):
                assert abs(omega(V[:, i], V[:, j])) < 1e-10
                assert abs(omega(W[:, i], W[:, j])) < 1e-10
                assert abs(omega(V[:, i], W[:, j]) - (i == j)) < 1e-10


class TestHamiltonianSystemInterface:
    def test_quadratic_system_jvp_and_structure(self, rng):
        sys = random_quadratic_system(rng, 6)
        x = rng.standard_normal(sys.dim)
        v = rng.standard_normal(sys.dim)
        assert jvp_matches_finite_difference(sys, x, v)
        A = sys.jacobian_dense(x)
        assert check_hamiltonian_matrix(A, 1e-8)

    def test_callable_S_needs_dim(self):
        with pytest.raises(ValueError, match="dim is required when S is a callable"):
            QuadraticHamiltonianSystem(lambda v: v)
        assert QuadraticHamiltonianSystem(lambda v: v, dim=4).dim == 4

    @pytest.mark.parametrize("S, d, dim", [
        (np.eye(4), np.ones(3), None), (lambda v: v, np.ones((2, 2)), 4)],
        ids=["dense-S", "callable-S"])
    def test_constant_of_the_wrong_length_is_refused(self, S, d, dim):
        with pytest.raises(ValueError, match="constant term has wrong length"):
            QuadraticHamiltonianSystem(S, d, dim=dim)

    def test_dense_jacobian_and_f0_reproduce_field(self, rng):
        sys = random_quadratic_system(rng, 4)
        x = rng.standard_normal(sys.dim)
        A, c = sys.jacobian_dense(x), sys.f(np.zeros(sys.dim))
        assert np.allclose(A @ x + c, sys.f(x))

    def test_energy_conserved_along_exact_flow(self, rng):
        # reference check that the construction is genuinely Hamiltonian
        from symkry import expm

        sys = random_quadratic_system(rng, 4, with_constant=False)
        x0 = rng.standard_normal(sys.dim)
        A = sys.jacobian_dense(x0)
        x1 = expm(0.7 * A) @ x0
        assert abs(sys.energy(x1) - sys.energy(x0)) < 1e-10 * abs(sys.energy(x0))
