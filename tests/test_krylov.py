import numpy as np
import pytest

from symkry import (
    BasisMatrix,
    CountingAction,
    KleinGordonSystem,
    LinearWaveSystem,
    apply_J,
    apply_J_inverse,
    arnoldi,
    canonical_J,
    extend_basis,
    hamiltonian_lanczos,
    isotropic_arnoldi,
    omega,
    orthonormal_defect,
    symplectic_arnoldi,
    symplectic_defect,
)
from symkry import krylov
from symkry.core import ORTHONORMAL, STRUCTURE_TOL, SYMPLECTIC
from symkry.errors import DegeneratePairError
from symkry.krylov import BREAKDOWN, INVARIANT_SUBSPACE, REACHED_K, KrylovOutcome

from conftest import dense_action, extend_by_insert, project, random_hamiltonian_matrix


def wave_action(n):
    sys = LinearWaveSystem(n=n)
    return CountingAction.from_system(sys, sys.initial_state), sys


def projection_residual(basis, w):
    return np.linalg.norm(w - project(basis, w)) / np.linalg.norm(w)


class TestArnoldi:
    def test_two_step_hand_computation(self):
        # A = J in dimension 2, started at e1
        act = dense_action(canonical_J(1))
        out = arnoldi(act, np.array([1.0, 0.0]), 2)
        assert np.allclose(out.basis.columns, np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert np.allclose(out.basis.reduced, np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert out.terminated == REACHED_K

    def test_eigenvector_stops_iteration(self, rng):
        act = dense_action(np.eye(6))
        out = arnoldi(act, rng.standard_normal(6), 3)
        assert out.basis.n_columns == 1
        assert out.terminated == INVARIANT_SUBSPACE
        assert np.allclose(out.basis.reduced, [[1.0]])
        assert out.residual_norm <= 1e-10

    def test_wave_full_spectrum_recovered(self, rng):
        # densified 12-dimensional wave Jacobian: full-dimension Arnoldi
        # reproduces the spectrum as a multiset
        act, sys = wave_action(6)
        A = sys.jacobian_dense(sys.initial_state)
        out = arnoldi(act, rng.standard_normal(12), 12)
        got = np.linalg.eigvals(out.basis.reduced)
        want = np.linalg.eigvals(A)
        # spectrum is +-i omega with distinct omegas: order by imaginary part
        got = got[np.argsort(got.imag)]
        want = want[np.argsort(want.imag)]
        assert np.allclose(got, want, atol=1e-8)

    def test_arnoldi_relation(self, rng):
        A = random_hamiltonian_matrix(rng, 8)
        v = rng.standard_normal(16)
        out = arnoldi(dense_action(A), v, 7)
        U, F = out.basis.columns, out.basis.reduced
        R = A @ U - U @ F
        # residual concentrated in the last column
        assert np.linalg.norm(R[:, :-1]) < 1e-12 * np.linalg.norm(A)
        assert abs(np.linalg.norm(R[:, -1]) - out.residual_norm) < 1e-10

    def test_hessenberg_structure(self, rng):
        A = random_hamiltonian_matrix(rng, 8)
        out = arnoldi(dense_action(A), rng.standard_normal(16), 9)
        assert np.linalg.norm(np.tril(out.basis.reduced, -2)) == 0.0

    def test_zero_start_vector_rejected(self):
        act = dense_action(np.eye(4))
        with pytest.raises(ValueError):
            arnoldi(act, np.zeros(4), 2)

    def test_k_out_of_range(self, rng):
        act = dense_action(np.eye(4))
        with pytest.raises(ValueError):
            arnoldi(act, rng.standard_normal(4), 0)
        with pytest.raises(ValueError):
            arnoldi(act, rng.standard_normal(4), 5)


class TestSymplecticArnoldi:
    def test_krylov_containment(self, rng):
        act, sys = wave_action(6)
        v = rng.standard_normal(12)
        out = symplectic_arnoldi(act, v, 4)
        A = sys.jacobian_dense(sys.initial_state)
        kp = out.basis.n_columns // 2
        w = v.copy()
        for j in range(kp):
            assert projection_residual(out.basis, w) <= 1e-8
            w = A @ w

    def test_structure_both_ways(self, rng):
        A = random_hamiltonian_matrix(rng, 10)
        out = symplectic_arnoldi(dense_action(A), rng.standard_normal(20), 5)
        U = out.basis.columns
        assert symplectic_defect(U) <= 1e-10
        assert orthonormal_defect(U) <= 1e-10

    def test_single_vector_case(self):
        # started at e1 in dimension 2 the only symplectic completion with
        # omega(v, w) = +1 is [e1, e2]
        act = dense_action(canonical_J(1))
        out = symplectic_arnoldi(act, np.array([1.0, 0.0]), 1)
        assert np.allclose(out.basis.columns, np.eye(2))
        A = canonical_J(1)
        assert np.allclose(out.basis.reduced, out.basis.columns.T @ A @ out.basis.columns)

    def test_reduced_matches_projection(self, rng):
        A = random_hamiltonian_matrix(rng, 8)
        out = symplectic_arnoldi(dense_action(A), rng.standard_normal(16), 4)
        U = out.basis.columns
        assert np.linalg.norm(out.basis.reduced - U.T @ A @ U) < 1e-8


class TestIsotropicArnoldi:
    def test_isotropy_and_orthonormality(self, rng):
        A = random_hamiltonian_matrix(rng, 10)
        out = isotropic_arnoldi(dense_action(A), rng.standard_normal(20), 4)
        U = out.basis.columns
        k = U.shape[1] // 2
        Q = U[:, :k]
        assert orthonormal_defect(Q) <= 1e-10
        assert np.linalg.norm(Q.T @ canonical_J(10) @ Q) <= 1e-10
        assert symplectic_defect(U) <= 1e-10
        assert orthonormal_defect(U) <= 1e-10

    def test_first_vector_matches_symplectic_arnoldi(self, rng):
        A = random_hamiltonian_matrix(rng, 5)
        v = rng.standard_normal(10)
        iso = isotropic_arnoldi(dense_action(A), v, 1)
        sym = symplectic_arnoldi(dense_action(A), v, 1)
        assert np.allclose(iso.basis.columns, sym.basis.columns)
        assert np.allclose(iso.basis.reduced, sym.basis.reduced)

    def test_early_stop_reuses_every_sweep_image(self):
        # at the wave initial state the process breaks down after one pair;
        # the sweep's image of q_1 is reused, so only J^(-1) q_1 costs an action
        act, sys = wave_action(30)
        out = isotropic_arnoldi(act, sys.f(sys.initial_state), 8)
        assert out.terminated == BREAKDOWN
        assert out.basis.n_columns == 2
        assert act.count == 2
        A = sys.jacobian_dense(sys.initial_state)
        assert np.allclose(out.action_images, A @ out.basis.columns)

    def test_krylov_containment_fails_generically(self, rng):
        # the defining weakness: range(U) need not contain K_k(A, v)
        A = random_hamiltonian_matrix(rng, 10)
        v = rng.standard_normal(20)
        out = isotropic_arnoldi(dense_action(A), v, 4)
        w = np.linalg.matrix_power(A, 3) @ v
        assert projection_residual(out.basis, w) > 1e-3


class TestHamiltonianLanczos:
    def test_klein_gordon_jacobian_symplecticity(self, rng):
        sys = KleinGordonSystem(n=12)
        x = rng.standard_normal(24)
        out = hamiltonian_lanczos(CountingAction.from_system(sys, x),
                                  rng.standard_normal(24), 6)
        assert symplectic_defect(out.basis.columns) <= 1e-8

    def test_power_containment_to_double_depth(self, rng):
        act, sys = wave_action(6)
        v = rng.standard_normal(12)
        out = hamiltonian_lanczos(act, v, 3)
        A = sys.jacobian_dense(sys.initial_state)
        w = v.copy()
        for j in range(6):  # j = 0 .. 2k-1
            assert projection_residual(out.basis, w) <= 1e-6
            w = A @ w

    def test_one_pair_case(self):
        act = dense_action(canonical_J(1))
        out = hamiltonian_lanczos(act, np.array([1.0, 0.0]), 1)
        U = out.basis.columns
        assert np.linalg.norm(U.T @ canonical_J(1) @ U - canonical_J(1)) < 1e-15
        # with U = I the reduced matrix is A itself
        assert np.allclose(out.basis.reduced, canonical_J(1))

    def test_reduced_block_structure(self, rng):
        A = random_hamiltonian_matrix(rng, 8)
        out = hamiltonian_lanczos(dense_action(A), rng.standard_normal(16), 4)
        F = out.basis.reduced
        kp = out.basis.n_columns // 2
        T = F[:kp, kp:]
        D = F[kp:, :kp]
        assert np.linalg.norm(F[:kp, :kp]) == 0.0
        assert np.linalg.norm(F[kp:, kp:]) == 0.0
        assert np.allclose(T, T.T)
        assert np.linalg.norm(np.triu(T, 2)) == 0.0
        assert np.allclose(np.abs(np.diag(D)), 1.0)
        assert np.linalg.norm(D - np.diag(np.diag(D))) == 0.0

    def test_reduced_matches_projection(self, rng):
        A = random_hamiltonian_matrix(rng, 8)
        out = hamiltonian_lanczos(dense_action(A), rng.standard_normal(16), 4)
        F_proj = out.basis.left_apply(A @ out.basis.columns)
        assert np.linalg.norm(out.basis.reduced - F_proj) < 1e-8

    def test_breakdown_reported_not_raised(self):
        # tau = v^T S v = 0 for S = diag(1, -1) and v = (1, 1)
        from symkry import QuadraticHamiltonianSystem

        sys = QuadraticHamiltonianSystem(np.diag([1.0, -1.0]))
        act = CountingAction.from_system(sys, np.zeros(2))
        out = hamiltonian_lanczos(act, np.array([1.0, 1.0]), 1)
        assert out.terminated == BREAKDOWN
        assert out.basis.n_columns == 0


def two_pair_lanczos_matrix(coupling):
    """A = J^(-1) S on R^8 whose Lanczos basis from e_1 is u = (e_1, e_2),
    v = (e_5, e_6), with D = diag(1, -1) and T = [[2, 3], [3, 5]].  The third
    remainder is coupling * (e_3 + e_7), and S is isotropic on it: a
    coupling of 0 ends the recursion as an invariant subspace after two
    pairs, a coupling of 1 as a breakdown."""
    S = np.zeros((8, 8))
    S[0, 0], S[1, 1] = 1.0, -1.0
    S[4:6, 4:6] = -np.array([[2.0, 3.0], [3.0, 5.0]])
    S[2, 5] = S[5, 2] = coupling
    S[6, 5] = S[5, 6] = -coupling
    S[2, 2], S[6, 6] = 1.0, -1.0
    S[3, 3] = S[7, 7] = 1.0
    return apply_J_inverse(S)


class TestLanczosRowBlock:
    @pytest.mark.parametrize("coupling, stop", [(0.0, INVARIANT_SUBSPACE), (1.0, BREAKDOWN)])
    def test_early_stop_keeps_u_then_v_order(self, coupling, stop):
        A = two_pair_lanczos_matrix(coupling)
        out = hamiltonian_lanczos(dense_action(A), np.eye(8)[0], 4)
        assert out.terminated == stop
        U = out.basis.columns
        assert np.array_equal(U, np.eye(8)[:, [0, 1, 4, 5]])
        F = np.zeros((4, 4))
        F[:2, 2:] = [[2.0, 3.0], [3.0, 5.0]]
        F[2:, :2] = np.diag([1.0, -1.0])
        assert np.array_equal(out.basis.reduced, F)
        assert np.array_equal(out.action_images, A @ U)

    @pytest.mark.parametrize("n, k", [(50, 20), (400, 11)])
    def test_images_reduced_matrix_and_structure(self, rng, n, k):
        sys = KleinGordonSystem(n=n)
        x = sys.initial_state + 0.1 * rng.standard_normal(sys.dim)
        out = hamiltonian_lanczos(CountingAction.from_system(sys, x), sys.f(x), k)
        assert out.terminated == REACHED_K
        U = out.basis.columns
        AU = sys.jacobian_dense(x) @ U
        assert np.linalg.norm(out.action_images - AU) <= 1e-13 * np.linalg.norm(AU)
        F = out.basis.reduced
        assert np.linalg.norm(F - out.basis.left_apply(AU)) <= 1e-12 * np.linalg.norm(F)
        assert symplectic_defect(U) <= STRUCTURE_TOL

    def test_in_loop_removal_is_project_out_over_the_partial_basis(self, rng, monkeypatch):
        # every reorthogonalization in the loop removes the range of the
        # pairs built so far, as _project_out over that BasisMatrix does
        project_out = krylov._project_out
        calls = []

        def spy(w, rows, left):
            out = project_out(w, rows, left)
            calls.append((w, out[0]))
            return out

        monkeypatch.setattr(krylov, "_project_out", spy)
        sys = KleinGordonSystem(n=400)
        x = sys.initial_state + 0.1 * rng.standard_normal(sys.dim)
        out = hamiltonian_lanczos(CountingAction.from_system(sys, x), sys.f(x), 11)
        U, kp = out.basis.columns, out.basis.n_columns // 2
        assert kp == 11 and len(calls) == kp - 1
        for j, (w, got) in enumerate(calls, start=1):
            partial = BasisMatrix(np.column_stack([U[:, :j], U[:, kp: kp + j]]), SYMPLECTIC)
            want = project_out(w, partial.rows, partial.left)[0]
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


BUILDERS = [(arnoldi, 1), (symplectic_arnoldi, 2), (isotropic_arnoldi, 2),
            (hamiltonian_lanczos, 2)]
BUILDER_IDS = ["arnoldi", "symplectic-arnoldi", "isotropic-arnoldi", "hamiltonian-lanczos"]


def build_on(problem, builder, mult):
    """A basis from a random Hamiltonian matrix (6 columns) or from a
    perturbed Klein-Gordon n=64 state (16 columns)."""
    rng = np.random.default_rng(15)
    if problem == "random-hamiltonian":
        action, v, columns = dense_action(random_hamiltonian_matrix(rng, 8)), None, 6
    else:
        sys = KleinGordonSystem(n=64)
        x = sys.initial_state + 0.1 * rng.standard_normal(sys.dim)
        action, v, columns = CountingAction.from_system(sys, x), sys.f(x), 16
    v = rng.standard_normal(action.dim) if v is None else v
    return builder(action, v, columns // mult), rng


@pytest.mark.parametrize("problem", ["random-hamiltonian", "klein-gordon-64"])
class TestTwoRowBlocks:
    @pytest.mark.parametrize("builder,mult", BUILDERS, ids=BUILDER_IDS)
    def test_left_inverts_columns_and_rows_are_c_order(self, problem, builder, mult):
        basis = build_on(problem, builder, mult)[0].basis
        assert basis.rows.flags.c_contiguous
        assert np.array_equal(basis.columns, basis.rows.T)
        gap = basis.left @ basis.columns - np.eye(basis.n_columns)
        assert np.linalg.norm(gap) <= STRUCTURE_TOL

    @pytest.mark.parametrize("builder,mult", BUILDERS, ids=BUILDER_IDS)
    def test_left_apply_is_the_kinds_formula(self, problem, builder, mult):
        out, rng = build_on(problem, builder, mult)
        U = out.basis.columns
        for v in (rng.standard_normal(U.shape[0]), rng.standard_normal((U.shape[0], 3))):
            if out.basis.kind == SYMPLECTIC:
                want = apply_J_inverse(U.T @ apply_J(v))  # J_k^(-1) U^T J v
            else:
                want = U.T @ v
            got = out.basis.left_apply(v)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_lanczos_left_is_its_in_loop_block(self, problem, monkeypatch):
        # U^+ formed by BasisMatrix is, bit for bit, the block L of rows
        # J v_i, J^(-1) u_i that the recursion keeps
        project_out = krylov._project_out
        blocks = []

        def spy(w, rows, left):
            blocks.append(left.base)  # the whole block L, filled in place
            return project_out(w, rows, left)

        monkeypatch.setattr(krylov, "_project_out", spy)
        out = build_on(problem, hamiltonian_lanczos, 2)[0]
        kp = out.basis.n_columns // 2
        assert out.terminated == REACHED_K and 2 * kp == len(blocks[-1])
        order = np.r_[0:2 * kp:2, 1:2 * kp:2]  # [u..., v...]
        assert np.array_equal(out.basis.left, blocks[-1][order])


@pytest.mark.parametrize("problem", ["random-hamiltonian", "klein-gordon-64"])
@pytest.mark.parametrize("builder,mult", BUILDERS[1:], ids=BUILDER_IDS[1:])
def test_handed_over_left_is_the_formed_one(problem, builder, mult):
    # the rows of U^+ a symplectic builder hands to BasisMatrix are, bit for
    # bit, the ones the constructor forms from U alone; a paired basis's
    # are its own rows
    basis = build_on(problem, builder, mult)[0].basis
    assert np.array_equal(basis.left, BasisMatrix(basis.columns, SYMPLECTIC).left)
    if builder is not hamiltonian_lanczos:
        assert np.shares_memory(basis.left, basis.rows)  # no copy made


class TestExactnessAtInvariantSubspace:
    def test_rotation_block(self, rng):
        # A = J: K(A, v) = span{v, Jv} is invariant for every v, and
        # e^J v = cos(1) v + sin(1) J v gives an analytic oracle
        from symkry import apply_J, expm

        n = 5
        A = canonical_J(n)
        v = rng.standard_normal(2 * n)
        out = arnoldi(dense_action(A), v, 6)
        assert out.terminated == INVARIANT_SUBSPACE
        assert out.basis.n_columns == 2
        U, F = out.basis.columns, out.basis.reduced
        got = U @ (expm(F) @ out.basis.left_apply(v))
        want = np.cos(1.0) * v + np.sin(1.0) * apply_J(v)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_full_dimension_exactness(self, rng):
        from symkry import expm

        A = random_hamiltonian_matrix(rng, 4)
        v = rng.standard_normal(8)
        for build, k in ((arnoldi, 8), (symplectic_arnoldi, 4), (hamiltonian_lanczos, 4)):
            out = build(dense_action(A), v, k)
            got = out.basis.columns @ (expm(out.basis.reduced) @ out.basis.left_apply(v))
            want = expm(A) @ v
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def outcome_of(basis, A):
    """A built basis with its cached images A U, as the builders return it."""
    return KrylovOutcome(basis, REACHED_K, 0.0, A @ basis.columns)


class TestExtendBasis:
    # builder, Krylov vectors, columns one extension adds, structure measure
    KINDS = [(arnoldi, 6, 1, orthonormal_defect),
             (symplectic_arnoldi, 3, 2, symplectic_defect),
             (isotropic_arnoldi, 3, 2, symplectic_defect),
             (hamiltonian_lanczos, 3, 2, symplectic_defect)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("builder,k,added,defect", KINDS,
                             ids=["arnoldi", "symplectic-arnoldi", "isotropic-arnoldi",
                                  "hamiltonian-lanczos"])
    def test_extension_keeps_structure_and_sets_reduced(self, builder, k, added, defect, seed):
        rng = np.random.default_rng(seed)
        A = random_hamiltonian_matrix(rng, 8)
        v, x = rng.standard_normal((2, 16))
        out = builder(dense_action(A), v, k)
        act = dense_action(A)
        ext = extend_basis(out, act, x)
        m = out.basis.n_columns
        assert act.count == added  # the cached images serve the old columns
        assert ext.kind == out.basis.kind and ext.n_columns == m + added
        assert ext.rows.flags.c_contiguous
        # new columns: at the end of U, or v_new after V and w_new after W
        fresh = [m] if added == 1 else [m // 2, m + 1]
        assert np.array_equal(np.delete(ext.columns, fresh, axis=1), out.basis.columns)
        assert np.linalg.norm(x - project(ext, x)) <= 1e-10 * np.linalg.norm(x)
        assert defect(ext.columns) <= STRUCTURE_TOL
        want = ext.left_apply(A @ ext.columns)
        assert np.linalg.norm(ext.reduced - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("problem", ["random-hamiltonian", "klein-gordon-64"])
    @pytest.mark.parametrize("builder,k,added", [kind[:3] for kind in KINDS],
                             ids=["arnoldi", "symplectic-arnoldi", "isotropic-arnoldi",
                                  "hamiltonian-lanczos"])
    def test_same_bytes_as_the_insert_construction(self, problem, builder, k, added):
        # the preallocated blocks hold, bit for bit, the rows, U^+ and F
        # that np.insert and the constructor's own U^+ give
        rng = np.random.default_rng(19)
        if problem == "random-hamiltonian":
            A = random_hamiltonian_matrix(rng, 8)
            actions = [dense_action(A) for _ in range(3)]
            v = rng.standard_normal(16)
        else:
            sys = KleinGordonSystem(n=64)
            x0 = sys.initial_state + 0.1 * rng.standard_normal(sys.dim)
            actions = [CountingAction.from_system(sys, x0) for _ in range(3)]
            v, k = sys.f(x0), 8 * k // 3
        out = builder(actions[0], v, k)
        x = rng.standard_normal(actions[0].dim)
        got, want = extend_basis(out, actions[1], x), extend_by_insert(out, actions[2], x)
        assert got.n_columns == out.basis.n_columns + added
        for name in ("rows", "left", "reduced"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert actions[1].count == actions[2].count == added

    @pytest.mark.parametrize("kind", [ORTHONORMAL, SYMPLECTIC])
    def test_dependent_vector_returns_the_basis(self, kind, rng):
        n = 4
        E = np.eye(2 * n)
        basis = BasisMatrix(np.column_stack([E[0], E[n]]), kind)
        out = outcome_of(basis, canonical_J(n))
        act = dense_action(canonical_J(n))
        assert extend_basis(out, act, 2.0 * E[0] - 3.0 * E[n]) is basis
        assert act.count == 0

    def test_smallest_symplectic_case_from_empty(self):
        A = canonical_J(1)
        out = outcome_of(BasisMatrix(np.zeros((2, 0)), SYMPLECTIC), A)
        ext = extend_basis(out, dense_action(A), np.array([1.0, 0.0]))
        # pairing normalization fixes the companion up to the free scaling
        # of the first vector: omega(v, w) = +1
        assert np.allclose(ext.columns, np.eye(2))
        assert omega(ext.columns[:, 0], ext.columns[:, 1]) == 1.0
        assert np.allclose(ext.reduced, A)

    def test_explicit_small_orthonormal_case(self):
        A = canonical_J(2)
        out = outcome_of(BasisMatrix(np.eye(4)[:, :1], ORTHONORMAL), A)
        ext = extend_basis(out, dense_action(A), np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(ext.columns[:, 1], [0.0, 1.0, 0.0, 0.0])

    def test_empty_orthonormal_basis_takes_the_normalized_vector(self, rng):
        x = rng.standard_normal(6)
        out = outcome_of(BasisMatrix(np.zeros((6, 0)), ORTHONORMAL), canonical_J(3))
        ext = extend_basis(out, dense_action(canonical_J(3)), x)
        assert np.array_equal(ext.columns, (x / np.linalg.norm(x))[:, None])

    @pytest.mark.parametrize("kind", [ORTHONORMAL, SYMPLECTIC])
    def test_zero_and_wrong_length_vectors_rejected(self, kind):
        out = outcome_of(BasisMatrix(np.zeros((4, 0)), kind), canonical_J(2))
        act = dense_action(canonical_J(2))
        # the zero vector lies in every range: the basis comes back, no action
        assert extend_basis(out, act, np.zeros(4)) is out.basis
        assert act.count == 0
        with pytest.raises(ValueError, match="length"):
            extend_basis(out, act, np.ones(6))

    def test_degenerate_pair_raises(self, monkeypatch):
        # a companion with no omega-pairing to the new vector cannot be
        # normalized: the extension fails typed instead of dividing by ~0
        monkeypatch.setattr(krylov, "omega", lambda x, y: 0.0)
        out = outcome_of(BasisMatrix(np.zeros((4, 0)), SYMPLECTIC), canonical_J(2))
        with pytest.raises(DegeneratePairError):
            extend_basis(out, dense_action(canonical_J(2)), np.ones(4))


class TestStructureAsKGrows:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("builder,paired", [
        (symplectic_arnoldi, True), (isotropic_arnoldi, True), (hamiltonian_lanczos, False)],
        ids=["symplectic-arnoldi", "isotropic-arnoldi", "hamiltonian-lanczos"])
    def test_symplectic_up_to_full_dimension(self, builder, paired, seed):
        rng = np.random.default_rng(seed)
        A = random_hamiltonian_matrix(rng, 20)
        v = rng.standard_normal(40)
        for k in (1, 2, 4, 8, 12, 16, 20):
            basis = builder(dense_action(A), v, k).basis
            U = basis.columns
            assert U.shape == (40, 2 * k)
            assert basis.kind == SYMPLECTIC
            assert symplectic_defect(U) <= STRUCTURE_TOL
            if paired:
                assert orthonormal_defect(U) <= STRUCTURE_TOL
                # J U = U J_k for U = [V, J^(-1) V], so the symplectic left
                # inverse is U^T, also on w off range(U) (a random w, k < 20)
                w = rng.standard_normal(40)
                gap = np.linalg.norm(basis.left_apply(w) - U.T @ w)
                assert gap <= 1e-13 * np.linalg.norm(w)


class TestCosts:
    def test_matrix_action_counts(self, rng):
        A = random_hamiltonian_matrix(rng, 10)
        v = rng.standard_normal(20)

        act = dense_action(A)
        arnoldi(act, v, 8)
        assert act.count == 8  # one action per Krylov vector

        act = dense_action(A)
        out = symplectic_arnoldi(act, v, 4)
        assert act.count == 3 + out.basis.n_columns  # k-1 sweeps + F assembly

        act = dense_action(A)
        out = isotropic_arnoldi(act, v, 4)
        assert out.basis.n_columns == 8
        assert act.count == 8  # two actions per pair: the sweep's images are reused

        act = dense_action(A)
        hamiltonian_lanczos(act, v, 4)
        assert act.count == 8  # two actions per pair

    def test_system_action_linearizes_once_and_counts_each_apply(self, rng, monkeypatch):
        # the point-dependent coefficients are built once per action; each
        # apply is one counted Jacobian action, equal to a fresh
        # linearization's action at that point
        sys = KleinGordonSystem(n=16)
        x = rng.standard_normal(sys.dim)
        points = []
        linearize = sys.linearize
        monkeypatch.setattr(sys, "linearize", lambda y: points.append(y) or linearize(y))
        act = CountingAction.from_system(sys, x)
        assert len(points) == 1 and act.count == 0
        for i in range(1, 4):
            v = rng.standard_normal(sys.dim)
            assert np.array_equal(act.apply(v), KleinGordonSystem(n=16).linearize(x)(v))
            assert act.count == i
        assert len(points) == 1
