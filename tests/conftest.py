from dataclasses import dataclass

import numpy as np
import pytest

from symkry import (
    BasisMatrix,
    CountingAction,
    QuadraticHamiltonianSystem,
    apply_J,
    apply_J_inverse,
    canonical_J,
    exp_affine,
    expm,
    omega,
)
from symkry.core import SYMPLECTIC
from symkry.krylov import DEPENDENCE_RTOL, _project_out
from symkry.problems import PERIODIC

# one line per acceptance check, emitted as a terminal section at the end
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_quadratic_system(rng, n, with_constant=True, scale=1.0):
    """Random linear Hamiltonian system of dimension 2n."""
    S = rng.standard_normal((2 * n, 2 * n)) * scale
    S = 0.5 * (S + S.T)
    d = rng.standard_normal(2 * n) * scale if with_constant else None
    return QuadraticHamiltonianSystem(S, d)


def random_hamiltonian_matrix(rng, n, scale=1.0):
    """Dense random Hamiltonian matrix A = J^(-1) S, S symmetric."""
    S = rng.standard_normal((2 * n, 2 * n)) * scale
    S = 0.5 * (S + S.T)
    return apply_J_inverse(S)


def dense_action(A):
    """A counted matrix action v -> A v of a dense matrix."""
    A = np.asarray(A, dtype=float)
    return CountingAction(A.shape[0], lambda v: A @ v)


def phi1(M):
    """phi(M) with phi(z) = (e^z - 1)/z: the kernel ``exp_affine`` forms,
    applied to the identity at t = 1."""
    return exp_affine(M, np.eye(np.shape(M)[0]), 1.0)[1]


def project(basis, v):
    """Oblique projection U U^+ v of v onto the range of a BasisMatrix."""
    return basis.columns @ basis.left_apply(v)


def extend_by_insert(outcome, action, x):
    """``krylov.extend_basis`` as np.insert builds it: the new rows go into
    copies of U^T and of the images A U, and BasisMatrix forms U^+ from the
    extended rows.  Returns the extended basis, or ``outcome.basis`` when x
    is already representable."""
    basis = outcome.basis
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    x_hat = _project_out(x, basis.rows, basis.left)[0]
    nr = np.linalg.norm(x_hat)
    if nr <= DEPENDENCE_RTOL * nx:
        return basis
    new = [x_hat / nr]
    if basis.kind == SYMPLECTIC:
        y = _project_out(apply_J(x_hat), basis.rows, basis.left)[0]
        new.append(y / omega(new[0], y))
    size = basis.n_columns // len(new)
    at = [size * (i + 1) for i in range(len(new))]
    rows = np.insert(basis.rows, at, new, axis=0)
    images = np.insert(outcome.action_images.T, at, [action.apply(u) for u in new], axis=0)
    extended = BasisMatrix(rows.T, basis.kind)
    extended.reduced = extended.left_apply(images.T)
    return extended


def check_hamiltonian_matrix(A, tol=1e-8):
    """True iff ||A^T - J A J||_F <= tol * max(1, ||A||_F).

    A matrix with A^T = J A J is Hamiltonian; Jacobians of Hamiltonian
    vector fields have this structure.  Dense, small sizes only.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
        raise ValueError("A must be square of even dimension")
    J = canonical_J(A.shape[0] // 2)
    defect = A.T - J @ A @ J
    return bool(np.linalg.norm(defect) <= tol * max(1.0, np.linalg.norm(A)))


def jvp_matches_finite_difference(system, x, v, rel_tol=1e-5):
    """Central finite-difference check of the Jacobian-vector product.

    Uses eps = 1e-6 (1 + ||x||) and accepts relative error rel_tol.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    eps = 1e-6 * (1.0 + np.linalg.norm(x))
    fd = (system.f(x + eps * v) - system.f(x - eps * v)) / (2.0 * eps)
    jv = system.linearize(x)(v)
    scale = max(np.linalg.norm(fd), np.linalg.norm(jv), 1e-30)
    return bool(np.linalg.norm(jv - fd) <= rel_tol * scale)


@dataclass
class PhiIdentityReport:
    """Defect norms of the phi-function identities the integrators rest on:

    reflection  ||e^(-M) phi(M) - phi(-M)||_F
    doubling    ||e^M phi(M) - (2 phi(2M) - phi(M))||_F
    """

    reflection: float
    doubling: float

    def max_defect(self):
        return max(self.reflection, self.doubling)


def phi1_scaled_identities_check(M):
    """Evaluate both phi identities on M, with ``phi1`` above, and report
    the defect norms."""
    M = np.asarray(M, dtype=float)
    eM = expm(M)
    phiM = phi1(M)
    reflection = np.linalg.norm(expm(-M) @ phiM - phi1(-M))
    doubling = np.linalg.norm(eM @ phiM - (2.0 * phi1(2.0 * M) - phiM))
    return PhiIdentityReport(float(reflection), float(doubling))


def laplacian_eigenpairs(lap, dtype=float):
    """Closed-form eigenpairs (lam, V) of a ``DiscreteLaplacian`` stencil,
    with orthonormal real eigenvectors as the columns of V, in ``dtype``
    (``np.longdouble`` for an oracle finer than double).

    dirichlet: lam_j = -2 s (1 - cos(j pi/(n+1))), V_ij ~ sin(i j pi/(n+1)),
    j = 1..n; periodic: lam_j = -2 s (1 - cos(2 pi j/n)), V_ij ~
    cos(2 pi i j/n) for j <= n/2 and sin(2 pi i j/n) above, j = 0..n-1;
    s = lap.scale, rows i counted from the first grid point.
    """
    n = lap.n
    pi = np.arccos(dtype(-1))
    j = np.arange(n, dtype=dtype)
    i = j[:, None]
    if lap.boundary == PERIODIC:
        theta = 2 * pi * j / n
        V = np.where(2 * j <= n, np.cos(i * theta), np.sin(i * theta))
        V *= np.where((j == 0) | (2 * j == n), np.sqrt(1 / dtype(n)), np.sqrt(2 / dtype(n)))
    else:
        theta = pi * (j + 1) / (n + 1)
        V = np.sqrt(2 / dtype(n + 1)) * np.sin((i + 1) * theta)
    lam = -2 * dtype(lap.scale) * (1 - np.cos(theta))
    return lam, V
