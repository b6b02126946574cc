import numpy as np
import pytest

from symkry import QuadraticHamiltonianSystem, apply_J_inverse

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

