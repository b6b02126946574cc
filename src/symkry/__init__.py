"""symkry: structure-preserving Krylov exponential integrators.

Large sparse Hamiltonian systems x' = J^(-1) grad H(x) are advanced by
exponential integrators whose matrix functions are evaluated in small
(optionally symplectic) Krylov subspaces.  Symplectic bases make the
energy error of the projected schemes bounded instead of drifting.

Submodules: ``core`` (symplectic linear algebra, system interface),
``krylov`` (basis processes), ``matfun`` (the exponential and the affine
flow, whose kernel gives phi), ``integrators`` (EE / EEMP / IEMP
steppers), ``problems`` (wave, NLS, Klein-Gordon benchmarks), ``harness``
(experiment runner and CSV metrics).
"""

from ._version import __version__
from .core import (
    BasisMatrix,
    HamiltonianSystem,
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
from .errors import (
    ConfigError,
    DegeneratePairError,
    IntegrationAborted,
    ReferenceFailureError,
    StepFailureError,
)
from .harness import (
    ExperimentConfig,
    MetricsSeries,
    reference_solution,
    relative_energy_error,
    run,
    solution_error,
)
from .integrators import (
    StepperConfig,
    StepResult,
    TrajectorySummary,
    integrate,
    step_ee,
    step_eemp,
    step_iemp,
)
from .krylov import (
    CountingAction,
    KrylovOutcome,
    arnoldi,
    extend_basis,
    hamiltonian_lanczos,
    isotropic_arnoldi,
    symplectic_arnoldi,
)
from .matfun import exp_affine, expm
from .problems import (
    DiscreteLaplacian,
    KleinGordonSystem,
    LinearWaveSystem,
    NonlinearSchroedingerSystem,
    build_problem,
    list_problems,
)

__all__ = [
    "__version__",
    "BasisMatrix", "HamiltonianSystem", "QuadraticHamiltonianSystem",
    "apply_J", "apply_J_inverse", "canonical_J", "join_state", "omega",
    "orthonormal_defect", "split_state", "symplectic_defect",
    "ConfigError", "DegeneratePairError",
    "IntegrationAborted", "ReferenceFailureError", "StepFailureError",
    "ExperimentConfig", "MetricsSeries", "reference_solution",
    "relative_energy_error", "run", "solution_error",
    "StepperConfig", "StepResult", "TrajectorySummary",
    "integrate", "step_ee", "step_eemp", "step_iemp",
    "CountingAction", "KrylovOutcome", "arnoldi", "extend_basis",
    "hamiltonian_lanczos", "isotropic_arnoldi", "symplectic_arnoldi",
    "exp_affine", "expm",
    "DiscreteLaplacian", "KleinGordonSystem", "LinearWaveSystem",
    "NonlinearSchroedingerSystem", "build_problem", "list_problems",
]
