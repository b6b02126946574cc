"""symkry: structure-preserving Krylov exponential integrators.

Large sparse Hamiltonian systems x' = J^(-1) grad H(x) are advanced by
exponential integrators whose matrix functions are evaluated in small
(optionally symplectic) Krylov subspaces.  Symplectic bases make the
energy error of the projected schemes bounded instead of drifting.

Submodules: ``core`` (symplectic linear algebra, system interface),
``krylov`` (basis processes), ``matfun`` (the exponential and the one
phi kernel), ``integrators`` (EE / EEMP / IEMP
steppers), ``problems`` (wave, NLS, Klein-Gordon benchmarks), ``harness``
(experiment runner, reference oracles and CSV metrics), ``extrapolation``
(the fine oracle's Gragg-Bulirsch-Stoer step).
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
    NumericalError,
    ReferenceFailureError,
    StepFailureError,
)
from .harness import (
    ExperimentConfig,
    MetricsSeries,
    reference_solution,
    relative_energy_error,
    run,
    run_sections,
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
from .matfun import expm, phi_apply
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
    "IntegrationAborted", "NumericalError", "ReferenceFailureError", "StepFailureError",
    "ExperimentConfig", "MetricsSeries", "reference_solution",
    "relative_energy_error", "run", "run_sections", "solution_error",
    "StepperConfig", "StepResult", "TrajectorySummary",
    "integrate", "step_ee", "step_eemp", "step_iemp",
    "CountingAction", "KrylovOutcome", "arnoldi", "extend_basis",
    "hamiltonian_lanczos", "isotropic_arnoldi", "symplectic_arnoldi",
    "expm", "phi_apply",
    "DiscreteLaplacian", "KleinGordonSystem", "LinearWaveSystem",
    "NonlinearSchroedingerSystem", "build_problem", "list_problems",
]
