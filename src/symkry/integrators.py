"""Exponential integrators driven through a local Krylov basis.

Each step linearizes the system at a point, builds a basis U with reduced
matrix F = U^+ Df U, and advances with one small dense kernel,
``matfun.phi_apply``: t phi(tF) B, in closed form for a Hamiltonian
Lanczos F whose signs agree, by a Pade exponential for every other F.  No
step forms e^(hF) = I + hF phi(hF) (Hochbruck & Ostermann, Acta Numer. 19
(2010) 209):

    EE    x+ = x + h U phi(hF) U^+ f(x)
    EEMP  x+ = x + U (c_d + h phi(hF) (F c_d + 2 c_f)), the form
          e^(hF) c_d + 2h phi(hF) c_f, c_d = U^+ (x_prev - x), c_f = U^+ f(x)
    IEMP  x+ = x_mid + U K U^+ f(x_mid), K = (h/2) phi(hF/2), where x_mid =
          x + U xi solves e^(hF/2) xi = K U^+ f(x + U xi) by fixed-point
          iteration in the reduced coordinates; one application advances
          a full macro step.

IEMP predicts its midpoint with an EE half step in a basis of half the
columns, rounded up to whole Krylov vectors, and builds the full basis
there; K serves the fixed point and the update, so each step evaluates
two reduced kernels, the predictor's included.

For EEMP, ``krylov.extend_basis`` adjoins the difference x_prev - x to the
basis, keeping its kind, so the scheme's symmetry and average-energy
properties hold.  With a symplectic basis all three steps preserve the
energy of linear systems exactly, up to rounding.  Every step returns a
StepResult; a step that cannot be completed, including one whose reduced
kernel raises NumericalError (a non-finite matrix or an overflowing
exponential), raises StepFailureError.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import BasisMatrix, _is_int, _is_real, _norm
from .errors import ConfigError, IntegrationAborted, NumericalError, StepFailureError
from .krylov import (
    BREAKDOWN,
    CountingAction,
    KrylovOutcome,
    arnoldi,
    extend_basis,
    hamiltonian_lanczos,
    isotropic_arnoldi,
    symplectic_arnoldi,
)
from .matfun import phi_apply

EE = "EE"
EEMP = "EEMP"
IEMP = "IEMP"
METHODS = (EE, EEMP, IEMP)

# restarts of a broken-down basis process from a perturbed start vector
BREAKDOWN_RETRIES = 3
# IEMP fixed point: relative update tolerance and iteration cap
FP_TOL = 1e-12
FP_MAX_ITER = 50

# process name -> (builder, columns produced per Krylov vector)
BASIS_PROCESSES = {
    "arnoldi": (arnoldi, 1),
    "symplectic-arnoldi": (symplectic_arnoldi, 2),
    "isotropic-arnoldi": (isotropic_arnoldi, 2),
    "hamiltonian-lanczos": (hamiltonian_lanczos, 2),
}


@dataclass
class StepperConfig:
    """Method selection plus basis parameters and step size.

    ``basis_dim`` counts total columns of U, so cross-process comparisons
    at equal subspace dimension are fair; paired processes receive
    basis_dim/2 Krylov vectors.  IEMP's predictor basis has
    mult * ceil(basis_dim / (2 mult)) columns, mult being the process's
    columns per Krylov vector (12 for a paired process and 11 for Arnoldi
    at basis_dim 22).  ``step_size`` is the macro step: one IEMP
    application advances a full step_size (internally split in half).
    IEMP's fixed-point iteration is bounded by the module constants FP_TOL
    and FP_MAX_ITER.  Invalid values raise ConfigError (a ValueError): an
    unknown method or process, a ``basis_dim`` that is not a positive
    integer (or is odd for a paired process), and a ``step_size`` that is
    no finite number >= 0, a bool included.  ``check_fits`` refuses a
    ``basis_dim`` above a system's dimension; ``integrate`` calls it first.
    """

    method: str = EE
    basis_process: str = "arnoldi"
    basis_dim: int = 8
    step_size: float = 0.01

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method.upper() not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        self.method = self.method.upper()
        if not isinstance(self.basis_process, str) or self.basis_process not in BASIS_PROCESSES:
            raise ConfigError(f"unknown basis process {self.basis_process!r}")
        if not _is_int(self.basis_dim) or self.basis_dim < 1:
            raise ConfigError(f"basis_dim must be a positive integer, got {self.basis_dim!r}")
        if BASIS_PROCESSES[self.basis_process][1] == 2 and self.basis_dim % 2:
            raise ConfigError("basis_dim must be even for symplectic processes")
        if not _is_real(self.step_size) or not 0 <= self.step_size < np.inf:
            raise ConfigError(f"step_size must be finite and nonnegative, got {self.step_size!r}")

    def check_fits(self, system):
        """Refuse, as a ConfigError, a basis wider than the system."""
        if self.basis_dim > system.dim:
            raise ConfigError(
                f"basis_dim {self.basis_dim} exceeds system dimension {system.dim}")


@dataclass
class StepResult:
    """One step: the new state, the basis it was taken in, and diagnostics.

    ``basis`` and ``outcome`` are None when the field vanished and the
    state was kept, and in the record of the initial state that
    ``integrate`` hands its observer; ``x_mid`` is an IEMP step's midpoint.
    """

    x_plus: np.ndarray
    basis: Optional[BasisMatrix]
    outcome: Optional[KrylovOutcome]
    matvecs: int
    fp_iters: int = 0
    x_mid: Optional[np.ndarray] = None


class _RestartNoise:
    """``np.random.default_rng(seed)``, made at its first draw (see ``integrate``)."""

    def __init__(self, seed):
        self._seed, self._rng = seed, None

    def standard_normal(self, size):
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng.standard_normal(size)


def build_basis(action, v, config, rng=None):
    """Run the configured basis process; perturb and restart on breakdown.

    The restart policy lives here (the processes only report): a breakdown
    (always short of the requested size) is retried up to BREAKDOWN_RETRIES
    times from v plus 1e-10 ||v|| noise from ``rng.standard_normal`` (a
    Generator or any object with that method; None is a ``_RestartNoise(0)``
    per call); one with under two columns after the last is a step failure.
    """
    builder, mult = BASIS_PROCESSES[config.basis_process]
    k = config.basis_dim // mult
    outcome = builder(action, v, k)
    for _ in range(BREAKDOWN_RETRIES):
        if outcome.terminated != BREAKDOWN:
            break
        rng = _RestartNoise(0) if rng is None else rng
        pert = v + rng.standard_normal(v.shape[0]) * (1e-10 * _norm(v))
        outcome = builder(action, pert, k)
    if outcome.terminated == BREAKDOWN and outcome.basis.n_columns < 2:
        raise StepFailureError(
            f"{config.basis_process} broke down with {outcome.basis.n_columns} columns",
            residual=outcome.residual_norm)
    return outcome


def _check_finite(x):
    if not np.isfinite(x).all():
        raise StepFailureError("step produced non-finite state")
    return x


def _kernel(fn, *args):
    """Call a matfun kernel on reduced data; its NumericalError fails the
    step, with the kernel's error as the cause."""
    try:
        return fn(*args)
    except NumericalError as exc:
        raise StepFailureError(f"reduced kernel failed: {exc}") from exc


def step_ee(system, config, x, rng=None):
    """Exponential Euler step x+ = x + h U phi(hF) U^+ f(x)."""
    x = np.asarray(x, dtype=float)
    fx = system.f(x)
    if _norm(fx) == 0.0:
        return StepResult(x.copy(), None, None, 0)
    action = CountingAction.from_system(system, x)
    outcome = build_basis(action, fx, config, rng)
    basis = outcome.basis
    xi = _kernel(phi_apply, basis.reduced, basis.left_apply(fx), config.step_size)
    x_plus = _check_finite(x + basis.columns @ xi)
    return StepResult(x_plus, basis, outcome, action.count)


def step_eemp(system, config, x, x_prev, rng=None):
    """Explicit exponential midpoint step using the two-step memory x_prev.

    The basis is built from f(x) and then extended so x_prev - x lies in
    range(U); with that hypothesis the scheme is symmetric and, for linear
    systems with symplectic U, preserves the energy of the averages.
    """
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    fx = system.f(x)
    d = x_prev - x
    start = fx if _norm(fx) > 0.0 else d
    if _norm(start) == 0.0:
        return StepResult(x.copy(), None, None, 0)

    action = CountingAction.from_system(system, x)
    outcome = build_basis(action, start, config, rng)
    basis = extend_basis(outcome.basis, action, d)
    F, c_d = basis.reduced, basis.left_apply(d)
    y = _kernel(phi_apply, F, F @ c_d + 2.0 * basis.left_apply(fx), config.step_size)
    x_plus = x + basis.columns @ (c_d + y)
    return StepResult(_check_finite(x_plus), basis, outcome, action.count)


def _solve_reduced_fixed_point(system, x, basis, kernel, xi0):
    """Solve e^(hF) xi = h phi(hF) U^+ f(x + U xi) by fixed-point iteration,
    given ``kernel`` = h phi(hF).

    Iterates xi <- h phi(hF) (U^+ f(x + U xi) - F xi), which treats the
    frozen linear part exactly: the naive Picard map has Lipschitz constant
    ||I - e^(-hF)|| and diverges once h ||F|| reaches order one (routine for
    the stiff wave-type benchmarks), while this split contracts at
    O(h^2 * curvature) independent of stiffness.  For linear systems the
    nonlinear remainder vanishes and one iteration lands on the solution.
    """
    F = basis.reduced
    xi = xi0
    for it in range(1, FP_MAX_ITER + 1):
        xi_next = kernel @ (basis.left_apply(system.f(x + basis.columns @ xi)) - F @ xi)
        delta = _norm(xi_next - xi)
        bound = FP_TOL * (1.0 + _norm(xi))
        xi = xi_next
        if delta <= bound:
            return xi, it
    raise StepFailureError(
        f"fixed point did not converge in {FP_MAX_ITER} iterations",
        residual=float(delta))


def step_iemp(system, config, x, rng=None):
    """Implicit exponential midpoint step advancing one macro step h.

    Strategy: predict the midpoint with an exponential Euler half step in
    a basis of half the columns (rounded up to whole Krylov vectors; the
    predictor only picks the point of linearization), linearize and build
    the full basis there, solve the implicit half-step relation by
    fixed-point iteration, then advance from the midpoint.  K = (h/2)
    phi(hF/2) is the fixed point's kernel, and at the fixed point
    e^(hF/2) xi = K b, b = U^+ f(x_mid), so the full step's xi - e^(hF) xi
    + h phi(hF) b is xi + K b.  The result carries the midpoint as x_mid.
    """
    macro = config.step_size
    half = 0.5 * macro
    x = np.asarray(x, dtype=float)

    mult = BASIS_PROCESSES[config.basis_process][1]
    small = mult * -(-config.basis_dim // (2 * mult))  # mult * ceil(dim / (2 mult))
    predictor = step_ee(system, replace(config, step_size=half, basis_dim=small), x, rng)
    x_tilde, matvecs = predictor.x_plus, predictor.matvecs
    del predictor  # its basis is freed before the full one is built

    v = system.f(x_tilde)
    if _norm(v) == 0.0 and _norm(system.f(x)) == 0.0:
        return StepResult(x.copy(), None, None, matvecs, x_mid=x.copy())

    action = CountingAction.from_system(system, x_tilde)
    outcome = build_basis(action, v if _norm(v) > 0 else system.f(x), config, rng)
    basis = outcome.basis
    kernel = _kernel(phi_apply, basis.reduced, np.eye(basis.n_columns), half)
    xi0 = basis.left_apply(x_tilde - x)
    xi, iters = _solve_reduced_fixed_point(system, x, basis, kernel, xi0)

    x_mid = x + basis.columns @ xi
    b = basis.left_apply(system.f(x_mid))
    x_plus = _check_finite(x_mid + basis.columns @ (kernel @ b))
    return StepResult(x_plus, basis, outcome, matvecs + action.count, iters, x_mid)


@dataclass
class TrajectorySummary:
    """Counters and final state of a trajectory, complete or aborted."""

    final_state: np.ndarray
    steps_completed: int
    matvec_count: int = 0
    fp_iterations: int = 0


def integrate(system, config, x0, n_steps=1, observer=None, rng=None):
    """Advance n_steps uniform steps of config.step_size from time 0.

    EEMP is bootstrapped with one exponential Euler step.  The observer is
    called as observer(step_index, t, result) with each step's StepResult,
    and once first with StepResult(x0, None, None, 0) for the initial
    state.  All breakdown restarts of the trajectory draw from one stream,
    ``rng`` or else one lazy ``_RestartNoise(0)``, as ``harness.run`` does
    at seed 0 (see build_basis).  The last step's StepResult is dropped
    before the next step builds, so a step holds one step's bases when the
    observer keeps none.  There is no divergence guard: a caller that wants
    one raises StepFailureError from its observer.  An ``n_steps`` that is
    no integer >= 1, a step size <= 0 and a ``basis_dim`` above the system
    dimension are ConfigErrors before the first step.  Steps and observer
    run with numpy's overflow, invalid and divide signals raised (``expm`` and
    ``phi_apply`` handle theirs), so a failed step, a non-finite state, a
    FloatingPointError, or a StepFailureError or NumericalError from the
    observer aborts with IntegrationAborted("step N: ..."), which carries the
    summary of the steps completed so far, the failed step included when it
    completed; any other exception, a bug, propagates as itself.
    """
    if not _is_int(n_steps) or n_steps < 1:
        raise ConfigError(f"n_steps must be an integer of at least 1, got {n_steps!r}")
    h = config.step_size
    if h <= 0:
        raise ConfigError(f"the step size must be positive for integration, got {h!r}")
    config.check_fits(system)
    x0 = np.array(x0, dtype=float)
    rng = _RestartNoise(0) if rng is None else rng

    summary = TrajectorySummary(x0, 0)
    res = StepResult(x0, None, None, 0)
    x_prev = None
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for step in range(n_steps + 1):
            try:
                if step > 0:
                    x, res = res.x_plus, None  # the last step's basis is freed first
                    if config.method == IEMP:
                        res = step_iemp(system, config, x, rng)
                    elif config.method == EEMP and x_prev is not None:
                        res = step_eemp(system, config, x, x_prev, rng)
                    else:
                        res = step_ee(system, config, x, rng)
                    x_prev = x
                    summary.final_state = res.x_plus
                    summary.steps_completed = step
                    summary.matvec_count += res.matvecs
                    summary.fp_iterations += res.fp_iters

                if observer is not None:
                    observer(step, step * h, res)
            except (StepFailureError, NumericalError, FloatingPointError) as exc:
                raise IntegrationAborted(f"step {step}: {exc}", summary) from exc

    return summary
