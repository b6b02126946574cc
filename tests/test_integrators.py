import warnings
from dataclasses import replace

import numpy as np
import pytest

from symkry import (
    CountingAction,
    IntegrationAborted,
    KleinGordonSystem,
    LinearWaveSystem,
    NonlinearSchroedingerSystem,
    StepperConfig,
    exp_affine,
    expm,
    integrate,
    omega,
    step_ee,
    step_eemp,
    step_iemp,
)
from symkry import ConfigError, DegeneratePairError, QuadraticHamiltonianSystem, StepFailureError
from symkry import integrators
from symkry.core import BasisMatrix, SYMPLECTIC
from symkry.krylov import BREAKDOWN, KrylovOutcome

from conftest import dense_action, phi1, random_quadratic_system


def dense_affine(system):
    zero = np.zeros(system.dim)
    return system.jacobian_dense(zero), system.f(zero)


class TestStepperConfig:
    def test_method_normalized(self):
        assert StepperConfig(method="ee").method == "EE"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            StepperConfig(method="RK4")

    def test_unknown_process(self):
        with pytest.raises(ValueError):
            StepperConfig(basis_process="lanzcos")

    def test_odd_dim_for_paired_process(self):
        with pytest.raises(ValueError):
            StepperConfig(basis_process="hamiltonian-lanczos", basis_dim=7)

    def test_negative_step(self):
        with pytest.raises(ValueError):
            StepperConfig(step_size=-0.1)

    @pytest.mark.parametrize("basis_dim", [2.5, 4.0, "4"])
    def test_non_integer_basis_dim(self, basis_dim):
        with pytest.raises(ValueError, match="basis_dim must be a positive integer"):
            StepperConfig(basis_dim=basis_dim)
        assert StepperConfig(basis_dim=np.int64(4)).basis_dim == 4

    @pytest.mark.parametrize("step_size", [float("nan"), float("inf")])
    def test_non_finite_step(self, step_size):
        with pytest.raises(ValueError, match="step_size must be finite"):
            StepperConfig(step_size=step_size)

    @pytest.mark.parametrize("settings", [
        {"method": "RK4"}, {"basis_process": "lanzcos"}, {"basis_dim": 0},
        {"basis_process": "hamiltonian-lanczos", "basis_dim": 7}, {"step_size": -0.1}])
    def test_refusals_are_config_errors(self, settings):
        with pytest.raises(ConfigError):
            StepperConfig(**settings)


class TestStepEE:
    def test_zero_step_returns_state(self, rng):
        sys = random_quadratic_system(rng, 5)
        x = rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=4,
                            step_size=0.0)
        res = step_ee(sys, cfg, x)
        assert np.allclose(res.x_plus, x, atol=1e-15)

    def test_full_dimension_matches_dense_oracle(self, rng):
        sys = random_quadratic_system(rng, 5)
        A, c = dense_affine(sys)
        x = rng.standard_normal(sys.dim)
        h = 0.07
        cfg = StepperConfig(method="EE", basis_process="arnoldi",
                            basis_dim=sys.dim, step_size=h)
        res = step_ee(sys, cfg, x)
        want = expm(h * A) @ x + h * (phi1(h * A) @ c)
        assert np.linalg.norm(res.x_plus - want) <= 1e-10 * np.linalg.norm(want)

    def test_wave_energy_preserved_per_step(self):
        # symplectic basis on the linear wave benchmark: exact conservation
        sys = LinearWaveSystem(n=50)
        x = sys.initial_state
        h = 50.0 / 2000.0
        cfg = StepperConfig(method="EE", basis_process="hamiltonian-lanczos",
                            basis_dim=12, step_size=h)
        H0 = sys.energy(x)
        for _ in range(5):
            res = step_ee(sys, cfg, x)
            assert abs(sys.energy(res.x_plus) - sys.energy(x)) <= 1e-11 * abs(H0)
            x = res.x_plus

    def test_equilibrium_fixed(self, rng):
        sys = QuadraticHamiltonianSystem(np.zeros((8, 8)))
        x = rng.standard_normal(8)
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=4,
                            step_size=0.1)
        assert np.array_equal(step_ee(sys, cfg, x).x_plus, x)

    def test_local_system_equivalence(self, rng):
        # exponential Euler equals exact integration of the frozen reduced
        # system xi' = F xi + U^+ f(x); integrate the latter with fine RK4
        sys = random_quadratic_system(rng, 6)
        x = rng.standard_normal(sys.dim)
        h = 0.05
        cfg = StepperConfig(method="EE", basis_process="symplectic-arnoldi",
                            basis_dim=6, step_size=h)
        res = step_ee(sys, cfg, x)
        F = res.basis.reduced
        b = res.basis.left_apply(sys.f(x))
        xi = np.zeros(F.shape[0])
        n_sub = 400
        dt = h / n_sub
        rhs = lambda z: F @ z + b
        for _ in range(n_sub):
            k1 = rhs(xi); k2 = rhs(xi + 0.5 * dt * k1)
            k3 = rhs(xi + 0.5 * dt * k2); k4 = rhs(xi + dt * k3)
            xi = xi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        want = x + res.basis.columns @ xi
        assert np.linalg.norm(res.x_plus - want) <= 1e-9 * np.linalg.norm(want)


class TestStepEEMP:
    def test_same_previous_state_doubles_increment(self, rng):
        # homogeneous linear field with x_prev = x: first term vanishes
        sys = random_quadratic_system(rng, 5, with_constant=False)
        x = rng.standard_normal(sys.dim)
        h = 0.04
        cfg = StepperConfig(method="EEMP", basis_process="symplectic-arnoldi",
                            basis_dim=6, step_size=h)
        res = step_eemp(sys, cfg, x, x.copy())
        manual = x + 2 * h * (res.basis.columns
                              @ (phi1(h * res.basis.reduced)
                                 @ res.basis.left_apply(sys.f(x))))
        assert np.allclose(res.x_plus, manual, atol=1e-12)

    @pytest.mark.parametrize("process", ["arnoldi", "hamiltonian-lanczos"])
    def test_same_previous_state_keeps_the_built_basis(self, process, rng):
        # x_prev = x adjoins the zero vector, which extend_basis returns
        # unchanged with no action: the step is the formula in the built basis
        sys = random_quadratic_system(rng, 5)
        x = rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EEMP", basis_process=process, basis_dim=6, step_size=0.04)
        res = step_eemp(sys, cfg, x, x_prev=x)
        action = CountingAction.from_system(sys, x)
        U = integrators.build_basis(action, sys.f(x), cfg).basis
        E, y = exp_affine(U.reduced, 2.0 * U.left_apply(sys.f(x)), cfg.step_size)
        assert res.basis is res.outcome.basis
        assert res.matvecs == action.count
        assert np.array_equal(res.basis.rows, U.rows)
        assert np.array_equal(res.x_plus, x + U.columns @ (E @ U.left_apply(x - x) + y))

    def test_average_energy_preserved(self, rng):
        sys = random_quadratic_system(rng, 6)
        x = rng.standard_normal(sys.dim)
        x_prev = x + 0.2 * rng.standard_normal(sys.dim)
        H0 = sys.energy(x)
        for proc in ("symplectic-arnoldi", "isotropic-arnoldi", "hamiltonian-lanczos"):
            cfg = StepperConfig(method="EEMP", basis_process=proc, basis_dim=6,
                                step_size=0.08)
            res = step_eemp(sys, cfg, x, x_prev)
            lhs = sys.energy(0.5 * (res.x_plus + x))
            rhs = sys.energy(0.5 * (x + x_prev))
            assert abs(lhs - rhs) <= 1e-11 * abs(H0)

    def test_symmetry_round_trip_nls(self, rng):
        # applying the reversed formula with the same basis recovers x_prev
        sys = NonlinearSchroedingerSystem(n=64)
        h = 0.02
        cfg = StepperConfig(method="EEMP", basis_process="hamiltonian-lanczos",
                            basis_dim=12, step_size=h)
        x_prev = sys.initial_state
        x = step_ee(sys, cfg, x_prev).x_plus
        res = step_eemp(sys, cfg, x, x_prev)
        U, F = res.basis, res.basis.reduced
        back = (x + U.columns @ (expm(-h * F) @ U.left_apply(res.x_plus - x))
                - 2 * h * (U.columns @ (phi1(-h * F) @ U.left_apply(sys.f(x)))))
        assert np.linalg.norm(back - x_prev) <= 1e-9 * np.linalg.norm(x_prev)

    def test_average_form_pairing_remark(self, rng):
        # omega(A x, x_plus) = omega(A x_prev, x) for the homogeneous linear
        # case at full dimension, along a trajectory-consistent state pair
        sys = random_quadratic_system(rng, 4, with_constant=False)
        A, _ = dense_affine(sys)
        x_prev = rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EEMP", basis_process="arnoldi",
                            basis_dim=sys.dim, step_size=0.05)
        x = step_ee(sys, cfg, x_prev).x_plus  # exact flow at full dimension
        res = step_eemp(sys, cfg, x, x_prev)
        lhs = omega(A @ x, res.x_plus)
        rhs = omega(A @ x_prev, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


class TestStepIEMP:
    def test_zero_field_fixed_point(self, rng):
        sys = QuadraticHamiltonianSystem(np.zeros((6, 6)))
        x = rng.standard_normal(6)
        cfg = StepperConfig(method="IEMP", basis_process="arnoldi", basis_dim=4,
                            step_size=0.1)
        res = step_iemp(sys, cfg, x)
        assert np.array_equal(res.x_plus, x)
        assert np.array_equal(res.x_mid, x)

    def test_linear_collapse_to_double_step_ee(self, rng):
        sys = random_quadratic_system(rng, 5)
        x = rng.standard_normal(sys.dim)
        macro = 0.1
        cfg = StepperConfig(method="IEMP", basis_process="arnoldi",
                            basis_dim=sys.dim, step_size=macro)
        res = step_iemp(sys, cfg, x)
        ee = step_ee(sys, cfg, x)
        assert np.linalg.norm(res.x_plus - ee.x_plus) <= 1e-10 * np.linalg.norm(ee.x_plus)
        assert res.fp_iters <= 10

    def test_reduced_step_identity(self, monkeypatch):
        # at the converged midpoint, xi_plus = xi + e^(hF) xi in the reduced
        # coordinates xi = U^+ (x_mid - x), xi_plus = U^+ (x_plus - x)
        monkeypatch.setattr(integrators, "FP_TOL", 1e-14)
        sys = KleinGordonSystem(n=16)
        macro = 0.02
        cfg = StepperConfig(method="IEMP", basis_process="hamiltonian-lanczos",
                            basis_dim=12, step_size=macro)
        x = sys.initial_state
        res = step_iemp(sys, cfg, x)
        xi = res.basis.left_apply(res.x_mid - x)
        xi_plus = res.basis.left_apply(res.x_plus - x)
        want = xi + expm(0.5 * macro * res.basis.reduced) @ xi
        assert np.linalg.norm(xi_plus - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_symmetric_form_of_update(self, monkeypatch):
        # equivalent symmetric relation: x_plus - x_mid = U e^(hF) U^+ (x_mid - x)
        monkeypatch.setattr(integrators, "FP_TOL", 1e-14)
        sys = KleinGordonSystem(n=16)
        macro = 0.02
        cfg = StepperConfig(method="IEMP", basis_process="hamiltonian-lanczos",
                            basis_dim=12, step_size=macro)
        x = sys.initial_state
        res = step_iemp(sys, cfg, x)
        U = res.basis
        prop = U.columns @ (expm(0.5 * macro * U.reduced) @ U.left_apply(res.x_mid - x))
        assert (np.linalg.norm((res.x_plus - res.x_mid) - prop)
                <= 1e-9 * max(np.linalg.norm(prop), 1.0))

    @pytest.mark.parametrize("process,matvecs", [
        ("arnoldi", 33), ("symplectic-arnoldi", 49), ("isotropic-arnoldi", 34),
        ("hamiltonian-lanczos", 34)])
    def test_predictor_basis_has_half_the_columns(self, process, matvecs):
        # an EE half step in mult * ceil(22 / (2 mult)) columns (11 for
        # Arnoldi, 12 for a paired process) plus one full build at the
        # predicted midpoint, not two full bases
        sys = KleinGordonSystem(n=64)
        x = sys.initial_state + 0.1 * np.random.default_rng(16).standard_normal(sys.dim)
        cfg = StepperConfig(method="IEMP", basis_process=process, basis_dim=22,
                            step_size=0.02)
        small = 12 if integrators.BASIS_PROCESSES[process][1] == 2 else 11
        predictor = step_ee(sys, replace(cfg, basis_dim=small, step_size=0.01), x)
        action = CountingAction.from_system(sys, predictor.x_plus)
        integrators.build_basis(action, sys.f(predictor.x_plus), cfg)
        res = step_iemp(sys, cfg, x)
        assert res.matvecs == predictor.matvecs + action.count == matvecs
        assert predictor.basis.n_columns == small
        assert res.basis.n_columns == 22
        assert res.matvecs < step_ee(sys, replace(cfg, step_size=0.01), x).matvecs + action.count

    def test_nonconvergence_raises_step_failure(self, monkeypatch):
        monkeypatch.setattr(integrators, "FP_TOL", 1e-16)
        monkeypatch.setattr(integrators, "FP_MAX_ITER", 1)
        sys = KleinGordonSystem(n=16)
        cfg = StepperConfig(method="IEMP", basis_process="arnoldi", basis_dim=8,
                            step_size=0.05)
        with pytest.raises(StepFailureError):
            step_iemp(sys, cfg, sys.initial_state)


class TestIntegrate:
    def test_single_step_matches_step_ee(self, rng):
        sys = random_quadratic_system(rng, 5)
        x0 = rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=6,
                            step_size=0.05)
        summary = integrate(sys, cfg, x0, n_steps=1)
        res = step_ee(sys, cfg, x0)
        assert np.allclose(summary.final_state, res.x_plus, atol=1e-14)
        assert summary.steps_completed == 1

    def test_matvec_counter_exact_for_ee_arnoldi(self, rng):
        sys = random_quadratic_system(rng, 8)
        x0 = rng.standard_normal(sys.dim)
        k = 6
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=k,
                            step_size=0.01)
        results = []
        summary = integrate(sys, cfg, x0, n_steps=25,
                            observer=lambda s, t, res: results.append(res))
        assert summary.matvec_count == 25 * k
        assert [res.basis.n_columns for res in results[1:]] == [k] * 25

    def test_eemp_bootstrap_is_one_ee_step(self, rng):
        sys = random_quadratic_system(rng, 5)
        x0 = rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EEMP", basis_process="symplectic-arnoldi",
                            basis_dim=6, step_size=0.05)
        states = []
        integrate(sys, cfg, x0, n_steps=2,
                  observer=lambda s, t, res: states.append(res.x_plus.copy()))
        ee = step_ee(sys, cfg, x0)
        assert np.allclose(states[1], ee.x_plus, atol=1e-14)

    def test_wave_long_run_energy_drift(self):
        sys = LinearWaveSystem(n=50)
        x0 = sys.initial_state
        H0 = sys.energy(x0)
        cfg = StepperConfig(method="EE", basis_process="symplectic-arnoldi",
                            basis_dim=8, step_size=50.0 / 2000)
        worst = 0.0

        def watch(step, t, res):
            nonlocal worst
            worst = max(worst, abs(sys.energy(res.x_plus) - H0) / abs(H0))

        integrate(sys, cfg, x0, n_steps=2000, observer=watch)
        assert worst <= 1e-9

    def test_observer_sequencing(self, rng):
        sys = random_quadratic_system(rng, 4)
        seen = []
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=4,
                            step_size=0.02)
        integrate(sys, cfg, rng.standard_normal(sys.dim), n_steps=3,
                  observer=lambda s, t, res: seen.append((s, round(t, 12))))
        assert seen == [(0, 0.0), (1, 0.02), (2, 0.04), (3, 0.06)]

    @pytest.mark.parametrize("method,process", [
        ("EE", "arnoldi"), ("EEMP", "hamiltonian-lanczos"), ("IEMP", "symplectic-arnoldi")])
    def test_nonfinite_jacobian_aborts_with_partial_summary(self, rng, method, process):
        # a Jacobian that turns NaN at step k makes the reduced matrix
        # non-finite; the kernel's rejection fails step k, cause attached
        sys = random_quadratic_system(rng, 4)
        k = 3
        linearize, poisoned = sys.linearize, []
        sys.linearize = lambda x: ((lambda v: np.full_like(v, np.nan)) if poisoned
                                   else linearize(x))
        cfg = StepperConfig(method=method, basis_process=process, basis_dim=4,
                            step_size=0.05)
        with pytest.raises(IntegrationAborted) as err:
            integrate(sys, cfg, rng.standard_normal(sys.dim), n_steps=6,
                      observer=lambda s, t, res: poisoned.append(s) if s == k - 1 else None)
        assert err.value.summary.steps_completed == k - 1
        assert isinstance(err.value.__cause__, StepFailureError)
        assert isinstance(err.value.__cause__.__cause__, ValueError)

    def test_overflowing_kernel_fails_the_step_without_warning(self):
        # x' = (-800 q, 800 p): one step of h = 1 needs e^800, which
        # overflows in expm's squaring; the step fails typed, and numpy
        # prints no RuntimeWarning on the way
        sys = QuadraticHamiltonianSystem(np.array([[0.0, 800.0], [800.0, 0.0]]))
        cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=2, step_size=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationAborted) as err:
                integrate(sys, cfg, np.array([1.0, 1.0]), n_steps=1)
        assert err.value.summary.steps_completed == 0
        assert isinstance(err.value.__cause__, StepFailureError)
        assert "reduced kernel failed: matrix exponential overflowed" in str(err.value.__cause__)

    @pytest.mark.parametrize("n,m,process,dim", [(40, 30.0, "isotropic-arnoldi", 40),
                                                 (2, 0.5, "symplectic-arnoldi", 4)])
    def test_overflowing_fixed_point_fails_at_once_without_warning(self, monkeypatch, n, m,
                                                                   process, dim):
        # Klein-Gordon at A = 1e4 and h = 0.1: the IEMP fixed point's
        # iterates overflow; the first overflow ends the step, long before
        # FP_MAX_ITER iterations, with no numpy warning first
        sys = KleinGordonSystem(n=n, m=m, A=1e4)
        calls, f = [], sys.f
        monkeypatch.setattr(sys, "f", lambda x: calls.append(1) or f(x))
        cfg = StepperConfig(method="IEMP", basis_process=process, basis_dim=dim,
                            step_size=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationAborted, match="step 1: overflow") as err:
                integrate(sys, cfg, sys.initial_state, n_steps=5)
        assert err.value.summary.steps_completed == 0
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert len(calls) < integrators.FP_MAX_ITER

    def test_degenerate_pair_aborts_with_partial_summary(self, rng, monkeypatch):
        # a symplectic extension that cannot pair its vector fails the EEMP
        # step it belongs to; EEMP extends from step 2 on, so the k-th step
        # makes the (k-1)-th extension call
        sys = random_quadratic_system(rng, 4)
        k, calls = 4, []
        real = integrators.extend_basis

        def extend(outcome, action, x):
            calls.append(1)
            if len(calls) == k - 1:
                raise DegeneratePairError("paired companion degenerated")
            return real(outcome, action, x)

        monkeypatch.setattr(integrators, "extend_basis", extend)
        cfg = StepperConfig(method="EEMP", basis_process="hamiltonian-lanczos",
                            basis_dim=4, step_size=0.05)
        with pytest.raises(IntegrationAborted) as err:
            integrate(sys, cfg, rng.standard_normal(sys.dim), n_steps=6)
        assert err.value.summary.steps_completed == k - 1
        assert isinstance(err.value.__cause__, DegeneratePairError)

    def test_zero_steps_rejected(self, rng):
        sys = random_quadratic_system(rng, 4)
        cfg = StepperConfig()
        with pytest.raises(ValueError):
            integrate(sys, cfg, rng.standard_normal(sys.dim), n_steps=0)

    @pytest.mark.parametrize("n_steps", [2.5, 2.0, "2"])
    def test_non_integer_steps_rejected(self, n_steps, rng):
        sys = random_quadratic_system(rng, 4)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            integrate(sys, StepperConfig(), rng.standard_normal(sys.dim), n_steps=n_steps)

    def test_numpy_integer_steps_accepted(self, rng):
        sys = random_quadratic_system(rng, 4)
        summary = integrate(sys, StepperConfig(), rng.standard_normal(sys.dim),
                            n_steps=np.int64(2))
        assert summary.steps_completed == 2


class TestLinearEnergyExactness:
    """With a symplectic basis every method keeps the energy of a linear
    system to rounding, step by step; for EEMP it is the energy of
    consecutive averages (x_n + x_(n+1)) / 2."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("process", ["symplectic-arnoldi", "isotropic-arnoldi",
                                         "hamiltonian-lanczos"])
    @pytest.mark.parametrize("dim", [4, 8])
    def test_per_step_defect_at_rounding(self, seed, process, dim):
        rng = np.random.default_rng(seed)
        sys = random_quadratic_system(rng, 10)
        x0 = rng.standard_normal(sys.dim)
        for method in ("EE", "EEMP", "IEMP"):
            cfg = StepperConfig(method=method, basis_process=process, basis_dim=dim,
                                step_size=0.05)
            states = []
            integrate(sys, cfg, x0, n_steps=10,
                      observer=lambda step, t, res: states.append(res.x_plus))
            if method == "EEMP":
                states = [0.5 * (a + b) for a, b in zip(states, states[1:])]
            energies = np.array([sys.energy(x) for x in states])
            defects = np.abs(np.diff(energies)) / np.abs(energies[:-1])
            assert defects.max() <= 1e-11, method


class TestEEMPTimeSymmetry:
    """EEMP is symmetric: stepping back from (x+, x) with -h in the step's
    basis U and reduced matrix F gives x_prev again, because x_prev - x lies
    in range(U) and e^(-hF) phi(hF) = phi(-hF); nonlinear systems too."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("process", list(integrators.BASIS_PROCESSES))
    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("problem", ["quadratic", "klein-gordon"])
    def test_backward_step_returns_x_prev(self, seed, process, dim, problem):
        rng = np.random.default_rng(seed)
        if problem == "quadratic":
            sys = random_quadratic_system(rng, 10)
            x = rng.standard_normal(sys.dim)
        else:
            sys = KleinGordonSystem(n=16)
            x = sys.initial_state + 0.1 * rng.standard_normal(sys.dim)
        h = 0.05
        x_prev = x - h * sys.f(x) + h * h * rng.standard_normal(sys.dim)
        cfg = StepperConfig(method="EEMP", basis_process=process, basis_dim=dim, step_size=h)
        res = step_eemp(sys, cfg, x, x_prev)
        U, F = res.basis, res.basis.reduced
        back = x + U.columns @ (expm(-h * F) @ U.left_apply(res.x_plus - x)
                                - 2.0 * h * phi1(-h * F) @ U.left_apply(sys.f(x)))
        assert np.linalg.norm(back - x_prev) <= 1e-11 * np.linalg.norm(x_prev)


class TestBuildBasis:
    @pytest.mark.parametrize("process", ["isotropic-arnoldi", "symplectic-arnoldi"])
    def test_breakdown_restarts_without_rng(self, process):
        # both processes break down at the wave start (zero momentum); a
        # call without a generator still restarts, from default_rng(0)
        sys = LinearWaveSystem(n=60)
        x = sys.initial_state
        action = CountingAction.from_system(sys, x)
        cfg = StepperConfig(basis_process=process, basis_dim=16)
        plain = integrators.BASIS_PROCESSES[process][0](action, sys.f(x), 8)
        assert plain.terminated == BREAKDOWN and plain.basis.n_columns == 2
        outcome = integrators.build_basis(action, sys.f(x), cfg)
        assert outcome.basis.n_columns == 16
        again = integrators.build_basis(action, sys.f(x), cfg,
                                        rng=np.random.default_rng(0))
        assert np.array_equal(outcome.basis.columns, again.basis.columns)

    def _broken(self, monkeypatch, columns, residual=0.5):
        """Install a process that always breaks down with ``columns`` columns."""
        attempts = []

        def process(action, v, k):
            attempts.append(v.copy())
            basis = BasisMatrix(np.eye(action.dim)[:, :columns], SYMPLECTIC,
                                np.zeros((columns, columns)))
            return KrylovOutcome(basis, BREAKDOWN, residual,
                                 np.zeros((action.dim, columns)))

        monkeypatch.setitem(integrators.BASIS_PROCESSES, "hamiltonian-lanczos", (process, 2))
        return attempts

    def test_breakdown_retried_up_to_limit(self, rng, monkeypatch):
        attempts = self._broken(monkeypatch, 2)
        cfg = StepperConfig(basis_process="hamiltonian-lanczos", basis_dim=6)
        action = dense_action(np.eye(8))
        outcome = integrators.build_basis(action, np.ones(8), cfg, rng)
        assert len(attempts) == 1 + integrators.BREAKDOWN_RETRIES
        assert outcome.basis.n_columns == 2
        # every restart perturbs the start vector afresh
        assert len({a.tobytes() for a in attempts}) == len(attempts)

    def test_too_few_columns_is_step_failure(self, rng, monkeypatch):
        attempts = self._broken(monkeypatch, 0, residual=0.25)
        cfg = StepperConfig(basis_process="hamiltonian-lanczos", basis_dim=6)
        action = dense_action(np.eye(8))
        with pytest.raises(StepFailureError) as err:
            integrators.build_basis(action, np.ones(8), cfg, rng)
        assert err.value.residual == 0.25
        assert len(attempts) == 1 + integrators.BREAKDOWN_RETRIES


class TestConvergenceOrders:
    def test_orders_on_klein_gordon(self):
        from symkry.harness import reference_solution, solution_error

        sys = KleinGordonSystem(n=32)
        x0 = sys.initial_state
        T = 1.0
        ref = reference_solution(sys, x0, np.array([0.0, T]), mode="fine",
                                 factor=4000)[-1]
        ratios = {}
        for method in ("EE", "EEMP", "IEMP"):
            errs = []
            for steps in (20, 40):
                cfg = StepperConfig(method=method, basis_process="arnoldi",
                                    basis_dim=24, step_size=T / steps)
                s = integrate(sys, cfg, x0, n_steps=steps)
                errs.append(solution_error(s.final_state, ref))
            ratios[method] = errs[0] / errs[1]
        # all three methods are second order (the Jacobian is refreshed at
        # every step, so the one-step scheme is of Rosenbrock type)
        for method, ratio in ratios.items():
            assert 3.0 <= ratio <= 5.0, (method, ratio)
