import dataclasses
import gc
import itertools
import os
import re
import subprocess
import sys as _sys
import time
import warnings
import weakref

import numpy as np
import pytest

from symkry import (
    ConfigError,
    IntegrationAborted,
    KleinGordonSystem,
    LinearWaveSystem,
    NonlinearSchroedingerSystem,
    QuadraticHamiltonianSystem,
    StepperConfig,
    apply_J_inverse,
    build_problem,
    expm,
    integrate,
    reference_solution,
    relative_energy_error,
    run,
    run_sections,
    solution_error,
)
from symkry import cli, harness, integrators, matfun
from symkry.cli import _build_parser, available_presets, load_preset, main
from symkry.errors import DegeneratePairError, NumericalError, ReferenceFailureError
from symkry.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
)

from conftest import laplacian_eigenpairs, random_quadratic_system


def second_order_system(K, b=None, e=0.0):
    """The quadratic system q' = p - e, p' = K q + b: S = diag(K, -I),
    d = (b, e)."""
    n = K.shape[0]
    S = np.zeros((2 * n, 2 * n))
    S[:n, :n] = K
    S[n:, n:] = -np.eye(n)
    d = np.zeros(2 * n)
    d[:n] = np.ones(n) if b is None else b
    d[n:] = e
    return QuadraticHamiltonianSystem(S, d)


def augmented_flow(A, c, dt):
    """(e^(dt A), dt phi(dt A) c) from ``expm`` of the augmented matrix
    [[dt A, 2^-e dt c], [0, 0]]: the column is scaled by the power of two
    2^-e (e >= 0) that brings its 1-norm to at most one, and ``np.ldexp``
    undoes the scaling."""
    m = A.shape[0]
    W = np.zeros((m + 1, m + 1))
    W[:m, :m] = A * dt
    W[:m, m] = c * dt
    mant, e = np.frexp(np.abs(W[:m, m]).sum())
    e = max(int(e) - (mant == 0.5), 0)
    W[:m, m] = np.ldexp(W[:m, m], -e)
    E = expm(W)
    return E[:m, :m], np.ldexp(E[:m, m], e)


def affine_propagation(A, c, x0, t_grid):
    """x' = A x + c propagated interval by interval with ``augmented_flow``,
    one exponential per distinct interval length."""
    states, flows = [x0], {}
    for dt in np.diff(t_grid):
        if dt not in flows:
            flows[dt] = augmented_flow(A, c, dt)
        prop, shift = flows[dt]
        states.append(prop @ states[-1] + shift)
    return np.array(states)


def second_order_closed_form(lam, V, b, x0, t_grid):
    """States of q' = p, p' = K q + b at t_grid from K's eigenpairs (lam, V)
    with lam <= 0, in the precision of lam."""
    n = lam.size
    x0, b = x0.astype(lam.dtype), b.astype(lam.dtype)
    a, pi, beta = V.T @ x0[:n], V.T @ x0[n:], V.T @ b
    t = t_grid.astype(lam.dtype)[:, None]
    w = np.sqrt(-lam)
    w_safe = np.where(w == 0, 1, w)
    cos = np.cos(w * t)
    sin_w = np.where(w == 0, t, np.sin(w * t) / w_safe)  # sin(wt)/w
    vers_w2 = np.where(w == 0, t * t / 2, 2 * np.sin(w * t / 2) ** 2 / w_safe ** 2)
    q = (cos * a + sin_w * pi + vers_w2 * beta) @ V.T
    p = (lam * sin_w * a + cos * pi + sin_w * beta) @ V.T
    return np.hstack([q, p])


class TestMetrics:
    def test_energy_error_zero_at_start(self, rng):
        sys = random_quadratic_system(rng, 4)
        x0 = rng.standard_normal(sys.dim)
        assert relative_energy_error(sys, x0, x0) == 0.0

    def test_energy_error_nonfinite_rejected(self, rng):
        sys = KleinGordonSystem(n=8)
        bad = np.full(sys.dim, 1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                relative_energy_error(sys, bad, sys.initial_state)

    def test_energy_error_nonfinite_is_a_numerical_error(self):
        sys = QuadraticHamiltonianSystem(np.eye(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite energy"):
                relative_energy_error(sys, np.array([1e200, 0.0]), np.zeros(2))

    def test_solution_error_identical_states(self, rng):
        x = rng.standard_normal(12)
        assert solution_error(x, x) == 0.0

    def test_solution_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            solution_error(np.ones(4), np.ones(6))


class TestRK4Step:
    SYSTEMS = pytest.mark.parametrize("system", [
        KleinGordonSystem(n=64), NonlinearSchroedingerSystem(n=50), LinearWaveSystem(n=64)],
        ids=["klein-gordon", "nls", "wave"])

    @SYSTEMS
    def test_bit_equal_to_the_stage_formula(self, rng, system):
        f = system.f
        for h in (1e-3, 0.0137, 0.1):
            x = system.initial_state + 0.1 * rng.standard_normal(system.dim)
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            want = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.array_equal(harness._rk4_step(f, x, h), want)

    @SYSTEMS
    def test_reads_what_f_sees_and_returns(self, rng, system):
        # f may return read-only arrays, and no array f has seen or
        # returned is written by the step
        seen = []

        def f(y):
            out = system.f(y)
            out.flags.writeable = False
            seen.extend([(y, y.copy()), (out, out.copy())])
            return out

        x = system.initial_state + 0.1 * rng.standard_normal(system.dim)
        x.flags.writeable = False
        got = harness._rk4_step(f, x, 0.02)
        assert np.array_equal(got, harness._rk4_step(system.f, x, 0.02))
        assert len(seen) == 8
        for array, copy in seen:
            assert np.array_equal(array, copy) and array is not got


class TestReferenceSolution:
    def test_trivial_grid_returns_initial_state(self, rng):
        sys = random_quadratic_system(rng, 4)
        x0 = rng.standard_normal(sys.dim)
        states = reference_solution(sys, x0, np.array([0.0]))
        assert states.shape == (1, sys.dim)
        assert np.array_equal(states[0], x0)

    def test_dense_matches_full_dimension_ee(self, rng):
        from symkry import StepperConfig, step_ee

        sys = random_quadratic_system(rng, 5)
        x0 = rng.standard_normal(sys.dim)
        h = 0.08
        states = reference_solution(sys, x0, np.array([0.0, h]), mode="dense")
        cfg = StepperConfig(method="EE", basis_process="arnoldi",
                            basis_dim=sys.dim, step_size=h)
        res = step_ee(sys, cfg, x0)
        assert np.linalg.norm(states[1] - res.x_plus) <= 1e-10 * np.linalg.norm(res.x_plus)

    def test_dense_is_the_affine_propagation_off_second_order(self, rng):
        # a drawn linear system that is not second order: x0 + y, with
        # y' = A y + f(x0) propagated from y = 0 in (p, q) order, written
        # out from Jacobian-action columns and the affine constant, bit for
        # bit, over intervals that are exact in binary and repeat, with a
        # field large enough that every interval scales its column
        sys = random_quadratic_system(rng, 6)
        x0 = rng.standard_normal(sys.dim)
        t_grid = np.array([0.0, 0.125, 0.25, 0.75, 1.25, 1.375])
        A = np.column_stack([sys.linearize(x0)(e) for e in np.eye(sys.dim)])
        n = sys.dim // 2
        fx = np.roll(A @ x0 + apply_J_inverse(sys.d), n)
        assert np.abs(0.125 * fx).sum() > 1.0
        y = affine_propagation(np.roll(A, n, axis=(0, 1)), fx, np.zeros(sys.dim), t_grid)
        want = x0 + np.roll(y, n, axis=1)
        states = reference_solution(sys, x0, t_grid, mode="dense")
        assert np.array_equal(states, want)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_dense_wave_is_closer_to_closed_form_than_affine_propagation(self, boundary):
        # against the stencil's closed-form modes in long double, the dense
        # reference beats the interval-by-interval affine propagation
        sys = LinearWaveSystem(n=100, boundary=boundary)
        n, x0 = sys.laplacian.n, sys.initial_state
        t_grid = np.linspace(0.0, 50.0, 201)
        b = sys.f(np.zeros(sys.dim))[n:]
        exact = second_order_closed_form(*laplacian_eigenpairs(sys.laplacian, np.longdouble),
                                         b, x0, t_grid)
        affine = affine_propagation(sys.jacobian_dense(x0), sys.f(np.zeros(sys.dim)), x0, t_grid)

        def worst(states):
            err = np.linalg.norm(states - exact, axis=1) / np.linalg.norm(exact, axis=1)
            return float(err.max())

        dense = worst(reference_solution(sys, x0, t_grid, mode="dense"))
        assert dense < worst(affine)
        assert dense <= 1e-10

    @pytest.mark.parametrize("make", [
        lambda: second_order_system(np.array([[-2.0, 1.0, 0.0, 0.0, 0.0],
                                              [1.0, -2.0, 0.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0, 1.0, 1.0],
                                              [0.0, 0.0, 0.0, 1.0, 1.0]])),
        lambda: KleinGordonSystem(n=16, g=0.0),
        lambda: second_order_system(np.array([[-2.0, 1.0, 0.0],
                                              [1.0, -3.0, 0.5],
                                              [0.0, 0.5, 0.0]]), e=np.array([0.5, -1.0, 2.0])),
    ], ids=["eigenvalues-of-every-sign", "klein-gordon-linear", "constant-in-q-half"])
    def test_dense_second_order_agrees_with_affine_propagation(self, make, monkeypatch):
        # q' = p, p' = K q + b with K's eigenvalues -3, -1, 0, 0, 2, linear
        # Klein-Gordon, and q' = p - e, p' = K q + b with e nonzero: the
        # closed-form oracle, which never calls pade_flow, agrees with the
        # affine propagation
        sys = make()
        x0 = np.random.default_rng(5).standard_normal(sys.dim)
        t_grid = np.array([0.0, 0.125, 0.25, 0.5])
        want = affine_propagation(sys.jacobian_dense(x0), sys.f(np.zeros(sys.dim)), x0, t_grid)
        monkeypatch.setattr(matfun, "pade_flow", None)
        states = reference_solution(sys, x0, t_grid, mode="dense")
        assert np.array_equal(states[0], x0)
        for got, ref in zip(states, want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dense_second_order_with_zero_stiffness_is_the_parabola(self, rng):
        # K = 0: q(t) = q0 + t p0 + t^2 b / 2 and p(t) = p0 + t b
        n = 3
        sys = second_order_system(np.zeros((n, n)), b=rng.standard_normal(n))
        x0 = rng.standard_normal(sys.dim)
        t_grid = np.array([0.0, 0.5, 1.0, 3.0])
        b, q0, p0 = sys.d[:n], x0[:n], x0[n:]
        t = t_grid[:, None]
        want = np.hstack([q0 + t * p0 + 0.5 * t * t * b, p0 + t * b])
        states = reference_solution(sys, x0, t_grid, mode="dense")
        assert np.allclose(states, want, rtol=1e-15, atol=1e-15)

    def test_dense_second_order_overflow_is_a_value_error_without_warning(self):
        # q'' = 1e4 q grows like e^(100 t): at t = 50 the modal flow
        # overflows; the oracle fails typed, and numpy prints no warning
        sys = QuadraticHamiltonianSystem(np.diag([1e4, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflowed"):
                reference_solution(sys, [1.0, 0.0], [0.0, 50.0], mode="dense")

    def test_dense_state_whose_norm_overflows_fails_typed(self):
        # q'' = q grows like e^t: at t = 460 the state (about 1e200) is
        # finite but its norm overflows, so no solution error can be taken
        # against it
        sys = QuadraticHamiltonianSystem(np.diag([1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReferenceFailureError, match="overflowed"):
                reference_solution(sys, [1.0, 0.0], [0.0, 460.0], mode="dense")

    @pytest.mark.parametrize("t_grid, message", [
        # the one interval's exponential overflows, and pade_flow refuses it
        ([0.0, 10.0], "dense reference overflowed: matrix exponential overflowed"),
        # each interval's exponential is finite, but the states grow until
        # their norm overflows
        (np.arange(400) * 0.05, "dense reference overflowed by t="),
    ], ids=["interval-exponential", "state-norm"])
    def test_dense_affine_overflow_fails_typed_without_warning(self, t_grid, message):
        # not second order, so phi_apply propagates one Pade exponential
        # per interval length
        sys = QuadraticHamiltonianSystem(1e3 * np.array([[1.0, 0.5], [0.5, -3.0]]), [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReferenceFailureError, match=re.escape(message)):
                reference_solution(sys, [1.0, 0.0], t_grid, mode="dense")

    def test_dense_affine_shape_bug_is_not_a_reference_failure(self, rng):
        # an f of the wrong length is a bug: numpy's broadcast ValueError,
        # off the closed form, reaches the caller as itself
        sys = random_quadratic_system(rng, 4)
        sys.f = lambda x: np.ones(3)
        with pytest.raises(ValueError, match="broadcast") as info:
            reference_solution(sys, np.ones(sys.dim), [0.0, 0.5], mode="dense")
        assert type(info.value) is ValueError

    def test_dense_intervals_below_the_old_absolute_key_stay_distinct(self, rng):
        # intervals of 1e-16 and 2e-16 are two propagators: the state at
        # 3e-16 is the one-interval state, not the state at 2e-16
        S = rng.standard_normal((4, 4))
        sys = QuadraticHamiltonianSystem(1e15 * (S + S.T))
        x0 = rng.standard_normal(sys.dim)
        states = reference_solution(sys, x0, [0.0, 1e-16, 3e-16], mode="dense")
        want = reference_solution(sys, x0, [0.0, 3e-16], mode="dense")[1]
        assert np.linalg.norm(states[2] - want) <= 1e-13 * np.linalg.norm(want)

    def test_dense_uniform_grid_forms_one_propagator(self, rng, monkeypatch):
        # the s h grid of a run (T = 10, 500 steps, every 10th recorded):
        # its intervals differ in their last bits but are one length
        S = rng.standard_normal((4, 4))
        sys = QuadraticHamiltonianSystem(S + S.T, rng.standard_normal(4))
        h = 10.0 / 500
        t_grid = np.array([s * h for s in range(0, 501, 10)])
        assert np.unique(np.diff(t_grid)).size > 1
        calls, real = [], matfun.pade_flow
        monkeypatch.setattr(matfun, "pade_flow", lambda *a: calls.append(a[2]) or real(*a))
        reference_solution(sys, rng.standard_normal(4), t_grid, mode="dense")
        assert len(calls) == 1

    @pytest.mark.parametrize("t_grid, message", [
        ([0.0, np.nan], "finite"),
        ([0.0, np.inf], "finite"),
        ([np.nan], "finite"),
        ([0.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, -1.0], "strictly increasing"),
        ([], "a nonempty 1-d array"),
        ([[0.0, 1.0]], "a nonempty 1-d array"),
    ])
    @pytest.mark.parametrize("mode", ["fine", "dense"])
    def test_bad_time_grid_is_a_value_error_not_a_reference_failure(self, t_grid, message, mode):
        sys = QuadraticHamiltonianSystem(np.diag([1.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"t_grid must be {message}") as info:
                reference_solution(sys, [1.0, 0.0], t_grid, mode=mode)
        assert type(info.value) is ValueError

    def test_fine_overflow_is_a_value_error_without_warning(self):
        # RK4 at a micro step of 0.1 is unstable on Klein-Gordon n=100
        # (rho(Df) h of about 20); the oracle fails typed instead of
        # returning NaN states after numpy warnings
        sys = KleinGordonSystem(n=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fine reference overflowed by t=1:"):
                reference_solution(sys, sys.initial_state, np.array([0.0, 0.5, 1.0]),
                                   mode="fine", factor=5)

    def test_dense_refused_for_nonlinear(self):
        sys = KleinGordonSystem(n=8)
        with pytest.raises(ConfigError):
            reference_solution(sys, sys.initial_state, np.array([0.0, 0.1]), mode="dense")

    def test_dense_refused_beyond_dimension_guard(self):
        sys = LinearWaveSystem(n=1001)
        with pytest.raises(ConfigError):
            reference_solution(sys, sys.initial_state, np.array([0.0, 0.1]), mode="dense")

    def test_fine_refinement_self_consistency(self):
        # Richardson-style check of the fine-step oracle on a Klein-Gordon
        # downscale: 500 vs 1000 micro steps per interval
        sys = KleinGordonSystem(n=32)
        x0 = sys.initial_state
        t_grid = np.array([0.0, 0.5, 1.0])
        a = reference_solution(sys, x0, t_grid, mode="fine", factor=500)
        b = reference_solution(sys, x0, t_grid, mode="fine", factor=1000)
        assert np.linalg.norm(a[-1] - b[-1]) / np.linalg.norm(b[-1]) <= 1e-9

    def test_unknown_mode(self, rng):
        sys = random_quadratic_system(rng, 3)
        with pytest.raises(ConfigError):
            reference_solution(sys, np.zeros(6), np.array([0.0, 1.0]), mode="exact")

    @pytest.mark.parametrize("make,mode", [
        (lambda rng: random_quadratic_system(rng, 3), "bogus"),
        (lambda rng: KleinGordonSystem(n=8), "dense"),
    ], ids=["unknown-mode", "dense-on-nonlinear"])
    def test_one_point_grid_checks_mode(self, make, mode, rng):
        # the arguments are checked before the one-point grid returns x0
        sys = make(rng)
        with pytest.raises(ConfigError):
            reference_solution(sys, np.zeros(sys.dim), np.array([0.0]), mode=mode)

    @pytest.mark.parametrize("factor", [0, -1])
    def test_fine_factor_below_one_refused(self, factor):
        sys = KleinGordonSystem(n=8)
        with pytest.raises(ConfigError, match="at least 1"):
            reference_solution(sys, sys.initial_state, np.array([0.0, 0.1]), factor=factor)

    def test_fine_factor_not_an_integer_refused(self):
        sys = KleinGordonSystem(n=8)
        with pytest.raises(ConfigError, match="an integer of at least 1, got 2.5"):
            reference_solution(sys, sys.initial_state, np.array([0.0, 0.1]), factor=2.5)


class TestExperimentConfig:
    def test_validation_catches_bad_fields(self):
        for fields in (dict(problem="heat"), dict(n_steps=0), dict(method="leapfrog"),
                       dict(basis="arnoldi", basis_dim=0),
                       dict(basis="hamiltonian-lanczos", basis_dim=9),
                       dict(reference="exact"), dict(t_final=float("nan")), dict(seed=-1),
                       dict(problem_params={"n": 2}, basis_dim=8),
                       dict(problem="klein-gordon", problem_params={"n": 8},
                            reference="dense")):
            with pytest.raises(ConfigError):
                ExperimentConfig(**fields)

    @pytest.mark.parametrize("name, value", [("n_steps", 2.5), ("record_every", 1.5),
                                             ("basis_dim", 2.5)])
    def test_non_integer_counts_refused(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be .*integer.*, got {value}"):
            ExperimentConfig(**{name: value})

    def test_non_integer_ref_factor_refused(self):
        with pytest.raises(ConfigError, match="an integer of at least 1, got 2.5"):
            ExperimentConfig(problem="klein-gordon", problem_params={"n": 8}, ref_factor=2.5)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_refused(self, seed):
        # refused when the config is made, not as numpy's TypeError in run()
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            ExperimentConfig(seed=seed)

    # a bool is an int to Python, but never a count, seed or factor
    BOOL_SETTINGS = {
        "stepper-basis_dim": (lambda: StepperConfig(basis_dim=True), ConfigError),
        "basis_dim": (lambda: ExperimentConfig(basis_dim=True), ConfigError),
        "n_steps": (lambda: ExperimentConfig(n_steps=True), ConfigError),
        "record_every": (lambda: ExperimentConfig(record_every=True), ConfigError),
        "seed": (lambda: ExperimentConfig(seed=False), ConfigError),
        "ref_factor": (lambda: ExperimentConfig(ref_factor=True), ConfigError),
        "problem-n": (lambda: build_problem("klein-gordon", n=True), ConfigError),
        "integrate-n_steps": (lambda: integrate(KleinGordonSystem(n=8), StepperConfig(),
                                                np.zeros(16), n_steps=True), ConfigError),
    }

    @pytest.mark.parametrize("setting", list(BOOL_SETTINGS))
    def test_bool_refused_where_an_integer_is_required(self, setting):
        make, error = self.BOOL_SETTINGS[setting]
        with pytest.raises(error, match=r"integer.*, got (True|False)$"):
            make()

    # a bool or a non-number is never a horizon, a step size or a numeric
    # problem parameter, nor None a method; each refusal is a ConfigError
    # whose message ends with the value refused
    NON_NUMBER_SETTINGS = {
        "t_final-bool": (lambda: ExperimentConfig(t_final=True), True),
        "t_final-None": (lambda: ExperimentConfig(t_final=None), None),
        "t_final-str": (lambda: ExperimentConfig(t_final="1"), "1"),
        "stepper-step_size-bool": (lambda: StepperConfig(step_size=True), True),
        "stepper-step_size-str": (lambda: StepperConfig(step_size="0.1"), "0.1"),
        "stepper-method-None": (lambda: StepperConfig(method=None), None),
        "problem-V0-bool": (lambda: build_problem("nls", V0=True), True),
        "problem-V0-str": (lambda: build_problem("nls", V0="1.0"), "1.0"),
        "problem_params-bool": (lambda: ExperimentConfig(problem_params={"L": True}), True),
        "method-None": (lambda: ExperimentConfig(method=None), None),
        "mapping-t_final-bool": (lambda: config_from_mapping({"t_final": True}), True),
        "mapping-steps-float": (lambda: config_from_mapping({"steps": 2.5}), 2.5),
        "integrate-step_size-0": (lambda: integrate(KleinGordonSystem(n=8),
                                                    StepperConfig(step_size=0.0),
                                                    np.zeros(16)), 0.0),
    }

    @pytest.mark.parametrize("setting", list(NON_NUMBER_SETTINGS))
    def test_non_number_refused_as_config_error(self, setting):
        make, value = self.NON_NUMBER_SETTINGS[setting]
        with pytest.raises(ConfigError, match=re.escape(repr(value)) + "$"):
            make()

    # a wrong type for the parameters or the output path is a ConfigError,
    # not the TypeError of ``**params`` or ``os.path.isdir``
    WRONG_TYPES = {
        "problem_params-None": dict(problem_params=None),
        "problem_params-list": dict(problem_params=[("n", 8)]),
        "problem_params-str": dict(problem_params="n=8"),
        "problem_params-int-key": dict(problem_params={1: 8}),
        "output-None": dict(output=None),
        "output-int": dict(output=3),
    }

    @pytest.mark.parametrize("setting", list(WRONG_TYPES))
    def test_wrong_type_refused_as_config_error(self, setting):
        fields = self.WRONG_TYPES[setting]
        (value,) = fields.values()
        with pytest.raises(ConfigError, match=re.escape(repr(value)) + "$"):
            ExperimentConfig(**fields)

    def test_output_may_be_a_path_object(self, tmp_path):
        out = tmp_path / "run.csv"
        run(ExperimentConfig(problem_params={"n": 8}, n_steps=2, reference="dense", output=out),
            quiet=True)
        assert out.read_text(encoding="ascii").startswith("# symkry ")

    def test_numeric_text_is_read_as_numbers(self):
        config = config_from_mapping({"problem": "klein-gordon", "problem.n": "8",
                                      "problem.A": "1e-1", "t_final": "0.5", "steps": "10"})
        assert config.problem_params == {"n": 8, "A": 0.1}
        assert (config.t_final, config.n_steps, config.system.dim) == (0.5, 10, 16)

    def test_config_keeps_what_it_built(self):
        cfg = ExperimentConfig(problem="klein-gordon", problem_params={"n": 8}, basis_dim=6,
                               t_final=2.0, n_steps=40)
        assert isinstance(cfg.system, KleinGordonSystem) and cfg.system.dim == 16
        assert (cfg.stepper.basis_dim, cfg.stepper.step_size) == (6, 0.05)
        assert "system" not in repr(cfg)
        assert cfg == ExperimentConfig(problem="klein-gordon", problem_params={"n": 8},
                                       basis_dim=6, t_final=2.0, n_steps=40)

    def test_fields_are_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_steps = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.system = None

    def test_one_build_per_section(self, monkeypatch):
        # config_from_mapping checks a section by building its problem, and
        # run() integrates that same system
        build, built = harness.build_problem, []

        def counted(name, **params):
            built.append(build(name, **params))
            return built[-1]

        monkeypatch.setattr(harness, "build_problem", counted)
        config = config_from_mapping({"problem": "linear-wave", "problem.n": "24",
                                      "basis": "hamiltonian-lanczos", "basis-dim": "8",
                                      "t-final": "1", "steps": "10", "reference": "dense"})
        run(config, quiet=True)
        assert built == [config.system]

    def test_echo_is_deterministic(self):
        cfg = ExperimentConfig(problem="nls", problem_params={"n": 125},
                               method="EEMP", basis="arnoldi", basis_dim=20,
                               t_final=3.0, n_steps=10)
        assert cfg.echo() == cfg.echo()
        assert "problem.n=125" in cfg.echo()


class TestRun:
    def _small_config(self, **kw):
        base = dict(problem="linear-wave", problem_params={"n": 24},
                    method="EE", basis="hamiltonian-lanczos", basis_dim=8,
                    t_final=2.0, n_steps=40, record_every=4, reference="dense")
        base.update(kw)
        return ExperimentConfig(**base)

    def test_row_count_and_monotone_time(self, tmp_path):
        out = tmp_path / "run.csv"
        res = run(self._small_config(output=str(out)), quiet=True)
        rows = res.series.rows
        assert len(rows) == 40 // 4 + 1
        assert rows[0][2] == 0.0  # relative energy error starts at zero
        ts = [r[1] for r in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        text = out.read_text()
        assert text.startswith("# symkry ")
        assert text.splitlines()[1] == "step,t,rel_energy_error,sol_error,basis_dim,fp_iters"

    def test_energy_column_small_for_symplectic_basis(self):
        res = run(self._small_config(), quiet=True)
        assert max(r[2] for r in res.series.rows) <= 1e-10

    def test_repeat_runs_byte_identical(self):
        a = run(self._small_config(), quiet=True).series.to_csv_text()
        b = run(self._small_config(), quiet=True).series.to_csv_text()
        assert a == b

    def test_energy_growth_signature_at_reference_scale(self):
        # orthonormal Arnoldi basis of dimension 16 on the full-size wave
        # benchmark: the energy error grows essentially linearly in time
        cfg = ExperimentConfig(problem="linear-wave", method="EE",
                               basis="arnoldi", basis_dim=16, t_final=50.0,
                               n_steps=2000, record_every=10, reference="dense")
        res = run(cfg, quiet=True)
        ree = {r[0]: r[2] for r in res.series.rows}
        assert ree[2000] > 10.0 * ree[200]
        assert ree[2000] > 1e-6  # genuinely visible error, not rounding noise

    def test_divergence_flushes_partial_csv(self, tmp_path):
        out = tmp_path / "partial.csv"
        cfg = ExperimentConfig(problem="klein-gordon", problem_params={"n": 64},
                               method="EEMP", basis="arnoldi", basis_dim=20,
                               t_final=45.0, n_steps=2250, record_every=10,
                               reference="fine", ref_factor=1, output=str(out))
        with pytest.raises(IntegrationAborted) as err:
            run(cfg, quiet=True)
        assert out.exists()
        body = out.read_text().splitlines()
        assert len(body) > 3
        assert err.value.series is not None
        assert 0 < err.value.summary.steps_completed < 2250
        assert "divergence" in str(err.value)

    def test_basis_dim_exceeding_dimension_rejected(self):
        with pytest.raises(ConfigError):
            run(self._small_config(basis_dim=64), quiet=True)

    def _patched_problem(self, monkeypatch, patch):
        build = harness.build_problem

        def patched(name, **params):
            system = build(name, **params)
            patch(system)
            return system

        monkeypatch.setattr(harness, "build_problem", patched)

    def test_nonfinite_energy_aborts_with_partial_csv(self, tmp_path, monkeypatch):
        def patch(system):
            energy, calls = system.energy, itertools.count()
            # rows 0..2 evaluate H twice each and stay finite; row 3 does not
            system.energy = lambda x: energy(x) if next(calls) < 6 else np.nan

        self._patched_problem(monkeypatch, patch)
        out = tmp_path / "nan.csv"
        with pytest.raises(IntegrationAborted, match="non-finite energy") as err:
            run(self._small_config(output=str(out)), quiet=True)
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 3
        # the failing step 12 completed; its energy failed the row
        assert err.value.summary.steps_completed == 12
        rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
        assert rows[0][4:] == ["0", "0"]
        assert rows[4][4] == "8" and rows[8][4] == "8"

    def test_energy_shape_bug_propagates(self, monkeypatch):
        def patch(system):
            energy = system.energy
            system.energy = lambda x: energy(x) + x[:3] @ x  # a bug, not exit 3

        self._patched_problem(monkeypatch, patch)
        with pytest.raises(ValueError, match="mismatch") as info:
            run(self._small_config(), quiet=True)
        assert type(info.value) is ValueError

    def test_rows_carry_the_step_results_integrate_hands_out(self):
        # the CSV's basis_dim and fp_iters are those of the StepResults an
        # observer of integrate sees under the same stepper; the summary
        # counts the fixed-point iterations of every step, recorded or not
        cfg = ExperimentConfig(problem="klein-gordon", problem_params={"n": 16},
                               method="IEMP", basis="hamiltonian-lanczos", basis_dim=8,
                               t_final=0.5, n_steps=10, record_every=3, reference="fine",
                               ref_factor=2, seed=5)
        result = run(cfg, quiet=True)
        seen = {}
        system = KleinGordonSystem(n=16)
        integrate(system, cfg.stepper, system.initial_state, n_steps=10,
                  rng=np.random.default_rng(5),
                  observer=lambda step, t, res: seen.__setitem__(step, res))
        assert [r[0] for r in result.series.rows] == [0, 3, 6, 9]
        for step, _, _, _, dim, fp in result.series.rows:
            res = seen[step]
            assert dim == (res.basis.n_columns if res.basis is not None else 0)
            assert fp == res.fp_iters
        assert [r[4] for r in result.series.rows] == [0, 8, 8, 8]
        assert all(r[5] > 0 for r in result.series.rows[1:])
        assert result.summary.fp_iterations == sum(res.fp_iters for res in seen.values())
        assert result.summary.matvec_count == sum(res.matvecs for res in seen.values())

    def test_unrelated_value_error_propagates(self, monkeypatch):
        def patch(system):
            system.f = lambda x: np.ones(3)  # wrong length: a bug, not exit 3

        self._patched_problem(monkeypatch, patch)
        # the dense reference's f(0) is the first call to meet the bug
        with pytest.raises(ValueError, match="broadcast"):
            run(self._small_config(), quiet=True)

    # (preset text, restarts it makes at least): the wave start restarts
    # symplectic and isotropic Arnoldi once, as in fig4-desk; the other two
    # restart at many steps, IEMP in its predictor's basis and its full one
    RESTARTING = [
        ("problem = linear-wave\nproblem.n = 100\nbasis = symplectic-arnoldi\nbasis-dim = 16\n"
         "t-final = 2.5\nsteps = 100\nreference = dense\nseed = 7", 1),
        ("problem = linear-wave\nproblem.n = 100\nbasis = isotropic-arnoldi\nbasis-dim = 16\n"
         "t-final = 2.5\nsteps = 100\nreference = dense\nseed = 7", 1),
        ("problem = klein-gordon\nproblem.n = 8\nbasis = isotropic-arnoldi\nbasis-dim = 16\n"
         "t-final = 1\nsteps = 20\nseed = 3", 10),
        ("problem = nls\nproblem.n = 8\nmethod = IEMP\nbasis = symplectic-arnoldi\n"
         "basis-dim = 8\nt-final = 1\nsteps = 20\nseed = 3", 10),
    ]

    def test_restart_noise_is_made_at_the_first_restart(self, monkeypatch, tmp_path):
        # a run, and a bare integrate call, with no restart never imports
        # numpy.random, each in a fresh interpreter
        run_code = ("from symkry import cli; "
                    "code = cli.main(['run', '--problem', 'klein-gordon', '--param', 'n=32', "
                    "'--basis', 'hamiltonian-lanczos', '--basis-dim', '8', '--t-final', '0.2', "
                    "'--steps', '20', '--output', sys.argv[2]])")
        integrate_code = ("from symkry import KleinGordonSystem, StepperConfig, integrate; "
                          "s = KleinGordonSystem(n=32); code = integrate(s, StepperConfig("
                          "basis_process='hamiltonian-lanczos', basis_dim=8, step_size=0.01), "
                          "s.initial_state, 20).steps_completed")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        for code, done in ((run_code, "0"), (integrate_code, "20")):
            code = (f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
                    "print(code, 'numpy.random' in sys.modules)")
            proc = subprocess.run([_sys.executable, "-c", code, src, str(tmp_path / "kg.csv")],
                                  capture_output=True, text=True, timeout=120)
            assert proc.stdout.splitlines()[-1] == f"{done} False", proc.stderr
        # a restarting run writes what integrate given an eager default_rng(seed)
        # does: one stream from the seed across the run's restarts
        processes = dict(integrators.BASIS_PROCESSES)
        for text, least_restarts in self.RESTARTING:
            config = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
            builds = []
            builder, mult = processes[config.basis]
            monkeypatch.setitem(integrators.BASIS_PROCESSES, config.basis,
                                (lambda *args, b=builder: builds.append(1) or b(*args), mult))
            monkeypatch.setattr(harness, "integrate", integrate)
            lazy = run(config, quiet=True).series.to_csv_text()
            steps = config.n_steps * (2 if config.method == "IEMP" else 1)
            assert len(builds) >= steps + least_restarts, text

            def eager(*args, rng, **kwargs):
                return integrate(*args, rng=np.random.default_rng(config.seed), **kwargs)

            monkeypatch.setattr(harness, "integrate", eager)
            assert run(config, quiet=True).series.to_csv_text() == lazy, text

    def test_bare_integrate_draws_what_run_draws_at_seed_zero(self, monkeypatch):
        # integrate given no rng draws every restart of the trajectory from
        # one stream, the one run makes from seed 0: the same final state,
        # and through run the same CSV
        processes = dict(integrators.BASIS_PROCESSES)
        for text, least_restarts in self.RESTARTING:
            if least_restarts < 10:
                continue
            config = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
            config = dataclasses.replace(config, seed=0)
            builds = []
            builder, mult = processes[config.basis]
            monkeypatch.setitem(integrators.BASIS_PROCESSES, config.basis,
                                (lambda *args, b=builder: builds.append(1) or b(*args), mult))
            seeded = run(config, quiet=True)
            steps = config.n_steps * (2 if config.method == "IEMP" else 1)
            assert len(builds) >= steps + least_restarts, text

            bare = integrate(config.system, config.stepper, config.system.initial_state,
                             config.n_steps)
            assert bare.final_state.tobytes() == seeded.summary.final_state.tobytes(), text
            monkeypatch.setattr(harness, "integrate",
                                lambda *args, rng, **kwargs: integrate(*args, **kwargs))
            assert run(config, quiet=True).series.to_csv_text() == seeded.series.to_csv_text()
            monkeypatch.setattr(harness, "integrate", integrate)


class TestRunSections:
    """run_sections() starts one reference for each run of consecutive
    configs that share the problem, the grid and the reference, and the
    configs after the first reuse its finished states."""

    def _config(self, **kw):
        base = dict(problem="linear-wave", problem_params={"n": 24},
                    method="EE", basis="hamiltonian-lanczos", basis_dim=8,
                    t_final=1.0, n_steps=20, record_every=4, reference="fine",
                    ref_factor=2)
        base.update(kw)
        return ExperimentConfig(**base)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count reference computations where the parent starts them (the
        computation itself may run in a child)."""
        real, calls = harness._start_reference, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "_start_reference", counted)
        return calls

    def test_shared_key_computes_once(self, calls):
        list(run_sections([self._config(), self._config(method="EEMP", basis="arnoldi", seed=3)],
                          quiet=True))
        assert len(calls) == 1

    def test_one_reference_per_run_of_same_grid_configs(self, calls):
        a, b = self._config(), self._config(n_steps=40)
        results = list(run_sections([a, a, b, b, b, a], quiet=True))
        assert len(results) == 6
        assert len(calls) == 3

    @pytest.mark.parametrize("change", [
        {"ref_factor": 3},
        {"problem_params": {"n": 24, "L": 3}},
        {"n_steps": 40},
        {"record_every": 2},
        {"reference": "dense"},
        {"t_final": 2.0},
        {"problem": "klein-gordon"},
    ], ids=lambda change: next(iter(change)))
    def test_changed_key_field_recomputes(self, calls, change):
        list(run_sections([self._config(), self._config(**change), self._config(**change)],
                          quiet=True))
        assert len(calls) == 2

    def test_shared_states_are_read_only(self, monkeypatch):
        real, oracles = harness._run, []

        def spied(config, oracle, *args):
            oracles.append(oracle)
            return real(config, oracle, *args)

        monkeypatch.setattr(harness, "_run", spied)
        list(run_sections([self._config(), self._config(method="EEMP")], quiet=True))
        first, second = oracles
        assert second is first
        states = second.result()
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = 1.0

    def test_csvs_equal_unshared_runs(self, calls):
        sections = [self._config(), self._config(method="EEMP", basis="arnoldi")]
        shared = [result.series.to_csv_text() for result in run_sections(sections, quiet=True)]
        alone = [run(cfg, quiet=True).series.to_csv_text() for cfg in sections]
        assert shared == alone
        assert len(calls) == 3

    @pytest.mark.parametrize("forking", [True, False], ids=["forked", "inline"])
    def test_run_keeps_no_reference_states(self, forking, monkeypatch):
        if not forking:
            monkeypatch.delattr(os, "fork", raising=False)
        elif not hasattr(os, "fork"):
            pytest.skip("the platform cannot fork")
        real, states = harness._start_reference, []

        def watched(config):
            oracle = real(config)
            states.append(weakref.ref(oracle.states))
            return oracle

        monkeypatch.setattr(harness, "_start_reference", watched)
        run(self._config(), quiet=True)
        gc.collect()
        assert len(states) == 1 and states[0]() is None


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestReferenceBeside:
    """run() computes the reference in a forked child while it integrates;
    inline where the platform has no fork or it fails."""

    @pytest.fixture
    def forked(self):
        """The overlapped path."""
        if not hasattr(os, "fork"):
            pytest.skip("the platform cannot fork")

    def _kg(self, **kw):
        base = dict(problem="klein-gordon", problem_params={"n": 64}, method="IEMP",
                    basis="hamiltonian-lanczos", basis_dim=16, t_final=2.0, n_steps=100,
                    record_every=10, reference="fine", ref_factor=4)
        base.update(kw)
        return ExperimentConfig(**base)

    @pytest.mark.parametrize("config, slow", [
        (dict(), None),
        (dict(problem="linear-wave", problem_params={"n": 100}, method="EE", basis_dim=12,
              t_final=5.0, n_steps=200, reference="dense"), None),
        (dict(method="EEMP", basis="arnoldi", basis_dim=20, t_final=45.0, n_steps=2250,
              ref_factor=1), None),
        (dict(), "child"),
        (dict(), "parent"),
    ], ids=["kg-iemp", "wave-dense", "kg-aborted", "kg-oracle-last", "kg-oracle-first"])
    def test_overlapped_and_inline_csvs_are_byte_identical(self, config, slow, forked, tmp_path,
                                                           monkeypatch):
        def fork():
            raise OSError("no fork here")

        # a sleep in f of the process named by ``slow`` forces the order in
        # which the oracle's rows and the recorded steps arrive
        sleeping = [slow is not None]
        if slow is not None:
            self._failing_f(monkeypatch, lambda: sleeping[0] and time.sleep(0.001),
                            in_child=slow == "child")
        polls = self._spy_polls(monkeypatch)
        texts = []
        for inline in (False, True):
            if inline:
                monkeypatch.setattr(os, "fork", fork)
                sleeping[0] = False
            out = tmp_path / f"inline{inline}.csv"
            try:
                run(self._kg(**config, output=str(out)), quiet=True)
            except IntegrationAborted:
                pass
            texts.append(out.read_bytes())
            assert_no_child()
            if not inline and slow == "child":  # rows still out at the last recorded step
                assert polls[-1] < len(texts[0].splitlines()) - 2
            if not inline and slow == "parent":  # every row in by then
                assert polls[-1] == len(texts[0].splitlines()) - 2
        assert texts[0] == texts[1]
        assert b"nan" not in texts[0]

    @staticmethod
    def _spy_polls(monkeypatch):
        """The list of what every ``poll()`` of an oracle returns, in order."""
        real, polls = harness._Beside.poll, []

        def poll(oracle):
            polls.append(real(oracle))
            return polls[-1]

        monkeypatch.setattr(harness._Beside, "poll", poll)
        return polls

    def test_normal_run_leaves_no_child(self, forked):
        run(self._kg(), quiet=True)
        assert_no_child()

    def test_shared_section_leaves_no_child(self, forked):
        list(run_sections([self._kg(), self._kg(method="EE", basis="arnoldi")], quiet=True))
        assert_no_child()

    def test_aborted_run_fills_the_partial_csv_and_leaves_no_child(self, forked, tmp_path):
        out = tmp_path / "partial.csv"
        with pytest.raises(IntegrationAborted, match="divergence") as err:
            run(self._kg(method="EEMP", basis="arnoldi", basis_dim=20, t_final=45.0,
                         n_steps=2250, ref_factor=1, output=str(out)), quiet=True)
        assert_no_child()
        rows = err.value.series.rows
        assert len(rows) > 3 and all(np.isfinite(r[3]) for r in rows)
        assert rows[0][3] == 0.0 and rows[-1][3] > 0.0
        assert len(out.read_text().splitlines()) == 2 + len(rows)

    def test_oracle_error_reaches_the_caller_from_the_child(self, forked, tmp_path):
        # RK4 at a micro step of 0.1 overflows on Klein-Gordon n=100, as in
        # the reference test above; the integration itself succeeds
        out = tmp_path / "never.csv"
        config = self._kg(problem_params={"n": 100}, basis_dim=20, n_steps=20, record_every=5,
                          ref_factor=1, output=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's, in either process
            with pytest.raises(ValueError, match="fine reference overflowed by t=1:") as err:
                run(config, quiet=True)
        assert_no_child()
        assert type(err.value) is ReferenceFailureError
        # raised where the parent collects the child's answer, not computed here
        assert "reference_solution" not in {entry.name for entry in err.traceback}
        assert not out.exists()

    class Interrupt(BaseException):
        """Not an Exception: run() stops the child without waiting for it."""

    def _failing_f(self, monkeypatch, fail, in_child):
        """Systems whose f calls ``fail()`` first, in the child (where the
        oracle runs) or in the parent (where the integration runs) only."""
        parent, build = os.getpid(), harness.build_problem

        def patched(name, **params):
            system = build(name, **params)
            f = system.f

            def failing(x):
                if (os.getpid() != parent) == in_child:
                    fail()
                return f(x)

            system.f = failing
            return system

        monkeypatch.setattr(harness, "build_problem", patched)

    @pytest.mark.parametrize("error", [ZeroDivisionError, Interrupt])
    def test_error_from_f_in_the_integration_propagates_and_leaves_no_child(
            self, error, forked, monkeypatch):
        def fail():
            raise error("f failed in the parent")

        self._failing_f(monkeypatch, fail, in_child=False)
        with pytest.raises(error, match="f failed in the parent"):
            run(self._kg(), quiet=True)
        assert_no_child()

    def test_oracle_error_after_some_rows_takes_precedence(self, forked, tmp_path, monkeypatch):
        # the child fails at the 801st call of f, so rows 0-5 (160 calls of
        # f per row) are in; the parent's f sleeps, so it sees them first
        calls = itertools.count()

        def fail():
            if next(calls) == 800:
                raise ZeroDivisionError("f failed in the child")

        self._failing_f(monkeypatch, fail, in_child=True)
        self._failing_f(monkeypatch, lambda: time.sleep(0.001), in_child=False)
        polls = self._spy_polls(monkeypatch)
        out = tmp_path / "never.csv"
        with pytest.raises(ZeroDivisionError, match="f failed in the child"):
            run(self._kg(output=str(out)), quiet=True)
        assert polls[-1] == 6
        assert not out.exists()
        assert_no_child()

    def test_unpicklable_oracle_error_arrives_as_runtime_error(self, forked, monkeypatch):
        class LocalError(Exception):
            pass

        def fail():
            raise LocalError("no pickle for me")

        self._failing_f(monkeypatch, fail, in_child=True)
        with pytest.raises(RuntimeError, match="LocalError: no pickle for me"):
            run(self._kg(), quiet=True)
        assert_no_child()

    def test_child_that_dies_silently_is_a_child_process_error(self, forked, monkeypatch):
        self._failing_f(monkeypatch, lambda: os._exit(3), in_child=True)
        with pytest.raises(ChildProcessError, match="sent no outcome"):
            run(self._kg(), quiet=True)
        assert_no_child()

    @pytest.mark.parametrize("no_fork", ["missing", "fails", "pipe-fails", "mapping-fails"],
                             ids=["no-fork", "fork-fails", "pipe-fails", "mapping-fails"])
    def test_computed_inline_where_forking_cannot_help(self, no_fork, tmp_path, monkeypatch):
        if no_fork == "mapping-fails":
            def mapping(*args):
                raise OSError(12, "Cannot allocate memory")

            monkeypatch.setattr(harness.mmap, "mmap", mapping)
        elif no_fork == "missing":
            monkeypatch.delattr(os, "fork", raising=False)
        elif no_fork == "fails":
            def fork():
                raise OSError("no fork here")

            monkeypatch.setattr(os, "fork", fork, raising=False)
        else:
            def pipe():
                raise OSError(24, "Too many open files")

            monkeypatch.setattr(os, "pipe", pipe)
        real, parent, calls = harness.reference_solution, os.getpid(), []

        def counted(*args, **kwargs):
            calls.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "reference_solution", counted)
        run(self._kg(output=str(tmp_path / "inline.csv")), quiet=True)
        assert calls == [parent]  # computed in this process
        assert b"nan" not in (tmp_path / "inline.csv").read_bytes()


class TestConfigParsing:
    def test_sections_inherit_file_defaults(self):
        text = """
        # shared keys
        problem = linear-wave
        problem.n = 24
        t-final = 1.0
        steps = 10
        reference = dense

        [a]
        method = EE
        basis = arnoldi
        basis-dim = 6

        [b]
        method = EEMP
        basis = hamiltonian-lanczos
        basis-dim = 6
        """
        sections = parse_config_text(text)
        assert [name for name, _ in sections] == ["a", "b"]
        cfg_a = config_from_mapping(sections[0][1])
        cfg_b = config_from_mapping(sections[1][1])
        assert cfg_a.method == "EE" and cfg_b.method == "EEMP"
        assert cfg_a.problem_params == {"n": 24}
        assert cfg_a.n_steps == 10

    def test_headerless_file_is_single_run(self):
        sections = parse_config_text("problem = nls\nsteps = 5\nt-final = 1\n")
        assert len(sections) == 1
        cfg = config_from_mapping(sections[0][1])
        assert cfg.problem == "nls"

    def test_reference_with_factor(self):
        cfg = config_from_mapping({"reference": "fine:17", "steps": "3",
                                   "t-final": "1"})
        assert cfg.reference == "fine" and cfg.ref_factor == 17

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"reynolds": "100"})

    @pytest.mark.parametrize("key", ["fp_tol", "fp_max_iter", "divergence_factor"])
    def test_fixed_run_settings_are_not_keys(self, key):
        with pytest.raises(ConfigError):
            config_from_mapping({key: "1"})

    def test_config_keys_are_the_run_flags(self):
        parser = _build_parser()
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        flags = {a.dest for a in run_parser._actions} - {"help", "config", "param"}
        assert flags == set(CONFIG_KEYS)

    def test_problem_parameter_keeps_case(self):
        sections = parse_config_text("Problem.L = 3\nproblem-A = 2\nBasis-Dim = 6\n")
        mapping = sections[0][1]
        assert mapping == {"problem.L": "3", "problem.A": "2", "basis_dim": "6"}
        cfg = config_from_mapping({**mapping, "problem": "klein-gordon"})
        assert cfg.problem_params == {"L": 3, "A": 2}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("this is not a key value pair")


class TestCLI:
    def test_list_problems_exit_zero(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "linear-wave" in out and "klein-gordon" in out

    def test_list_presets_names(self, capsys):
        assert main(["list-presets"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig1-left" in names and "fig10-desk" in names

    def test_presets_cover_both_scales(self):
        names = available_presets()
        for name in ("fig1-left", "fig1-right", "fig2", "fig3", "fig4", "fig5",
                     "fig7", "fig8", "fig9", "fig10", "kg-methods"):
            assert name in names
            assert f"{name}-desk" in names

    def test_all_presets_parse_and_validate(self):
        for name in available_presets():
            for section, mapping in load_preset(name):
                mapping = dict(mapping)
                mapping.setdefault("output", "unused.csv")
                config_from_mapping(mapping)

    def test_run_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(["run", "--problem", "linear-wave", "--param", "n=24",
                     "--method", "EE", "--basis", "hamiltonian-lanczos",
                     "--basis-dim", "8", "--t-final", "2", "--steps", "20",
                     "--record-every", "5", "--reference", "dense",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 2 + 20 // 5 + 1

    @pytest.mark.parametrize("every, step", [(20, 0), (5, 10)])
    def test_run_summary_names_the_step_it_reports(self, every, step, capsys):
        # recording every 20th of 10 steps records step 0 only, whose errors
        # are zero: the summary names that step instead of calling it final
        assert main(["run", "--problem", "linear-wave", "--param", "n=16", "--basis-dim", "4",
                     "--steps", "10", "--record-every", str(every), "--reference", "dense"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith(f"  recorded step {step} of 10: rel_energy_error=")
        assert (out[1].split()[5] == "rel_energy_error=0.000e+00") == (step == 0)

    def test_capitalised_parameter_runs(self, tmp_path, capsys):
        out = tmp_path / "wave-L3.csv"
        code = main(["run", "--problem", "linear-wave", "--param", "n=24",
                     "--param", "L=3", "--basis", "hamiltonian-lanczos",
                     "--basis-dim", "8", "--t-final", "1", "--steps", "10",
                     "--reference", "dense", "--output", str(out)])
        assert code == 0
        assert "problem.L=3" in out.read_text().splitlines()[0]

    def test_param_without_equals_exit_code(self, capsys):
        assert main(["run", "--problem", "linear-wave", "--param", "n",
                     "--t-final", "1", "--steps", "5"]) == 2
        assert "--param expects NAME=VALUE, got 'n'" in capsys.readouterr().err

    def test_unknown_parameter_exit_code(self, capsys):
        assert main(["run", "--problem", "linear-wave", "--param", "bogus=1",
                     "--t-final", "1", "--steps", "5"]) == 2

    def test_bad_reference_factor_exit_code(self, capsys):
        assert main(["run", "--problem", "linear-wave", "--param", "n=24",
                     "--t-final", "1", "--steps", "5", "--reference", "fine:x"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["n=abc", "n=2.5", "L=0"])
    def test_bad_parameter_value_exit_code(self, param, capsys):
        assert main(["run", "--problem", "linear-wave", "--param", param,
                     "--basis-dim", "2", "--t-final", "1", "--steps", "5",
                     "--reference", "dense"]) == 2
        assert f"problem parameter {param.split('=')[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("V0,code", [("-3", 2), ("-1", 0)])
    def test_nls_well_depth_exit_code(self, V0, code, tmp_path, capsys):
        # V0 < -B (default B = 1) leaves no real initial profile
        assert main(["run", "--problem", "nls", "--param", "n=16", "--param", f"V0={V0}",
                     "--basis", "hamiltonian-lanczos", "--basis-dim", "4",
                     "--t-final", "0.1", "--steps", "2", "--reference", "fine:2",
                     "--output", str(tmp_path / "nls.csv")]) == code
        if code == 2:
            assert "problem parameter V0" in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--problem", "unknown-problem", "--t-final", "1",
                     "--steps", "5"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "blowup.csv"
        code = main(["run", "--problem", "klein-gordon", "--param", "n=64",
                     "--method", "EEMP", "--basis", "arnoldi",
                     "--basis-dim", "20", "--t-final", "45", "--steps", "2250",
                     "--record-every", "10", "--reference", "fine:1",
                     "--output", str(out)])
        assert code == 3
        assert out.exists()  # partial CSV flushed

    def test_reference_failure_exit_code(self, capsys):
        # RK4 at a micro step of 0.1 overflows on Klein-Gordon n=100: the
        # oracle's failure is a numerical failure, not a traceback
        code = main(["run", "--problem", "klein-gordon", "--param", "n=100",
                     "--method", "IEMP", "--basis", "hamiltonian-lanczos",
                     "--basis-dim", "20", "--t-final", "2", "--steps", "20",
                     "--record-every", "5", "--reference", "fine:1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("symkry: numerical failure: fine reference overflowed by t=1: "
                       "RK4 is unstable at its micro step 0.1\n")

    def test_reference_norm_overflow_is_exit_3_not_a_nan_metric(self, tmp_path, capsys):
        # one RK4 step of 1e6 gives a finite reference state whose norm
        # overflows: a numerical failure, not exit 0 with sol_error = nan
        # after numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's, in either process
            code = main(["run", "--problem", "nls", "--param", "n=40", "--method", "EEMP",
                         "--basis", "hamiltonian-lanczos", "--basis-dim", "2",
                         "--t-final", "1e6", "--steps", "1", "--reference", "fine:1",
                         "--output", str(tmp_path / "run.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "symkry: numerical failure: fine reference overflowed by t=1e+06: "
            "RK4 is unstable at its micro step 1e+06\n")

    def test_degenerate_pair_exit_code(self, tmp_path, capsys, monkeypatch):
        # a pairing failure inside an EEMP step is a numerical failure with
        # the partial CSV flushed, not a traceback
        real, calls = integrators.extend_basis, []

        def extend(basis, action, x):
            calls.append(1)
            if len(calls) == 5:
                raise DegeneratePairError("paired companion degenerated")
            return real(basis, action, x)

        monkeypatch.setattr(integrators, "extend_basis", extend)
        out = tmp_path / "pair.csv"
        code = main(["run", "--problem", "linear-wave", "--param", "n=24",
                     "--method", "EEMP", "--basis", "hamiltonian-lanczos",
                     "--basis-dim", "8", "--t-final", "1", "--steps", "10",
                     "--reference", "dense", "--output", str(out)])
        assert code == 3
        assert len(out.read_text().splitlines()) == 2 + 6  # header lines, steps 0..5
        assert "step 6" in capsys.readouterr().err

    def test_missing_output_directory_exit_code(self, tmp_path, capsys, monkeypatch):
        # refused before anything is integrated
        def integrate_(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(harness, "integrate", integrate_)
        out = tmp_path / "missing" / "x.csv"
        assert main(["run", "--problem", "linear-wave", "--param", "n=24",
                     "--t-final", "1", "--steps", "5", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output directory" in err and err.count("\n") == 1

    def test_output_path_that_is_a_directory_exit_code(self, tmp_path, capsys, monkeypatch):
        # refused before anything is integrated
        def integrate_(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(harness, "integrate", integrate_)
        assert main(["run", "--problem", "linear-wave", "--param", "n=8",
                     "--t-final", "0.1", "--steps", "2", "--reference", "dense",
                     "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "is a directory" in err and err.count("\n") == 1

    def test_bad_later_section_runs_no_section(self, tmp_path, capsys, monkeypatch):
        def run_(configs, quiet=False):
            raise AssertionError("run_sections was called")

        monkeypatch.setattr(cli, "run_sections", run_)
        conf = tmp_path / "two.conf"
        conf.write_text(
            "problem = linear-wave\nproblem.n = 8\nt-final = 0.1\nsteps = 2\n"
            "reference = dense\nbasis = hamiltonian-lanczos\n"
            f"[good]\nbasis-dim = 4\noutput = {tmp_path / 'good.csv'}\n"
            f"[bad]\nbasis-dim = 3\noutput = {tmp_path / 'bad.csv'}\n")
        assert main(["run", "--config", str(conf)]) == 2
        assert "even" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.conf"]

    @pytest.mark.parametrize("layout", ["top-level-output", "output-flag", "preset"])
    def test_two_sections_writing_one_csv_run_no_section(self, layout, tmp_path, capsys,
                                                         monkeypatch):
        def run_(configs, quiet=False):
            raise AssertionError("run_sections was called")

        monkeypatch.setattr(cli, "run_sections", run_)
        out = tmp_path / "same.csv"
        sections = ("problem = linear-wave\nproblem.n = 8\nt-final = 0.1\nsteps = 2\n"
                    "reference = dense\n[a]\nbasis-dim = 4\n[b]\nbasis-dim = 6\n")
        conf = tmp_path / "two.conf"
        if layout == "top-level-output":
            conf.write_text(f"output = {out}\n{sections}")
            argv = ["run", "--config", str(conf)]
        elif layout == "output-flag":
            conf.write_text(sections)
            argv = ["run", "--config", str(conf), "--output", str(out)]
        else:  # a preset with two sections of the same name
            conf.write_text(sections.replace("[b]", "[a]"))
            monkeypatch.setattr(cli, "load_preset",
                                lambda name: parse_config_text(conf.read_text()))
            argv = ["preset", "twin", "--output-dir", str(tmp_path)]
            out = tmp_path / "twin-a.csv"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert os.path.realpath(out) in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.conf"]

    @pytest.mark.parametrize("bad,message", [
        ("problem.n = 2\nbasis-dim = 8\n", "exceeds system dimension 4"),
        ("problem = klein-gordon\nproblem.n = 8\nbasis-dim = 4\nreference = dense\n",
         "dense reference requires a linear system"),
    ], ids=["basis-dim-above-dimension", "dense-on-nonlinear"])
    def test_later_section_refused_by_its_system_runs_no_section(self, bad, message, tmp_path,
                                                                 capsys, monkeypatch):
        # checks that need the built problem also come before the first section runs
        calls = []

        def run_(configs, quiet=False):
            calls.append(configs)
            return harness.run_sections(configs, quiet=quiet)

        monkeypatch.setattr(cli, "run_sections", run_)
        conf = tmp_path / "two.conf"
        conf.write_text(
            "problem = linear-wave\nproblem.n = 8\nt-final = 0.1\nsteps = 2\n"
            f"reference = dense\n[a]\nbasis-dim = 4\noutput = {tmp_path / 'a.csv'}\n"
            f"[b]\n{bad}output = {tmp_path / 'b.csv'}\n")
        assert main(["run", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.conf"]

    @pytest.mark.parametrize("flag,value,field", [
        ("--t-final", "nan", "t_final"),
        ("--t-final", "inf", "t_final"),
        ("--seed", "-1", "seed"),
    ])
    def test_out_of_range_value_exit_code(self, flag, value, field, tmp_path, capsys):
        args = {"--problem": "linear-wave", "--param": "n=8", "--t-final": "0.1",
                "--steps": "2", "--reference": "dense", "--output": str(tmp_path / "x.csv"),
                flag: value}
        assert main(["run", *[part for item in args.items() for part in item]]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field}" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_config_file_exit_code(self, tmp_path, capsys):
        non_ascii = tmp_path / "non-ascii.conf"
        non_ascii.write_bytes(b"problem = linear-wave\n# caf\xc3\xa9\n")
        for path in (tmp_path / "missing.conf", non_ascii):
            assert main(["run", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "cannot read config file" in err and err.count("\n") == 1

    def test_uncreatable_output_dir_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["preset", "fig2-desk", "--output-dir", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and err.count("\n") == 1

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["preset", "fig99"]) == 2

    def test_unknown_preset_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["preset", "fig99", "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_preset_runs_sections(self, tmp_path, capsys):
        code = main(["preset", "fig2-desk", "--output-dir", str(tmp_path)])
        assert code == 0
        made = sorted(p.name for p in tmp_path.iterdir())
        assert made == ["fig2-desk-arnoldi-8.csv", "fig2-desk-lanczos-8.csv"]

    def test_module_entrypoint(self):
        proc = subprocess.run([_sys.executable, "-m", "symkry.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "symkry" in proc.stdout
