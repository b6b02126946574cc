import warnings

import numpy as np
import pytest

from symkry import (
    DiscreteLaplacian,
    KleinGordonSystem,
    LinearWaveSystem,
    NonlinearSchroedingerSystem,
    QuadraticHamiltonianSystem,
    apply_J_inverse,
    build_problem,
    join_state,
    list_problems,
    split_state,
)
from symkry.errors import ConfigError
from symkry.harness import reference_solution, relative_energy_error
from symkry.problems import checked_params

from conftest import (
    check_hamiltonian_matrix,
    jvp_matches_finite_difference,
    laplacian_eigenpairs,
)


def gradient_by_differences(system, x, eps=1e-6):
    g = np.empty(system.dim)
    for i in range(system.dim):
        e = np.zeros(system.dim)
        e[i] = eps
        g[i] = (system.energy(x + e) - system.energy(x - e)) / (2 * eps)
    return g


class TestDiscreteLaplacian:
    def test_constant_in_periodic_null_space(self):
        lap = DiscreteLaplacian(8, 1.0, "periodic")
        assert np.allclose(lap.apply(np.ones(8)), 0.0)

    def test_stencil_column(self):
        # n = 4, L = 1: 1/dx^2 = 16, one stencil application of a unit vector
        lap = DiscreteLaplacian(4, 1.0, "periodic")
        col = lap.apply(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(col, 16.0 * np.array([1.0, -2.0, 1.0, 0.0]))

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_spectrum_closed_form(self, boundary, n):
        lap = DiscreteLaplacian(n, 1.0, boundary)
        lam, V = laplacian_eigenpairs(lap)
        dense = np.column_stack([lap.apply(e) for e in np.eye(lap.n)])
        assert np.allclose(np.sort(np.linalg.eigvalsh(dense)), np.sort(lam), atol=1e-10)
        assert np.allclose(dense @ V, V * lam, atol=1e-10)
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-14)

    def test_symmetry(self, rng):
        for boundary in ("periodic", "dirichlet"):
            lap = DiscreteLaplacian(12, 3.0, boundary)
            v, w = rng.standard_normal((2, 12))
            assert np.isclose(v @ lap.apply(w), w @ lap.apply(v))

    def test_sign(self, rng):
        lap_p = DiscreteLaplacian(16, 2.0, "periodic")
        lap_d = DiscreteLaplacian(16, 2.0, "dirichlet")
        for _ in range(5):
            v = rng.standard_normal(16)
            assert v @ lap_p.apply(v) <= 1e-10
            assert v @ lap_d.apply(v) < 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteLaplacian(8, 1.0).apply(np.ones(7))

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 399, 400])
    def test_out_is_written_and_returned(self, rng, boundary, n):
        # apply(v, out=o) fills o, a view as f and the actions pass it, with
        # the bits of apply(v); a list is still taken
        lap = DiscreteLaplacian(n, 1.7, boundary)
        for _ in range(10):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            block = np.full(2 * n, np.nan)
            o = block[n:]
            assert lap.apply(v, out=o) is o
            assert np.array_equal(o, lap.apply(v))
            assert np.isnan(block[:n]).all()
            assert np.array_equal(lap.apply(list(v), out=np.empty(n)), lap.apply(v))

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 400])
    def test_bit_equal_to_explicit_formula(self, rng, boundary, n):
        # the periodic stencil as np.roll writes it, and the Dirichlet one
        # as ((-2 v) + right) + left with zero outside the grid
        lap = DiscreteLaplacian(n, 1.7, boundary)
        for _ in range(20):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            if boundary == "periodic":
                want = lap.scale * (np.roll(v, 1) - 2.0 * v + np.roll(v, -1))
            else:
                out = -2.0 * v
                out[:-1] += v[1:]
                out[1:] += v[:-1]
                want = lap.scale * out
            assert np.array_equal(lap.apply(v), want)


class TestLinearWave:
    def test_jacobian_constant_and_hamiltonian(self, rng):
        sys = LinearWaveSystem(n=6)
        A1 = sys.jacobian_dense(rng.standard_normal(12))
        A2 = sys.jacobian_dense(rng.standard_normal(12))
        assert np.allclose(A1, A2)
        assert check_hamiltonian_matrix(A1, 1e-10)

    def test_zero_state_energy(self):
        sys = LinearWaveSystem(n=8)
        assert sys.energy(np.zeros(sys.dim)) == 0.0

    def test_initial_energy_regression_anchor(self):
        # frozen from the first run at the reference parameters (n=400, L=2)
        sys = LinearWaveSystem()
        assert np.isclose(sys.energy(sys.initial_state), -269.6771953950209,
                          rtol=1e-12, atol=0)

    def test_dynamics_shape(self):
        sys = LinearWaveSystem(n=16)
        x = sys.initial_state
        q, p = split_state(x)
        dq, dp = split_state(sys.f(x))
        assert np.allclose(dq, p)
        c = split_state(sys.f(np.zeros(sys.dim)))[1]
        assert np.allclose(dp, sys.laplacian.apply(q) + c)

    def test_periodic_variant_available(self):
        sys = LinearWaveSystem(n=16, boundary="periodic")
        assert sys.laplacian.boundary == "periodic"


class TestNLS:
    def test_phase_at_origin(self):
        sys = NonlinearSchroedingerSystem(n=64)
        q, p = split_state(sys.initial_state)
        i0 = int(np.argmin(np.abs(sys.grid)))
        assert abs(sys.grid[i0]) < 1e-12
        assert abs(p[i0]) < 1e-12          # theta(0) = 0
        assert abs(np.hypot(q[i0], p[i0]) - 1.0) < 1e-12  # |psi0(0)| = sqrt(B)

    def test_phase_monotone(self):
        sys = NonlinearSchroedingerSystem(n=500)
        theta = sys._phase(sys.grid)
        assert np.all(np.diff(theta) > 0)

    def test_field_is_canonical_gradient(self, rng):
        sys = NonlinearSchroedingerSystem(n=32)
        x = rng.standard_normal(sys.dim) * 0.5
        want = apply_J_inverse(gradient_by_differences(sys, x))
        got = sys.f(x)
        assert np.linalg.norm(got - want) <= 1e-6 * max(np.linalg.norm(want), 1.0)

    def test_jvp_matches_differences(self, rng):
        sys = NonlinearSchroedingerSystem(n=32)
        x = rng.standard_normal(sys.dim) * 0.5
        assert jvp_matches_finite_difference(sys, x, rng.standard_normal(sys.dim))

    def test_gauge_invariance_of_energy(self, rng):
        sys = NonlinearSchroedingerSystem(n=48)
        x = rng.standard_normal(sys.dim) * 0.4
        q, p = split_state(x)
        for alpha in rng.uniform(0.0, 2 * np.pi, 4):
            c, s = np.cos(alpha), np.sin(alpha)
            rot = np.concatenate([c * q - s * p, s * q + c * p])
            assert abs(sys.energy(rot) - sys.energy(x)) <= 1e-10 * abs(sys.energy(x)) + 1e-12

    def test_initial_energy_regression_anchor(self):
        sys = NonlinearSchroedingerSystem()
        assert np.isclose(sys.energy(sys.initial_state), 265.58552490714266,
                          rtol=1e-12, atol=0)


class TestKleinGordon:
    def test_linear_limit(self, rng):
        sys = KleinGordonSystem(n=8, g=0.0)
        assert sys.is_linear
        x = rng.standard_normal(16)
        A, c = sys.jacobian_dense(sys.initial_state), sys.f(np.zeros(sys.dim))
        assert np.allclose(A @ x + c, sys.f(x))

    def test_nonlinear_not_affine(self):
        sys = KleinGordonSystem(n=8)
        assert not sys.is_linear

    def test_field_is_canonical_gradient(self, rng):
        sys = KleinGordonSystem(n=32)
        x = rng.standard_normal(sys.dim) * 0.5
        want = apply_J_inverse(gradient_by_differences(sys, x))
        got = sys.f(x)
        assert np.linalg.norm(got - want) <= 1e-6 * max(np.linalg.norm(want), 1.0)

    def test_jvp_hamiltonian_property(self, rng):
        sys = KleinGordonSystem(n=12)
        A = sys.jacobian_dense(rng.standard_normal(24))
        assert check_hamiltonian_matrix(A, 1e-9)

    def test_jvp_matches_differences(self, rng):
        sys = KleinGordonSystem(n=16)
        x = rng.standard_normal(sys.dim) * 0.5
        assert jvp_matches_finite_difference(sys, x, rng.standard_normal(sys.dim))

    def test_initial_energy_regression_anchor(self):
        sys = KleinGordonSystem()
        assert np.isclose(sys.energy(sys.initial_state), -4460.260586860914,
                          rtol=1e-12, atol=0)


# Each formula gives f(x), Df(x) v and H(x) written out from the halves.

def wave_formulas(sys, x, v):
    # f = J^(-1)(S x + d), Df v = J^(-1) S v and H = x^T S x / 2 + d^T x with
    # S (q, p) = (Lap q, -p)
    def s_apply(y):
        q, p = split_state(y)
        return join_state(sys.laplacian.apply(q), -p)
    return (apply_J_inverse(s_apply(x) + sys.d), apply_J_inverse(s_apply(v)),
            float(0.5 * x @ s_apply(x) + sys.d @ x))


def nls_formulas(sys, x, v):
    q, p = split_state(x)
    density = q * q + p * p
    gq = -0.5 * sys.laplacian.apply(q) + density * q - sys.V0 * sys.potential * q
    gp = -0.5 * sys.laplacian.apply(p) + density * p - sys.V0 * sys.potential * p
    a, b = split_state(np.asarray(v, dtype=float))
    cross = 2.0 * q * p
    ga = (-0.5 * sys.laplacian.apply(a)
          + (3.0 * q * q + p * p - sys.V0 * sys.potential) * a + cross * b)
    gb = (-0.5 * sys.laplacian.apply(b)
          + (q * q + 3.0 * p * p - sys.V0 * sys.potential) * b + cross * a)
    energy = (-0.25 * (q @ sys.laplacian.apply(q) + p @ sys.laplacian.apply(p))
              + 0.25 * np.sum(density ** 2) - 0.5 * sys.V0 * np.sum(sys.potential * density))
    return (apply_J_inverse(join_state(gq, gp)), apply_J_inverse(join_state(ga, gb)),
            float(energy))


def klein_gordon_formulas(sys, x, v):
    # the cube and the fourth power are products, not np.power
    q, p = split_state(x)
    a, b = split_state(np.asarray(v, dtype=float))
    qq = q * q
    return (join_state(p, sys.laplacian.apply(q) - sys.m ** 2 * q - sys.g * (q * q * q)),
            join_state(b, sys.laplacian.apply(a) - (sys.m ** 2 + 3.0 * sys.g * q * q) * a),
            float(0.5 * q @ sys.laplacian.apply(q) - 0.5 * p @ p
                  - np.sum(0.5 * sys.m ** 2 * qq + 0.25 * sys.g * (qq * qq))))


PROBLEM_FORMULAS = pytest.mark.parametrize("cls, formulas", [
    (LinearWaveSystem, wave_formulas),
    (NonlinearSchroedingerSystem, nls_formulas),
    (KleinGordonSystem, klein_gordon_formulas)], ids=["wave", "nls", "klein-gordon"])


def scaled_pair(rng, dim):
    return rng.standard_normal((2, dim)) * 10.0 ** rng.integers(-4, 4, size=(2, 1))


class TestFieldAndJacobianAction:
    @pytest.mark.parametrize("n", [1, 2, 5, 400])
    @PROBLEM_FORMULAS
    def test_bit_equal_to_split_and_join_formulas(self, rng, cls, formulas, n):
        # f and the Jacobian action write both halves into one output; the
        # numbers are the ones the split_state / join_state / apply_J_inverse
        # forms give
        sys = cls(n=n)
        for _ in range(20):
            x, v = scaled_pair(rng, 2 * n)
            want_f, want_jvp, want_energy = formulas(sys, x, v)
            assert np.array_equal(sys.f(x), want_f)
            assert np.array_equal(sys.linearize(x)(v), want_jvp)
            assert np.array_equal(sys.linearize(x)(list(v)), want_jvp)
            assert sys.energy(x) == want_energy


class TestLinearize:
    @pytest.mark.parametrize("n", [1, 5, 64])
    @PROBLEM_FORMULAS
    def test_one_linearization_serves_every_action(self, rng, cls, formulas, n):
        # one linearize(x) is the action of a fresh one, bit for bit, for any
        # number of vectors; x may be a list
        sys = cls(n=n)
        x, _ = scaled_pair(rng, 2 * n)
        action = sys.linearize(list(x))
        for _ in range(5):
            v = scaled_pair(rng, 2 * n)[1]
            want = formulas(sys, x, v)[1]
            assert np.array_equal(action(v), want)
            assert np.array_equal(sys.linearize(x)(v), want)

    def test_quadratic_system(self, rng):
        S = rng.standard_normal((12, 12))
        S = S + S.T
        sys = QuadraticHamiltonianSystem(S, rng.standard_normal(12))
        x, v = rng.standard_normal((2, sys.dim))
        assert np.array_equal(sys.linearize(x)(v), apply_J_inverse(S @ v))

    @pytest.mark.parametrize("cls", [LinearWaveSystem, NonlinearSchroedingerSystem,
                                     KleinGordonSystem])
    def test_action_does_not_see_later_changes_to_x(self, rng, cls):
        # systems stay read-only and shareable: the action keeps the
        # linearization point it was built at
        sys = cls(n=16)
        x, v = scaled_pair(rng, sys.dim)
        want = sys.linearize(x.copy())(v)
        action = sys.linearize(x)
        x += rng.standard_normal(sys.dim)
        assert np.array_equal(action(v), want)


class TestActionOutContract:
    """Every packaged Jacobian action, and a quadratic system's (dense S or
    a callable S), writes Df(x) v into ``out`` when given: the same bits as
    without ``out``, ``out`` returned, and nothing written but ``out`` (a
    row of a block whose other rows stay put, v and x left alone); with no
    ``out`` a list is still accepted."""

    @staticmethod
    def systems(rng):
        S = rng.standard_normal((12, 12))
        S = S + S.T
        yield LinearWaveSystem(n=6, boundary="dirichlet")
        yield LinearWaveSystem(n=6, boundary="periodic")
        yield NonlinearSchroedingerSystem(n=6)
        yield KleinGordonSystem(n=6)
        yield QuadraticHamiltonianSystem(S, rng.standard_normal(12))
        yield QuadraticHamiltonianSystem(lambda v: S @ v, dim=12)

    def test_out_is_the_only_array_written(self, rng):
        for sys in self.systems(rng):
            for _ in range(5):
                x, v = scaled_pair(rng, sys.dim)
                x_before, v_before = x.copy(), v.copy()
                action = sys.linearize(x)
                want = action(v)
                block = np.full((3, sys.dim), 7.0)
                row = block[1]
                assert action(v, row) is row
                assert np.array_equal(row, want)
                assert (block[[0, 2]] == 7.0).all()
                assert np.array_equal(v, v_before) and np.array_equal(x, x_before)
                assert np.array_equal(action(list(v)), want)
                out = np.full(sys.dim, np.nan)
                assert action(v, out=out) is out and np.array_equal(out, want)


class TestRegistry:
    def test_names_and_defaults(self):
        # the defaults are read from the class signatures, which the
        # builders and build_problem use directly
        assert list_problems() == {
            "linear-wave": {"n": 400, "L": 2.0, "boundary": "dirichlet"},
            "nls": {"n": 500, "V0": 1.0, "B": 1.0},
            "klein-gordon": {"n": 400, "L": 1.0, "m": 0.5, "g": 1.0, "A": 1.0},
        }
        assert NonlinearSchroedingerSystem().dim == 1000
        assert build_problem("linear-wave").laplacian.length == 2.0

    def test_build_with_overrides(self):
        sys = build_problem("klein-gordon", n=16, g=0.5)
        assert sys.dim == 32
        assert sys.g == 0.5

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_problem("burgers")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            build_problem("nls", mass=2.0)

    @pytest.mark.parametrize("name,params", [
        ("klein-gordon", {"n": "abc"}),
        ("klein-gordon", {"n": 2.5}),
        ("klein-gordon", {"n": 0}),
        ("klein-gordon", {"L": 0}),
        ("klein-gordon", {"m": float("nan")}),
        ("linear-wave", {"L": -1.0}),
        ("linear-wave", {"boundary": "neumann"}),
        ("nls", {"B": 0}),
        ("nls", {"V0": -3}),
        ("nls", {"V0": -0.75, "B": 0.5}),
    ])
    def test_bad_parameter_value_is_config_error(self, name, params):
        with pytest.raises(ConfigError):
            build_problem(name, **params)

    @pytest.mark.parametrize("name,params", [
        ("linear-wave", {"L": 1e172}),  # the source term overflows
        ("linear-wave", {"L": 1e-209}),  # the stencil scale (n/L)^2 overflows
        ("klein-gordon", {"m": 1e200}),  # m^2 overflows
        ("klein-gordon", {"A": 1e160}),  # the initial state's norm overflows
        ("nls", {"V0": 1e82, "B": 1e-243}),  # the initial phase overflows
    ])
    def test_overflowing_parameters_are_config_errors_without_warning(self, name, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflows"):
                build_problem(name, **params)

    def test_parameters_take_the_constructor_types(self):
        assert checked_params({"n": 16.0, "L": 3, "boundary": "periodic"}) == {
            "n": 16, "L": 3.0, "boundary": "periodic"}
        assert type(checked_params({"n": 16.0})["n"]) is int


class TestDiscreteEnergyConvergence:
    """The discrete energy, dx-weighted, converges at second order to the
    continuum functional evaluated on the smooth initial profile."""

    @staticmethod
    def _continuum_kg(L=1.0, m=0.5, g=1.0, A=1.0, n_fine=65536):
        x = np.arange(n_fine) * L / n_fine
        u = A * (1.0 + np.cos(2 * np.pi * x / L))
        ux = -A * (2 * np.pi / L) * np.sin(2 * np.pi * x / L)
        integrand = 0.5 * ux ** 2 + 0.5 * m ** 2 * u ** 2 + 0.25 * g * u ** 4
        return integrand.sum() * L / n_fine

    @staticmethod
    def _continuum_nls(V0=1.0, B=1.0, n_fine=65536):
        L = 8 * np.pi
        x = -4 * np.pi + np.arange(n_fine) * L / n_fine
        amp2 = V0 * np.sin(x) ** 2 + B
        amp_x = V0 * np.sin(x) * np.cos(x) / np.sqrt(amp2)
        s = np.sqrt(1.0 + V0 / B)
        theta_x = s / (np.cos(x) ** 2 + s ** 2 * np.sin(x) ** 2)
        psi_x2 = amp_x ** 2 + amp2 * theta_x ** 2
        integrand = 0.25 * psi_x2 + 0.25 * amp2 ** 2 - 0.5 * V0 * np.sin(x) ** 2 * amp2
        return integrand.sum() * L / n_fine

    def test_klein_gordon_rate(self):
        target = self._continuum_kg()
        errs = []
        for n in (32, 64, 128):
            sys = KleinGordonSystem(n=n)
            dx = sys.laplacian.length / n
            errs.append(abs(abs(dx * sys.energy(sys.initial_state)) - target))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.2)

    def test_nls_rate(self):
        target = self._continuum_nls()
        errs = []
        for n in (32, 64, 128):
            sys = NonlinearSchroedingerSystem(n=n)
            dx = 8 * np.pi / n
            errs.append(abs(dx * sys.energy(sys.initial_state) - target))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.2)


class TestEnergyConservedAlongReference:
    @pytest.mark.parametrize("name,params,horizon", [
        ("linear-wave", {"n": 40}, 2.0),
        ("nls", {"n": 48}, 2.0),
        ("klein-gordon", {"n": 40}, 2.0),
    ])
    def test_reference_trajectory_conserves_energy(self, name, params, horizon):
        sys = build_problem(name, **params)
        x0 = sys.initial_state
        t_grid = np.linspace(0.0, horizon, 5)
        states = reference_solution(sys, x0, t_grid, mode="fine", factor=1250)
        drift = max(relative_energy_error(sys, s, x0) for s in states)
        assert drift <= 1e-9
