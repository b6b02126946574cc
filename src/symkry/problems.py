"""Benchmark Hamiltonian systems from method-of-lines PDE discretizations.

Three one-dimensional benchmarks, each discretized with second-order
central differences on an equidistant grid and carrying an exact discrete
energy and an analytic Jacobian action whose point coefficients
``linearize`` computes once per point:

  linear-wave    q' = p, p' = Lap q + c  with a Dirichlet Laplacian and a
                 fixed source sampled from (x (x - L))^2 / 8.
  nls            cubic nonlinear Schroedinger equation with a sin^2
                 potential well on [-4 pi, 4 pi], periodic, written in
                 real and imaginary parts.
  klein-gordon   u_tt = u_xx - m^2 u - g u^3, periodic.

``DiscreteLaplacian.apply(v, out=None)`` writes the stencil into ``out``;
each ``f`` and each Jacobian action writes it into a half of its output
array and adds or subtracts the point terms there in place, with the
operations of the out-of-place formula in the same order, so the bits
are those of the formula.  The Laplacian prefactor is 1/(dx)^2 = (n/L)^2
throughout.  Energies are written so that f = J^(-1) grad H holds exactly
for the implemented dynamics; energy-error metrics do not depend on the
overall sign choice.
Each problem's default parameters are the defaults of its class signature.
"""

import inspect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    HamiltonianSystem,
    QuadraticHamiltonianSystem,
    apply_J,
    join_state,
    split_state,
)
from .errors import ConfigError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class DiscreteLaplacian:
    """Central-difference Laplacian stencil, applied matrix-free.

    Symmetric and negative semidefinite (periodic) or negative definite
    (dirichlet); scale is 1/(dx)^2.
    """

    n: int
    length: float
    boundary: str = PERIODIC

    @cached_property
    def scale(self):
        return (self.n / self.length) ** 2

    def apply(self, v, out=None):
        """The stencil of v, written into ``out`` (a new array if None) and
        returned; ``out`` must not overlap v."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise ValueError(f"vector has length {v.shape[0]}, expected {self.n}")
        out = np.multiply(v, -2.0, out=out)
        if self.boundary == PERIODIC:
            # (-2 v + left) + right on v padded with its wrapped neighbours
            w = np.concatenate((v[-1:], v, v[:1]))
            out += w[:-2]
            out += w[2:]
        else:
            head, tail = out[:-1], out[1:]
            head += v[1:]
            tail += v[:-1]
        out *= self.scale
        return out


class LinearWaveSystem(QuadraticHamiltonianSystem):
    """Discretized linear wave equation with a fixed source term.

    H(q, p) = q^T Lap q / 2 - ||p||^2 / 2 + c^T q, whose canonical flow is
    q' = p, p' = Lap q + c.  The operator is written once, as the
    Jacobian action (p, Lap q); S is J applied to it, (Lap q, -p).
    """

    def __init__(self, n=400, L=2.0, boundary=DIRICHLET):
        self.laplacian = lap = DiscreteLaplacian(n, float(L), boundary)
        self.grid = x_grid = (np.arange(1, n + 1)) * lap.length / n
        c = 0.125 * (x_grid * (x_grid - lap.length)) ** 2
        super().__init__(lambda v: apply_J(self._action(v)), join_state(c, np.zeros(n)),
                         dim=2 * n)
        u0 = 1.0 / (1.0 + np.sin(np.pi * x_grid) ** 2) - 1.0
        self.initial_state = join_state(u0, np.zeros(n))

    def linearize(self, x):
        return self._action

    def _action(self, v):
        v = np.asarray(v, dtype=float)
        n = self.laplacian.n
        out = np.empty(self.dim)
        out[:n] = v[n:]
        self.laplacian.apply(v[:n], out=out[n:])
        return out


class NonlinearSchroedingerSystem(HamiltonianSystem):
    """Cubic Schroedinger equation with a sin^2 potential, in (Re, Im) parts.

    H = -(q^T Lap q + p^T Lap p)/4 + sum (q_i^2 + p_i^2)^2 / 4
        - (V0/2) sum sin^2(x_i) (q_i^2 + p_i^2),

    on [-4 pi, 4 pi] with periodic boundary.  The initial profile is the
    stationary-well state sqrt(V0 sin^2 x + B) e^(i theta(x)) with
    tan(theta) = sqrt(1 + V0/B) tan(x), theta unwrapped to a continuous,
    increasing phase across the tan singularities.  V0 < -B is a ConfigError.
    """

    def __init__(self, n=500, V0=1.0, B=1.0):
        super().__init__(2 * n)
        self.n = n
        self.V0 = float(V0)
        self.B = float(B)
        if self.V0 < -self.B:
            raise ConfigError(f"problem parameter V0 must be at least -B, got {V0!r}")
        self.laplacian = DiscreteLaplacian(n, 8.0 * np.pi, PERIODIC)
        self.grid = -4.0 * np.pi + np.arange(n) * self.laplacian.length / n
        self.potential = np.sin(self.grid) ** 2
        self._v0_potential = self.V0 * self.potential

        amplitude = np.sqrt(self.V0 * self.potential + self.B)
        theta = self._phase(self.grid)
        self.initial_state = join_state(amplitude * np.cos(theta),
                                        amplitude * np.sin(theta))

    def _phase(self, x):
        slope = np.sqrt(1.0 + self.V0 / self.B)
        k = np.round(x / np.pi)
        return k * np.pi + np.arctan(slope * np.tan(x - k * np.pi))

    def f(self, x):
        x = np.asarray(x, dtype=float)
        q, p = x[:self.n], x[self.n:]
        density = q * q + p * p
        out = np.empty(self.dim)
        top, bottom = out[:self.n], out[self.n:]
        self.laplacian.apply(p, out=top)
        top *= -0.5
        top += density * p
        top -= self._v0_potential * p
        np.negative(top, out=top)
        self.laplacian.apply(q, out=bottom)
        bottom *= -0.5
        bottom += density * q
        bottom -= self._v0_potential * q
        return out

    def energy(self, x):
        q, p = split_state(x)
        density = q * q + p * p
        quad = -0.25 * (q @ self.laplacian.apply(q) + p @ self.laplacian.apply(p))
        return float(quad + 0.25 * np.sum(density ** 2)
                     - 0.5 * self.V0 * np.sum(self.potential * density))

    def linearize(self, x):
        x = np.asarray(x, dtype=float)
        n, q, p = self.n, x[:self.n], x[self.n:]
        cross = 2.0 * q * p
        coeff_a = 3.0 * q * q + p * p - self._v0_potential
        coeff_b = q * q + 3.0 * p * p - self._v0_potential

        def action(v):
            v = np.asarray(v, dtype=float)
            a, b = v[:n], v[n:]
            out = np.empty(self.dim)
            top, bottom = out[:n], out[n:]
            self.laplacian.apply(b, out=top)
            top *= -0.5
            top += coeff_b * b
            top += cross * a
            np.negative(top, out=top)
            self.laplacian.apply(a, out=bottom)
            bottom *= -0.5
            bottom += coeff_a * a
            bottom += cross * b
            return out
        return action


class KleinGordonSystem(HamiltonianSystem):
    """Nonlinear Klein-Gordon equation u_tt = u_xx - m^2 u - g u^3, periodic.

    Dynamics q' = p, p' = Lap q - m^2 q - g q^3 with conserved energy
    H = q^T Lap q / 2 - ||p||^2 / 2 - sum(m^2 q_i^2 / 2 + g q_i^4 / 4)
    (sign fixed so f = J^(-1) grad H).  Initial profile
    u = A (1 + cos(2 pi x / L)), u_t = 0.  With g = 0 the system is linear.
    """

    def __init__(self, n=400, L=1.0, m=0.5, g=1.0, A=1.0):
        super().__init__(2 * n)
        self.n = n
        self.m = float(m)
        self.g = float(g)
        self.laplacian = DiscreteLaplacian(n, float(L), PERIODIC)
        self.grid = np.arange(n) * self.laplacian.length / n
        u0 = float(A) * (1.0 + np.cos(2.0 * np.pi * self.grid / self.laplacian.length))
        self.initial_state = join_state(u0, np.zeros(n))

    @property
    def is_linear(self):
        return self.g == 0.0

    def f(self, x):
        x = np.asarray(x, dtype=float)
        q = x[:self.n]
        out = np.empty(self.dim)
        out[:self.n] = x[self.n:]
        bottom = self.laplacian.apply(q, out=out[self.n:])
        bottom -= self.m ** 2 * q
        cube = q * q
        cube *= q
        cube *= self.g
        bottom -= cube
        return out

    def energy(self, x):
        q, p = split_state(x)
        qq = q * q
        return float(0.5 * q @ self.laplacian.apply(q) - 0.5 * p @ p
                     - np.sum(0.5 * self.m ** 2 * qq + 0.25 * self.g * (qq * qq)))

    def linearize(self, x):
        n, q = self.n, np.asarray(x, dtype=float)[:self.n]
        coeff = self.m ** 2 + 3.0 * self.g * q * q

        def action(v):
            v = np.asarray(v, dtype=float)
            a = v[:n]
            out = np.empty(self.dim)
            out[:n] = v[n:]
            bottom = self.laplacian.apply(a, out=out[n:])
            bottom -= coeff * a
            return out
        return action


PROBLEM_REGISTRY = {
    "linear-wave": LinearWaveSystem,
    "nls": NonlinearSchroedingerSystem,
    "klein-gordon": KleinGordonSystem,
}


def list_problems():
    """Names and default parameters of the registered benchmark systems."""
    return {name: {p.name: p.default for p in inspect.signature(cls).parameters.values()}
            for name, cls in PROBLEM_REGISTRY.items()}


def checked_params(params):
    """Problem parameters as the constructors take them: ``n`` a positive
    integer, ``L`` and ``B`` positive, ``boundary`` periodic or dirichlet and
    every other value a finite number.  A bad value is a ConfigError."""
    checked = {}
    for key, value in params.items():
        if key == "boundary":
            if value not in (PERIODIC, DIRICHLET):
                raise ConfigError(f"problem parameter boundary must be {PERIODIC!r} "
                                  f"or {DIRICHLET!r}, got {value!r}")
            checked[key] = value
            continue
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = np.nan
        if key == "n":
            ok, need = number > 0 and number.is_integer(), "a positive integer"
        elif key in ("L", "B"):
            ok, need = 0 < number < np.inf, "a finite positive number"
        else:
            ok, need = np.isfinite(number), "a finite number"
        if not ok:
            raise ConfigError(f"problem parameter {key} must be {need}, got {value!r}")
        checked[key] = int(number) if key == "n" else number
    return checked


def build_problem(name, **overrides):
    """Instantiate a registered problem with parameter overrides (checked by
    ``checked_params``).  An unknown problem or parameter is a ConfigError,
    and so, with no numpy warning, are parameters with which the problem
    overflows: built, or in the field, energy or norm of its initial state."""
    if name not in PROBLEM_REGISTRY:
        raise ConfigError(f"unknown problem {name!r}; known: {sorted(PROBLEM_REGISTRY)}")
    unknown = sorted(set(overrides) - set(list_problems()[name]))
    if unknown:
        raise ConfigError(f"problem {name!r} has no parameters {unknown}")
    params = checked_params(overrides)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            system = PROBLEM_REGISTRY[name](**params)
            x0 = system.initial_state
            system.f(x0), system.energy(x0), x0 @ x0  # each raises on overflow
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"problem {name!r} overflows with {params}: {exc}") from exc
    return system
