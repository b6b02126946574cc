"""Benchmark Hamiltonian systems from method-of-lines PDE discretizations.

Three one-dimensional benchmarks, each discretized with second-order
central differences on an equidistant grid and carrying an exact discrete
energy and an analytic Jacobian-vector product:

  linear-wave    q' = p, p' = Lap q + c  with a Dirichlet Laplacian and a
                 fixed source sampled from (x (x - L))^2 / 8.
  nls            cubic nonlinear Schroedinger equation with a sin^2
                 potential well on [-4 pi, 4 pi], periodic, written in
                 real and imaginary parts.
  klein-gordon   u_tt = u_xx - m^2 u - g u^3, periodic.

The Laplacian prefactor is 1/(dx)^2 = (n/L)^2 throughout.  Energies are
written so that f = J^(-1) grad H holds exactly for the implemented
dynamics; energy-error metrics do not depend on the overall sign choice.
Each problem's default parameters are the defaults of its class signature.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from .core import (
    HamiltonianSystem,
    QuadraticHamiltonianSystem,
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

    @property
    def scale(self):
        return (self.n / self.length) ** 2

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise ValueError(f"vector has length {v.shape[0]}, expected {self.n}")
        if self.boundary == PERIODIC:
            # (left - 2 v) + right everywhere; v[n - 2] and v[1 % n] wrap
            # around for n = 1 and n = 2
            n = self.n
            out = np.empty_like(v)
            out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
            out[0] = v[-1] - 2.0 * v[0] + v[1 % n]
            out[-1] = v[n - 2] - 2.0 * v[-1] + v[0]
        else:
            out = -2.0 * v
            out[:-1] += v[1:]
            out[1:] += v[:-1]
        return self.scale * out

    def eigenvalues_periodic(self):
        """Closed-form spectrum -(2/dx^2)(1 - cos(2 pi j / n)), j = 0..n-1."""
        j = np.arange(self.n)
        return -2.0 * self.scale * (1.0 - np.cos(2.0 * np.pi * j / self.n))


class LinearWaveSystem(QuadraticHamiltonianSystem):
    """Discretized linear wave equation with a fixed source term.

    H(q, p) = q^T Lap q / 2 - ||p||^2 / 2 + c^T q, whose canonical flow is
    q' = p, p' = Lap q + c.
    """

    def __init__(self, n=400, L=2.0, boundary=DIRICHLET):
        lap = DiscreteLaplacian(n, float(L), boundary)

        def s_apply(x):
            q, p = split_state(x)
            return join_state(lap.apply(q), -p)

        x_grid = (np.arange(1, n + 1)) * lap.length / n
        c = 0.125 * (x_grid * (x_grid - lap.length)) ** 2
        super().__init__(s_apply, join_state(c, np.zeros(n)), dim=2 * n)
        self.laplacian = lap
        self.grid = x_grid
        u0 = 1.0 / (1.0 + np.sin(np.pi * x_grid) ** 2) - 1.0
        self.initial_state = join_state(u0, np.zeros(n))

    def jvp(self, x, v):
        v = np.asarray(v, dtype=float)
        n = self.laplacian.n
        out = np.empty(self.dim)
        out[:n] = v[n:]
        out[n:] = self.laplacian.apply(v[:n])
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
        out[:self.n] = -(-0.5 * self.laplacian.apply(p) + density * p
                         - self.V0 * self.potential * p)
        out[self.n:] = -0.5 * self.laplacian.apply(q) + density * q - self.V0 * self.potential * q
        return out

    def energy(self, x):
        q, p = split_state(x)
        density = q * q + p * p
        quad = -0.25 * (q @ self.laplacian.apply(q) + p @ self.laplacian.apply(p))
        return float(quad + 0.25 * np.sum(density ** 2)
                     - 0.5 * self.V0 * np.sum(self.potential * density))

    def jvp(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        q, p, a, b = x[:self.n], x[self.n:], v[:self.n], v[self.n:]
        cross = 2.0 * q * p
        out = np.empty(self.dim)
        out[:self.n] = -(-0.5 * self.laplacian.apply(b)
                         + (q * q + 3.0 * p * p - self.V0 * self.potential) * b + cross * a)
        out[self.n:] = (-0.5 * self.laplacian.apply(a)
                        + (3.0 * q * q + p * p - self.V0 * self.potential) * a + cross * b)
        return out


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
        out[self.n:] = self.laplacian.apply(q) - self.m ** 2 * q - self.g * q ** 3
        return out

    def energy(self, x):
        q, p = split_state(x)
        return float(0.5 * q @ self.laplacian.apply(q) - 0.5 * p @ p
                     - np.sum(0.5 * self.m ** 2 * q ** 2 + 0.25 * self.g * q ** 4))

    def jvp(self, x, v):
        q = np.asarray(x, dtype=float)[:self.n]
        v = np.asarray(v, dtype=float)
        a = v[:self.n]
        out = np.empty(self.dim)
        out[:self.n] = v[self.n:]
        out[self.n:] = self.laplacian.apply(a) - (self.m ** 2 + 3.0 * self.g * q * q) * a
        return out


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
    ``checked_params``); an unknown problem or parameter is a ConfigError."""
    if name not in PROBLEM_REGISTRY:
        raise ConfigError(f"unknown problem {name!r}; known: {sorted(PROBLEM_REGISTRY)}")
    unknown = sorted(set(overrides) - set(list_problems()[name]))
    if unknown:
        raise ConfigError(f"problem {name!r} has no parameters {unknown}")
    return PROBLEM_REGISTRY[name](**checked_params(overrides))
