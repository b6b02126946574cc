"""Gragg-Bulirsch-Stoer extrapolation for the ``fine`` reference oracle.

The fine oracle (``harness.reference_solution``) is at least as accurate
as classical RK4 with ``factor`` micro steps per grid interval dt, and per
interval takes whichever of RK4 (4 factor calls of f) and m steps of this
extrapolation (CALLS = 21 calls each) calls f less often
(``macro_steps``).  One step of length H is explicit midpoint with
n = 2, 4, 6, 8 substeps, Gragg's smoothing and Aitken-Neville
extrapolation in (H/n)^2 (Hairer, Norsett & Wanner, Solving ODEs I,
II.9).  H is at most STABILITY / rho, rho MARGIN times a power estimate
of rho(Df(x0)) (``spectral_radius``), and at most CAP micro steps
dt/factor, without which it is less accurate than that RK4.  A step whose
last two columns differ by more than TOLERANCE of its norm has gone wrong.
"""

import numpy as np

SUBSTEPS = (2, 4, 6, 8)
CALLS = 1 + sum(SUBSTEPS)  # f(x) is shared by the four midpoint sequences
STABILITY, CAP, MARGIN, TOLERANCE = 2.5, 10, 1.1, 1e-6
# Aitken-Neville in (H/n)^2: T(j,k) = T(j,k-1) + w(j,k) (T(j,k-1) - T(j-1,k-1)),
# w(j,k) = 1 / ((n_j / n_(j-k))^2 - 1)
_WEIGHTS = [[1.0 / ((n / SUBSTEPS[j - k]) ** 2 - 1.0) for k in range(1, j + 1)]
            for j, n in enumerate(SUBSTEPS)]


def macro_steps(rho, dt, factor):
    """The number m of extrapolation steps over a grid interval dt: the
    least m with dt/m at most STABILITY/rho and CAP micro steps dt/factor;
    0, for RK4, unless its CALLS m calls of f are fewer than RK4's 4
    factor.  A rho of inf gives 0."""
    macro = max(np.ceil(dt * rho / STABILITY), -(-factor // CAP))
    return int(macro) if CALLS * macro < 4 * factor else 0


def spectral_radius(system, x0):
    """MARGIN times a deterministic estimate of rho(Df(x0)): the square root
    of ||Df(x0)^2 v|| after 20 power steps on a fixed unit start v; 0 if
    that is 0, inf if it overflows."""
    action = system.linearize(x0)
    v = np.arange(1, system.dim + 1) * 0.6180339887498949 % 1.0 - 0.5
    v /= np.sqrt(v @ v)
    for _ in range(20):
        w = action(action(v))
        growth = np.sqrt(w @ w)
        if not 0.0 < growth < np.inf:
            break
        v = w / growth
    return MARGIN * np.sqrt(growth) if growth < np.inf else np.inf


def step(f, x, big_h):
    """One step of length big_h from x: for each n, z_0 = x, z_1 = x + h f(x)
    and z_(i+1) = z_(i-1) + 2 h f(z_i) with h = big_h/n, smoothed as
    (z_(n-1) + 2 z_n + z_(n+1)) / 4 = (z_(n-1) + z_n + h f(z_n)) / 2, then
    extrapolated.  Returns the last column and its difference from the one
    before.  Like ``harness._rk4_step`` it writes no array that f has seen
    or returned."""
    fx, row = f(x), []
    for j, n in enumerate(SUBSTEPS):
        h = big_h / n
        prev, z = x, np.multiply(fx, h)
        z += x
        for _ in range(n - 1):
            z_next = np.multiply(f(z), 2.0 * h)
            z_next += prev
            prev, z = z, z_next
        smooth = np.multiply(f(z), h)
        smooth += prev
        smooth += z
        smooth *= 0.5
        new_row = [smooth]
        for below, weight in zip(row, _WEIGHTS[j]):
            column = np.subtract(new_row[-1], below)
            column *= weight
            column += new_row[-1]
            new_row.append(column)
        row = new_row
    return row[-1], row[-1] - row[-2]
