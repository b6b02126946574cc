"""The implicit exponential midpoint rule on the Klein-Gordon benchmark.

Two short studies on the nonlinear Klein-Gordon system:

1. IEMP advances one macro step by solving a small implicit equation in
   the reduced coordinates; the fixed-point split converges in a couple of
   iterations per step even though h times the Jacobian norm is large.

2. The explicit midpoint variant (EEMP) with a plain orthonormal basis is
   unstable on this problem: the run fails within a few hundred steps,
   while the Hamiltonian Lanczos basis integrates the full horizon with a
   bounded energy error.  The Arnoldi state leaves every bound within one
   or two steps, so the run ends either at the divergence guard, an
   observer that fails the step once the state norm passes 1e6 ||x0||, or
   at a step that overflows (here in the reduced matrix exponential, which
   ``expm`` reports as a typed failure without a numpy warning); which of
   the two comes first is decided at rounding level.
"""

import numpy as np

from symkry import (IntegrationAborted, KleinGordonSystem, StepFailureError, StepperConfig,
                    integrate)
from symkry.harness import relative_energy_error

kg = KleinGordonSystem(n=100)
x0 = kg.initial_state
T, STEPS = 45.0, 2250

print("1) IEMP with a 22-column Hamiltonian Lanczos basis")
cfg = StepperConfig(method="IEMP", basis_process="hamiltonian-lanczos", basis_dim=22,
                    step_size=T / STEPS)
worst = 0.0


def watch(step, t, res):
    global worst
    if step % 25 == 0:
        worst = max(worst, relative_energy_error(kg, res.x_plus, x0))


summary = integrate(kg, cfg, x0, n_steps=STEPS, observer=watch)
print(f"   completed {summary.steps_completed} steps, "
      f"max energy error {worst:.2e}, "
      f"{summary.fp_iterations / STEPS:.1f} fixed-point iterations per step\n")


def guard(step, t, res):
    if np.linalg.norm(res.x_plus) > 1e6 * np.linalg.norm(x0):
        raise StepFailureError("divergence guard tripped")


print("2) EEMP stability depends on the basis structure")
for process in ("hamiltonian-lanczos", "arnoldi"):
    cfg = StepperConfig(method="EEMP", basis_process=process, basis_dim=20,
                        step_size=T / STEPS)
    try:
        s = integrate(kg, cfg, x0, n_steps=STEPS, observer=guard)
        err = relative_energy_error(kg, s.final_state, x0)
        print(f"   {process:20s}: stable, final energy error {err:.2e}")
    except IntegrationAborted as exc:
        print(f"   {process:20s}: {exc}")
