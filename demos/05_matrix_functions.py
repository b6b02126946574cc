"""The dense kernels and their Krylov-projected counterparts.

Shows the two transcendental kernels every integrator step relies on --
the matrix exponential and phi(z) = (e^z - 1)/z -- together with the
identities the method proofs rest on, and how fast the Krylov projection
U phi(hF) U^+ v converges to the true phi(hA) v as the basis grows.
phi comes from ``exp_affine``, the one kernel that forms it: phi(M) is
``exp_affine(M, I, 1)[1]``.
"""

import numpy as np

from symkry import (
    CountingAction,
    LinearWaveSystem,
    arnoldi,
    exp_affine,
    expm,
    hamiltonian_lanczos,
)


def phi1(M):
    return exp_affine(M, np.eye(M.shape[0]), 1.0)[1]


rng = np.random.default_rng(0)

print("phi at simple arguments:")
print("  phi(0) block:", np.diag(phi1(np.zeros((2, 2)))))
print("  phi([[0,1],[0,0]]):")
print(phi1(np.array([[0.0, 1.0], [0.0, 0.0]])))

M = rng.standard_normal((8, 8))
M *= 1.5 / np.linalg.norm(M, 2)
# reflection e^(-M) phi(M) = phi(-M), doubling e^M phi(M) = 2 phi(2M) - phi(M)
reflection = np.linalg.norm(expm(-M) @ phi1(M) - phi1(-M))
doubling = np.linalg.norm(expm(M) @ phi1(M) - (2.0 * phi1(2.0 * M) - phi1(M)))
print(f"\nkernel identities on a random 8x8 matrix:"
      f" reflection defect {reflection:.2e}, doubling defect {doubling:.2e}")
print(f"M phi(M) - (e^M - I) defect: "
      f"{np.linalg.norm(M @ phi1(M) - (expm(M) - np.eye(8))):.2e}")

print("\nKrylov convergence of U phi(hF) U^+ v -> phi(hA) v on the wave system:")
wave = LinearWaveSystem(n=100)
action = CountingAction.from_system(wave, wave.initial_state)
v = wave.f(wave.initial_state)
A = wave.jacobian_dense(wave.initial_state)
h = 0.025
exact = phi1(h * A) @ v

print(f"{'columns':>8s} {'arnoldi':>12s} {'lanczos':>12s}")
for dim in (4, 8, 12, 16, 20):
    errs = []
    for build, k in ((arnoldi, dim), (hamiltonian_lanczos, dim // 2)):
        out = build(action, v, k)
        approx = out.basis.columns @ (phi1(h * out.basis.reduced)
                                      @ out.basis.left_apply(v))
        errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
    print(f"{dim:8d} {errs[0]:12.2e} {errs[1]:12.2e}")

print("""
Both projections converge superlinearly once the basis passes h times the
spectral radius; the Lanczos column reaches the same accuracy with the
same number of columns while also carrying the symplectic pairing that
the energy-conservation results need.
""")
