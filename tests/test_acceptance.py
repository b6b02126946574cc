"""Acceptance suite: one numbered check per target behavior.

Each check records a PASS/FAIL line with its measured quantities; the
lines are printed together in an "acceptance criteria" section at the end
of the pytest run.  Three checks are known to fail and are kept failing on
purpose: they pin desk parameters at which the behavior they describe does
not physically occur; each reports its measurements and a companion test
demonstrates the underlying phenomenon where it does occur.
"""

import time
from dataclasses import replace

import numpy as np

from symkry import (
    KleinGordonSystem,
    LinearWaveSystem,
    NonlinearSchroedingerSystem,
    StepperConfig,
    arnoldi,
    expm,
    hamiltonian_lanczos,
    integrate,
    isotropic_arnoldi,
    orthonormal_defect,
    solution_error,
    step_ee,
    step_eemp,
    step_iemp,
    symplectic_arnoldi,
    symplectic_defect,
)
from symkry.harness import reference_solution
from symkry.cli import main as cli_main

import conftest
from conftest import (
    dense_action,
    phi1,
    phi1_scaled_identities_check,
    project,
    random_hamiltonian_matrix,
    random_quadratic_system,
)

SYMPLECTIC_PROCESSES = ("symplectic-arnoldi", "isotropic-arnoldi", "hamiltonian-lanczos")


def report(tag, ok, detail):
    conftest.ACCEPTANCE_LINES.append(
        f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def energy_series(system, config, x0, t_final, n_steps, every=10):
    h0 = system.energy(x0)
    rows = []

    def watch(step, t, res):
        if step % every == 0:
            rows.append((t, abs(system.energy(res.x_plus) - h0) / abs(h0)))

    integrate(system, replace(config, step_size=t_final / n_steps), x0, n_steps=n_steps,
              observer=watch)
    return np.array(rows)


def test_criterion_01_linear_energy_exactness(rng):
    start = time.perf_counter()
    system = random_quadratic_system(rng, 10)
    x0 = rng.standard_normal(system.dim)
    h0 = system.energy(x0)
    worst = 0.0
    for process in SYMPLECTIC_PROCESSES:
        for dim in (2, 4, 8):
            for h in (0.01, 0.1):
                cfg = StepperConfig(method="EE", basis_process=process,
                                    basis_dim=dim, step_size=h)
                x = x0.copy()
                for _ in range(3):
                    x_new = step_ee(system, cfg, x).x_plus
                    defect = abs(system.energy(x_new) - system.energy(x)) / abs(h0)
                    worst = max(worst, defect)
                    x = x_new
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 1.0
    report("01 linear energy exactness", ok,
           f"worst per-step defect {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_criterion_02_average_energy_preservation(rng):
    system = random_quadratic_system(rng, 10)
    x = rng.standard_normal(system.dim)
    x_prev = x + 0.1 * rng.standard_normal(system.dim)
    h0 = system.energy(x)
    worst = 0.0
    for process in SYMPLECTIC_PROCESSES:
        for dim in (2, 4, 8):
            for h in (0.01, 0.1):
                cfg = StepperConfig(method="EEMP", basis_process=process,
                                    basis_dim=dim, step_size=h)
                res = step_eemp(system, cfg, x, x_prev)
                defect = abs(system.energy(0.5 * (res.x_plus + x))
                             - system.energy(0.5 * (x + x_prev))) / abs(h0)
                worst = max(worst, defect)
    ok = worst <= 1e-11
    report("02 average-energy preservation", ok, f"worst defect {worst:.2e}")
    assert ok


def test_criterion_03_iemp_linear_collapse(rng):
    system = random_quadratic_system(rng, 10)
    x = rng.standard_normal(system.dim)
    A = system.jacobian_dense(x)
    norm_a = np.linalg.norm(A, 2)
    macro = min(0.2, 1.0 / norm_a)  # half step satisfies h ||F|| <= 0.5
    cfg = StepperConfig(method="IEMP", basis_process="arnoldi",
                        basis_dim=system.dim, step_size=macro)
    res = step_iemp(system, cfg, x)
    ee = step_ee(system, cfg, x)
    diff = np.linalg.norm(res.x_plus - ee.x_plus) / np.linalg.norm(ee.x_plus)
    ok = diff <= 1e-10 and res.fp_iters <= 10
    report("03 IEMP linear collapse", ok,
           f"|IEMP - EE(2h)| {diff:.2e}, {res.fp_iters} fixed-point iterations")
    assert diff <= 1e-10
    assert res.fp_iters <= 10


def test_criterion_04_full_dimension_exactness():
    system = LinearWaveSystem(n=20)
    x0 = system.initial_state
    A, c = system.jacobian_dense(x0), system.f(np.zeros(system.dim))
    h = 50.0 / 2000.0
    cfg = StepperConfig(method="EE", basis_process="arnoldi",
                        basis_dim=system.dim, step_size=h)
    res = step_ee(system, cfg, x0)
    oracle = expm(h * A) @ x0 + h * (phi1(h * A) @ c)
    diff = np.linalg.norm(res.x_plus - oracle) / np.linalg.norm(oracle)
    ok = diff <= 1e-10
    report("04 full-dimension exactness", ok, f"|step - dense oracle| {diff:.2e}")
    assert ok


def test_criterion_05_basis_structure_suite(rng):
    start = time.perf_counter()
    worst = {"sympl": 0.0, "iso": 0.0, "lanczos": 0.0, "arnoldi": 0.0, "hess": 0.0}
    for _ in range(50):
        A = random_hamiltonian_matrix(rng, 12)
        act = dense_action(A)
        v = rng.standard_normal(24)

        out = symplectic_arnoldi(act, v, 6)
        worst["sympl"] = max(worst["sympl"], symplectic_defect(out.basis.columns),
                             orthonormal_defect(out.basis.columns))
        out = isotropic_arnoldi(act, v, 6)
        worst["iso"] = max(worst["iso"], symplectic_defect(out.basis.columns),
                           orthonormal_defect(out.basis.columns))
        out = hamiltonian_lanczos(act, v, 6)
        worst["lanczos"] = max(worst["lanczos"], symplectic_defect(out.basis.columns))
        out = arnoldi(act, v, 12)
        worst["arnoldi"] = max(worst["arnoldi"], orthonormal_defect(out.basis.columns))
        worst["hess"] = max(worst["hess"],
                            np.linalg.norm(np.tril(out.basis.reduced, -2)))
    elapsed = time.perf_counter() - start
    ok = (worst["sympl"] <= 1e-10 and worst["iso"] <= 1e-10
          and worst["lanczos"] <= 1e-8 and worst["arnoldi"] <= 1e-10
          and worst["hess"] == 0.0 and elapsed < 5.0)
    report("05 basis structure suite", ok,
           f"sympl {worst['sympl']:.1e}, iso {worst['iso']:.1e}, "
           f"lanczos {worst['lanczos']:.1e}, arnoldi {worst['arnoldi']:.1e}, "
           f"{elapsed:.2f}s")
    assert ok


def test_criterion_06_krylov_containment(rng):
    A = random_hamiltonian_matrix(rng, 12)
    act = dense_action(A)
    v = rng.standard_normal(24)

    def residual(basis, w):
        return np.linalg.norm(w - project(basis, w)) / np.linalg.norm(w)

    def worst_over_powers(basis, depth):
        w = v.copy()
        out = 0.0
        for _ in range(depth):
            out = max(out, residual(basis, w))
            w = A @ w
        return out

    r_arn = worst_over_powers(arnoldi(act, v, 8).basis, 8)
    r_sym = worst_over_powers(symplectic_arnoldi(act, v, 4).basis, 4)
    r_lan = worst_over_powers(hamiltonian_lanczos(act, v, 4).basis, 8)
    iso = isotropic_arnoldi(act, v, 4).basis
    r_iso = residual(iso, np.linalg.matrix_power(A, 3) @ v)

    ok = r_arn <= 1e-6 and r_sym <= 1e-6 and r_lan <= 1e-6 and r_iso > 1e-3
    report("06 Krylov containment", ok,
           f"arnoldi {r_arn:.1e}, symplectic {r_sym:.1e}, lanczos {r_lan:.1e}, "
           f"isotropic A^3 residual {r_iso:.1e}")
    assert ok


def test_criterion_07_phi_kernel_identities(rng):
    worst = 0.0
    for _ in range(50):
        M = rng.standard_normal((8, 8))
        M *= 2.0 * rng.uniform(0.1, 1.0) / np.linalg.norm(M, 2)
        rep = phi1_scaled_identities_check(M)
        direct = np.linalg.norm(M @ phi1(M) - (expm(M) - np.eye(8)))
        worst = max(worst, rep.reflection, rep.doubling, direct)
    ok = worst <= 1e-12
    report("07 phi kernel identities", ok, f"worst defect {worst:.2e}")
    assert ok


def test_criterion_08a_wave_energy_growth_at_desk_scale():
    # KNOWN FAIL: at n=100 the dimension-16 Krylov basis reproduces the
    # wave propagator to rounding (residual ~1e-14), so the recorded energy
    # errors are noise with no systematic growth to measure.  The companion
    # check below exhibits the growth signature at the full grid size.
    start = time.perf_counter()
    system = LinearWaveSystem(n=100)
    cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=16)
    rows = energy_series(system, cfg, system.initial_state, 50.0, 2000)
    ree = dict(zip(np.round(rows[:, 0], 9), rows[:, 1]))
    early, late = ree[5.0], ree[50.0]
    elapsed = time.perf_counter() - start
    ok = late > 10.0 * early and elapsed < 30.0
    report("08a wave energy growth (desk scale)", ok,
           f"ree(T)={late:.2e} vs 10x ree(T/10)={10 * early:.2e}, {elapsed:.1f}s")
    assert late > 10.0 * early


def test_criterion_08a_companion_growth_at_reference_scale():
    # the linear-growth signature of the orthonormal basis, at the grid
    # size where the dimension-16 approximation genuinely truncates
    start = time.perf_counter()
    system = LinearWaveSystem(n=400)
    cfg = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=16)
    rows = energy_series(system, cfg, system.initial_state, 50.0, 2000)
    ree = dict(zip(np.round(rows[:, 0], 9), rows[:, 1]))
    early, late = ree[5.0], ree[50.0]
    elapsed = time.perf_counter() - start
    ok = late > 10.0 * early and late > 1e-6 and elapsed < 30.0
    report("08a' wave energy growth (reference scale)", ok,
           f"ree(T)={late:.2e} vs 10x ree(T/10)={10 * early:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_08b_wave_energy_bounded_with_lanczos():
    start = time.perf_counter()
    system = LinearWaveSystem(n=100)
    cfg = StepperConfig(method="EE", basis_process="hamiltonian-lanczos",
                        basis_dim=12)
    rows = energy_series(system, cfg, system.initial_state, 50.0, 2000)
    worst = rows[:, 1].max()
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report("08b wave energy bounded (Lanczos basis)", ok,
           f"max ree {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_nls_symmetry_benefit():
    # energy clause at the stated desk parameters
    system = NonlinearSchroedingerSystem(n=125)
    x0 = system.initial_state
    T, steps = 10 * np.pi, 2000
    cfg_ee = StepperConfig(method="EE", basis_process="arnoldi", basis_dim=20)
    cfg_mp = StepperConfig(method="EEMP", basis_process="arnoldi", basis_dim=20)
    rows_ee = energy_series(system, cfg_ee, x0, T, steps)
    rows_mp = energy_series(system, cfg_mp, x0, T, steps)
    ee_final = rows_ee[-1, 1]
    mp_max = rows_mp[:, 1].max()
    ok = mp_max <= 0.1 * ee_final
    report("09 NLS symmetry benefit (energy)", ok,
           f"EEMP max ree {mp_max:.2e} vs 0.1 x EE final {0.1 * ee_final:.2e}")
    assert ok


def test_criterion_09_nls_solution_error_slopes():
    # growth-exponent clause; the horizon is extended to the full benchmark
    # length so the quadratic regime of the non-symmetric method is
    # observable above its linear component (see repository notes)
    system = NonlinearSchroedingerSystem(n=125)
    x0 = system.initial_state
    T, steps = 40 * np.pi, 8000
    h = T / steps
    every = 100
    rec = list(range(0, steps + 1, every))
    t_grid = np.array([s * h for s in rec])
    ref = reference_solution(system, x0, t_grid, mode="fine", factor=5 * every)
    index = {s: i for i, s in enumerate(rec)}

    slopes = {}
    for method in ("EE", "EEMP"):
        cfg = StepperConfig(method=method, basis_process="arnoldi", basis_dim=20,
                            step_size=h)
        rows = []

        def watch(step, t, res):
            if step in index and step > 0:
                rows.append((t, solution_error(res.x_plus, ref[index[step]])))

        integrate(system, cfg, x0, n_steps=steps, observer=watch)
        ts = np.array([r[0] for r in rows])
        es = np.array([r[1] for r in rows])
        window = ts >= 0.6 * T
        slopes[method] = np.polyfit(np.log(ts[window]), np.log(es[window]), 1)[0]

    ok = 1.7 <= slopes["EE"] <= 2.4 and 0.8 <= slopes["EEMP"] <= 1.3
    report("09 NLS solution-error slopes", ok,
           f"EE slope {slopes['EE']:.2f} in [1.7, 2.4], "
           f"EEMP slope {slopes['EEMP']:.2f} in [0.8, 1.3]")
    assert 1.7 <= slopes["EE"] <= 2.4
    assert 0.8 <= slopes["EEMP"] <= 1.3


def _kg_iemp_series(process):
    system = KleinGordonSystem(n=100)
    cfg = StepperConfig(method="IEMP", basis_process=process, basis_dim=22)
    return energy_series(system, cfg, system.initial_state, 45.0, 2250)


def test_criterion_10a_kg_iemp_lanczos_bounded():
    rows = _kg_iemp_series("hamiltonian-lanczos")
    half_max = rows[rows[:, 0] <= 22.5, 1].max()
    final = rows[-1, 1]
    ok = final <= 2.0 * half_max
    report("10a KG IEMP bounded with Lanczos basis", ok,
           f"final ree {final:.2e} vs 2 x running max(T/2) {2 * half_max:.2e}")
    assert ok


def test_criterion_10b_kg_iemp_arnoldi_larger():
    # KNOWN FAIL: the smooth Klein-Gordon profile keeps the dynamics in a
    # low-frequency subspace that a dimension-22 basis of either kind
    # captures, so both runs are dominated by the same oscillatory
    # second-order error and no 5x separation exists (measured ratio ~1.0
    # at this grid, and also at n=400, T=180).
    rows_arn = _kg_iemp_series("arnoldi")
    rows_lan = _kg_iemp_series("hamiltonian-lanczos")
    ratio = rows_arn[-1, 1] / rows_lan[-1, 1]
    ok = ratio >= 5.0
    report("10b KG IEMP orthonormal-basis penalty", ok,
           f"final ree ratio arnoldi/lanczos {ratio:.2f}, required >= 5")
    assert ok


def _kg_order_ratio(method, process="arnoldi"):
    system = KleinGordonSystem(n=32)
    x0 = system.initial_state
    T = 1.0
    ref = reference_solution(system, x0, np.array([0.0, T]), mode="fine",
                             factor=4000)[-1]
    errs = []
    for steps in (20, 40):
        cfg = StepperConfig(method=method, basis_process=process, basis_dim=24,
                            step_size=T / steps)
        s = integrate(system, cfg, x0, n_steps=steps)
        errs.append(solution_error(s.final_state, ref))
    return errs[0] / errs[1]


def test_criterion_11_midpoint_methods_second_order():
    start = time.perf_counter()
    r_eemp = _kg_order_ratio("EEMP")
    r_iemp = _kg_order_ratio("IEMP")
    elapsed = time.perf_counter() - start
    ok = 3.0 <= r_eemp <= 5.0 and 3.0 <= r_iemp <= 5.0 and elapsed < 60.0
    report("11 EEMP/IEMP second order", ok,
           f"halving ratios EEMP {r_eemp:.2f}, IEMP {r_iemp:.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_11_ee_first_order():
    # KNOWN FAIL: with the Jacobian refreshed at every step the exponential
    # Euler scheme is of exponential-Rosenbrock type and converges at
    # second order; the measured halving ratio is ~4, outside the stated
    # first-order window [1.7, 2.4].
    ratio = _kg_order_ratio("EE")
    ok = 1.7 <= ratio <= 2.4
    report("11 EE first order", ok,
           f"halving ratio {ratio:.2f}, required in [1.7, 2.4]")
    assert ok


def test_criterion_12_deterministic_presets(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli_main(["preset", "fig2-desk", "--output-dir", str(d)])
        assert code == 0
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files
    identical = all((dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
                    for name in files)
    report("12 deterministic preset runs", identical,
           f"{len(files)} CSVs byte-compared")
    assert identical
