"""The ``fine`` oracle: which integrator each shape selects, that the
extrapolation never hands back a wrong state without raising, and that
it is at least as accurate as the RK4 it replaces.

Per grid interval dt the oracle takes RK4's ``factor`` micro steps (4
factor calls of f) unless m Gragg-Bulirsch-Stoer steps (21 calls each)
are fewer calls, m the least with dt/m at most 2.5/rho(Df(x0)) (with a
margin) and at most 10 micro steps.  Shapes are the benchmark's
workloads, the desk presets' first sections, check 11's reference and
the memory probe's run."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from symkry import (KleinGordonSystem, NonlinearSchroedingerSystem, QuadraticHamiltonianSystem,
                    reference_solution)
from symkry import extrapolation, harness
from symkry.cli import load_preset
from symkry.errors import ReferenceFailureError
from symkry.harness import config_from_mapping, parse_config_text

from conftest import random_quadratic_system
from test_mem_probe import SHAPE as MEM_PROBE_SHAPE

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _from_sections(sections):
    """(system, x0, t_grid, factor) of a run's reference, as ``run`` asks
    for it: the recorded steps, ``ref_factor`` micro steps per step."""
    config = config_from_mapping(sections[0][1])
    h, every = config.stepper.step_size, config.record_every
    t_grid = np.array([s * h for s in range(0, config.n_steps + 1, every)])
    return config.system, config.system.initial_state, t_grid, config.ref_factor * every


def workload(name, seed):
    return lambda: _from_sections(parse_config_text(_workloads().preset_text(name, seed)))


def preset(name):
    return lambda: _from_sections(load_preset(name))


def check_11():
    system = KleinGordonSystem(n=32)
    return system, system.initial_state, np.array([0.0, 1.0]), 4000


def mem_probe():
    return _from_sections(parse_config_text(MEM_PROBE_SHAPE.format(n=4096)))


# shape -> extrapolation steps per grid interval (0: RK4)
SELECTED = {
    "kg-twin-seed0": (workload("kg-twin", 0), 20),
    "kg-twin-seed7": (workload("kg-twin", 7), 20),
    "kg-methods-desk": (preset("kg-methods-desk"), 20),
    "fig7-desk": (preset("fig7-desk"), 40),
    "fig9-desk": (preset("fig9-desk"), 20),
    "fig10-desk": (preset("fig10-desk"), 20),
    "check-11": (check_11, 400),
    "kg-iemp-seed0": (workload("kg-iemp", 0), 0),
    "kg-iemp-seed7": (workload("kg-iemp", 7), 0),
    "mem-probe": (mem_probe, 0),
}


def spied(monkeypatch):
    """Count the oracle's RK4 and extrapolation steps."""
    calls = {"rk4": 0, "extrapolated": 0}
    for module, name, key in ((harness, "_rk4_step", "rk4"),
                              (extrapolation, "step", "extrapolated")):
        def counted(*args, _real=getattr(module, name), _key=key):
            calls[_key] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def rk4(system, x0, t_grid, factor, monkeypatch):
    """The fine oracle with the extrapolation switched off: the parent's RK4."""
    with monkeypatch.context() as patch:
        patch.setattr(extrapolation, "macro_steps", lambda rho, dt, factor: 0)
        return reference_solution(system, x0, t_grid, mode="fine", factor=factor)


def deviation(states, ref):
    """The largest relative 2-norm deviation over the rows."""
    return max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(states, ref))


@pytest.mark.parametrize("shape", list(SELECTED))
def test_oracle_each_shape_selects(shape, monkeypatch):
    make, macro = SELECTED[shape]
    system, x0, t_grid, factor = make()
    calls = spied(monkeypatch)
    states = np.empty((2, x0.size))
    rows = harness._reference_rows(system, x0, t_grid[:2], "fine", factor, states)
    assert len(list(rows)) == 2
    want = {"rk4": 0, "extrapolated": macro} if macro else {"rk4": factor, "extrapolated": 0}
    assert calls == want


def _assert_at_least_as_accurate(make, monkeypatch):
    system, x0, t_grid, factor = make()
    finer = rk4(system, x0, t_grid, 4 * factor, monkeypatch)
    extrapolated = reference_solution(system, x0, t_grid, mode="fine", factor=factor)
    own = deviation(rk4(system, x0, t_grid, factor, monkeypatch), finer)
    assert deviation(extrapolated, finer) <= own


@pytest.mark.parametrize("shape", ["kg-twin-seed0", "kg-twin-seed7", "check-11"])
def test_extrapolation_at_least_as_accurate_as_rk4(shape, monkeypatch):
    # against RK4 at four times the factor, on every row of the grid
    _assert_at_least_as_accurate(SELECTED[shape][0], monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["kg-methods-desk", "fig7-desk", "fig9-desk", "fig10-desk"])
def test_extrapolation_at_least_as_accurate_as_rk4_on_desk_shapes(shape, monkeypatch):
    _assert_at_least_as_accurate(SELECTED[shape][0], monkeypatch)


def _kg_where_rk4_wins():
    # KG n=100, dt = 0.2 and 60 micro steps: at stability 2.5 the
    # extrapolation needs 18 steps (378 calls of f against RK4's 240)
    system = KleinGordonSystem(n=100)
    return system, system.initial_state, np.linspace(0.0, 2.0, 11), 60


@pytest.mark.parametrize("stability", [5.0, 8.0, 30.0])
def test_unstable_extrapolation_raises(stability, monkeypatch):
    # past its margin the step blows up (rho H of 4.4 and more); the
    # oracle raises instead of returning what it computed, with no warning
    system, x0, t_grid, factor = _kg_where_rk4_wins()
    calls = spied(monkeypatch)
    monkeypatch.setattr(extrapolation, "STABILITY", stability)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReferenceFailureError, match="extrapolation columns disagree"):
            reference_solution(system, x0, t_grid, mode="fine", factor=factor)
    assert calls["extrapolated"] and not calls["rk4"]


def test_default_stability_keeps_rk4_where_it_is_cheaper(monkeypatch):
    system, x0, t_grid, factor = _kg_where_rk4_wins()
    calls = spied(monkeypatch)
    states = reference_solution(system, x0, t_grid, mode="fine", factor=factor)
    assert calls == {"rk4": 10 * factor, "extrapolated": 0}
    assert np.isfinite(states).all()


def test_column_disagreement_is_a_reference_failure(monkeypatch):
    # a bound the columns cannot meet fails the first step, naming the time
    system = KleinGordonSystem(n=16)
    monkeypatch.setattr(extrapolation, "TOLERANCE", 0.0)
    with pytest.raises(ReferenceFailureError, match="failed by t=0.5: its extrapolation"):
        reference_solution(system, system.initial_state, np.array([0.0, 0.5]), factor=100)


def test_returned_states_are_right_or_raise_at_any_stability(monkeypatch):
    # NLS n=40 (rho(Df) about 7.4), dt = 1: at 10, 20 and 30 micro steps
    # the constant decides between RK4 and one to four extrapolation steps
    # (rho H up to 7.4); a state handed back agrees with RK4 at four times
    # the factor as closely as RK4 at the factor does
    system = NonlinearSchroedingerSystem(n=40)
    x0, t_grid = system.initial_state, np.linspace(0.0, 4.0, 5)
    for factor in (10, 20, 30):
        finer = rk4(system, x0, t_grid, 4 * factor, monkeypatch)
        own = deviation(rk4(system, x0, t_grid, factor, monkeypatch), finer)
        for stability in (2.5, 5.0, 8.0, 12.0, 30.0, 100.0):
            monkeypatch.setattr(extrapolation, "STABILITY", stability)
            try:
                states = reference_solution(system, x0, t_grid, mode="fine", factor=factor)
            except ReferenceFailureError:
                continue
            assert deviation(states, finer) <= own, (factor, stability)


def test_zero_jacobian_extrapolates_the_straight_line(monkeypatch):
    # f constant: rho(Df) = 0, so the cap alone sets m = factor / 10, and
    # the states are x0 + t f to rounding
    d = np.array([1.0, -2.0, 0.5, 3.0])
    system = QuadraticHamiltonianSystem(np.zeros((4, 4)), d)
    x0 = np.array([0.3, 0.1, -0.2, 0.4])
    assert extrapolation.spectral_radius(system, x0) == 0.0
    calls = spied(monkeypatch)
    t_grid = np.array([0.0, 0.5, 2.0])
    states = reference_solution(system, x0, t_grid, mode="fine", factor=100)
    assert calls == {"rk4": 0, "extrapolated": 20}
    assert np.abs(states - (x0 + t_grid[:, None] * system.f(x0))).max() <= 1e-13


def test_extrapolated_state_whose_norm_overflows_fails_typed(monkeypatch):
    # f a constant of 1e300: the columns agree exactly, but the state's
    # norm overflows, which raises as it does for RK4, with no warning
    system = QuadraticHamiltonianSystem(np.zeros((4, 4)), np.full(4, 1e300))
    calls = spied(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReferenceFailureError, match="fine reference overflowed by t=1: "
                           "the extrapolation overflowed at its macro step 0.1"):
            reference_solution(system, np.zeros(4), np.array([0.0, 1.0]), factor=100)
    assert calls == {"rk4": 0, "extrapolated": 10}


def test_linear_system_matches_the_dense_oracle(rng, monkeypatch):
    system = random_quadratic_system(rng, 4)
    x0 = rng.standard_normal(system.dim)
    t_grid = np.linspace(0.0, 2.0, 5)
    exact = reference_solution(system, x0, t_grid, mode="dense")
    calls = spied(monkeypatch)
    states = reference_solution(system, x0, t_grid, mode="fine", factor=100)
    assert calls["extrapolated"] and not calls["rk4"]
    assert deviation(states, exact) <= 1e-12
    assert deviation(states, exact) <= deviation(rk4(system, x0, t_grid, 100, monkeypatch), exact)


def test_spectral_radius_is_a_deterministic_overestimate():
    system = KleinGordonSystem(n=32)
    x0 = system.initial_state
    true = np.abs(np.linalg.eigvals(system.jacobian_dense(x0))).max()
    rho = extrapolation.spectral_radius(system, x0)
    assert rho == extrapolation.spectral_radius(system, x0)
    assert true <= rho <= 1.1 * true
