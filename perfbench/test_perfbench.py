"""Tests of the benchmark's own machinery: span arithmetic, wrapper
install/uninstall, metric names, absent layer functions, and the seeded
preset text.  Run with ``python3 -m pytest perfbench``."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import symkry  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS, Tracer, aggregate, percentile, self_times  # noqa: E402
from worker import run_text  # noqa: E402
from workloads import WORKLOADS, preset_text  # noqa: E402

# Two cheap sections that between them reach every layer: the Dirichlet
# and periodic stencils, the dense and fine references, EE and IEMP.
TINY = """
record-every = 5
seed = 0

[wave]
problem = linear-wave
problem.n = 20
method = EE
basis = hamiltonian-lanczos
basis-dim = 4
t-final = 1
steps = 20
reference = dense

[kg]
problem = klein-gordon
problem.n = 16
method = IEMP
basis = arnoldi
basis-dim = 6
t-final = 0.2
steps = 10
reference = fine:2
"""

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _attributes():
    """Identity snapshot of every attribute the tracer may touch."""
    owners = [symkry.core, symkry.krylov, symkry.matfun, symkry.integrators,
              symkry.problems, symkry.harness, symkry.krylov.CountingAction,
              symkry.core.BasisMatrix, symkry.problems.DiscreteLaplacian,
              symkry.harness.MetricsSeries]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_self_time_arithmetic_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [[0, None, "a", 0.0, 10.0], [1, 0, "b", 1.0, 4.0],
             [2, 1, "c", 2.0, 3.0], [3, 0, "b", 5.0, 9.0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    calls, own, total = aggregate(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert own == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert total == {"a": 10.0, "b": 7.0, "c": 1.0}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_wrappers_install_and_uninstall_cleanly(tmp_path):
    before = _attributes()
    tracer = Tracer("test")
    tracer.install(symkry)
    assert symkry.harness.run is not before[(id(symkry.harness), "run")]
    assert symkry.core.BasisMatrix.left_apply is not before[
        (id(symkry.core.BasisMatrix), "left_apply")]
    tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    facts = run_text(symkry, TINY, tmp_path, Tracer("test"))
    assert all(not s["error"] for s in facts["sections"])
    assert _attributes().keys() == before.keys()
    assert all(_attributes()[key] is before[key] for key in before)


def test_traced_run_counts_layers_and_keeps_csvs(tmp_path):
    plain = run_text(symkry, TINY, tmp_path / "plain")
    tracer = Tracer("test")
    traced = run_text(symkry, TINY, tmp_path / "traced", tracer)
    assert [s["sha256"] for s in traced["sections"]] == [s["sha256"] for s in plain["sections"]]
    steps = sum(s["steps"] for s in traced["sections"])
    layers = tracer.layer_metrics(steps, sum(s["fp_iters"] for s in traced["sections"]))
    assert layers["integrators.step.calls"] == steps == 30
    assert layers["krylov.matvecs"] == sum(s["matvecs"] for s in traced["sections"])
    assert layers["krylov.build.useful_ratio"] == 1.0
    for name in ("problems.f.calls", "problems.laplacian.calls", "matfun.expm.calls",
                 "matfun.phi1.calls", "core.left_apply.calls", "matfun.expm.cubic_work"):
        assert layers[name] > 0, name
    assert tracer.patches.absent == []


def test_every_metric_name_is_well_formed_and_declared(tmp_path):
    tracer = Tracer("test")
    facts = run_text(symkry, TINY, tmp_path, tracer)
    emitted = set(tracer.layer_metrics(1, 0)) | {
        "integrators.step.p50_ms", "integrators.step.p99_ms", "trace.overhead_frac"}
    assert emitted == set(LAYER_METRICS)
    assert all(not s["error"] for s in facts["sections"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == set(LAYER_METRICS)
    assert {m["name"] for m in declared["end_to_end"]} == set(END_TO_END)
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name in set(LAYER_METRICS) | set(END_TO_END):
        assert NAME.fullmatch(name), name


def test_absent_layer_function_is_reported_not_fatal(tmp_path, monkeypatch):
    # A kernel renamed by a later change must not stop the traced run.
    monkeypatch.delattr(symkry.integrators, "step_eemp")
    monkeypatch.delattr(symkry.krylov, "CountingAction")
    tracer = Tracer("test")
    facts = run_text(symkry, TINY, tmp_path, tracer)
    assert all(not s["error"] for s in facts["sections"])
    assert tracer.patches.absent == ["integrators.step_eemp", "krylov.CountingAction.apply"]
    assert tracer.layer_metrics(30, 0)["krylov.matvecs"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_presets_change_only_problem_keys_and_seed(name):
    harness = symkry.harness
    nominal = dict(harness.parse_config_text(preset_text(name, 0)))
    drawn = dict(harness.parse_config_text(preset_text(name, 7)))
    assert nominal.keys() == drawn.keys()
    for section, mapping in nominal.items():
        changed = {k for k in mapping if mapping[k] != drawn[section].get(k)}
        assert changed and all(k.startswith("problem.") or k == "seed" for k in changed)
        config = harness.config_from_mapping(drawn[section])
        for key, (lo, hi) in WORKLOADS[name].draws.items():
            assert lo <= config.problem_params[key] <= hi
    assert preset_text(name, 7) == preset_text(name, 7)


def test_seed_zero_is_the_nominal_shape():
    mapping = dict(symkry.harness.parse_config_text(preset_text("kg-iemp", 0)))["lanczos-22"]
    config = symkry.harness.config_from_mapping(mapping)
    assert config.problem_params == {"n": 400}
    assert (config.method, config.basis, config.basis_dim) == ("IEMP", "hamiltonian-lanczos", 22)
    assert (config.reference, config.ref_factor, config.seed) == ("fine", 10, 0)
