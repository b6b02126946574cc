"""Fuzz of the run space: every run ends in a CSV or a typed error.

Configurations are drawn with a fixed-seed numpy generator over the three
problems, the three methods and the four basis processes, at small sizes,
horizons from 1e-300 to 1e6 and extreme problem parameters.  Each one goes
through ``config_from_mapping`` and ``run``, and through ``cli.main`` in the
same process, with numpy warnings turned into errors and ``os.fork`` taken
away, so that the reference is computed inline and no process is started.
An outcome is a run with finite metrics (exit 0), a ConfigError (exit 2),
or an IntegrationAborted or ReferenceFailureError (exit 3); anything else,
a numpy warning included, fails the case.  A short draw runs in tier-1, a
wide one under the ``slow`` marker.
"""

import os
import warnings

import numpy as np
import pytest

from symkry import ConfigError, IntegrationAborted, ReferenceFailureError
from symkry.cli import main
from symkry.harness import config_from_mapping, run

PROBLEMS = ("linear-wave", "nls", "klein-gordon")
METHODS = ("EE", "EEMP", "IEMP")
PROCESSES = ("arnoldi", "symplectic-arnoldi", "isotropic-arnoldi", "hamiltonian-lanczos")
# exit code of each outcome, as ``cli.main`` maps it
EXIT_CODES = {"ok": 0, ConfigError: 2, IntegrationAborted: 3, ReferenceFailureError: 3}


def _log_uniform(rng, low, high, common=None):
    """10^u, u uniform in [low, high], or in the range ``common`` half the
    time: the whole space is reached and the usual part of it often."""
    if common is not None and rng.random() < 0.5:
        low, high = common
    return 10.0 ** rng.uniform(low, high)


def _magnitude(rng, signed=True):
    """0 now and then, else a value from 1e-300 to 1e300 (mostly 0.1 to 1e4),
    of either sign when ``signed``."""
    if rng.random() < 0.1:
        return 0.0
    value = _log_uniform(rng, -300.0, 300.0, common=(-1.0, 4.0))
    return -value if signed and rng.random() < 0.5 else value


def draw_case(rng):
    """One run, as the flag-named mapping ``symkry run`` builds."""
    problem = str(rng.choice(PROBLEMS))
    params = {"n": int(rng.integers(1, 41))}
    if problem == "linear-wave":
        params["L"] = _magnitude(rng, signed=False)
        params["boundary"] = str(rng.choice(["periodic", "dirichlet"]))
    elif problem == "nls":
        params["V0"] = _magnitude(rng)
        params["B"] = _magnitude(rng, signed=False)
    else:
        for key in ("L", "m", "g", "A"):
            params[key] = _magnitude(rng, signed=key != "L")
    for key in list(params)[1:]:
        if rng.random() < 0.3:  # keep the default now and then
            del params[key]
    # a basis_dim of at most the system dimension most of the time
    top = 40 if rng.random() < 0.2 else min(40, 2 * params["n"])
    return {
        "problem": problem,
        "method": str(rng.choice(METHODS)),
        "basis": str(rng.choice(PROCESSES)),
        "basis_dim": str(rng.integers(1, top + 1)),
        "t_final": repr(_log_uniform(rng, -300.0, 6.0, common=(-3.0, 6.0))),
        "steps": str(rng.integers(1, 5)),
        "record_every": str(rng.integers(1, 3)),
        "reference": str(rng.choice(["fine:1", "fine:3", "fine", "dense"])),
        "seed": str(rng.integers(0, 4)),
        **{f"problem.{key}": str(value) for key, value in params.items()},
    }


def _outcome(mapping):
    """"ok" for a run whose metrics are all finite, else the type of the
    typed error it ended in; any other exception propagates."""
    try:
        series = run(config_from_mapping(mapping), quiet=True).series
    except (ConfigError, IntegrationAborted, ReferenceFailureError) as exc:
        return type(exc)
    assert series.rows and np.isfinite(np.array(series.rows, dtype=float)).all(), series.rows
    return "ok"


def _argv(mapping, output):
    argv = ["run", "--output", str(output)]
    for key, value in mapping.items():
        if key.startswith("problem."):
            argv += ["--param", f"{key[len('problem.'):]}={value}"]
        else:
            argv += ["--" + key.replace("_", "-"), value]
    return argv


def fuzz(seed, cases, tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    rng = np.random.default_rng(seed)
    tally = {}
    for i in range(cases):
        mapping = draw_case(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                outcome = _outcome(mapping)
                code = main(_argv(mapping, tmp_path / "fuzz.csv"))
            except Exception as exc:
                raise AssertionError(f"case {i} {mapping}: {exc!r}") from exc
        capsys.readouterr()
        assert code == EXIT_CODES[outcome], (i, mapping, outcome, code)
        name = outcome if outcome == "ok" else outcome.__name__
        tally[name] = tally.get(name, 0) + 1
    return tally


def test_short_fuzz_of_the_run_space(tmp_path, monkeypatch, capsys):
    tally = fuzz(0, 800, tmp_path, monkeypatch, capsys)
    # the draw reaches every kind of outcome, not only configuration errors
    assert set(tally) == {"ok", "ConfigError", "IntegrationAborted", "ReferenceFailureError"}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 5))
def test_wide_fuzz_of_the_run_space(seed, tmp_path, monkeypatch, capsys):
    fuzz(seed, 3000, tmp_path, monkeypatch, capsys)
