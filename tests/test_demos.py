"""Smoke test of the demos: each runs to the end, prints, and warns nothing.

Demos 01 and 05 take well under a second and run in tier-1; 02-04 take
seconds each and run under the ``slow`` marker.
"""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_basis_processes",
    pytest.param("02_linear_wave_energy", marks=pytest.mark.slow),
    pytest.param("03_nls_symmetric_integrator", marks=pytest.mark.slow),
    pytest.param("04_klein_gordon_implicit", marks=pytest.mark.slow),
    "05_matrix_functions",
])
def test_demo_runs(name, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
