"""A run holds about one copy of the states it records: the memory probe
(``tools/mem_probe.py``), run in a subprocess on Klein-Gordon with
EE/lanczos-12 over 400 steps, each recorded, against a ``fine:1``
reference (micro step 5e-5), whose oracle finishes well before the
integration.  Bounds, in copies of the recorded states: the parent's
peak RSS at most 1.3 above the same run recording only its last step,
the oracle child's peak at most 1.2 above the parent's RSS at the fork.
A run that kept the recorded states until a pickled reference arrived
read about 3.0 and 1.8 at dimension 8,192.  The run recording only its
last step peaks at most 3 one-step basis blocks (3 x basis_dim x
dimension x 8 bytes) above its RSS right after ``import symkry``: about
1.9 and 2.4 blocks at dimensions 8,192 and 32,768, where a run that held
the last step's basis while building the next and imported numpy.random
read about 5.3 and 4.0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SHAPE = """\
problem = klein-gordon
problem.n = {n}
method = EE
basis = hamiltonian-lanczos
basis-dim = 12
t-final = 0.02
steps = 400
record-every = 1
reference = fine:1
"""


@pytest.mark.skipif(not (hasattr(os, "fork") and Path("/proc/self/statm").exists()),
                    reason="the probe reads /proc/self/statm around os.fork")
@pytest.mark.parametrize("n", [4096, pytest.param(16384, marks=pytest.mark.slow)],
                         ids=["dim8192", "dim32768"])
def test_run_holds_about_one_copy_of_its_recorded_states(n, tmp_path):
    preset = tmp_path / "kg.conf"
    preset.write_text(SHAPE.format(n=n), encoding="ascii")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "mem_probe.py"), str(preset)],
                         capture_output=True, text=True, check=True, timeout=600)
    facts = json.loads(out.stdout.splitlines()[-1])
    assert facts["copy_mb"] == pytest.approx(401 * 2 * n * 8 / 2 ** 20)
    assert facts["parent_copies"] <= 1.3, out.stdout
    assert facts["child_copies"] <= 1.2, out.stdout
    assert facts["block_mb"] == pytest.approx(3 * 12 * 2 * n * 8 / 2 ** 20)
    assert facts["run_blocks"] <= 3.0, out.stdout
