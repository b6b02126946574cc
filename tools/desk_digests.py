"""Print a digest of every desk-preset and perfbench-workload CSV, to check
that a refactor keeps the numbers byte-identical.

Runs the sections of every ``*-desk`` preset the way ``symkry preset``
does (``config_from_mapping`` then ``run_sections(quiet=True)``, so
consecutive sections on one grid share one reference, and an aborted
section ends its preset), writes the CSVs into a temporary directory and
prints one line per section:

    <preset>-<section> <sha256 of the CSV> matvecs=<n> fp_iters=<n> max_ree=<e> final_sol=<e>

The matvec and fixed-point totals count every step, the ones the CSV
does not record too.
``max_ree`` is the largest recorded relative energy error and ``final_sol``
the last recorded solution error (``%.3e``), so when a change moves
rounding on purpose the diff shows by how much; a byte-identical refactor
still diffs empty.
Then it runs the three perfbench workloads at seeds 0 and 7 the way the
perfbench worker does (the preset text from ``perfbench/workloads.py`` of
this checkout through ``parse_config_text``, then each section alone
through ``config_from_mapping`` and ``run_sections``, which for one config
is ``run(quiet=True)``: each section computes its own reference) and
prints one line per section (about 25 s):

    perfbench-<workload>-seed<s>-<section> <sha256> matvecs=<n> fp_iters=<n> max_ree=<e> final_sol=<e>

Two lines before all of them digest what ``cli.main`` prints at 80
columns, so the check also covers the generated ``run`` flags and the
problem list:

    cli-run-help <sha256 of ``symkry run --help``>
    cli-list-problems <sha256 of ``symkry list-problems``>

A third runs ``REFERENCE_FAILURE``, a ``symkry run`` whose fine-RK4
reference overflows, as ``python -m symkry.cli`` in a child interpreter,
so the exit-code mapping of an oracle failure is covered too:

    cli-reference-failure exit=<exit code> <sha256 of its stderr>

Two more lines, after them, digest the states of
``reference_solution(mode="dense")`` on each of the two paths of its one
``phi_apply`` call.  The first takes the Pade propagation, one
exponential per interval length, which no preset takes (their linear
systems are second order and go through the closed form), on a
fixed-seed ``QuadraticHamiltonianSystem`` of dimension 40.  The second
takes the closed form on ``LinearWaveSystem(n=400)`` over wave-dense's
record grid (every 10th of 2000 steps of 0.025).  The wave CSVs show
the oracle only through solution errors near 2e-2, in whose last digits
its rounding hides, so this line shows a change to the closed form bit
for bit:

    dense-reference-quadratic <sha256 of the states' bytes>
    dense-reference-second-order <sha256 of the states' bytes>

Then one line per basis process digests the basis layer itself, where a
change of rounding starts: U, F and A U (the columns of
``basis.images``) built with 16 columns from a fixed perturbed
``KleinGordonSystem(n=64)`` state, then U and F of ``extend_basis`` with
a fixed vector (C-order bytes, whatever the layout):

    basis-<process> <sha256>

Two more lines, after the desk presets, run EEMP with each paired process
(``PAIRED_EEMP``, NLS n=125, about 1 s together, run like a preset, as
are the two texts after it), which no preset does, so
the paired branch of the basis extension is covered too:

    eemp-paired-<process> <sha256> matvecs=<n> fp_iters=<n> max_ree=<e> final_sol=<e>

and two more run IEMP with each paired process (``PAIRED_IEMP``, Klein-Gordon
n=100, a few seconds together), which no preset does either, so the
predictor basis's rounding to whole pairs is covered:

    iemp-paired-<process> <sha256> matvecs=<n> fp_iters=<n> max_ree=<e> final_sol=<e>

One more runs a section that aborts (``ABORTED_EEMP``, Klein-Gordon
n=100, EEMP with Arnoldi-20 over a horizon at which the divergence guard
trips near step 260, about 1 s), so the partial CSV of an aborted run,
whose solution errors are filled in once the reference states are in, is
covered too; the line ends in `` aborted``:

    aborted-eemp-arnoldi <sha256> matvecs=<n> fp_iters=<n> max_ree=<e> final_sol=<e> aborted

Usage: python3 tools/desk_digests.py [SRC_DIR]

SRC_DIR is the directory symkry is imported from (default: this
checkout's ``src/``), so two checkouts can be compared with ``diff``;
the workloads always come from this checkout.  When a change alters the
API this tool calls (``extend_basis`` taking a basis, say), an old
``src/`` cannot run under the new tool: run each checkout's own tool on
its own ``src/`` and diff those outputs.  Uses only the standard
library, numpy, symkry and ``perfbench/workloads.py``.

The ``aborted-eemp-arnoldi`` line's matvecs, hash and errors move with
any rounding change of EEMP with Arnoldi: its divergence guard trips
anywhere from step 49 to 260 over slightly perturbed starts, so for a
change that moves rounding on purpose that line is noise.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# EEMP extends every step's basis by x_prev - x; no desk preset does so
# with a paired (symplectic and orthonormal) basis
PAIRED_EEMP = """\
problem = nls
problem.n = 125
method = EEMP
basis-dim = 20
t-final = 6.283185307179586
steps = 400
record-every = 10
reference = fine:10
seed = 0

[symplectic-arnoldi]
basis = symplectic-arnoldi

[isotropic-arnoldi]
basis = isotropic-arnoldi
"""

# IEMP's predictor basis has half the columns, rounded up to whole pairs
# for a paired process; no desk preset runs IEMP with a paired process
PAIRED_IEMP = """\
problem = klein-gordon
problem.n = 100
method = IEMP
basis-dim = 22
t-final = 10.0
steps = 500
record-every = 10
reference = fine:10
seed = 0

[symplectic-arnoldi]
basis = symplectic-arnoldi

[isotropic-arnoldi]
basis = isotropic-arnoldi
"""

# RK4 at a micro step of 0.1 is unstable on Klein-Gordon n=100
REFERENCE_FAILURE = ("run --problem klein-gordon --param n=100 --method IEMP "
                     "--basis hamiltonian-lanczos --basis-dim 20 --t-final 2 --steps 20 "
                     "--record-every 5 --reference fine:1")

# EEMP with an orthonormal basis drifts until the divergence guard trips
ABORTED_EEMP = """\
problem = klein-gordon
problem.n = 100
method = EEMP
basis-dim = 20
t-final = 45
steps = 2250
record-every = 25
reference = fine:4
seed = 0

[arnoldi]
basis = arnoldi
"""


def printed_digest(main, argv):
    """sha256 of what ``main(argv)`` prints; ``--help`` exits are caught."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(argv)
        except SystemExit:
            pass
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv):
    root = Path(__file__).resolve().parents[1]
    src = (Path(argv[1]) if len(argv) > 1 else root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.append(str(root / "perfbench"))
    from symkry import (CountingAction, KleinGordonSystem, LinearWaveSystem,
                        QuadraticHamiltonianSystem)
    from symkry.cli import available_presets, load_preset, main as cli_main
    from symkry.errors import IntegrationAborted
    from symkry.harness import (config_from_mapping, parse_config_text, reference_solution,
                                run_sections)
    from symkry.integrators import BASIS_PROCESSES
    from symkry.krylov import extend_basis
    from workloads import WORKLOADS, preset_text

    def print_digests(prefix, sections, tmp):
        """Run the (name, mapping) sections through ``run_sections`` and
        print one line per section, labelled ``<prefix>-<name>``."""
        paths = [Path(tmp) / f"{prefix}-{name}.csv" for name, _ in sections]
        results = run_sections([config_from_mapping({**mapping, "output": str(path)})
                                for (_, mapping), path in zip(sections, paths)], quiet=True)
        for (name, _), path in zip(sections, paths):
            try:
                result = next(results)
                summary, rows, status = result.summary, result.series.rows, ""
            except IntegrationAborted as exc:  # the partial CSV is still written
                summary, rows, status = exc.summary, exc.series.rows, " aborted"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{prefix}-{name} {digest} matvecs={summary.matvec_count} "
                  f"fp_iters={summary.fp_iterations} max_ree={max(r[2] for r in rows):.3e} "
                  f"final_sol={rows[-1][3]:.3e}{status}", flush=True)
            if status:  # it ends the sequence, as in ``symkry preset``
                break

    print(f"symkry from {Path(sys.modules['symkry'].__file__).parent}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"  # argparse wraps the help text to this width
    for command in ("run --help", "list-problems"):
        digest = printed_digest(cli_main, command.split())
        print(f"cli-{command.replace(' --', '-')} {digest}", flush=True)
    failed = subprocess.run([sys.executable, "-m", "symkry.cli", *REFERENCE_FAILURE.split()],
                            capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    print(f"cli-reference-failure exit={failed.returncode} "
          f"{hashlib.sha256(failed.stderr).hexdigest()}", flush=True)
    rng = np.random.default_rng(2017)
    S = rng.standard_normal((40, 40))
    system = QuadraticHamiltonianSystem(S + S.T, rng.standard_normal(40))
    states = reference_solution(system, rng.standard_normal(40), np.arange(9) * 0.125,
                                mode="dense")
    print(f"dense-reference-quadratic {hashlib.sha256(states.tobytes()).hexdigest()}",
          flush=True)
    wave = LinearWaveSystem(n=400)
    states = reference_solution(wave, wave.initial_state,
                                np.array([s * (50 / 2000) for s in range(0, 2001, 10)]),
                                mode="dense")
    print(f"dense-reference-second-order {hashlib.sha256(states.tobytes()).hexdigest()}",
          flush=True)
    kg = KleinGordonSystem(n=64)
    x = kg.initial_state + 0.1 * rng.standard_normal(kg.dim)
    y = rng.standard_normal(kg.dim)
    for process, (builder, mult) in BASIS_PROCESSES.items():
        out = builder(CountingAction.from_system(kg, x), kg.f(x), 16 // mult)
        ext = extend_basis(out.basis, CountingAction.from_system(kg, x), y)
        digest = hashlib.sha256()
        for array in (out.basis.columns, out.basis.reduced, out.basis.images.T,
                      ext.columns, ext.reduced):
            digest.update(np.ascontiguousarray(array).tobytes())
        print(f"basis-{process} {digest.hexdigest()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in available_presets():
            if name.endswith("-desk"):
                print_digests(name, load_preset(name), tmp)
        for prefix, text in (("eemp-paired", PAIRED_EEMP), ("iemp-paired", PAIRED_IEMP),
                             ("aborted-eemp", ABORTED_EEMP)):
            print_digests(prefix, parse_config_text(text), tmp)
        for name in WORKLOADS:
            for seed in (0, 7):
                for section in parse_config_text(preset_text(name, seed)):
                    print_digests(f"perfbench-{name}-seed{seed}", [section], tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
