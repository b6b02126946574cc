"""Interleaved A/B timing of two symkry source trees in one interpreter.

Loads the package of A_SRC as ``symkry_a`` and the one of B_SRC as
``symkry_b``, builds each section of NAME on both sides through
``parse_config_text`` and ``config_from_mapping``, and then times
``integrators.integrate`` over all sections, alternating
the sides: pair i runs A first when i is even and B first when it is odd.
One untimed pass per side comes first.  No reference is computed and no
CSV is written; only the integration is on the clock.  NAME is a
perfbench workload (the preset text of ``perfbench/workloads.py`` of this
checkout, read and not changed, at seed SEED) or a packaged preset (the
text of ``src/symkry/presets/NAME.conf`` of this checkout, whose sections
carry their own seeds, so SEED is not used).

Prints each side's median seconds per pass with its interquartile range
(and ms per step), its minor page faults per step (the ``ru_minflt``
growth over that side's timed passes), the B/A ratio of the medians, the
share of pairs each side won, and whether the two sides' final states are
bit-equal; when they are not, the largest relative difference
||a - b||/||a|| of a section's final states, so a change that moves
rounding reports how far.

Usage: python3 tools/ab_time.py A_SRC B_SRC NAME [SEED [PAIRS]]

SEED defaults to 0 and PAIRS (at least 2) to 10.  In one interpreter
both sides see the same machine state, so the ratio repeats where
separate benchmark series drift; set OPENBLAS_NUM_THREADS=1 as perfbench
does.  Uses only the standard library, numpy and the two trees.

Both sides share one allocator, so a gain that comes from the allocation
pattern (a heap that is no longer trimmed and re-faulted on every step)
shows here in the fault counts but hardly in the ratio; only perfbench's
fresh processes show it in time.
"""

import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "src" / "symkry" / "presets"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, preset_text  # noqa: E402


def load(name, src):
    """Import the package ``src``/symkry under the module name ``name``."""
    init = Path(src).resolve() / "symkry" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sections(package, text):
    """The checked config of every section of a preset text."""
    harness = package.harness
    return [harness.config_from_mapping(dict(mapping))
            for _, mapping in harness.parse_config_text(text)]


def one_pass(package, configs):
    """Integrate every section once; seconds and the final states."""
    finals = []
    start = time.perf_counter()
    for config in configs:
        summary = package.integrators.integrate(
            config.system, config.stepper, config.system.initial_state,
            n_steps=config.n_steps, rng=np.random.default_rng(config.seed))
        finals.append(summary.final_state)
    return time.perf_counter() - start, finals


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def main(argv):
    presets = sorted(path.stem for path in PRESETS.glob("*.conf"))
    if not 3 <= len(argv) <= 5 or argv[2] not in (*WORKLOADS, *presets):
        print(__doc__.split("\n\n")[-2], file=sys.stderr)
        print(f"workloads: {', '.join(WORKLOADS)}", file=sys.stderr)
        print(f"presets: {', '.join(presets)}", file=sys.stderr)
        return 2
    seed = int(argv[3]) if len(argv) > 3 else 0
    pairs = int(argv[4]) if len(argv) > 4 else 10
    if pairs < 2:
        print("PAIRS must be at least 2 for quartiles", file=sys.stderr)
        return 2
    if argv[2] in WORKLOADS:
        text, seeds = preset_text(argv[2], seed), f"seed {seed}"
    else:
        text, seeds = (PRESETS / f"{argv[2]}.conf").read_text(), "preset seeds"
    sides = {}
    for label, name, src in (("A", "symkry_a", argv[0]), ("B", "symkry_b", argv[1])):
        package = load(name, src)
        sides[label] = (package, sections(package, text))
    steps = sum(config.n_steps for config in sides["A"][1])

    finals = {label: one_pass(*sides[label])[1] for label in sides}
    times = {label: [] for label in sides}
    faults = dict.fromkeys(sides, 0)
    for i in range(pairs):
        for label in ("AB" if i % 2 == 0 else "BA"):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            seconds, finals[label] = one_pass(*sides[label])
            faults[label] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            times[label].append(seconds)

    print(f"{argv[2]} {seeds}: {pairs} pairs, order alternated, "
          f"{len(sides['A'][1])} section(s), {steps} steps per pass")
    for label, src in (("A", argv[0]), ("B", argv[1])):
        median, iqr = quartiles(times[label])
        print(f"{label} {src}: median {median:.4f} s/pass (IQR {iqr:.4f}), "
              f"{1e3 * median / steps:.4f} ms/step, "
              f"{faults[label] / (pairs * steps):.2f} minor faults/step")
    b_wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    a_wins = sum(a < b for a, b in zip(times["A"], times["B"]))
    ratio = statistics.median(times["B"]) / statistics.median(times["A"])
    print(f"B/A median ratio {ratio:.3f}; B won {b_wins}/{pairs} pairs, "
          f"A won {a_wins}/{pairs}")
    equal = all(a.tobytes() == b.tobytes() for a, b in zip(finals["A"], finals["B"]))
    if equal:
        print("final states bit-equal: yes")
    else:
        diff = max(np.linalg.norm(a - b) / np.linalg.norm(a)
                   for a, b in zip(finals["A"], finals["B"]))
        print(f"final states bit-equal: no; largest relative difference "
              f"||a - b||/||a|| over the sections {diff:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
