"""Peak memory of a run, in copies of the states it records.

Usage: python3 tools/mem_probe.py NAME [RECORD_EVERY]

NAME is a perfbench workload (its preset text at seed 0, from
``perfbench/workloads.py`` of this checkout, read and not changed), a
packaged preset (``src/symkry/presets/NAME.conf``) or the path of a
preset-format file.  RECORD_EVERY, when given, replaces the
``record-every`` of every section.

Runs every section the way ``symkry preset`` does (``config_from_mapping``
then ``run(quiet=True)``, with no CSV written) twice, each time in a fresh
interpreter that imports symkry from this checkout's ``src/``: once as
asked, and once recording only each section's last step (``record-every``
equal to ``steps``).  Then it prints three figures:

    parent  the asked run's peak RSS (``RUSAGE_SELF``) above that of the
            run recording only its last step;
    child   the oracle child's peak RSS (``RUSAGE_CHILDREN``) above the
            parent's RSS at the fork (read from ``/proc/self/statm`` just
            before ``os.fork``; with several forks, the largest);
    run     the peak RSS of the run recording only its last step above
            its RSS right after ``import symkry``: what the integration,
            the oracle's mapping and the problem hold at most.

the first two in MB and in copies of the recorded states, one copy being
records x dimension x 8 bytes of the section that records the most, and
the third in MB and in one-step basis blocks, one block being 3 x
basis_dim x dimension x 8 bytes (rows, left inverse and images) of the
section with the widest basis.  The last line repeats them as one JSON
object.  A run whose reference is computed inline (no fork) reports no
child figure.  The probe gates nothing by itself;
``tests/test_mem_probe.py`` bounds its figures.  Linux only; uses only
the standard library, numpy and symkry.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "src" / "symkry" / "presets"
MB = 2.0 ** 20


def preset_text(name):
    """The preset-format text that NAME stands for (see the usage)."""
    if (PRESETS / f"{name}.conf").is_file():
        return (PRESETS / f"{name}.conf").read_text(encoding="ascii")
    if Path(name).is_file():
        return Path(name).read_text(encoding="ascii")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, preset_text as workload_text
    if name not in WORKLOADS:
        raise SystemExit(f"{name!r} is no workload, packaged preset or file; "
                         f"workloads: {', '.join(WORKLOADS)}")
    return workload_text(name, 0)


def rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def measure(name, every):
    """Run every section of NAME in this interpreter, recording every
    ``every`` steps (``own``: as the section says; ``last``: only its last
    step); print the peaks as one JSON object."""
    sys.path.insert(0, str(ROOT / "src"))
    from symkry.errors import IntegrationAborted
    from symkry.harness import config_from_mapping, parse_config_text, run
    imported = rss_bytes()

    at_fork, fork = [], os.fork

    def recording_fork():
        at_fork.append(rss_bytes())
        return fork()

    os.fork = recording_fork
    copy = block = 0
    for _, mapping in parse_config_text(preset_text(name)):
        config = config_from_mapping(mapping)
        if every != "own":
            config = dataclasses.replace(
                config, record_every=config.n_steps if every == "last" else int(every))
        records = config.n_steps // config.record_every + 1
        copy = max(copy, 8 * records * config.system.dim)
        block = max(block, 3 * 8 * config.basis_dim * config.system.dim)
        try:
            run(config, quiet=True)
        except IntegrationAborted:  # the partial run still measures the oracle
            pass
    print(json.dumps({
        "copy": copy, "block": block, "imported": imported,
        "parent_peak": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "child_peak": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024,
        "at_fork": max(at_fork, default=None)}))


def fresh_run(name, every):
    """``measure(name, every)`` in a fresh interpreter; its JSON object."""
    out = subprocess.run([sys.executable, __file__, "--measure", name, every],
                         capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv):
    if argv[:1] == ["--measure"]:
        measure(argv[1], argv[2])
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    asked = fresh_run(argv[0], argv[1] if len(argv) == 2 else "own")
    return report(argv[0], asked, fresh_run(argv[0], "last"))


def report(name, asked, last_only):
    copy = asked["copy"]
    facts = {"name": name, "copy_mb": copy / MB,
             "parent_mb": (asked["parent_peak"] - last_only["parent_peak"]) / MB}
    facts["parent_copies"] = facts["parent_mb"] * MB / copy
    print(f"{name}: one copy of the recorded states is {facts['copy_mb']:.2f} MB")
    print(f"parent {facts['parent_mb']:.2f} MB = {facts['parent_copies']:.2f} copies above the "
          f"run recording only its last step (peaks {asked['parent_peak'] / MB:.1f} and "
          f"{last_only['parent_peak'] / MB:.1f} MB)")
    if asked["at_fork"] is None:
        print("child: none, the reference was computed inline")
    else:
        facts["child_mb"] = (asked["child_peak"] - asked["at_fork"]) / MB
        facts["child_copies"] = facts["child_mb"] * MB / copy
        print(f"child {facts['child_mb']:.2f} MB = {facts['child_copies']:.2f} copies above the "
              f"parent's RSS at the fork (peak {asked['child_peak'] / MB:.1f} MB, "
              f"fork at {asked['at_fork'] / MB:.1f} MB)")
    block = last_only["block"]
    facts["block_mb"] = block / MB
    facts["run_mb"] = (last_only["parent_peak"] - last_only["imported"]) / MB
    facts["run_blocks"] = facts["run_mb"] * MB / block
    print(f"run {facts['run_mb']:.2f} MB = {facts['run_blocks']:.2f} one-step basis blocks of "
          f"{facts['block_mb']:.2f} MB: the run recording only its last step above its RSS "
          f"right after import symkry ({last_only['imported'] / MB:.1f} MB)")
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
