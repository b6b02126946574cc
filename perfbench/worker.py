"""One run of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
       --out-dir DIR --result FILE [--spans FILE]

Follows the path of ``symkry preset``: the workload's preset text goes
through ``harness.parse_config_text``, then each section through
``harness.config_from_mapping`` and ``harness.run(quiet=True)``, with the
CSVs written to DIR.  The facts of the run (timings, counts, CSV digests
and the statistics the accuracy checks need) are written as JSON to FILE;
``run.py`` judges them.  With ``--trace 1`` every layer boundary is
wrapped for the run and unwrapped afterwards, and the spans go to
``--spans`` as JSONL.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

# numpy is imported before any clock starts: its import time belongs to the
# environment, not to the program under test.
import numpy

from tracing import Patches, Tracer
from workloads import preset_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SectionClock:
    """Two clock reads around each call of a wrapped function, summed."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
        return timed


def csv_facts(path):
    """Digest, header lines and error statistics of a section CSV."""
    data = Path(path).read_bytes()
    lines = data.decode("ascii").splitlines()
    rows = [line.split(",") for line in lines[2:]]
    t = [float(r[1]) for r in rows]
    ree = [float(r[2]) for r in rows]
    half = t[-1] / 2 if t else 0.0
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "header": lines[0] if lines else "",
        "columns": lines[1] if len(lines) > 1 else "",
        "rows": len(rows),
        "max_ree": max(ree, default=math.nan),
        "half_max_ree": max((e for s, e in zip(t, ree) if s <= half), default=math.nan),
        "final_ree": ree[-1] if ree else math.nan,
        "final_sol": float(rows[-1][3]) if rows else math.nan,
    }


def run_text(symkry, text, out_dir, tracer=None):
    """Run every section of a preset text; returns the run's facts.

    ``symkry`` is the imported package.  The two section clocks wrap
    ``harness.build_problem`` (set-up) and ``harness.integrate``; with a
    tracer, every layer boundary is wrapped on top of them and all
    wrappers are removed before returning.
    """
    harness = symkry.harness
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    build, integrate = SectionClock(), SectionClock()
    clocks = Patches()
    clocks.swap(harness, "build_problem", build.wrap, "harness.build_problem")
    clocks.swap(harness, "integrate", integrate.wrap, "harness.integrate")
    sections = []
    try:
        if tracer is not None:
            tracer.install(symkry)
        start = time.perf_counter()
        parsed = harness.parse_config_text(text)
        setup = time.perf_counter() - start
        for name, mapping in parsed:
            mapping = dict(mapping)
            mapping["output"] = str(Path(out_dir) / f"{name}.csv")
            start = time.perf_counter()
            config = harness.config_from_mapping(mapping)
            setup += time.perf_counter() - start
            build_before, integrate_before = build.seconds, integrate.seconds
            facts = {"name": name, "error": ""}
            try:
                result = harness.run(config, quiet=True)
                summary = result.summary
            # A failing section is counted, not fatal: the boundary keeps
            # running and reports what went wrong.
            except Exception as exc:  # noqa: BLE001
                facts["error"] = f"{type(exc).__name__}: {exc}"
                summary = getattr(exc, "summary", None)
            facts["build_s"] = build.seconds - build_before
            facts["integrate_s"] = integrate.seconds - integrate_before
            facts["steps"] = summary.steps_completed if summary is not None else 0
            facts["matvecs"] = summary.matvec_count if summary is not None else 0
            facts["fp_iters"] = summary.fp_iterations if summary is not None else 0
            if os.path.exists(mapping["output"]):
                facts.update(csv_facts(mapping["output"]))
            sections.append(facts)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clocks.undo()
    setup += sum(s["build_s"] for s in sections)
    return {"setup_s": setup, "sections": sections}


def machine(symkry):
    """Versions and BLAS build of the interpreter running the workload."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "symkry": symkry.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    text = preset_text(args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import symkry
    import_s = time.perf_counter() - start
    if not Path(symkry.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"symkry imported from {symkry.__file__}, not from {ROOT / 'src'}")

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    facts = run_text(symkry, text, args.out_dir, tracer)
    facts["wall_s"] = time.perf_counter() - start
    facts["setup_s"] += import_s
    facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts["machine"] = machine(symkry)
    if tracer is not None:
        steps = sum(s["steps"] for s in facts["sections"])
        fp_iters = sum(s["fp_iters"] for s in facts["sections"])
        facts["layers"] = tracer.layer_metrics(steps, fp_iters)
        facts["step_s"] = tracer.step_durations()
        facts["absent"] = tracer.patches.absent
        if args.spans:
            tracer.write_jsonl(args.spans)
    Path(args.result).write_text(json.dumps(facts), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
