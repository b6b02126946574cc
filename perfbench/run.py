"""symkry benchmark: end-to-end metrics per workload, or a traced per-layer
breakdown.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload run is a fresh interpreter
(``worker.py``) that imports symkry from ``src/`` and runs the workload's
preset sections one after another (a closed loop); this script starts
such runs one at a time until S seconds have passed (at least
``MIN_RUNS``), checks every output, and prints the medians.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs and prints the per-layer metrics,
writing them and the spans of the first traced run to ``.perfbench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS, percentile
from workloads import WORKLOADS, expected_echo_tokens, expected_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CSV_COLUMNS = "step,t,rel_energy_error,sol_error,basis_dim,fp_iters"

# BLAS/OpenMP threads for every workload run.  One thread: the only large
# BLAS call is the dense oracle of wave-dense, and a second thread there
# both changes its time (about 2.7 s at 1 thread, 1.5 s at 2) and makes it
# depend on what else the two cores are doing.
BLAS_THREADS = 1
MIN_RUNS = 3
# A run must end within 180 s; no workload run is started after this.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ms_per_step": "ms",
    "matvecs_per_step": "count",
    "energy_digits": "digits",
    "sol_digits": "digits",
    "peak_rss_mb": "MB",
}


def machine_line(facts):
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "?")
    except OSError:
        pass
    m = facts["machine"]
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} platform={platform.machine()} "
            f"python={m['python']} numpy={m['numpy']} blas={m['blas']!r} "
            f"blas_threads={BLAS_THREADS} symkry={m['symkry']}")


def start_run(workload, seed, traced, work, spans=""):
    """One workload run in a fresh interpreter; its facts, or None."""
    out_dir = Path(tempfile.mkdtemp(prefix="csv-", dir=work))
    result = out_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out-dir", str(out_dir), "--result", str(result)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"workload run killed after {DEADLINE_S:.0f} s\n")
        return None
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(f"workload run exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    facts = json.loads(result.read_text(encoding="ascii"))
    facts["traced"] = traced
    shutil.rmtree(out_dir)
    return facts


def section_problems(workload_name, seed, section):
    """Reasons a section fails its correctness gate (empty when it passes)."""
    workload = WORKLOADS[workload_name]
    if section["error"]:
        return [section["error"]]
    if "sha256" not in section:
        return ["no CSV written"]
    problems = []
    header = section["header"]
    if not header.startswith("# symkry "):
        problems.append(f"bad header {header!r}")
    missing = [t for t in expected_echo_tokens(workload_name, seed, section["name"])
               if t not in header.split()]
    if missing:
        problems.append(f"header lacks {missing}")
    if section["columns"] != CSV_COLUMNS:
        problems.append(f"bad column line {section['columns']!r}")
    if section["rows"] != expected_rows(workload_name):
        problems.append(f"{section['rows']} rows, expected {expected_rows(workload_name)}")
    if not section["max_ree"] <= workload.energy_floor:
        problems.append(f"max energy error {section['max_ree']:.3e} > {workload.energy_floor:g}")
    if not section["final_sol"] <= workload.sol_floor:
        problems.append(f"final solution error {section['final_sol']:.3e} > {workload.sol_floor:g}")
    if workload.bounded_energy and not section["final_ree"] <= 2.0 * section["half_max_ree"]:
        problems.append(f"final energy error {section['final_ree']:.3e} > 2 x first-half "
                        f"maximum {section['half_max_ree']:.3e}")
    return problems


def judge(workload_name, seed, runs):
    """Failed sections (gate misses and CSVs that differ between runs)."""
    failed = 0
    digests = {}
    for i, facts in enumerate(runs):
        for section in facts["sections"]:
            problems = section_problems(workload_name, seed, section)
            first = digests.setdefault(section["name"], section.get("sha256"))
            if section.get("sha256") != first:
                kind = "traced" if facts["traced"] else "untraced"
                problems.append(f"CSV differs from the first run's ({kind} run {i})")
            if problems:
                failed += 1
                print(f"FAILED {workload_name} seed {seed} run {i} [{section['name']}]: "
                      + "; ".join(problems))
    return failed


def digits(error):
    return -math.log10(max(error, 1e-300))


def end_to_end(runs):
    """Median over runs of each end-to-end metric."""
    values = {name: [] for name in END_TO_END}
    for facts in runs:
        sections = [s for s in facts["sections"] if "sha256" in s and not s["error"]]
        steps = sum(s["steps"] for s in facts["sections"])
        values["setup_s"].append(facts["setup_s"])
        values["wall_s"].append(facts["wall_s"])
        values["ms_per_step"].append(1e3 * sum(s["integrate_s"] for s in facts["sections"])
                                     / max(steps, 1))
        values["matvecs_per_step"].append(sum(s["matvecs"] for s in facts["sections"])
                                          / max(steps, 1))
        values["energy_digits"].append(min((digits(s["max_ree"]) for s in sections),
                                           default=0.0))
        values["sol_digits"].append(min((digits(s["final_sol"]) for s in sections),
                                        default=0.0))
        values["peak_rss_mb"].append(facts["peak_rss_mb"])
    return {name: statistics.median(v) for name, v in values.items()}


def per_layer(untraced, traced):
    """Median over traced runs of each layer metric; step percentiles pool
    the step times of every traced run."""
    layers = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    steps = [s for t in traced for s in t["step_s"]]
    layers["integrators.step.p50_ms"] = 1e3 * percentile(steps, 50) if steps else 0.0
    layers["integrators.step.p99_ms"] = 1e3 * percentile(steps, 99) if steps else 0.0
    layers["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                     / statistics.median(u["wall_s"] for u in untraced) - 1.0)
    return layers, len(steps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symkry" / "__init__.py").is_file():
        print(f"perfbench: no symkry sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    work = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=out)
    runs, crashed = [], 0
    started = time.perf_counter()
    try:
        last = 0.0
        while True:
            # stop before a run that would end after --seconds, once the
            # minimum number of runs is in
            elapsed = time.perf_counter() - started
            enough = len(runs) + crashed >= (2 * MIN_RUNS if args.trace else MIN_RUNS)
            if (enough and elapsed + last > args.seconds) or elapsed + 1.5 * last > DEADLINE_S:
                break
            traced = bool(args.trace) and len(runs) % 2 == 1
            first_traced = traced and not any(r["traced"] for r in runs)
            begin = time.perf_counter()
            facts = start_run(args.workload, args.seed, traced, work,
                              f"{stem}-spans.jsonl" if first_traced else "")
            last = time.perf_counter() - begin
            if facts is None:
                crashed += 1
                if crashed >= MIN_RUNS:
                    break
            else:
                runs.append(facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no workload run completed", file=sys.stderr)
        return 1

    n_sections = len(WORKLOADS[args.workload].sections)
    attempted = n_sections * (len(runs) + crashed)
    failed = judge(args.workload, args.seed, runs) + n_sections * crashed

    print(machine_line(runs[0]))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced runs in {time.perf_counter() - started:.1f} s")
    if args.trace:
        values, n_steps = per_layer(untraced, traced)
        units = LAYER_METRICS
        absent = sorted({name for t in traced for name in t["absent"]})
        print(f"step percentiles over {n_steps} steps; absent layer functions: "
              f"{', '.join(absent) or 'none'}")
        Path(f"{stem}-layers.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "absent": absent,
                        "metrics": values}, indent=1) + "\n", encoding="ascii")
    else:
        values, units = end_to_end(untraced), END_TO_END
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(f"failed/attempted: {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
