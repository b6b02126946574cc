"""Layer tracing from outside the package.

``Patches`` swaps attributes of symkry's modules, classes and objects for
wrappers and puts the originals back.  ``Tracer`` records one span per
wrapped call (name, start, end, parent span, run id) plus counters taken
at the same boundaries, keeps them in memory, and turns them into the
per-layer metrics listed in ``LAYER_METRICS``.  Nothing under ``src/`` is
changed: the wrappers sit on the public names each layer calls through.
"""

import functools
import json
import time
from collections import Counter, defaultdict

# name -> unit of every per-layer metric a traced run reports
LAYER_METRICS = {
    "problems.f.calls": "count",
    "problems.f.self_s": "s",
    "problems.jvp.calls": "count",
    "problems.jvp.self_s": "s",
    "problems.energy.calls": "count",
    "problems.energy.self_s": "s",
    "problems.laplacian.calls": "count",
    "problems.laplacian.self_s": "s",
    "krylov.build.calls": "count",
    "krylov.build.self_s": "s",
    "krylov.build.attempts": "count",
    "krylov.build.useful_ratio": "ratio",
    "krylov.breakdowns": "count",
    "krylov.extend.calls": "count",
    "krylov.extend.self_s": "s",
    "krylov.matvecs": "count",
    "matfun.expm.calls": "count",
    "matfun.expm.self_s": "s",
    "matfun.expm.cubic_work": "m3",
    "matfun.phi1.calls": "count",
    "matfun.phi1.self_s": "s",
    "core.left_apply.calls": "count",
    "core.left_apply.self_s": "s",
    "integrators.step.calls": "count",
    "integrators.step.self_s": "s",
    "integrators.step.p50_ms": "ms",
    "integrators.step.p99_ms": "ms",
    "integrators.fp_iters_per_step": "count",
    "integrators.integrate.self_s": "s",
    "harness.reference.s": "s",
    "harness.reference.self_s": "s",
    "harness.metrics.self_s": "s",
    "harness.csv.s": "s",
    "harness.run.self_s": "s",
    "trace.overhead_frac": "ratio",
}

STEP_FUNCTIONS = ("step_ee", "step_eemp", "step_iemp")


class Patches:
    """Attribute swaps that can all be undone, newest first.

    A target that no longer exists is recorded in ``absent`` as
    ``"<owner>.<attr>"`` and skipped, so a renamed kernel shows up in the
    report instead of stopping the run.
    """

    def __init__(self):
        self.absent = []
        self._undo = []

    def swap(self, owner, attr, make_wrapper, label):
        if owner is None or not hasattr(owner, attr):
            self.absent.append(label)
            return
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make_wrapper(original))

    def undo(self):
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [span_id, parent_id, name, start, end]
        self.counts = Counter()
        self.patches = Patches()
        self._open = [None]

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recorded as a span ``name``; ``before(args)`` and
        ``after(result)`` update counters at the same boundary."""
        spans, opened, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [len(spans), opened[-1], name, 0.0, 0.0]
            spans.append(record)
            opened.append(record[0])
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                opened.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def span(self, path, name, before=None, after=None, root=None):
        """Record calls of ``root``'s attribute at the dotted ``path`` as spans."""
        owner, attr = _resolve(root, path)
        self.patches.swap(owner, attr, lambda fn: self.wrap(fn, name, before, after), path)

    def count(self, path, key, root):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        self.patches.swap(*_resolve(root, path), make, path)

    def install(self, symkry):
        """Wrap every layer boundary of an imported ``symkry`` package."""
        def cubic(args):
            m = getattr(args[0], "shape", (0,))[0]
            self.counts["matfun.expm.cubic_work"] += m ** 3

        def span(path, name, **hooks):
            self.span(path, name, root=symkry, **hooks)

        span("harness.run", "harness.run")
        span("harness.build_problem", "problems.build", after=self.trace_system)
        span("harness.reference_solution", "harness.reference")
        span("harness.relative_energy_error", "harness.metrics")
        span("harness.solution_error", "harness.metrics")
        span("harness.MetricsSeries.write", "harness.csv")
        span("harness.integrate", "integrators.integrate")
        for module in ("harness", "integrators", "matfun"):
            span(f"{module}.expm", "matfun.expm", before=cubic)
        span("integrators.phi1", "matfun.phi1")
        for fn in STEP_FUNCTIONS:
            span(f"integrators.{fn}", f"integrators.{fn}")
        span("integrators.build_basis", "krylov.build")
        self.patches.swap(*_resolve(symkry, "integrators.BASIS_PROCESSES"),
                          self._count_attempts, "integrators.BASIS_PROCESSES")
        span("integrators.extend_basis_orthogonal", "krylov.extend")
        span("integrators.extend_basis_symplectic", "krylov.extend")
        self.count("krylov.CountingAction.apply", "krylov.matvecs", symkry)
        span("core.BasisMatrix.left_apply", "core.left_apply")
        span("problems.DiscreteLaplacian.apply", "problems.laplacian")

    def _count_attempts(self, processes):
        def attempt(process):
            def counted(*args, **kwargs):
                outcome = process(*args, **kwargs)
                self.counts["krylov.build.attempts"] += 1
                if getattr(outcome, "terminated", None) == "breakdown":
                    self.counts["krylov.breakdowns"] += 1
                return outcome
            return counted
        return {name: (attempt(process), mult) for name, (process, mult) in processes.items()}

    def trace_system(self, system):
        """Wrap the bound methods of a freshly built problem instance."""
        for attr in ("f", "jvp", "energy"):
            self.span(attr, f"problems.{attr}", root=system)

    def uninstall(self):
        self.patches.undo()

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": self.run_id}) + "\n")

    def layer_metrics(self, steps, fp_iters):
        """Per-layer metrics except the step percentiles and the overhead,
        which the caller pools over runs; ``steps`` and ``fp_iters`` come
        from the trajectory summaries."""
        calls, self_s, total_s = aggregate(self.spans)
        step_names = [f"integrators.{fn}" for fn in STEP_FUNCTIONS]
        out = {}
        for layer in ("problems.f", "problems.jvp", "problems.energy", "problems.laplacian",
                      "krylov.build", "krylov.extend", "matfun.expm", "matfun.phi1",
                      "core.left_apply"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        attempts = self.counts["krylov.build.attempts"]
        out["krylov.build.attempts"] = attempts
        out["krylov.build.useful_ratio"] = calls["krylov.build"] / attempts if attempts else 0.0
        out["krylov.breakdowns"] = self.counts["krylov.breakdowns"]
        out["krylov.matvecs"] = self.counts["krylov.matvecs"]
        out["matfun.expm.cubic_work"] = self.counts["matfun.expm.cubic_work"]
        out["integrators.step.calls"] = len(self.step_durations())
        out["integrators.step.self_s"] = sum(self_s[n] for n in step_names)
        out["integrators.fp_iters_per_step"] = fp_iters / steps if steps else 0.0
        out["integrators.integrate.self_s"] = self_s["integrators.integrate"]
        out["harness.reference.s"] = total_s["harness.reference"]
        out["harness.reference.self_s"] = self_s["harness.reference"]
        out["harness.metrics.self_s"] = self_s["harness.metrics"]
        out["harness.csv.s"] = total_s["harness.csv"]
        out["harness.run.self_s"] = self_s["harness.run"]
        return out

    def step_durations(self):
        """Durations in seconds of the outermost step calls: a step nested in
        another step (IEMP's exponential Euler predictor) is part of it."""
        names = {f"integrators.{fn}" for fn in STEP_FUNCTIONS}
        by_id = {s[0]: s for s in self.spans}
        return [end - start for _, parent, name, start, end in self.spans
                if name in names and (parent is None or by_id[parent][2] not in names)]


def _resolve(root, path):
    """(owner, attribute name) of a dotted path below ``root``; the owner is
    None when a part of the path no longer exists."""
    *parents, attr = path.split(".")
    owner = root
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


def self_times(spans):
    """Self time of each span: its duration minus the time its children
    cover.  Spans on one thread nest, so the children never overlap."""
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[span_id] for span_id, _, _, start, end in spans]


def aggregate(spans):
    """Calls, summed self time and summed duration per span name."""
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[2]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += span[4] - span[3]
    return calls, self_s, total_s


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a nonempty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]
