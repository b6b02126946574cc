"""Experiment runner: configs, reference oracles, metrics, CSV output.

A run is described declaratively (problem, method, basis process, basis
dimension, horizon, step count), integrated with the configured stepper,
and measured against a reference trajectory (``reference_solution``):
``dense``, the exact flow x0 + t phi(tA) f(x0) of a linear system
(refused above dimension DENSE_REFERENCE_LIMIT = 2000), or ``fine``,
classical RK4 at the main step divided by a refinement factor (default
100).

Each recorded row holds (step, t, relative energy error, solution error,
achieved basis dimension, fixed-point iterations).  Output is plain CSV
with one comment header line echoing the full configuration; identical
configuration and seed give byte-identical files.

An ``ExperimentConfig`` is checked when it is made and keeps the system
and stepper it built, so a run builds its problem once.  A reference to
compute runs beside the integration, in one forked child that writes
each state into its row of a shared anonymous mapping as soon as it is
computed (``_Beside``); the parent takes each record's solution error
once its row is in and drops that state.  Where the platform has no
``os.fork`` or the mapping, the pipe or the fork fails, it is computed
inline first.  Either way the CSV is the same.
"""

import mmap
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .core import _is_int, _norm
from .errors import ConfigError, IntegrationAborted, ReferenceFailureError, StepFailureError
from .integrators import StepperConfig, integrate
from .matfun import _phi_second_order, _second_order_sign, pade_flow
from .problems import build_problem

CSV_COLUMNS = "step,t,rel_energy_error,sol_error,basis_dim,fp_iters"
DENSE_REFERENCE_LIMIT = 2000
# a run aborts once the state norm exceeds this multiple of ||x0||
DIVERGENCE_FACTOR = 1e6

# run()'s one-entry memo {key: the last finished reference oracle}: consecutive
# runs that share a problem and a grid (preset sections) compute it once
_reference_memo = {}


def _fmt(value):
    return format(float(value), ".17g")


def relative_energy_error(system, x_t, x0):
    """|H(x_t) - H(x0)| / max(|H(x0)|, floor) with a 1e-300 denominator guard."""
    h_t = system.energy(x_t)
    h_0 = system.energy(x0)
    if not (np.isfinite(h_t) and np.isfinite(h_0)):
        raise ValueError("non-finite energy encountered")
    return abs(h_t - h_0) / max(abs(h_0), 1e-300)


def solution_error(x_t, ref_t):
    """Relative 2-norm error ||x - ref|| / ||ref||."""
    x_t = np.asarray(x_t, dtype=float)
    ref_t = np.asarray(ref_t, dtype=float)
    if x_t.shape != ref_t.shape:
        raise ValueError("state and reference have different shapes")
    return float(np.linalg.norm(x_t - ref_t) / max(np.linalg.norm(ref_t), 1e-300))


def _rk4_step(f, x, h):
    """One classical RK4 step, x + (h/6)(k1 + 2 k2 + 2 k3 + k4), with the
    stage points and the sum formed in arrays the step allocates, each
    operation in the formula's order, so the bits are the formula's.  No
    array is written after f has seen it, and none that f returned is
    written at all."""
    k1 = f(x)
    y = np.multiply(k1, 0.5 * h)
    y += x
    k2 = f(y)
    total = np.multiply(k2, 2.0)
    total += k1
    y = np.multiply(k2, 0.5 * h)
    y += x
    k3 = f(y)
    y = np.multiply(k3, 2.0)
    total += y
    np.multiply(k3, h, out=y)
    y += x
    k4 = f(y)
    total += k4
    total *= h / 6.0
    total += x
    return total


def _check_reference(system, mode, factor):
    """Refuse, as a ConfigError, a reference the oracle cannot give: an
    unknown mode, a refinement factor that is not an integer >= 1, and the
    dense oracle for a nonlinear system or one above DENSE_REFERENCE_LIMIT."""
    if mode not in ("dense", "fine"):
        raise ConfigError(f"reference must be 'dense' or 'fine', got {mode!r}")
    if not _is_int(factor) or factor < 1:
        raise ConfigError(f"reference factor must be an integer of at least 1, got {factor!r}")
    if mode == "dense" and not system.is_linear:
        raise ConfigError("dense reference requires a linear system")
    if mode == "dense" and system.dim > DENSE_REFERENCE_LIMIT:
        raise ConfigError(
            f"dense reference refused for dimension {system.dim} > {DENSE_REFERENCE_LIMIT}")


def reference_solution(system, x0, t_grid, mode="fine", factor=100):
    """Reference states at the given times, one row per time, written in
    grid order through ``_reference_rows``.  mode "dense": densify the
    affine system x' = A x + c (A the dense Jacobian at x0, c = f(0)),
    exact for linear systems.  When A in (p, q) order is exactly [[0, K],
    [delta I, 0]] with K symmetric (``matfun._second_order_sign``; q' = p,
    p' = K q + b, a constant in q' included), each state is x0 + t phi(tA)
    (A x0 + c), t its time from the first, from one ``eigh`` of K for the
    whole grid (``matfun._phi_second_order``, ``phi_apply``'s closed form
    for Hamiltonian Lanczos matrices); otherwise the states are propagated
    with one ``expm`` of [[dt A, dt c], [0, 0]] (``matfun.pade_flow``) per
    grid interval length, to 12 significant digits.  mode "fine":
    classical RK4 with ``factor`` micro steps per grid interval, each of
    length interval/factor.  A state whose norm overflows (a non-finite
    one included), and a closed form or an interval exponential that
    overflows, are a ReferenceFailureError, with no numpy warning.  A time
    grid that is not finite and strictly increasing is a ValueError, and
    ``_check_reference`` refuses bad arguments, before any work, on a
    one-point grid too."""
    x0 = np.asarray(x0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if not (np.diff(t_grid) > 0).all():
        raise ValueError("t_grid must be strictly increasing")
    _check_reference(system, mode, factor)
    states = np.empty((t_grid.size, x0.size))
    deque(_reference_rows(system, x0, t_grid, mode, factor, states), maxlen=0)
    return states


def _reference_rows(system, x0, t_grid, mode, factor, states):
    """Write the state at each time of ``t_grid`` into its row of ``states``
    (checked arguments, see ``reference_solution``) and yield once per row
    written, as it is written (in closed form, once all are)."""
    states[0] = x0
    yield
    x, cache, delta = x0, {}, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "dense" and t_grid.size > 1:
            A = system.jacobian_dense(x0)
            c = system.f(np.zeros(system.dim))
            n = system.dim // 2
            # in (p, q) order, q' = p, p' = K q + b reads [[0, K], [I, 0]]
            M = np.roll(A, n, axis=(0, 1))
            delta = _second_order_sign(M)
            if delta:  # x0 + t phi(tA) (A x0 + c), one column per time
                times = (t_grid[1:] - t_grid[0])[:, None]
                fx = np.roll(A @ x0 + c, n)
                try:
                    Y = _phi_second_order(M, fx, times, delta)
                except ValueError as exc:  # the flow overflowed, or A is not finite
                    raise ReferenceFailureError(f"dense reference overflowed: {exc}") from exc
                np.add(x0, np.roll(Y.T, n, axis=1), out=states[1:])
        for i in range(1, t_grid.size):
            dt = t_grid[i] - t_grid[i - 1]
            if delta:
                x = states[i]
            elif mode == "fine":
                micro = dt / factor
                for _ in range(factor):
                    x = _rk4_step(system.f, x, micro)
            else:
                key = f"{dt:.11e}"  # 12 significant digits, whatever dt's size
                try:
                    if key not in cache:
                        cache[key] = pade_flow(A, c, dt)
                except ValueError as exc:  # the interval's exponential overflowed
                    raise ReferenceFailureError(
                        f"dense reference overflowed by t={t_grid[i]:.6g}: {exc}") from exc
                prop, shift = cache[key]
                x = prop @ x + shift
            if not np.isfinite(x @ x):
                why = f": RK4 is unstable at its micro step {micro:.3g}" if mode == "fine" else ""
                raise ReferenceFailureError(
                    f"{mode} reference overflowed by t={t_grid[i]:.6g}{why}")
            states[i] = x
            yield


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, declared (see module docstring); making it checks the whole
    run and keeps its ``system`` and ``stepper``.  Every refusal is a ConfigError: a bad problem or
    parameter (``build_problem``), field, output path or stepper setting, a
    step or record count that is not an integer of at least 1, a horizon
    that is not positive and finite, a seed that is not a nonnegative
    integer, ``basis_dim`` above the system dimension, and a reference the
    oracle cannot give (``_check_reference``)."""

    problem: str = "linear-wave"
    problem_params: dict = field(default_factory=dict)
    method: str = "EE"
    basis: str = "arnoldi"
    basis_dim: int = 8
    t_final: float = 1.0
    n_steps: int = 100
    record_every: int = 1
    reference: str = "fine"
    ref_factor: int = 100
    output: str = ""
    seed: int = 0
    system: object = field(init=False, repr=False, compare=False)
    stepper: StepperConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        system = build_problem(self.problem, **self.problem_params)
        for name in ("n_steps", "record_every"):
            count = getattr(self, name)
            if not _is_int(count) or count < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, got {count!r}")
        if not 0 < self.t_final < np.inf:
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        _check_reference(system, self.reference, self.ref_factor)
        if self.output and not os.path.isdir(os.path.dirname(self.output) or "."):
            raise ConfigError(f"the output directory of {self.output!r} does not exist")
        if os.path.isdir(self.output):
            raise ConfigError(f"the output path {self.output!r} is a directory")
        stepper = StepperConfig(method=self.method, basis_process=self.basis,
                                basis_dim=self.basis_dim, step_size=self.t_final / self.n_steps)
        stepper.check_fits(system)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "stepper", stepper)

    def echo(self):
        """Deterministic one-line summary for the CSV header."""
        parts = [f"problem={self.problem}"]
        for key in sorted(self.problem_params):
            parts.append(f"problem.{key}={self.problem_params[key]}")
        ref = self.reference if self.reference == "dense" else f"fine:{self.ref_factor}"
        parts += [
            f"method={self.method.upper()}",
            f"basis={self.basis}",
            f"basis_dim={self.basis_dim}",
            f"t_final={_fmt(self.t_final)}",
            f"n_steps={self.n_steps}",
            f"record_every={self.record_every}",
            f"reference={ref}",
            f"seed={self.seed}",
        ]
        return " ".join(parts)


@dataclass
class MetricsSeries:
    """Recorded rows plus the configuration echo they were produced under."""

    config_echo: str
    rows: list = field(default_factory=list)

    def append(self, step, t, rel_energy_error, sol_error, basis_dim, fp_iters):
        self.rows.append((int(step), float(t), float(rel_energy_error),
                          float(sol_error), int(basis_dim), int(fp_iters)))

    def to_csv_text(self):
        lines = [f"# symkry {__version__} {self.config_echo}", CSV_COLUMNS]
        for step, t, ree, sol, dim, fp in self.rows:
            lines.append(f"{step},{_fmt(t)},{_fmt(ree)},{_fmt(sol)},{dim},{fp}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv_text())


@dataclass
class RunResult:
    series: MetricsSeries
    summary: object


def _send_rows(rows, fd):
    """Exhaust ``rows`` (``_reference_rows``) with one byte to the pipe ``fd``
    per row written, then ``=`` and the pickled outcome: the oracle's
    exception (a RuntimeError naming it if it cannot be pickled) or None."""
    error = None
    with open(fd, "wb") as pipe:
        try:
            for _ in rows:
                pipe.write(b"+")
                pipe.flush()
        except Exception as exc:  # every failure of the oracle is the parent's to raise
            error = exc
        try:
            data = pickle.dumps(error, pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)
        except Exception:  # whatever pickling raises, the parent gets the name and message
            data = pickle.dumps(RuntimeError(f"{type(error).__name__}: {error}"))
        pipe.write(b"=" + data)


class _Beside:
    """The reference ``states`` (``reference_solution``'s arguments),
    computed beside the caller: a child forked with them in one shared
    anonymous mapping and a pipe back sends their rows (``_send_rows``);
    inline, at once, where the platform has no ``os.fork`` or the mapping,
    the pipe or the fork raises OSError.  ``poll()`` returns how many
    leading rows are in, without blocking.  ``result()`` reads the pipe to
    its end, reaps the child, and returns the states, read-only, or raises
    the oracle's exception, with its type and message, and again when
    called again.  ``close()`` kills and reaps a child still there, which
    otherwise leaves with ``os._exit``, running no exit handler."""

    def __init__(self, system, x0, t_grid, mode, factor):
        self._pid, self._error, self._sent, self.ready = None, None, bytearray(), 0
        fds, shape = (), (t_grid.size, x0.size)
        try:
            self.states = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
            fds = read_fd, write_fd = os.pipe()
            self._pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or no memory, descriptor or process
            for fd in fds:
                os.close(fd)
            self.states = reference_solution(system, x0, t_grid, mode, factor)
            self.ready = len(self.states)
            return
        if self._pid == 0:
            try:
                os.close(read_fd)
                _send_rows(_reference_rows(system, x0, t_grid, mode, factor, self.states), write_fd)
            finally:
                os._exit(0)
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        self._pipe = open(read_fd, "rb", buffering=0)

    def poll(self):
        if self._pid is not None and self.ready < len(self.states):
            self._sent += self._pipe.read(1 << 16) or b""  # None: nothing new from the child
            end = self._sent.find(b"=", self.ready)
            self.ready = len(self._sent) if end < 0 else end
        return self.ready

    def result(self):
        if self._pid is not None:
            os.set_blocking(self._pipe.fileno(), True)
            with self._pipe:
                self._sent += self._pipe.read()
            _, status = os.waitpid(self._pid, 0)
            self._pid = None
            progress, _, outcome = self._sent.partition(b"=")
            self.ready = len(progress)
            self._error = pickle.loads(outcome) if outcome else ChildProcessError(
                f"the child ended with wait status {status} and sent no outcome")
        if self._error is not None:
            raise self._error
        self.states.flags.writeable = False
        return self.states

    def close(self):
        if self._pid is not None:
            import signal  # loaded only on this path: a child still to stop
            self._pipe.close()
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _start_reference(config):
    """Start computing the reference states at the recorded steps (``_Beside``)."""
    h, system = config.stepper.step_size, config.system
    t_grid = np.array([s * h for s in range(0, config.n_steps + 1, config.record_every)])
    return _Beside(system, system.initial_state, t_grid, config.reference,
                   config.ref_factor * config.record_every)


def run(config, quiet=False):
    """Execute one configured experiment; returns its RunResult.

    The oracle (``_Beside``) is the memo's when the previous run finished
    one for the same problem, grid and reference; else ``_start_reference``
    starts one and the memo is cleared.  The observer of ``integrate`` fails
    a step whose state norm exceeds DIVERGENCE_FACTOR * ||x0|| or whose
    recorded energy is not finite; at a recorded step it takes the solution
    error of every record whose row is in and drops that state.  The
    oracle's ``result()`` brings in the rest; the oracle goes to the memo
    and the CSV is written.  On a numerical failure the partial CSV is still
    flushed and the IntegrationAborted is re-raised with the partial
    ``series`` attached.  An oracle exception takes precedence over one from
    the integration, and a child is killed and reaped on every exit path.
    Unless ``quiet``, it prints the status and the last recorded row, named
    by its step.
    """
    wall_start = time.perf_counter()
    system, every = config.system, config.record_every
    x0 = system.initial_state
    key = (config.problem, tuple(sorted(config.problem_params.items())), config.reference,
           config.ref_factor, config.t_final, config.n_steps, every)
    oracle = _reference_memo.get(key)
    if oracle is None:
        _reference_memo.clear()
        oracle = _start_reference(config)
    guard = DIVERGENCE_FACTOR * max(np.linalg.norm(x0), 1e-300)
    series = MetricsSeries(config.echo())
    waiting = deque()  # (step, t, ree, basis_dim, fp_iters, state) of records without a row

    def match(ready):
        while waiting and waiting[0][0] // every < ready:
            step, t, ree, dim, fp, x = waiting.popleft()
            series.append(step, t, ree, solution_error(x, oracle.states[step // every]), dim, fp)

    def observer(step, t, res):
        if _norm(res.x_plus) > guard:
            raise StepFailureError("divergence guard tripped")
        if step % every:
            return
        try:
            ree = relative_energy_error(system, res.x_plus, x0)
        except ValueError as exc:
            raise StepFailureError(str(exc)) from exc
        waiting.append((step, t, ree, res.basis.n_columns if res.basis is not None else 0,
                        res.fp_iters, res.x_plus))
        match(oracle.poll())

    aborted_exc = None
    try:
        try:
            summary = integrate(system, config.stepper, x0, n_steps=config.n_steps,
                                observer=observer, rng=np.random.default_rng(config.seed))
        except IntegrationAborted as exc:
            summary, aborted_exc = exc.summary, exc
        except Exception:
            oracle.result()  # the oracle's exception takes precedence
            raise
        match(len(oracle.result()))
    finally:
        oracle.close()
    _reference_memo[key] = oracle
    if config.output:
        series.write(config.output)

    wall = time.perf_counter() - wall_start
    if not quiet:
        status = "FAILED" if aborted_exc is not None else "ok"
        last = series.rows[-1] if series.rows else ("-", 0.0, np.nan, np.nan)
        print(f"[{status}] {config.echo()}")
        print(f"  recorded step {last[0]} of {config.n_steps}: rel_energy_error={last[2]:.3e} "
              f"sol_error={last[3]:.3e} matvecs={summary.matvec_count} wall={wall:.2f}s")
        if aborted_exc is not None:
            print(f"  abort: {aborted_exc}")

    if aborted_exc is not None:
        aborted_exc.series = series
        raise aborted_exc
    return RunResult(series, summary)


# --- configuration files ---------------------------------------------------

# key -> (type, help): the config keys, and the flags ``symkry run`` makes of them
CONFIG_KEYS = {
    "problem": (str, "problem name (see list-problems)"),
    "method": (str, "EE, EEMP or IEMP"),
    "basis": (str, "arnoldi, symplectic-arnoldi, isotropic-arnoldi or hamiltonian-lanczos"),
    "basis_dim": (int, "total columns of the basis"),
    "t_final": (float, "integration horizon"),
    "steps": (int, "number of uniform steps"),
    "record_every": (int, "record metrics every k steps"),
    "output": (str, "CSV output path"),
    "seed": (int, "seed for breakdown-restart noise"),
    "reference": (str, "reference oracle: dense or fine[:factor]"),
}


def _normalize_key(key):
    """Keys are case-insensitive with '-' read as '_', except the parameter
    name after ``problem.`` (or ``problem_``), which keeps its case."""
    key = key.strip()
    if key[:8].lower().replace("-", "_") in ("problem.", "problem_"):
        return "problem." + key[8:]
    return key.lower().replace("-", "_")


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config_text(text):
    """Parse ``key = value`` lines with optional ``[section]`` headers.

    Returns a list of (section_name, mapping); keys appearing before the
    first section act as shared defaults for every section.
    """
    defaults = {}
    sections = []
    current_name, current = None, defaults
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            current = {}
            sections.append((current_name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        current[_normalize_key(key)] = value.strip()
    if not sections:
        sections = [("run", defaults)]
        defaults = {}
    return [(name, {**defaults, **mapping}) for name, mapping in sections]


def config_from_mapping(mapping):
    """An ExperimentConfig from flag-named keys, checked as it is made."""
    cfg_kwargs = {}
    params = {}
    for key, value in mapping.items():
        key = _normalize_key(key)
        if key.startswith("problem."):
            params[key[len("problem."):]] = _coerce(str(value))
        elif key in CONFIG_KEYS:
            cast, _ = CONFIG_KEYS[key]
            try:
                cfg_kwargs["n_steps" if key == "steps" else key] = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    reference = cfg_kwargs.pop("reference", "fine")
    if isinstance(reference, str) and reference.startswith("fine:"):
        factor = reference.split(":", 1)[1]
        try:
            cfg_kwargs["ref_factor"] = int(factor)
        except ValueError as exc:
            raise ConfigError(f"bad reference refinement factor {factor!r}") from exc
        reference = "fine"
    cfg_kwargs["reference"] = reference
    cfg_kwargs["problem_params"] = params
    return ExperimentConfig(**cfg_kwargs)
