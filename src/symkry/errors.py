"""Exception types shared across the package (README: "Errors and exit codes")."""


class NumericalError(ValueError):
    """A dense kernel or metric met a non-finite or overflowing value.  The
    step, the dense oracle and ``integrate`` convert it to their typed
    failures; any other ValueError is a bug and propagates as itself."""


class StepFailureError(RuntimeError):
    """A single integrator step could not be completed.

    Carries optional context in ``residual`` (last fixed-point residual,
    breakdown remainder norm, ...).
    """

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class DegeneratePairError(StepFailureError):
    """Raised when a symplectic extension cannot pair the new vector."""


class IntegrationAborted(RuntimeError):
    """A trajectory was aborted mid-run; ``summary`` holds the partial result."""

    def __init__(self, msg, summary=None):
        super().__init__(msg)
        self.summary = summary


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


class ReferenceFailureError(ValueError):
    """The reference oracle reached a non-finite state (maps to CLI exit code 3)."""
