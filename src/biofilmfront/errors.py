"""Exception types with stable machine-readable error codes.

Every failure raised by this package carries a ``code`` attribute (a short
upper-case token such as ``"ZERO_PIVOT"``) so that callers and command-line
wrappers can branch on failure class without parsing message text.  There
are three families:

- :class:`ValidationError`: bad input, raised where it enters the package;
  :class:`ConfigError` and :class:`InvalidProblem` are its subclasses;
- the step errors, which :func:`biofilmfront.run_simulation` classifies as
  the run's outcome: :class:`AssemblyError`, :class:`LinearSolveError`,
  :class:`ThicknessCollapse`, :class:`PicardDivergence`, and a
  ``ValidationError`` ``NONFINITE`` for a value that a step computed;
- :class:`OutputError`: run outputs that cannot be written.
"""

from __future__ import annotations

import copyreg


class SolverError(Exception):
    """Base class for all package errors.

    Parameters
    ----------
    message : str
        Human-readable description.
    code : str
        Stable machine-readable token identifying the failure class.
    """

    def __init__(self, message: str, *, code: str = "ERROR"):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # rebuilt without ``__init__``, whose signature varies by subclass, so
        # an error raised in a worker process reaches the parent whole
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(SolverError):
    """Invalid model data or parameters (nonpositive rates, shape mismatch...)."""


class InvalidProblem(ValidationError):
    """Problem data that :func:`biofilmfront.validate_problem` rejected.  The
    message names every violation; the code is the first one's.

    Attributes
    ----------
    report : ValidationReport
        The full report, warnings included.
    """

    def __init__(self, report):
        super().__init__(
            "invalid problem data: "
            + "; ".join(f"{code}: {msg}" for code, msg in report.violations),
            code=report.violations[0][0],
        )
        self.report = report


class AssemblyError(SolverError):
    """Tridiagonal assembly rejected (loss of diagonal dominance / M-matrix sign)."""


class LinearSolveError(SolverError):
    """Tridiagonal elimination hit a zero pivot or produced non-finite values."""


class ThicknessCollapse(SolverError):
    """Film thickness fell to the washout floor during a boundary update.

    Attributes
    ----------
    thickness : float
        The offending thickness value.
    """

    def __init__(self, message: str, *, thickness: float):
        super().__init__(message, code="THICKNESS_COLLAPSE")
        self.thickness = thickness


class PicardDivergence(SolverError):
    """Per-step fixed-point iteration failed to contract.

    Attributes
    ----------
    residual_history : list[float]
        Sup-norm residuals of every sweep performed before giving up.
    """

    def __init__(self, message: str, *, residual_history):
        super().__init__(message, code="PICARD_DIVERGED")
        self.residual_history = list(residual_history)


class ConfigError(ValidationError):
    """Bad configuration: codes PARSE_ERROR, UNKNOWN_KEY, SCHEMA_VIOLATION."""


class OutputError(SolverError):
    """Filesystem failure while writing run outputs."""

    def __init__(self, message: str):
        super().__init__(message, code="IO_ERROR")

