"""Exception types shared across the package, its numeric defaults and their check.

The defaults and ``check_tolerances`` live here, beside ``ConvergenceError``,
because the CLI parser needs them and this module loads without numpy;
``spectral.DEFAULT_TOL`` and ``verify.DEFAULT_MARGIN`` are the same objects.
"""

import math

DEFAULT_TOL = 1e-10  # eigensolver residual tolerance
DEFAULT_MARGIN = 1e-8  # threshold comparison margin


class GraphInputError(ValueError):
    """Invalid argument to a graph operation (bad vertex, self-loop, bad parameter)."""


def check_tolerances(tol: float, margin: float | None = None) -> None:
    """Refuse a tolerance or margin that would void a certificate or verdict."""
    if not 0 < tol < math.inf:
        raise GraphInputError("tolerance must be positive and finite")
    if margin is not None and not tol <= margin < math.inf:
        raise GraphInputError("margin must be finite and at least the tolerance")


class Graph6ParseError(GraphInputError):
    """Malformed graph6 input.  Carries the byte offset of the defect, and
    as ``index`` the list position of its line when a list was decoded."""

    index: int | None = None

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)  # args as given, so it pickles
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


class DomainError(GraphInputError):
    """A formula was evaluated outside its valid parameter range."""


class CapacityError(GraphInputError):
    """Input exceeds the configured cap of an exact search."""


class ConvergenceError(RuntimeError):
    """Eigensolver could not certify its eigenpair.

    Raised when the residual certificate still fails after the allowed
    inverse-iteration solves, or when a solve breaks down.  Carries the
    eigenvalue, the last residual, the number of solves and the index of
    the failing member in the solved stack.
    """

    def __init__(self, message: str, radius: float, residual: float, iterations: int,
                 member: int = 0):
        super().__init__(message, radius, residual, iterations, member)  # so it pickles
        self.radius = radius
        self.residual = residual
        self.iterations = iterations
        self.member = member

    def __str__(self) -> str:
        return self.args[0]

