"""Exception classes shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and stable: ParseError -> 2, ConvergenceError -> 3, ContractViolation -> 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class ParseError(ValueError):
    """Malformed input file (edge list, subset, ranked list, table)."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the tolerance within max_iter.

    Carries the last iterate so callers can inspect or resume, and in sweep
    the smaller damping factors that converged alongside it (RankVector.sweep).
    """

    def __init__(
        self, message: str, iterate: np.ndarray, residual: float, iterations: int, sweep=()
    ):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations
        self.sweep = dict(sweep)


class ContractViolation(ValueError):
    """An input violates a documented precondition (not a parse problem)."""
