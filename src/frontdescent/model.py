"""Problem abstraction and evaluation bookkeeping.

A problem is a smooth unconstrained vector objective F: R^n -> R^m with an
analytic Jacobian, optional per-objective Hessians, and a sampling box used
only to generate starting points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "EvalCounters",
    "ProblemDefinition",
    "evaluate",
    "jacobian",
    "hessians",
    "gradient_check",
]


class EvaluationError(RuntimeError):
    """Raised when an evaluator returns a non-finite value."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass
class EvalCounters:
    """Per-run evaluation counts; updated only by the owning run."""

    objective_evals: int = 0
    jacobian_evals: int = 0
    hessian_evals: int = 0

    def as_dict(self) -> dict:
        return {
            "objective_evals": self.objective_evals,
            "jacobian_evals": self.jacobian_evals,
            "hessian_evals": self.hessian_evals,
        }


@dataclass(frozen=True)
class ProblemDefinition:
    """Smooth vector objective with analytic first derivatives.

    ``objective(x)`` returns the m objective values, ``jacobian(x)`` the m x n
    matrix whose rows are the objective gradients. ``hessians(x)``, when
    present, returns a list of m symmetric n x n matrices. ``lower``/``upper``
    bound the sampling box for starting-point generation only; the
    optimization itself is unconstrained.
    """

    name: str
    n: int
    m: int
    objective: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    hessians: Optional[Callable[[np.ndarray], list]] = None
    convex: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (self.n,) or upper.shape != (self.n,):
            raise ValueError("sampling box bounds must have length n")
        if not np.all(lower < upper):
            raise ValueError("sampling box requires lower < upper componentwise")


def _check_finite_vector(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        idx = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(f"non-finite {what} at index {idx}", index=idx)


def evaluate(
    problem: ProblemDefinition,
    x: np.ndarray,
    counters: Optional[EvalCounters] = None,
) -> np.ndarray:
    """Evaluate F(x), checking finiteness of input and output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    _check_finite_vector(x, "input coordinate")
    fx = np.asarray(problem.objective(x), dtype=float)
    if counters is not None:
        counters.objective_evals += 1
    if fx.shape != (problem.m,):
        raise EvaluationError(f"objective returned shape {fx.shape}, expected ({problem.m},)")
    _check_finite_vector(fx, "objective value")
    return fx


def jacobian(
    problem: ProblemDefinition,
    x: np.ndarray,
    counters: Optional[EvalCounters] = None,
) -> np.ndarray:
    """Evaluate the m x n Jacobian of F at x; row j is the gradient of f_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    _check_finite_vector(x, "input coordinate")
    J = np.asarray(problem.jacobian(x), dtype=float)
    if counters is not None:
        counters.jacobian_evals += 1
    if J.shape != (problem.m, problem.n):
        raise EvaluationError(
            f"jacobian returned shape {J.shape}, expected ({problem.m}, {problem.n})"
        )
    _check_finite_vector(J.ravel(), "jacobian entry")
    return J


def hessians(
    problem: ProblemDefinition,
    x: np.ndarray,
    counters: Optional[EvalCounters] = None,
    fd_step: float = 1e-5,
) -> list:
    """Per-objective Hessians at x.

    Uses the analytic evaluators when provided, otherwise central differences
    of the Jacobian rows with step ``fd_step``, whose 2n Jacobian evaluations
    are counted and checked like any other. Results are symmetrized.
    """
    x = np.asarray(x, dtype=float)
    if problem.hessians is not None:
        H = [np.asarray(h, dtype=float) for h in problem.hessians(x)]
    else:
        n = problem.n
        cols = np.empty((n, problem.m, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = fd_step
            cols[i] = (
                jacobian(problem, x + e, counters) - jacobian(problem, x - e, counters)
            ) / (2.0 * fd_step)
        H = [cols[:, j, :].T for j in range(problem.m)]
    if counters is not None:
        counters.hessian_evals += 1
    return [0.5 * (h + h.T) for h in H]


def gradient_check(problem: ProblemDefinition, x: np.ndarray, h: float = 1e-6) -> float:
    """Max relative deviation between analytic and central-difference gradients.

    Relative to max(1, |central difference|) per entry, so exact zeros do not
    blow up the ratio.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=float)
    J = np.asarray(problem.jacobian(x), dtype=float)
    worst = 0.0
    for i in range(problem.n):
        e = np.zeros(problem.n)
        e[i] = h
        fd = (problem.objective(x + e) - problem.objective(x - e)) / (2.0 * h)
        denom = np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(np.max(np.abs(J[:, i] - fd) / denom)))
    return worst
