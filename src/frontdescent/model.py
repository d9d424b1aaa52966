"""Problem abstraction and evaluation bookkeeping.

A problem is a smooth unconstrained vector objective F: R^n -> R^m with an
analytic Jacobian, optional per-objective Hessians, and a sampling box used
only to generate starting points.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "EvalCounters",
    "ProblemDefinition",
    "counted",
    "evaluate",
    "jacobian",
    "hessians",
    "gradient_check",
]

# central-difference step of the Hessian fallback
FD_HESSIAN_STEP = 1e-5


class EvaluationError(RuntimeError):
    """Raised when an evaluator returns a non-finite value."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass
class EvalCounters:
    """Per-run evaluation counts, kept through ``counted`` by the owning run."""

    objective_evals: int = 0
    jacobian_evals: int = 0
    hessian_evals: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ProblemDefinition:
    """Smooth vector objective with analytic first derivatives.

    ``objective(x)`` returns the m objective values, ``jacobian(x)`` the m x n
    matrix whose rows are the objective gradients. ``hessians(x)``, when
    present, returns m symmetric n x n matrices (a list or an (m, n, n)
    array). ``lower``/``upper`` bound the sampling box for starting-point
    generation only; the optimization itself is unconstrained.
    """

    name: str
    n: int
    m: int
    objective: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    hessians: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None

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


def counted(problem: ProblemDefinition, counters: EvalCounters) -> ProblemDefinition:
    """The problem with objective and Jacobian callables that add one to
    ``counters`` for each call that returns."""
    objective, jac = problem.objective, problem.jacobian

    def counted_objective(x):
        fx = objective(x)
        counters.objective_evals += 1
        return fx

    def counted_jacobian(x):
        J = jac(x)
        counters.jacobian_evals += 1
        return J

    return dataclasses.replace(problem, objective=counted_objective, jacobian=counted_jacobian)


def _check_finite_vector(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        idx = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(f"non-finite {what} at index {idx}", index=idx)


def evaluate(problem: ProblemDefinition, x: np.ndarray) -> np.ndarray:
    """Evaluate F(x), checking finiteness of input and output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    _check_finite_vector(x, "input coordinate")
    fx = np.asarray(problem.objective(x), dtype=float)
    if fx.shape != (problem.m,):
        raise EvaluationError(f"objective returned shape {fx.shape}, expected ({problem.m},)")
    _check_finite_vector(fx, "objective value")
    return fx


def jacobian(problem: ProblemDefinition, x: np.ndarray) -> np.ndarray:
    """Evaluate the m x n Jacobian of F at x; row j is the gradient of f_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    _check_finite_vector(x, "input coordinate")
    J = np.asarray(problem.jacobian(x), dtype=float)
    if J.shape != (problem.m, problem.n):
        raise EvaluationError(
            f"jacobian returned shape {J.shape}, expected ({problem.m}, {problem.n})"
        )
    _check_finite_vector(J.ravel(), "jacobian entry")
    return J


def hessians(problem: ProblemDefinition, x: np.ndarray) -> np.ndarray:
    """The (m, n, n) stack of per-objective Hessians at x.

    Uses the analytic evaluators when provided, otherwise central differences
    of the Jacobian rows with step ``FD_HESSIAN_STEP``, whose 2n Jacobian calls
    are checked like any other. Anything but m finite n x n matrices raises
    ``EvaluationError``. Results are symmetrized.
    """
    x = np.asarray(x, dtype=float)
    m, n = problem.m, problem.n
    if problem.hessians is not None:
        try:
            H = np.asarray(problem.hessians(x), dtype=float)
        except ValueError as exc:  # matrices of different shapes
            raise EvaluationError(f"hessians returned ragged matrices: {exc}") from None
    else:
        cols = np.empty((n, m, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = FD_HESSIAN_STEP
            cols[i] = jacobian(problem, x + e) - jacobian(problem, x - e)
        H = cols.transpose(1, 2, 0) / (2.0 * FD_HESSIAN_STEP)
    if H.shape != (m, n, n):
        raise EvaluationError(f"hessians returned shape {H.shape}, expected ({m}, {n}, {n})")
    _check_finite_vector(H.ravel(), "hessian entry")
    return 0.5 * (H + H.transpose(0, 2, 1))


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
