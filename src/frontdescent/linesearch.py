"""Backtracking line searches: vector sufficient decrease for refinement and
front-relative non-dominance acceptance for exploration."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .front import FrontSet
from .model import ProblemDefinition, evaluate

if TYPE_CHECKING:  # the driver imports this module
    from .driver import FDConfig

__all__ = ["LineSearchError", "armijo_front", "exploration_ls"]


class LineSearchError(RuntimeError):
    """Backtracking cap exceeded during a refinement step: numerical breakdown,
    since finite termination is guaranteed for smooth objectives."""


def armijo_front(
    problem: ProblemDefinition,
    x: np.ndarray,
    fx: np.ndarray,
    d: np.ndarray,
    d_value: float,
    config: FDConfig,
) -> tuple:
    """Largest step alpha0 * delta^h satisfying componentwise sufficient decrease

        F(x + alpha d) <= F(x) + gamma * alpha * d_value * 1

    Returns (alpha, z, Fz). ``d_value`` must be the (negative) worst
    directional derivative of the objectives along d.
    """
    if d_value >= 0:
        raise ValueError("armijo_front requires a descent direction (d_value < 0)")
    alpha = config.alpha0
    for _ in range(config.max_backtracks + 1):
        z = x + alpha * d
        fz = evaluate(problem, z)
        if np.all(fz <= fx + config.gamma * alpha * d_value):
            return alpha, z, fz
        alpha *= config.delta
    raise LineSearchError(
        f"no acceptable step within {config.max_backtracks} backtracks at x={x}"
    )


def exploration_ls(
    problem: ProblemDefinition,
    z: np.ndarray,
    direction: np.ndarray,
    front: FrontSet,
    config: FDConfig,
) -> Optional[tuple]:
    """Largest step whose trial point is not weakly dominated by any front member.

    Acceptance requires, for every y in the front, some objective where the
    trial point is strictly better. Returns (alpha, point, image) or None when
    the backtracking cap is exceeded (the candidate is simply discarded).
    """
    F = front.images()
    alpha = config.alpha0
    for _ in range(config.max_backtracks + 1):
        w = z + alpha * direction
        fw = evaluate(problem, w)
        # not dominated-or-equal by any member: each row must lose somewhere
        if F.size == 0 or np.all(np.any(fw < F, axis=1)):
            return alpha, w, fw
        alpha *= config.delta
    return None
