"""Front descent outer loop.

Each iteration makes one pass over a snapshot of the current set, the point
with the worst stationarity value first. ``refine`` runs one line search along
the variant's common descent direction from each point whose stationarity
value is below the iteration's threshold; ``explore`` then runs one line
search along the partial steepest descent direction of every proper objective
subset from the point or its refinement. Both insert what they accept. The
caps are checked before every line search; each trace row is read from the
refinement log and from the thetas of the iteration's accepted explorations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import directions as dirs
from .front import FrontEntry, FrontSet, insert_filter, is_stable
from .hypervolume import hypervolume
from .linesearch import armijo_front, exploration_ls
from .model import EvalCounters, ProblemDefinition, counted, hessians, jacobian
from .suite import diagonal_images

__all__ = [
    "FDConfig",
    "IterationRecord",
    "RunResult",
    "run",
    "select_processing_order",
    "theta_of_front",
    "compute_iteration_bound",
    "default_reference_point",
    "front_hypervolume",
]

TRACE_COLUMNS = [
    "k",
    "front_size_in",
    "pct_sigma_stationary_in",
    "n_refinements",
    "iterations_since_last_refinement",
    "n_explorations",
    "pct_exploration_sigma_stationary",
    "front_size_out",
    "theta_value",
    "hypervolume_value",
]

VARIANTS = ("sd", "newton", "bb")

# an exploration image closer than this share of the front's per-objective
# range to an archived image is not inserted
CROWDING_GAP_FACTOR = 1e-3
# a subset whose partial steepest theta is at least -EXPLORATION_THETA_TOL
# is not explored
EXPLORATION_THETA_TOL = 1e-10


@dataclass(frozen=True)
class FDConfig:
    """All algorithm parameters. Defaults follow the reference experimental
    setting; see README for the meaning of each knob."""

    alpha0: float = 1.0
    delta: float = 0.5
    gamma: float = 1e-4
    gamma1: float = 1e-2
    gamma2: float = 1e2
    sigma: float = 1e-7
    sigma_decreasing: bool = False  # sigma_k = sigma / (k + 1) instead of constant
    variant: str = "sd"  # sd | newton | bb
    kappa: float = 1e-2
    a_min: float = 1e-3
    a_max: float = 1e3
    eps_hv: float = 5e-4
    max_iterations: Optional[int] = 1000
    wall_clock_limit: Optional[float] = None
    max_backtracks: int = 60
    check_invariants: bool = False

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("gamma1 and gamma2 must be positive")
        if not (0 < self.delta < 1) or not (0 < self.gamma < 1):
            raise ValueError("delta and gamma must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.eps_hv < 0 or self.sigma < 0:
            raise ValueError("eps_hv and sigma must be nonnegative")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not (0 < self.a_min <= self.a_max):
            raise ValueError("a_min and a_max must satisfy 0 < a_min <= a_max")
        if (self.max_iterations or 0) < 0 or (self.wall_clock_limit or 0) < 0:
            raise ValueError("max_iterations and wall_clock_limit must be nonnegative")

    def sigma_at(self, k: int) -> float:
        return self.sigma / (k + 1) if self.sigma_decreasing else self.sigma


@dataclass
class IterationRecord:
    k: int
    front_size_in: int
    pct_sigma_stationary_in: float
    n_refinements: int
    iterations_since_last_refinement: int
    n_explorations: int
    pct_exploration_sigma_stationary: float
    front_size_out: int
    theta_value: float
    hypervolume_value: float

    def row(self) -> list:
        return [getattr(self, c) for c in TRACE_COLUMNS]


@dataclass
class RunResult:
    front: FrontSet
    trace: List[IterationRecord]
    counters: EvalCounters
    stop_reason: str
    reference_point: np.ndarray
    # one (k, v_norm, alpha) triple per executed refinement line search
    refinements: List[tuple] = field(default_factory=list)


@dataclass(kw_only=True)
class _Point(FrontEntry):
    """A run's archived point with its Jacobian J, steepest descent direction
    v, v's norm, theta, and under ``bb`` the (x, J) it was refined from."""

    J: np.ndarray
    v: np.ndarray
    v_norm: float
    theta: float
    bb_history: Optional[tuple]

    @classmethod
    def at(cls, problem, x, fx, provenance, bb_history=None) -> "_Point":
        """The point with the Jacobian evaluated at x."""
        J = jacobian(problem, x)
        res = dirs.common_steepest(J)
        return cls(
            x=x, fx=fx, provenance=provenance, J=J, v=res.d,
            v_norm=float(np.linalg.norm(res.d)), theta=res.theta, bb_history=bb_history,
        )


def select_processing_order(front: FrontSet) -> List[int]:
    """Index order with an argmin-theta point first, ties and the remainder
    in insertion order; an empty front raises ValueError."""
    first = int(np.argmin([e.theta for e in front.entries]))
    return [first] + [i for i in range(len(front)) if i != first]


def theta_of_front(front: FrontSet) -> float:
    """Least theta of the front; an empty front raises ValueError."""
    return float(min(e.theta for e in front.entries))


def front_hypervolume(front: FrontSet, zeta: np.ndarray) -> float:
    """Hypervolume of the front image w.r.t. zeta; images beyond the reference
    point bound no volume and are ignored."""
    F = front.images()
    if F.size == 0:
        return 0.0
    return hypervolume(F[np.all(F <= zeta, axis=1)], zeta)


def _refinement_direction(problem, entry: _Point, config, counters):
    """Variant direction with the steepest-descent-related safeguard; returns
    (d, d_value) with d_value measured against the true gradients."""
    J, v, norm_v = entry.J, entry.v, entry.v_norm
    if config.variant == "sd":
        return v, -(norm_v**2)
    if config.variant == "newton":
        H = hessians(problem, entry.x)
        counters.hessian_evals += 1
        cand = dirs.newton_direction(J, H, config.kappa)
    else:  # bb
        a = np.ones(J.shape[0])
        if entry.bb_history is not None:
            x_prev, J_prev = entry.bb_history
            s = entry.x - x_prev
            if float(s @ s) > 0:
                a = dirs.update_bb_scalars(s, J - J_prev, config.a_min, config.a_max)
        cand = dirs.bb_direction(J, a, config.a_min, config.a_max)
    if dirs.sdr_check(
        cand.d_value, float(np.linalg.norm(cand.d)), norm_v, config.gamma1, config.gamma2
    ):
        return cand.d, cand.d_value
    return v, -(norm_v**2)


def _proper_subsets(m: int):
    """Proper nonempty objective subsets, increasing cardinality then lexicographic."""
    for size in range(1, m):
        yield from itertools.combinations(range(m), size)


def default_reference_point(problem: ProblemDefinition, X0: FrontSet) -> np.ndarray:
    """Fixed per-run reference point: componentwise image maxima plus 10% of
    each objective's initial range.

    An objective whose X0 image range is degenerate (e.g. a singleton X0)
    borrows the range of ``problem.n`` hyper-diagonal samples, whatever count
    X0 itself was drawn with, falling back to 10% of the magnitude, so the
    dominated region never has zero measure; ``run`` counts the samples.
    """
    F0 = X0.images()
    hi = F0.max(axis=0)
    rng = hi - F0.min(axis=0)
    if np.any(rng <= 0):
        diag = diagonal_images(problem)
        if diag.size:
            diag_rng = diag.max(axis=0) - diag.min(axis=0)
            rng = np.where(rng > 0, rng, diag_rng)
    rng = np.where(rng > 0, rng, np.maximum(1.0, np.abs(hi)))
    return hi + 0.1 * rng


def run(
    problem: ProblemDefinition,
    X0: FrontSet,
    config: FDConfig,
    reference_point: Optional[np.ndarray] = None,
) -> RunResult:
    """Execute the front descent loop from a stable nonempty starting set.

    Only the points, images and provenance of X0's entries are read, and X0
    is left as it is; every image is m finite values. The counters hold every
    call of the problem's objective and Jacobian that returns, and every
    Hessian stack the run asks for. An explicit ``reference_point`` is m
    finite values no X0 image exceeds.
    """
    if not len(X0):
        raise ValueError("X0 must be nonempty")
    if any(e.fx.shape != (problem.m,) or not np.all(np.isfinite(e.fx)) for e in X0.entries):
        raise ValueError(f"every X0 image must be {problem.m} finite values")
    if config.check_invariants and not is_stable(X0):
        raise ValueError("X0 must be a set of mutually nondominated points")

    counters = EvalCounters()
    problem = counted(problem, counters)
    t_start = time.perf_counter()

    front = FrontSet(_Point.at(problem, e.x, e.fx, e.provenance) for e in X0.entries)

    if reference_point is None:
        zeta = default_reference_point(problem, X0)
    else:
        zeta = np.asarray(reference_point, dtype=float)
        if zeta.shape != (problem.m,) or not np.all(np.isfinite(zeta)):
            raise ValueError(f"reference point must be {problem.m} finite values")
        if np.any(X0.images() > zeta):
            raise ValueError("reference point must dominate every X0 image")

    def cap_reached(k: int) -> Optional[str]:
        """The cap that stops the run before iteration k does more work."""
        if config.max_iterations is not None and k >= config.max_iterations:
            return "iteration_cap"
        limit = config.wall_clock_limit
        if limit is not None and time.perf_counter() - t_start > limit:
            return "time_cap"
        return None

    def refine(x_c: _Point, k: int) -> _Point:
        """Refinement line search from x_c; inserts, logs and returns the new point."""
        nonlocal front
        d, d_value = _refinement_direction(problem, x_c, config, counters)
        alpha, xz, fz = armijo_front(problem, x_c.x, x_c.fx, d, d_value, config)
        history = (x_c.x, x_c.J) if config.variant == "bb" else None
        z = _Point.at(problem, xz, fz, "refinement", history)
        if config.check_invariants and not np.all(fz <= x_c.fx + config.gamma * alpha * d_value):
            raise AssertionError("accepted step violates sufficient decrease")
        front = insert_filter(front, z)
        refinement_log.append((k, x_c.v_norm, alpha))
        return z

    def explore(z: _Point, I: tuple, d: np.ndarray, gap: np.ndarray) -> Optional[_Point]:
        """Exploration line search from z along the partial direction d of
        subset I; inserts and returns the accepted point, or None."""
        nonlocal front
        hit = exploration_ls(problem, z.x, d, front, config)
        if hit is None:
            return None
        _, xw, fw = hit
        if np.any(gap > 0):
            close = np.abs(front.images() - fw) / np.where(gap > 0, gap, np.inf)
            if np.min(np.max(close, axis=1)) < 1.0:
                return None
        w = _Point.at(problem, xw, fw, f"exploration({tuple(i + 1 for i in I)})")
        # exploration_ls accepted fw against this same archive, so
        # insert_filter cannot reject w
        front = insert_filter(front, w)
        return w

    def iterate(k: int, sigma_k: float, explored: List[float]) -> Optional[str]:
        """Refine and explore every point of the iteration's snapshot, adding
        the theta of each accepted exploration to ``explored``; returns the
        cap that cut the pass short."""
        snapshot = [front.entries[i] for i in select_processing_order(front)]
        # per-objective spacing gap for exploration insertions
        F_now = front.images()
        gap = CROWDING_GAP_FACTOR * (F_now.max(axis=0) - F_now.min(axis=0))
        for x_c in snapshot:
            if x_c not in front:
                continue
            z = x_c
            if x_c.theta < -sigma_k:
                if stop := cap_reached(k):
                    return stop
                z = refine(x_c, k)
            for I in _proper_subsets(problem.m):
                if z not in front:
                    break
                part = dirs.partial_steepest(z.J, I)
                if part.theta >= -EXPLORATION_THETA_TOL:
                    continue
                if stop := cap_reached(k):
                    return stop
                w = explore(z, I, part.d, gap)
                if w is not None:
                    explored.append(w.theta)
        return None

    trace: List[IterationRecord] = []
    refinement_log: List[tuple] = []
    prev_hv = front_hypervolume(front, zeta)

    for k in itertools.count():
        sigma_k = config.sigma_at(k)
        size_in = len(front)
        stationary_in = sum(1 for e in front.entries if e.theta >= -sigma_k)
        n_logged = len(refinement_log)
        explored: List[float] = []
        # the caps are checked before every line search; an iteration they
        # cut short (k = 0 included) still gets its trace row
        stop = iterate(k, sigma_k, explored)

        if config.check_invariants and not is_stable(front):
            raise AssertionError(f"front lost stability at iteration {k}")

        hv = front_hypervolume(front, zeta)
        if config.check_invariants and hv < prev_hv - 1e-12 * max(1.0, abs(prev_hv)):
            raise AssertionError(f"hypervolume decreased at iteration {k}")

        theta = theta_of_front(front)
        trace.append(
            IterationRecord(
                k=k,
                front_size_in=size_in,
                pct_sigma_stationary_in=100.0 * stationary_in / size_in,
                n_refinements=len(refinement_log) - n_logged,
                iterations_since_last_refinement=(
                    k - refinement_log[-1][0] if refinement_log else 0
                ),
                n_explorations=len(explored),
                pct_exploration_sigma_stationary=(
                    100.0 * sum(t >= -sigma_k for t in explored) / len(explored)
                    if explored
                    else 100.0
                ),
                front_size_out=len(front),
                theta_value=theta,
                hypervolume_value=hv,
            )
        )

        # stop-rule priority: caps, then hypervolume, then theta
        stop = stop or cap_reached(k + 1)
        if stop is None:
            if config.eps_hv > 0 and prev_hv > 0 and (hv - prev_hv) / prev_hv < config.eps_hv:
                stop = "hv_improvement"
            elif theta >= -sigma_k and not explored:
                stop = "theta_threshold"
        if stop:
            return RunResult(
                front=front,
                trace=trace,
                counters=counters,
                stop_reason=stop,
                reference_point=zeta,
                refinements=refinement_log,
            )
        prev_hv = hv


def compute_iteration_bound(
    V_star: float,
    V0: float,
    config: FDConfig,
    eps: float,
    L_max: float,
    m: int,
) -> float:
    """Worst-case count of iterations whose set-stationarity value stays at or
    below -eps, from the hypervolume-gain argument."""
    if eps <= 0 or L_max <= 0:
        raise ValueError("eps and L_max must be positive")
    if V_star < V0:
        raise ValueError("V_star must dominate V0")
    delta_low = config.gamma1 * (1.0 - config.gamma) / (config.gamma2**2 * L_max)
    denom = (
        2.0
        * config.gamma
        * min(1.0, config.gamma1)
        * min(config.alpha0, delta_low)
        * eps
    ) ** m
    return (V_star - V0) / denom
