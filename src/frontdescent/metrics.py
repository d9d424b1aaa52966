"""Front comparison metrics and performance profiles.

Purity, the two spread measures and Dolan-More performance profiles for
comparing solver outputs on a shared problem instance. All metrics operate on
image matrices (rows are objective vectors).
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Sequence

import numpy as np

from .front import nondominated

__all__ = [
    "build_reference_front",
    "purity",
    "gamma_spread",
    "delta_spread",
    "profile_preprocess",
    "performance_profiles",
]

PROFILE_FAILURE = float("inf")


def build_reference_front(image_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Nondominated subset of the pooled images of all solvers."""
    mats = [np.atleast_2d(np.asarray(Y, dtype=float)) for Y in image_sets if np.size(Y)]
    if not mats:
        raise ValueError("need at least one nonempty image set")
    return nondominated(np.vstack(mats))


def purity(solver_images: np.ndarray, reference_front: np.ndarray) -> float:
    """Fraction of the solver's nondominated images that appear (exactly) in
    the combined reference front."""
    own = nondominated(solver_images)
    ref = np.atleast_2d(np.asarray(reference_front, dtype=float))
    if own.shape[0] == 0:
        return 0.0
    hits = 0
    for row in own:
        if np.any(np.all(ref == row, axis=1)):
            hits += 1
    return hits / own.shape[0]


def _with_extremes(Y: np.ndarray, reference_front) -> np.ndarray:
    """Append the per-objective best points of the reference front."""
    if reference_front is None:
        return Y
    ref = np.atleast_2d(np.asarray(reference_front, dtype=float))
    extremes = [ref[np.argmin(ref[:, j])] for j in range(ref.shape[1])]
    return np.unique(np.vstack([Y] + extremes), axis=0)


def gamma_spread(solver_images: np.ndarray, reference_front=None) -> float:
    """Largest per-objective gap between consecutive sorted image coordinates.

    When a reference front is supplied its per-objective extreme points are
    included, so a solver covering only part of the front is penalized for the
    uncovered ends.
    """
    Y = nondominated(solver_images)
    Y = _with_extremes(Y, reference_front)
    if Y.shape[0] < 2:
        return 0.0
    return float(np.diff(np.sort(Y, axis=0), axis=0).max())


def _delta_along(Y: np.ndarray, sort_col: int, ext_lo, ext_hi) -> float:
    order = np.argsort(Y[:, sort_col])
    P = Y[order]
    d = np.linalg.norm(np.diff(P, axis=0), axis=1)
    d0 = float(np.linalg.norm(P[0] - ext_lo))
    dN = float(np.linalg.norm(P[-1] - ext_hi))
    dbar = float(np.mean(d))
    num = d0 + dN + float(np.sum(np.abs(d - dbar)))
    den = d0 + dN + d.size * dbar
    return num / den if den > 0 else 0.0


def delta_spread(solver_images: np.ndarray, reference_front=None) -> float:
    """Deviation-from-uniformity measure of consecutive image spacing.

    For two objectives the images are walked in f_1 order; for three the
    per-objective orderings are averaged. Boundary distances use the reference
    front's per-objective extreme points (or the solver's own when absent).
    """
    Y = nondominated(solver_images)
    if Y.shape[0] < 2:
        return 1.0
    ref = Y if reference_front is None else np.atleast_2d(
        np.asarray(reference_front, dtype=float)
    )
    m = Y.shape[1]
    vals = []
    cols = [0] if m == 2 else list(range(m))
    for j in cols:
        ext_lo = ref[np.argmin(ref[:, j])]
        ext_hi = ref[np.argmax(ref[:, j])]
        vals.append(_delta_along(Y, j, ext_lo, ext_hi))
    return float(np.mean(vals))


def profile_preprocess(metric: str, values: Dict[str, float], **kw) -> Dict[str, float]:
    """Turn per-solver metric values into minimization costs for profiles.

    purity: cost 1/value, a value of 0 is a failure. hypervolume: cost
    V_ref - V_solver + 1e-7 with V_ref the best (largest) value. Spread
    metrics are already costs and pass through; nonfinite values are failures.
    """
    out = {}
    if metric == "purity":
        for s, v in values.items():
            out[s] = 1.0 / v if v > 0 else PROFILE_FAILURE
    elif metric == "hypervolume":
        v_ref = kw.get("v_ref")
        if v_ref is None:
            v_ref = max(v for v in values.values() if np.isfinite(v))
        for s, v in values.items():
            out[s] = v_ref - v + 1e-7 if np.isfinite(v) else PROFILE_FAILURE
    elif metric in ("gamma_spread", "delta_spread"):
        for s, v in values.items():
            out[s] = float(v) if np.isfinite(v) and v >= 0 else PROFILE_FAILURE
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return out


def performance_profiles(costs: List[Dict[str, float]]) -> Dict[str, tuple]:
    """Dolan-More profiles from per-problem cost dictionaries.

    ``costs[p][s]`` is solver s's cost on problem p (inf marks failure).
    Returns {solver: (taus, rhos)} where rho_s(tau) is the fraction of
    problems on which s is within factor tau of the per-problem best;
    the step function is sampled at every finite performance ratio.
    """
    if not costs:
        raise ValueError("need at least one problem")
    dropped = sum(1 for row in costs if not any(np.isfinite(v) for v in row.values()))
    if dropped:
        warnings.warn(f"dropping {dropped} instance(s) where every solver failed")
        costs = [row for row in costs if any(np.isfinite(v) for v in row.values())]
        if not costs:
            raise ValueError("all solvers failed on all problems")
    solvers = sorted({s for row in costs for s in row})
    n_p = len(costs)
    ratios: Dict[str, np.ndarray] = {s: np.full(n_p, np.inf) for s in solvers}
    for p, row in enumerate(costs):
        best = min(v for v in row.values() if np.isfinite(v))
        for s in solvers:
            v = row.get(s, PROFILE_FAILURE)
            if np.isfinite(v):
                ratios[s][p] = v / best if best > 0 else (1.0 if v == best else np.inf)
    all_r = np.concatenate([r[np.isfinite(r)] for r in ratios.values()])
    if all_r.size == 0:
        raise ValueError("all solvers failed on all problems")
    taus = np.unique(all_r)
    out = {}
    for s in solvers:
        rhos = np.array([(ratios[s] <= t).sum() / n_p for t in taus])
        out[s] = (taus, rhos)
    return out
