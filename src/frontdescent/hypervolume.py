"""Exact dominated-region volume for two and three objectives.

The dominated region of an image set Y w.r.t. a reference point zeta is the
union of boxes [y, zeta] over y in Y; its Lebesgue measure is the hypervolume.
Dominated and duplicate images contribute nothing and are filtered first.
"""

from __future__ import annotations

import numpy as np

from .front import nondominated

__all__ = [
    "reference_point_cross_solver",
    "hypervolume",
    "hv_monte_carlo",
    "box_gain_lower_bound",
]


def reference_point_cross_solver(all_images, offset: float = 0.01) -> np.ndarray:
    """Componentwise max over the pooled solver images, plus a fixed offset."""
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    Y = np.atleast_2d(np.asarray(all_images, dtype=float))
    if Y.size == 0:
        raise ValueError("image list must be nonempty")
    return Y.max(axis=0) + offset


def hypervolume(images, zeta) -> float:
    """Exact volume for two or three objectives.

    Two objectives are one sweep over the f_1-sorted nondominated images.
    Three are swept upward through the f_3 levels, merging each level's
    images into one 2-D staircase: ND(A u B) = ND(ND(A) u B), so the staircase
    is the nondominated set of every image at or below the level, and each
    slab up to the next level adds its area times its height.
    """
    Y = np.atleast_2d(np.asarray(images, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    if Y.size == 0:
        return 0.0
    m = Y.shape[1]
    if m not in (2, 3):
        raise ValueError(f"hypervolume supports m in {{2, 3}}, got {m}")
    if np.any(Y > zeta):
        raise ValueError("every image must be <= the reference point")
    Y = nondominated(Y)
    if m == 2:
        return _staircase_area(Y, zeta)
    levels = np.append(np.unique(Y[:, 2]), zeta[2])
    staircase = np.empty((0, 2))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        staircase = nondominated(np.vstack([staircase, Y[Y[:, 2] == lo, :2]]))
        total += (hi - lo) * _staircase_area(staircase, zeta)
    return float(total)


def _staircase_area(S: np.ndarray, zeta: np.ndarray) -> float:
    """Area that the 2-D rows S dominate within zeta; S comes from
    ``nondominated``, so f_1 increases and f_2 strictly decreases."""
    right = np.append(S[1:, 0], zeta[0])
    return float(np.sum((right - S[:, 0]) * (zeta[1] - S[:, 1])))


def hv_monte_carlo(images, zeta, ideal, samples: int, seed: int = 0) -> tuple:
    """Uniform-sampling estimate over the box [ideal, zeta].

    Returns (estimate, standard_error); the standard error comes from the
    binomial variance of the dominated fraction.
    """
    Y = np.atleast_2d(np.asarray(images, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    ideal = np.asarray(ideal, dtype=float)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    box = float(np.prod(zeta - ideal))
    if Y.size == 0:
        return 0.0, 0.0
    if np.any(Y > zeta) or np.any(Y < ideal):
        raise ValueError("require ideal <= every image <= zeta")
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    done = 0
    while done < samples:
        k = min(chunk, samples - done)
        # one contiguous row per objective: comparing whole columns is several
        # times faster than an all() over the rows of the samples
        cols = np.ascontiguousarray(rng.uniform(ideal, zeta, size=(k, len(zeta))).T)
        dominated = np.zeros(k, dtype=bool)
        for y in Y:
            hit = cols[0] >= y[0]
            for j in range(1, len(y)):
                hit &= cols[j] >= y[j]
            dominated |= hit
        hits += int(dominated.sum())
        done += k
    p = hits / samples
    se = box * np.sqrt(p * (1.0 - p) / samples)
    return box * p, float(se)


def box_gain_lower_bound(old_image, new_image) -> float:
    """Product of componentwise gaps; the guaranteed hypervolume gain when a
    point is replaced by one that strictly dominates it."""
    old = np.asarray(old_image, dtype=float)
    new = np.asarray(new_image, dtype=float)
    if not np.all(new < old):
        raise ValueError("new image must strictly dominate the old one")
    return float(np.prod(old - new))
