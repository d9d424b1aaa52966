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
    "hypervolume_2d",
    "hypervolume_3d",
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


def hypervolume_2d(images, zeta) -> float:
    """Exact area by a sweep over f_1-sorted nondominated images."""
    Y = np.atleast_2d(np.asarray(images, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    if Y.size == 0:
        return 0.0
    if np.any(Y > zeta):
        raise ValueError("every image must be <= the reference point")
    # nondominated rows come sorted by f1 ascending, so f2 strictly decreases
    Y = nondominated(Y)
    right = np.append(Y[1:, 0], zeta[0])
    return float(np.sum((right - Y[:, 0]) * (zeta[1] - Y[:, 1])))


def hypervolume_3d(images, zeta) -> float:
    """Exact volume by slicing on f_3 with a 2-D sweep per slab."""
    Y = np.atleast_2d(np.asarray(images, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    if Y.size == 0:
        return 0.0
    if np.any(Y > zeta):
        raise ValueError("every image must be <= the reference point")
    Y = nondominated(Y)
    levels = np.unique(Y[:, 2])
    levels = np.append(levels, zeta[2])
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        if hi <= lo:
            continue
        # lo is the f_3 of at least one row, so the slab is never empty
        total += (hi - lo) * hypervolume_2d(Y[Y[:, 2] <= lo][:, :2], zeta[:2])
    return float(total)


def hypervolume(images, zeta) -> float:
    """Dispatch on the number of objectives (2 or 3)."""
    Y = np.atleast_2d(np.asarray(images, dtype=float))
    if Y.size == 0:
        return 0.0
    m = Y.shape[1]
    if m == 2:
        return hypervolume_2d(Y, zeta)
    if m == 3:
        return hypervolume_3d(Y, zeta)
    raise ValueError(f"hypervolume supports m in {{2, 3}}, got {m}")


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
