"""Output checks written apart from the program.

Nothing here imports frontdescent: nondominance, hypervolume and CSV parsing
are re-implemented so that a fault in the program cannot hide itself.
"""

from __future__ import annotations

import csv
import io

import numpy as np

HV_REL_TOL = 1e-9
# relative slack for "hypervolume never falls"; the solver's own invariant
# check uses the same allowance for floating-point rounding
HV_MONOTONE_TOL = 1e-12


def nondominated_mask(F: np.ndarray) -> np.ndarray:
    """True for each row that no other row weakly dominates with one strict
    improvement (brute force, all pairs)."""
    le = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=2)
    return ~np.any(le & lt, axis=0)


def is_mutually_nondominated(F: np.ndarray) -> bool:
    """No row dominates or equals another."""
    if len(F) <= 1:
        return True
    le = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    np.fill_diagonal(le, False)
    return not le.any()


def _area_2d(x: np.ndarray, y: np.ndarray, rx: float, ry: float) -> float:
    """Area dominated by points (x, y) below (rx, ry), dominated and duplicate
    points included: a staircase over x with the running minimum of y."""
    order = np.lexsort((y, x))
    xs = x[order]
    low = np.minimum.accumulate(y[order])
    widths = np.diff(np.append(xs, rx))
    return float(np.sum(widths * (ry - low)))


def exact_hypervolume(F: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume of the rows of F that lie inside the reference box,
    for two or three objectives (3-D by slabs along f_3)."""
    F = np.asarray(F, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if F.size == 0:
        return 0.0
    F = F[np.all(F <= ref, axis=1)]
    if len(F) == 0:
        return 0.0
    if F.shape[1] == 2:
        return _area_2d(F[:, 0], F[:, 1], ref[0], ref[1])
    if F.shape[1] != 3:
        raise ValueError(f"exact hypervolume supports 2 or 3 objectives, got {F.shape[1]}")
    F = F[np.argsort(F[:, 2], kind="stable")]
    tops = np.append(F[1:, 2], ref[2])
    total = 0.0
    for i in range(len(F)):
        height = tops[i] - F[i, 2]
        if height > 0:
            total += height * _area_2d(F[: i + 1, 0], F[: i + 1, 1], ref[0], ref[1])
    return total


def rel_close(a: float, b: float, tol: float = HV_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def hv_never_falls(values) -> bool:
    return all(
        cur >= prev - HV_MONOTONE_TOL * max(1.0, abs(prev))
        for prev, cur in zip(values, values[1:])
    )


def _rows(data: bytes) -> list:
    text = data.decode("utf-8")
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def parse_front_csv(data: bytes) -> tuple:
    """(X, F) from front CSV bytes with x_* and f_* columns."""
    header, *body = _rows(data)
    xs = [i for i, c in enumerate(header) if c.startswith("x_")]
    fs = [i for i, c in enumerate(header) if c.startswith("f_")]
    X = np.array([[float(r[i]) for i in xs] for r in body]).reshape(len(body), len(xs))
    F = np.array([[float(r[i]) for i in fs] for r in body]).reshape(len(body), len(fs))
    return X, F


def parse_trace_hv(data: bytes) -> list:
    """The hypervolume_value column of trace CSV bytes."""
    header, *body = _rows(data)
    col = header.index("hypervolume_value")
    return [float(r[col]) for r in body]
