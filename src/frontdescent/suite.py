"""Benchmark problem suite and deterministic starting-point generation.

Formulas are transcribed from the literature sources of each problem; exact
expressions, the sampling boxes and any robustness modifications are recorded
in docs/problem_formulas.md. Every transcription is validated against central
differences by the test suite before use.

Problems whose original definition involves x_1^(1/2) or x_1^(1/5) (the CEC09
family) are extended to the whole real line via sign-symmetric powers
sign(x) * |x|^p so that unconstrained descent steps remain well defined; the
gradient is singular only at x_1 = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .front import FrontEntry, FrontSet, insert_filter
from .model import ProblemDefinition

__all__ = [
    "SuiteEntry",
    "SUITE",
    "list_problems",
    "make_problem",
    "initial_points",
    "diagonal_images",
]

_DIMS_FULL = (2, 3, 4, 5, 6, 8, 10, 12, 15, 17, 20, 25, 30, 35, 40, 45, 50, 100, 200)
_DIMS_CEC = tuple(d for d in _DIMS_FULL if d >= 4)
_DIMS_CEC3OBJ = tuple(d for d in _DIMS_FULL if d >= 5)


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    dims: tuple
    m: int
    build: Callable[[int], ProblemDefinition]  # n -> problem; make_problem checks n


def _spow(x: float, p: float) -> float:
    return np.sign(x) * np.abs(x) ** p


def _dspow(x: float, p: float) -> float:
    ax = abs(x)
    if ax == 0.0:
        return np.inf
    return p * ax ** (p - 1.0)


# ---------------------------------------------------------------- convex set


def _jos1(n: int) -> ProblemDefinition:
    def fx(x):
        return np.array([x @ x / n, (x - 2) @ (x - 2) / n])

    def jac(x):
        return np.stack([2.0 * x / n, 2.0 * (x - 2) / n])

    def hess(x):
        return [2.0 / n * np.eye(n), 2.0 / n * np.eye(n)]

    return ProblemDefinition(
        name="JOS_1", n=n, m=2, objective=fx, jacobian=jac, hessians=hess,
        lower=np.full(n, -10.0), upper=np.full(n, 10.0),
    )


def _man1(n: int) -> ProblemDefinition:
    idx = np.arange(1, n + 1, dtype=float)

    def fx(x):
        return np.array([
            np.sum((x - idx) ** 2) / n**2,
            np.sum((x + idx) ** 2) / n**2,
        ])

    def jac(x):
        return np.stack([2.0 * (x - idx) / n**2, 2.0 * (x + idx) / n**2])

    def hess(x):
        return [2.0 / n**2 * np.eye(n), 2.0 / n**2 * np.eye(n)]

    return ProblemDefinition(
        name="MAN_1", n=n, m=2, objective=fx, jacobian=jac, hessians=hess,
        lower=np.full(n, -100.0), upper=np.full(n, 100.0),
    )


def _slc2(n: int) -> ProblemDefinition:
    def fx(x):
        f1 = (x[0] - 1.0) ** 4 + np.sum((x[1:] - 1.0) ** 2)
        f2 = np.sum((x + 1.0) ** 2)
        return np.array([f1, f2])

    def jac(x):
        g1 = 2.0 * (x - 1.0)
        g1[0] = 4.0 * (x[0] - 1.0) ** 3
        return np.stack([g1, 2.0 * (x + 1.0)])

    def hess(x):
        h1 = 2.0 * np.eye(n)
        h1[0, 0] = 12.0 * (x[0] - 1.0) ** 2
        return [h1, 2.0 * np.eye(n)]

    return ProblemDefinition(
        name="SLC_2", n=n, m=2, objective=fx, jacobian=jac, hessians=hess,
        lower=np.full(n, -10.0), upper=np.full(n, 10.0),
    )


def _mop7() -> ProblemDefinition:
    def fx(x):
        a, b = x
        return np.array([
            (a - 2.0) ** 2 / 2.0 + (b + 1.0) ** 2 / 13.0 + 3.0,
            (a + b - 3.0) ** 2 / 36.0 + (-a + b + 2.0) ** 2 / 8.0 - 17.0,
            (a + 2.0 * b - 1.0) ** 2 / 175.0 + (2.0 * b - a) ** 2 / 17.0 - 13.0,
        ])

    def jac(x):
        a, b = x
        return np.array([
            [(a - 2.0), 2.0 * (b + 1.0) / 13.0],
            [(a + b - 3.0) / 18.0 - (-a + b + 2.0) / 4.0,
             (a + b - 3.0) / 18.0 + (-a + b + 2.0) / 4.0],
            [2.0 * (a + 2.0 * b - 1.0) / 175.0 - 2.0 * (2.0 * b - a) / 17.0,
             4.0 * (a + 2.0 * b - 1.0) / 175.0 + 4.0 * (2.0 * b - a) / 17.0],
        ])

    return ProblemDefinition(
        name="MOP_7", n=2, m=3, objective=fx, jacobian=jac,
        lower=np.full(2, -400.0), upper=np.full(2, 400.0),
    )


# ------------------------------------------------------------- nonconvex set


def _mop2(n: int) -> ProblemDefinition:
    c = 1.0 / np.sqrt(n)

    def fx(x):
        s1 = np.sum((x - c) ** 2) / n
        s2 = np.sum((x + c) ** 2) / n
        return np.array([1.0 - np.exp(-s1), 1.0 - np.exp(-s2)])

    def jac(x):
        s1 = np.sum((x - c) ** 2) / n
        s2 = np.sum((x + c) ** 2) / n
        return np.stack([
            np.exp(-s1) * 2.0 * (x - c) / n,
            np.exp(-s2) * 2.0 * (x + c) / n,
        ])

    def hess(x):
        out = []
        for sign in (-1.0, 1.0):
            u = x + sign * c
            s = np.sum(u**2) / n
            grad_s = 2.0 * u / n
            out.append(np.exp(-s) * (2.0 / n * np.eye(n) - np.outer(grad_s, grad_s)))
        return out

    return ProblemDefinition(
        name="MOP_2", n=n, m=2, objective=fx, jacobian=jac, hessians=hess,
        lower=np.full(n, -4.0), upper=np.full(n, 4.0),
    )


def _mop3() -> ProblemDefinition:
    A1 = 0.5 * np.sin(1.0) - 2.0 * np.cos(1.0) + np.sin(2.0) - 1.5 * np.cos(2.0)
    A2 = 1.5 * np.sin(1.0) - np.cos(1.0) + 2.0 * np.sin(2.0) - 0.5 * np.cos(2.0)

    def _b(x, y):
        b1 = 0.5 * np.sin(x) - 2.0 * np.cos(x) + np.sin(y) - 1.5 * np.cos(y)
        b2 = 1.5 * np.sin(x) - np.cos(x) + 2.0 * np.sin(y) - 0.5 * np.cos(y)
        return b1, b2

    def fx(v):
        x, y = v
        b1, b2 = _b(x, y)
        return np.array([
            1.0 + (A1 - b1) ** 2 + (A2 - b2) ** 2,
            (x + 3.0) ** 2 + (y + 1.0) ** 2,
        ])

    def jac(v):
        x, y = v
        b1, b2 = _b(x, y)
        db1 = np.array([0.5 * np.cos(x) + 2.0 * np.sin(x), np.cos(y) + 1.5 * np.sin(y)])
        db2 = np.array([1.5 * np.cos(x) + np.sin(x), 2.0 * np.cos(y) + 0.5 * np.sin(y)])
        g1 = -2.0 * (A1 - b1) * db1 - 2.0 * (A2 - b2) * db2
        g2 = np.array([2.0 * (x + 3.0), 2.0 * (y + 1.0)])
        return np.stack([g1, g2])

    return ProblemDefinition(
        name="MOP_3", n=2, m=2, objective=fx, jacobian=jac,
        lower=np.full(2, -np.pi), upper=np.full(2, np.pi),
    )


def _mmr5(n: int) -> ProblemDefinition:
    # generalized two-basin problem: quadratic head, double-Gaussian valley tail
    p = max(1, n // 2)
    q = n - p

    def _h(u):
        return (
            2.0
            - np.exp(-(((u - 0.6) / 0.4) ** 2))
            - 0.8 * np.exp(-(((u + 0.6) / 0.4) ** 2))
        )

    def _dh(u):
        return (
            np.exp(-(((u - 0.6) / 0.4) ** 2)) * 2.0 * (u - 0.6) / 0.16
            + 0.8 * np.exp(-(((u + 0.6) / 0.4) ** 2)) * 2.0 * (u + 0.6) / 0.16
        )

    def fx(x):
        f1 = 1.0 + np.sum(x[:p] ** 2) / p
        u = np.sum(x[p:]) / q
        return np.array([f1, _h(u) / f1])

    def jac(x):
        f1 = 1.0 + np.sum(x[:p] ** 2) / p
        u = np.sum(x[p:]) / q
        g1 = np.zeros(n)
        g1[:p] = 2.0 * x[:p] / p
        g2 = np.zeros(n)
        g2[p:] = _dh(u) / (q * f1)
        g2 -= _h(u) / f1**2 * g1
        return np.stack([g1, g2])

    return ProblemDefinition(
        name="MMR_5", n=n, m=2, objective=fx, jacobian=jac,
        lower=np.full(n, -1.0), upper=np.full(n, 1.0),
    )


def _cec09_biobj(name: str, n: int) -> ProblemDefinition:
    """UF1/UF2/UF3/UF7 share the odd/even index split and the 1 - sqrt(x1)
    style head terms; they differ in the shifted coordinates y_j.

    Index masks and x-independent terms are built here, once; ``fx`` computes
    values only, ``jac`` slopes only."""
    js = np.arange(2, n + 1)  # 1-based indices of tail variables
    odd = js % 2 == 1
    # (mask, |J_k|, sqrt(j) on J_k) for J_1 (odd j) and J_2 (even j)
    subsets = [
        (mask, int(np.count_nonzero(mask)), np.sqrt(js[mask])) for mask in (odd, ~odd)
    ]
    phase = js * np.pi / n  # j pi / n
    head_p = 0.2 if name == "CEC09_7" else 0.5

    def head_values(x1):
        r = _spow(x1, head_p)
        return (r if name == "CEC09_7" else x1), 1.0 - r

    def head_slopes(x1):
        d = _dspow(x1, head_p)
        return (d if name == "CEC09_7" else 1.0), -d

    if name in ("CEC09_1", "CEC09_7"):
        def shifted(x, slope):
            """y_j, and dy_j/dx1 when ``slope``, for all tail indices (aligned with js)."""
            c = 6.0 * np.pi * x[0] + phase
            y = x[1:] - np.sin(c)
            return (y, -6.0 * np.pi * np.cos(c)) if slope else y
    elif name == "CEC09_2":
        phase4 = 4.0 * js * np.pi / n

        def shifted(x, slope):
            x1 = x[0]
            c = 6.0 * np.pi * x1 + phase
            e = 24.0 * np.pi * x1 + phase4
            cos_c, sin_c, cos_e = np.cos(c), np.sin(c), np.cos(e)
            b = 0.3 * x1**2 * cos_e + 0.6 * x1
            trig = np.where(odd, cos_c, sin_c)
            y = x[1:] - b * trig
            if not slope:
                return y
            db = 0.6 * x1 * cos_e - 7.2 * np.pi * x1**2 * np.sin(e) + 0.6
            dtrig = np.where(odd, -sin_c, cos_c) * 6.0 * np.pi
            return y, -(db * trig + b * dtrig)
    else:  # CEC09_3
        p = 0.5 * (1.0 + 3.0 * (js - 2.0) / (n - 2.0))

        def shifted(x, slope):
            x1 = x[0]
            y = x[1:] - np.sign(x1) * np.abs(x1) ** p
            if not slope:
                return y
            return y, (-p * np.abs(x1) ** (p - 1.0) if x1 != 0 else np.full(len(js), -np.inf))

    uses_product = name == "CEC09_3"

    def tail_value(ys, size, root):
        """Tail aggregate over one index subset."""
        if not uses_product:
            return 2.0 / size * np.sum(ys**2)
        prod = np.prod(np.cos(20.0 * np.pi * ys / root))
        return 2.0 / size * (4.0 * np.sum(ys**2) - 2.0 * prod + 2.0)

    def tail_slope(ys, size, root):
        """d/dy of the tail aggregate on its subset."""
        if not uses_product:
            return 4.0 / size * ys
        w = 20.0 * np.pi * ys / root
        cos_w = np.cos(w)
        # the product of the other factors: cos of a finite double is never 0
        return 2.0 / size * (
            8.0 * ys + 2.0 * (20.0 * np.pi / root) * np.sin(w) * (np.prod(cos_w) / cos_w)
        )

    def fx(x):
        y = shifted(x, False)
        h1, h2 = head_values(x[0])
        (m1, s1, r1), (m2, s2, r2) = subsets
        return np.array([h1 + tail_value(y[m1], s1, r1), h2 + tail_value(y[m2], s2, r2)])

    def jac(x):
        y, dy1 = shifted(x, True)
        J = np.zeros((2, n))
        for row, dh, (mask, size, root) in zip(J, head_slopes(x[0]), subsets):
            dv = row[1:]  # dy_j/dx_j = 1
            dv[mask] = tail_slope(y[mask], size, root)
            row[0] = dh + float(np.sum(dv * dy1))
        return J

    lower = np.full(n, -1.0)
    upper = np.full(n, 1.0)
    lower[0] = 0.0
    upper[0] = 1.0
    if name == "CEC09_3":
        lower[:] = 0.0
        upper[:] = 1.0
    return ProblemDefinition(
        name=name, n=n, m=2, objective=fx, jacobian=jac,
        lower=lower, upper=upper,
    )


def _cec09_triobj(name: str, n: int) -> ProblemDefinition:
    """UF8/UF10: three objectives, tail indices split into three residue classes.

    Index masks are built here, once; ``fx`` computes values only."""
    js = np.arange(3, n + 1)
    # (mask over js, |J_i|, columns of J_i) for J_1, J_2, J_3
    subsets = [
        (mask, int(np.count_nonzero(mask)), js[mask] - 1)
        for mask in ((js - 1) % 3 == 0, (js - 2) % 3 == 0, js % 3 == 0)
    ]
    phase = js * np.pi / n  # j pi / n
    quad = name == "CEC09_8"

    def tail_values(y):
        return y**2 if quad else 4.0 * y**2 - np.cos(8.0 * np.pi * y) + 1.0

    def tail_slopes(y):
        return 2.0 * y if quad else 8.0 * y + 8.0 * np.pi * np.sin(8.0 * np.pi * y)

    def fx(x):
        x1, x2 = x[0], x[1]
        vals = tail_values(x[2:] - 2.0 * x2 * np.sin(2.0 * np.pi * x1 + phase))
        a, b = 0.5 * np.pi * x1, 0.5 * np.pi * x2
        cos_a = np.cos(a)
        out = np.array([cos_a * np.cos(b), cos_a * np.sin(b), np.sin(a)])
        for i, (mask, size, _) in enumerate(subsets):
            out[i] += 2.0 / size * np.sum(vals[mask])
        return out

    def jac(x):
        x1, x2 = x[0], x[1]
        c = 2.0 * np.pi * x1 + phase
        sin_c = np.sin(c)
        dvals = tail_slopes(x[2:] - 2.0 * x2 * sin_c)
        dy1 = -4.0 * np.pi * x2 * np.cos(c)
        dy2 = -2.0 * sin_c
        a, b = 0.5 * np.pi * x1, 0.5 * np.pi * x2
        sin_a, cos_a, sin_b, cos_b = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        dh1 = 0.5 * np.pi * np.array([-sin_a * cos_b, -sin_a * sin_b, cos_a])
        dh2 = 0.5 * np.pi * np.array([-cos_a * sin_b, cos_a * cos_b, 0.0])
        J = np.zeros((3, n))
        for i, (mask, size, cols) in enumerate(subsets):
            coef = 2.0 / size
            dv = dvals[mask]
            J[i, 0] = dh1[i] + coef * np.sum(dv * dy1[mask])
            J[i, 1] = dh2[i] + coef * np.sum(dv * dy2[mask])
            J[i, cols] = coef * dv
        return J

    lower = np.full(n, -2.0)
    upper = np.full(n, 2.0)
    lower[:2] = 0.0
    upper[:2] = 1.0
    return ProblemDefinition(
        name=name, n=n, m=3, objective=fx, jacobian=jac,
        lower=lower, upper=upper,
    )


SUITE = {
    "JOS_1": SuiteEntry("JOS_1", _DIMS_FULL, 2, _jos1),
    "MAN_1": SuiteEntry("MAN_1", _DIMS_FULL, 2, _man1),
    "SLC_2": SuiteEntry("SLC_2", _DIMS_FULL, 2, _slc2),
    "MOP_2": SuiteEntry("MOP_2", _DIMS_FULL, 2, _mop2),
    "MOP_3": SuiteEntry("MOP_3", (2,), 2, lambda n: _mop3()),
    "MOP_7": SuiteEntry("MOP_7", (2,), 3, lambda n: _mop7()),
    "MMR_5": SuiteEntry("MMR_5", _DIMS_FULL, 2, _mmr5),
    "CEC09_1": SuiteEntry("CEC09_1", _DIMS_CEC, 2, lambda n: _cec09_biobj("CEC09_1", n)),
    "CEC09_2": SuiteEntry("CEC09_2", _DIMS_CEC, 2, lambda n: _cec09_biobj("CEC09_2", n)),
    "CEC09_3": SuiteEntry("CEC09_3", _DIMS_CEC, 2, lambda n: _cec09_biobj("CEC09_3", n)),
    "CEC09_7": SuiteEntry("CEC09_7", _DIMS_CEC, 2, lambda n: _cec09_biobj("CEC09_7", n)),
    "CEC09_8": SuiteEntry("CEC09_8", _DIMS_CEC3OBJ, 3, lambda n: _cec09_triobj("CEC09_8", n)),
    "CEC09_10": SuiteEntry("CEC09_10", _DIMS_CEC3OBJ, 3, lambda n: _cec09_triobj("CEC09_10", n)),
}


def list_problems() -> list:
    return [SUITE[k] for k in sorted(SUITE)]


def make_problem(name: str, n: int) -> ProblemDefinition:
    if name not in SUITE:
        raise ValueError(f"unknown problem {name!r}; known: {sorted(SUITE)}")
    entry = SUITE[name]
    if n not in entry.dims:
        raise ValueError(
            f"{name} does not admit n={n}; admissible dimensions: {entry.dims}"
        )
    return entry.build(n)


def initial_points(problem: ProblemDefinition, count: int | None = None) -> FrontSet:
    """Deterministic starting set: uniform samples on the box hyper-diagonal,
    filtered to mutual nondominance.

    Diagonal samples whose objective or Jacobian is non-finite (possible at
    singular box corners of the CEC09 family) are dropped.
    """
    front = FrontSet()
    for x, fx in _diagonal_samples(problem, count):
        front = insert_filter(front, FrontEntry(x=x, fx=fx, provenance="initial"))
    return front


def _diagonal_samples(problem: ProblemDefinition, count: int | None):
    """(x, F(x)) of every hyper-diagonal sample with finite objective and
    Jacobian."""
    if count is None:
        count = problem.n
    if count < 1:
        raise ValueError("count must be >= 1")
    ts = [0.5] if count == 1 else [i / (count - 1) for i in range(count)]
    for t in ts:
        x = problem.lower + t * (problem.upper - problem.lower)
        try:
            # probing sample: non-finite values are discarded below, so the
            # intermediate invalid-operation warnings are expected noise
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                fx = np.asarray(problem.objective(x), dtype=float)
                J = np.asarray(problem.jacobian(x), dtype=float)
        except (FloatingPointError, ValueError):
            continue
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(J))):
            continue
        yield x, fx


def diagonal_images(problem: ProblemDefinition, count: int | None = None) -> np.ndarray:
    """Images of every usable hyper-diagonal sample, dominated ones included;
    used to scale the per-run hypervolume reference point."""
    rows = [fx for _, fx in _diagonal_samples(problem, count)]
    if not rows:
        return np.empty((0, problem.m))
    return np.stack(rows)
