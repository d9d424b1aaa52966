"""Shared oracles and helpers for the test suite."""

import hashlib

import numpy as np
import pytest

from frontdescent import FrontEntry, FrontSet, ProblemDefinition, make_problem
from frontdescent.suite import SUITE

# fractional parts of sqrt(2), sqrt(3) and sqrt(5): three spread-out points
_GOLDEN_STEPS = (0.41421356237309515, 0.7320508075688772, 0.2360679774997898)


def closed_form_sd_m2(g1, g2):
    """Independent oracle for the m=2 steepest common descent direction:
    minimize ||lam g1 + (1-lam) g2||^2 over lam in [0,1]."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    diff = g1 - g2
    denom = float(diff @ diff)
    lam = 0.5 if denom == 0 else float(np.clip((g2 - g1) @ g2 / denom, 0.0, 1.0))
    d = -(lam * g1 + (1.0 - lam) * g2)
    theta = float(np.max([g1 @ d, g2 @ d]) + 0.5 * d @ d)
    return lam, d, theta


def grid_theta(G, step=1e-3, metrics=None):
    """Brute-force simplex grid oracle for the dual optimum (m = 2 or 3).

    Samples the smooth dual q(lam) = -(1/2) g(lam)' B(lam)^{-1} g(lam), whose
    grid maximum carries only an O(step^2) error (the primal upper bound has a
    kink at the optimum and would err at O(step)).
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[0]
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if m == 2:
        L = np.column_stack([ticks, 1.0 - ticks])
    elif m == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        L = np.column_stack([a, b, 1.0 - a - b])
    else:
        raise ValueError(m)
    L = np.clip(L, 0.0, 1.0)
    if metrics is None:
        g = L @ G
        return float(np.max(-0.5 * np.sum(g * g, axis=1)))
    best = -np.inf
    for lam in L:
        g = lam @ G
        B = sum(l * b for l, b in zip(lam, metrics))
        q = -0.5 * float(g @ np.linalg.solve(B, g))
        best = max(best, q)
    return best


def golden_points(name, n=None):
    """The suite problem at n (default 10, or the only n it admits) and three
    fixed interior points of its sampling box."""
    dims = SUITE[name].dims
    if n is None:
        n = 10 if 10 in dims else dims[0]
    p = make_problem(name, n)
    i = np.arange(1, p.n + 1)
    return p, [
        p.lower + (0.05 + 0.9 * (i * step % 1.0)) * (p.upper - p.lower) for step in _GOLDEN_STEPS
    ]


def float_hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def hex_sha256(values):
    """sha256 of the space-joined float.hex of every value, in C order."""
    return hashlib.sha256(" ".join(float_hex(values)).encode()).hexdigest()


def front_from_images(images):
    """FrontSet whose decision points equal the images (for pure-image tests)."""
    return FrontSet(
        [FrontEntry(x=np.asarray(f, dtype=float), fx=np.asarray(f, dtype=float)) for f in images]
    )


def quadratic_problem(c=(1.0,), shift=(0.0,), n=1):
    """m-objective separable quadratics f_j(x) = (c_j/2)||x - shift_j||^2,
    duplicated to m >= 2 when a single objective is given."""
    c = list(c)
    shift = list(shift)
    if len(c) == 1:
        c = c * 2
        shift = shift * 2
    m = len(c)

    def fx(x):
        return np.array([0.5 * cj * np.sum((x - sj) ** 2) for cj, sj in zip(c, shift)])

    def jac(x):
        return np.stack([cj * (x - sj) for cj, sj in zip(c, shift)])

    def hess(x):
        return [cj * np.eye(n) for cj in c]

    return ProblemDefinition(
        name="quad", n=n, m=m, objective=fx, jacobian=jac, hessians=hess,
        lower=np.full(n, -10.0), upper=np.full(n, 10.0),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
