"""Descent direction subproblems solved through their simplex duals.

All direction subproblems share the shape

    min_d  max_j  g_j' d + (1/2) d' B_j d

over an active subset of objectives, with B_j = I for (rescaled) steepest
descent and B_j symmetric positive definite for Newton-type directions. The
dual maximizes  q(lam) = -(1/2) g(lam)' B(lam)^{-1} g(lam)  over the unit
simplex, with g(lam) = sum_j lam_j g_j and B(lam) = sum_j lam_j B_j; the
primal direction is recovered as d = -B(lam)^{-1} g(lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DirectionResult",
    "common_steepest",
    "partial_steepest",
    "newton_direction",
    "bb_direction",
    "update_bb_scalars",
    "sdr_check",
    "solve_dual_simplex",
    "spectral_shift",
]

ZERO_DIRECTION_TOL = 1e-12


@dataclass
class DirectionResult:
    """A descent direction with its subproblem optimum.

    ``d_value`` is max_j g_j' d over the active subset (the worst directional
    derivative), ``theta`` the optimal value of the direction subproblem.
    """

    d: np.ndarray
    theta: float
    d_value: float


def solve_dual_simplex(
    grads: np.ndarray,
    metrics: Optional[np.ndarray] = None,
) -> tuple:
    """Maximize the dual over the unit simplex.

    Returns ``(lam, d, theta, terms)`` where ``terms[j] = g_j' d + (1/2) d' B_j d``
    is the dual gradient; ``metrics`` holds the B_j (an (m, n, n) array or m
    matrices), None the identity. The identity metric with one or two
    objectives has closed forms; every other dual goes to one active-set Newton
    method, which for the identity metric is Wolfe's min-norm-point algorithm.
    ``_KKT_TOL`` bounds the spread of ``terms`` over the support relative to
    the largest summand of ``terms``.
    """
    G = np.asarray(grads, dtype=float)
    m = G.shape[0]
    if m == 0:
        raise ValueError("active subset must be nonempty")

    if metrics is None:
        if m == 1:
            d = -G[0]
            val = float(G[0] @ d + 0.5 * d @ d)
            return np.ones(1), d, val, np.array([val])
        if m == 2:
            g1, g2 = G
            diff = g1 - g2
            denom = float(diff @ diff)
            if denom <= 0.0:
                lam1 = 0.5
            else:
                # lam1 minimizes ||lam1 g1 + (1 - lam1) g2||^2
                lam1 = float(np.clip(((g2 - g1) @ g2) / denom, 0.0, 1.0))
            lam = np.array([lam1, 1.0 - lam1])
            d = -(lam @ G)
            terms = G @ d + 0.5 * float(d @ d)
            theta = float(np.max(terms))
            return lam, d, theta, terms
        n = G.shape[1]
        B = np.broadcast_to(np.eye(n), (m, n, n))
    else:
        B = np.asarray(metrics, dtype=float)
    lam, d, terms = _active_set_newton(G, B)
    return lam, d, float(np.max(terms)), terms


_MAX_ACTIVE_SET_STEPS = 100
_MAX_BACKTRACKS = 60
_KKT_TOL = 1e-13  # spread of terms over the support, relative to their size
_Q_EPS = 1e-13  # rounding of the dual value q, relative to the size of terms
_RIDGE = 1e-14  # ridge on the support's Hessian, relative to its trace


def _dual_point(G: np.ndarray, B: np.ndarray, lam: np.ndarray) -> tuple:
    """(q, d, terms, size, W, L) at lam: the dual value, the primal direction
    d = -B(lam)^{-1} g(lam), the dual gradient, the largest summand of
    ``terms`` (the scale of its rounding error), the rows W_j = g_j + B_j d
    and the Cholesky factor L of B(lam).

    q = -(1/2)||L^{-1} g(lam)||^2 sums no terms of opposite sign, so it keeps
    full relative precision where lam' terms would cancel.
    """
    L = np.linalg.cholesky(np.tensordot(lam, B, axes=1))
    u = np.linalg.solve(L, lam @ G)
    d = -np.linalg.solve(L.T, u)
    Bd = B @ d
    gd = G @ d
    half_dBd = 0.5 * (Bd @ d)
    size = float(np.max(np.abs(gd) + half_dBd))
    return -0.5 * float(u @ u), d, gd + half_dBd, size, G + Bd, L


def _active_set_newton(G: np.ndarray, B: np.ndarray) -> tuple:
    """Maximizer of the concave dual over the unit simplex by a primal
    active-set Newton method; returns ``(lam, d, terms)``.

    On the support S the dual has gradient ``terms`` and Hessian -Z'Z with
    Z = L^{-1} W_S'. Each step solves the equality-constrained Newton system
    [H 1; 1' 0] on S (a tiny ridge keeps H negative definite, so the step
    ascends), stops at the first weight it would drive negative, which then
    leaves S, and backtracks so that q never falls beyond its rounding. Once
    the predicted gain is below that rounding, q can no longer judge a step:
    the full Newton step is taken and S is stationary. At a stationary point
    of S the weight with the largest ``terms`` outside S joins it; when none
    exceeds the support's value the KKT conditions hold.
    """
    m = G.shape[0]
    lam = np.full(m, 1.0 / m)
    S = np.ones(m, dtype=bool)
    q, d, terms, size, W, L = _dual_point(G, B, lam)
    for _ in range(_MAX_ACTIVE_SET_STEPS):
        s = np.flatnonzero(S)
        t = terms[s]
        gap = _KKT_TOL * size
        stationary = t.max() - t.min() <= gap
        if not stationary:
            Z = np.linalg.solve(L, W[s].T)
            ZZ = Z.T @ Z
            k = s.size
            K = np.ones((k + 1, k + 1))
            K[:k, :k] = -ZZ - _RIDGE * np.trace(ZZ) * np.eye(k)
            K[k, k] = 0.0
            p = np.zeros(m)
            p[s] = np.linalg.solve(K, np.append(-t, 0.0))[:k]
            rounding = _Q_EPS * size
            final = 0.5 * float(t @ p[s]) <= rounding
            neg = s[p[s] < 0.0]
            ratios = lam[neg] / -p[neg]
            alpha_max = float(ratios.min()) if neg.size else np.inf
            alpha = min(1.0, alpha_max)
            for _bt in range(_MAX_BACKTRACKS):
                lam_new = lam + alpha * p
                if alpha == alpha_max:
                    lam_new[neg[ratios == alpha_max]] = 0.0
                lam_new = np.maximum(lam_new, 0.0)
                lam_new /= lam_new.sum()
                point = _dual_point(G, B, lam_new)
                if final or point[0] >= q - rounding:
                    lam = lam_new
                    q, d, terms, size, W, L = point
                    stationary = final and bool((lam[s] > 0.0).all())
                    break
                alpha *= 0.5
            else:
                stationary = True
            S &= lam > 0.0
        if not stationary:
            continue
        out = np.flatnonzero(~S)
        if not out.size or terms[out].max() <= terms[S].max() + gap:
            break
        S[out[np.argmax(terms[out])]] = True
    return lam, d, terms


def _result(d: np.ndarray, theta: float, J_rows: np.ndarray) -> DirectionResult:
    """The direction with ``d_value = max(J_rows @ d)``; one of norm at most
    ZERO_DIRECTION_TOL becomes exactly zero, with theta = d_value = 0."""
    if float(np.linalg.norm(d)) <= ZERO_DIRECTION_TOL:
        d, theta, d_value = np.zeros_like(d), 0.0, 0.0
    else:
        d_value = float(np.max(J_rows @ d))
    return DirectionResult(d=d, theta=theta, d_value=d_value)


def common_steepest(J: np.ndarray) -> DirectionResult:
    """Steepest common descent direction: min-norm negative convex combination
    of the gradients, with theta = -(1/2)||d||^2."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    _, d, theta, _ = solve_dual_simplex(J)
    return _result(d, theta, J)


def partial_steepest(J: np.ndarray, I: Sequence[int]) -> DirectionResult:
    """Steepest descent restricted to the objective rows in I (0-based)."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m = J.shape[0]
    idx = sorted(set(int(i) for i in I))
    if not idx or len(idx) >= m or min(idx) < 0 or max(idx) >= m:
        raise ValueError(f"I must be a proper nonempty subset of range({m}), got {I}")
    rows = J[idx]
    _, d, theta, _ = solve_dual_simplex(rows)
    return _result(d, theta, rows)


def spectral_shift(H: np.ndarray, kappa: float) -> tuple:
    """Shift each matrix of H (one n x n matrix or an (m, n, n) stack) by
    eta*I so its minimum eigenvalue is at least kappa whenever it was
    nonpositive; other matrices are left untouched. Returns (B, eta), with eta
    of H's batch shape (0-d for one matrix)."""
    H = np.asarray(H, dtype=float)
    lam_min = np.linalg.eigvalsh(H)[..., 0]
    eta = np.where(lam_min <= 0.0, kappa - lam_min, 0.0)
    E = eta[..., None, None]
    return np.where(E > 0.0, H + E * np.eye(H.shape[-1]), H), eta


def newton_direction(J: np.ndarray, H: np.ndarray, kappa: float) -> DirectionResult:
    """Newton-type direction with per-objective metrics B_j = H_j + eta_j I,
    H an (m, n, n) array or m matrices; eta_j lifts the spectrum above kappa
    when H_j is not positive definite."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    H = np.asarray(H, dtype=float)
    Ht = H.transpose(0, 2, 1)
    if not np.allclose(H, Ht, atol=1e-8):
        raise ValueError("Hessian input must be symmetric")
    B, _ = spectral_shift(0.5 * (H + Ht), kappa)
    _, d, theta, _ = solve_dual_simplex(J, metrics=B)
    return _result(d, theta, J)


def bb_direction(J: np.ndarray, a: np.ndarray, a_min: float, a_max: float) -> DirectionResult:
    """Gradient-rescaled steepest descent: objective j contributes g_j / a_j.

    The scalars are clamped into [a_min, a_max]; theta = -(1/2)||d||^2 holds
    as for plain steepest descent.
    """
    if not (0 < a_min <= a_max):
        raise ValueError("require 0 < a_min <= a_max")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    a = np.clip(np.asarray(a, dtype=float), a_min, a_max)
    _, d, theta, _ = solve_dual_simplex(J / a[:, None])
    # d_value reports the true worst directional derivative, not the rescaled one
    return _result(d, theta, J)


def update_bb_scalars(
    s: np.ndarray,
    y: np.ndarray,
    a_min: float,
    a_max: float,
) -> np.ndarray:
    """Per-objective spectral step scalars a_j = (s'y_j)/(s's), clamped.

    ``y`` holds one gradient difference per row. Nonpositive curvature falls
    back to a_j = 1.
    """
    s = np.asarray(s, dtype=float)
    ss = float(s @ s)
    if ss <= 0:
        raise ValueError("step vector must be nonzero")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    a = np.empty(y.shape[0])
    for j in range(y.shape[0]):
        sy = float(s @ y[j])
        a[j] = np.clip(sy / ss, a_min, a_max) if sy > 0 else 1.0
    return a


def sdr_check(
    d_value_of_vD: float,
    norm_vD: float,
    norm_v: float,
    gamma1: float,
    gamma2: float,
) -> bool:
    """Steepest-descent-related safeguard: the tentative direction must make
    at least Gamma1-proportional progress and stay within Gamma2 of the
    steepest descent norm."""
    return (d_value_of_vD <= -gamma1 * norm_v**2) and (norm_vD <= gamma2 * norm_v)
