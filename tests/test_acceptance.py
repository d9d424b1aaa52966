"""Acceptance suite: 12 criteria, one printed PASS/FAIL line each.

Each criterion is a standalone test so a failure pinpoints the broken
guarantee; the printed line gives a one-glance summary under ``pytest -s``
or in the captured output of a failing run.
"""

import json
import time

import numpy as np
import pytest

from frontdescent import (
    FDConfig,
    FrontEntry,
    FrontSet,
    bb_direction,
    box_gain_lower_bound,
    common_steepest,
    compute_iteration_bound,
    evaluate,
    hv_monte_carlo,
    hypervolume,
    initial_points,
    make_problem,
    newton_direction,
    run,
    sdr_check,
)
from frontdescent.cli import main as cli_main

from conftest import closed_form_sd_m2, grid_theta


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def criterion1_draws():
    """Shared draw schedule for criteria 1 and 2."""
    rng = np.random.default_rng(11)
    m2 = [(int(rng.choice([2, 10, 50])), rng) for _ in range(200)]
    draws = []
    for n, _ in m2:
        draws.append(("m2", rng.normal(size=(2, n))))
    for _ in range(60):
        n = int(rng.choice([2, 10, 50]))
        draws.append(("m3", rng.normal(size=(3, n))))
    return draws


class TestAcceptance:
    def test_criterion_01_direction_oracle_equivalence(self):
        t0 = time.perf_counter()
        worst_d = 0.0
        worst_theta = 0.0
        for kind, J in criterion1_draws():
            res = common_steepest(J)
            if kind == "m2":
                _, d_star, _ = closed_form_sd_m2(J[0], J[1])
                worst_d = max(worst_d, float(np.linalg.norm(res.d - d_star)))
            else:
                worst_theta = max(worst_theta, abs(res.theta - grid_theta(J)))
        elapsed = time.perf_counter() - t0
        ok = worst_d <= 1e-7 and worst_theta <= 1e-4 and elapsed < 10.0
        report(
            1,
            "direction oracle equivalence",
            ok,
            f"max ||d-d*||={worst_d:.2e}, max |theta-grid|={worst_theta:.2e}, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_02_steepest_descent_identities(self):
        worst = 0.0
        for _, J in criterion1_draws():
            res = common_steepest(J)
            nv2 = float(res.d @ res.d)
            worst = max(worst, abs(res.theta - (-0.5 * nv2)))
            worst = max(worst, abs(float(np.max(J @ res.d)) - (-nv2)))
        ok = worst <= 1e-8
        report(2, "steepest-descent identities", ok, f"max deviation {worst:.2e}")

    def test_criterion_03_sdr_guarantees(self):
        rng = np.random.default_rng(12)
        c1, c2 = 0.5, 4.0
        newton_fail = 0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 4))
            J = rng.normal(size=(m, n))
            H = []
            for _ in range(m):
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                H.append(Q @ np.diag(rng.uniform(c1, c2, n)) @ Q.T)
            res = newton_direction(J, H, kappa=1e-2)
            v = common_steepest(J).d
            if not sdr_check(
                float(np.max(J @ res.d)),
                float(np.linalg.norm(res.d)),
                float(np.linalg.norm(v)),
                c1 / (2.0 * c2**2),
                1.0 / c1,
            ):
                newton_fail += 1
        a_min, a_max = 1e-3, 1e3
        bb_fail = 0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 4))
            J = rng.normal(size=(m, n))
            a = np.exp(rng.uniform(np.log(a_min), np.log(a_max), m))
            res = bb_direction(J, a, a_min, a_max)
            v = common_steepest(J).d
            if not sdr_check(
                float(np.max(J @ res.d)),
                float(np.linalg.norm(res.d)),
                float(np.linalg.norm(v)),
                a_min / (4.0 * a_max**2),
                1.0 / a_min,
            ):
                bb_fail += 1
        ok = newton_fail == 0 and bb_fail == 0
        report(
            3,
            "SDR guarantees",
            ok,
            f"newton failures {newton_fail}/1000, bb failures {bb_fail}/1000",
        )

    def test_criterion_04_hypervolume_exactness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(13)
        misses = 0
        for m in (2, 3):
            zeta = np.ones(m)
            for i in range(50):
                Y = rng.uniform(0.1, 0.9, size=(8, m))
                exact = hypervolume(Y, zeta)
                # fresh sample cloud per front so the 3-SE events are independent
                est, se = hv_monte_carlo(
                    Y, zeta, np.zeros(m), samples=10**6, seed=1000 * m + i
                )
                if abs(exact - est) > 3.0 * se:
                    misses += 1
        staircase = hypervolume([(0, 2), (1, 1), (2, 0)], (3, 3))
        elapsed = time.perf_counter() - t0
        ok = misses == 0 and staircase == 6.0 and elapsed < 60.0
        report(
            4,
            "hypervolume exactness",
            ok,
            f"3-SE misses {misses}/100, staircase={staircase}, {elapsed:.1f}s",
        )

    def test_criterion_05_box_gain_lemma(self):
        rng = np.random.default_rng(14)
        zeta = np.array([2.0, 2.0])
        violations = 0
        for _ in range(500):
            size = int(rng.integers(2, 9))
            Y = np.column_stack(
                [
                    np.sort(rng.uniform(0.5, 1.5, size)),
                    -np.sort(-rng.uniform(0.5, 1.5, size)),
                ]
            )
            i = int(rng.integers(0, size))
            gap = rng.uniform(0.01, 0.4, 2)
            new = Y[i] - gap
            Y2 = Y.copy()
            Y2[i] = new
            gain = hypervolume(Y2, zeta) - hypervolume(Y, zeta)
            if gain < box_gain_lower_bound(Y[i], new) - 1e-12:
                violations += 1
        ok = violations == 0
        report(5, "box-gain lemma", ok, f"violations {violations}/500")

    def test_criterion_06_front_stability(self):
        instances = [("JOS_1", 5), ("JOS_1", 20), ("MAN_1", 20), ("CEC09_2", 10)]
        failures = []
        for name, n in instances:
            p = make_problem(name, n)
            try:
                # check_invariants asserts stability and hypervolume
                # monotonicity after every iteration
                run(p, initial_points(p), FDConfig(check_invariants=True))
            except AssertionError as exc:
                failures.append(f"{name} n={n}: {exc}")
        ok = not failures
        report(6, "front stability", ok, "; ".join(failures) or "4/4 runs clean")

    def test_criterion_07_finite_refinement_trend(self):
        t0 = time.perf_counter()
        p = make_problem("MAN_1", 20)
        res = run(
            p,
            initial_points(p),
            FDConfig(variant="sd", sigma=0.05, eps_hv=0.0, max_iterations=150),
        )
        elapsed = time.perf_counter() - t0
        trace = res.trace
        refining = [r.k for r in trace if r.n_refinements > 0]
        k_bar = (max(refining) + 1) if refining else 0
        tail = [r for r in trace if r.k >= k_bar]
        ok = (
            k_bar <= 150
            and len(tail) >= 1
            and all(r.n_refinements == 0 for r in tail)
            and trace[-1].pct_sigma_stationary_in == 100.0
            and all(
                r.pct_exploration_sigma_stationary == 100.0
                for r in tail
                if r.n_explorations > 0
            )
            and elapsed < 300.0
        )
        report(
            7,
            "finite refinement trend",
            ok,
            f"k_bar={k_bar}, iterations={len(trace)}, "
            f"final stat. {trace[-1].pct_sigma_stationary_in:.0f}%, {elapsed:.1f}s",
        )

    def test_criterion_08_analytic_front_recovery(self):
        t0 = time.perf_counter()
        p = make_problem("JOS_1", 5)
        res = run(
            p, initial_points(p), FDConfig(variant="sd", sigma=1e-5, eps_hv=1e-5)
        )
        elapsed = time.perf_counter() - t0
        X = res.front.points()
        # the Pareto set is {x_i = t, t in [0, 2]}: distance is the sup-norm
        # deviation from the clipped diagonal projection
        dists = [
            float(np.max(np.abs(x - np.clip(np.mean(x), 0.0, 2.0)))) for x in X
        ]
        frac = np.mean([d <= 1e-3 for d in dists])
        theta_final = res.trace[-1].theta_value
        ok = frac >= 0.99 and theta_final >= -2e-5 and elapsed < 120.0
        report(
            8,
            "analytic front recovery",
            ok,
            f"{100 * frac:.1f}% within 1e-3, Theta={theta_final:.2e}, "
            f"|front|={len(X)}, {elapsed:.1f}s",
        )

    def test_criterion_09_eps_hv_monotonicity(self):
        p = make_problem("JOS_1", 20)
        X0 = initial_points(p)
        zeta = None
        results = []
        for eps in (1e-2, 1e-3, 5e-4):
            t0 = time.perf_counter()
            res = run(p, X0, FDConfig(eps_hv=eps), reference_point=zeta)
            wall = time.perf_counter() - t0
            zeta = res.reference_point  # identical dominated region for all runs
            results.append((eps, res.trace[-1].hypervolume_value, wall))
        hvs = [hv for _, hv, _ in results]
        walls = [w for _, _, w in results]
        # allow timer jitter well below the iteration cost of one extra pass
        ok = all(b >= a - 1e-12 for a, b in zip(hvs, hvs[1:])) and all(
            b >= a - 0.02 for a, b in zip(walls, walls[1:])
        )
        detail = ", ".join(
            f"eps={eps:g}: V={hv:.4f}, {w * 1000:.0f}ms" for eps, hv, w in results
        )
        report(9, "eps_hv monotonicity", ok, detail)

    def test_criterion_10_newton_unit_steps(self):
        p = make_problem("JOS_1", 5)
        # near-Pareto but non-stationary starting points: small ||v||, theta < 0
        entries = []
        for t in (0.4, 0.8, 1.2, 1.6):
            x = np.full(5, t)
            x[0] += 0.02
            entries.append(FrontEntry(x=x, fx=evaluate(p, x)))
        res = run(
            p,
            FrontSet(entries),
            FDConfig(variant="newton", sigma=1e-12, eps_hv=0.0, max_iterations=20),
        )
        small = [(v, a) for _, v, a in res.refinements if v <= 1e-2]
        violations = sum(1 for _, a in small if a != 1.0)
        ok = len(small) >= 1 and violations == 0
        report(
            10,
            "Newton unit steps",
            ok,
            f"{len(small)} refinements with ||v|| <= 1e-2, {violations} backtracked",
        )

    def test_criterion_11_iteration_bound_sanity(self):
        p = make_problem("JOS_1", 2)
        X0 = initial_points(p)
        cfg = FDConfig()
        res = run(p, X0, cfg)
        zeta = res.reference_point
        # analytic front {(t^2, (t-2)^2) : t in [0, 2]} discretized finely
        t = np.linspace(0.0, 2.0, 100_001)
        front = np.column_stack([t**2, (t - 2.0) ** 2])
        V_star = hypervolume(front, zeta)
        F0 = X0.images()
        inside = F0[np.all(F0 <= zeta, axis=1)]
        V0 = hypervolume(inside, zeta)
        eps = 1e-2
        observed = sum(1 for r in res.trace if r.theta_value <= -eps)
        # L_max: both objectives have constant Hessian (2/n) I = I at n=2
        bound = compute_iteration_bound(V_star, V0, cfg, eps=eps, L_max=1.0, m=2)
        ok = observed <= bound
        report(
            11,
            "iteration bound sanity",
            ok,
            f"observed {observed} <= bound {bound:.3e}",
        )

    def test_criterion_12_determinism(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                ["run", "--problem", "JOS_1", "--n", "5", "--variant", "sd",
                 "--out", str(out)]
            )
            assert code == 0
            outputs.append(
                (
                    (out / "JOS_1_n5__sd.front.csv").read_bytes(),
                    (out / "JOS_1_n5__sd.trace.csv").read_bytes(),
                )
            )
        ok = outputs[0] == outputs[1]
        report(12, "determinism", ok, "front+trace CSVs bitwise identical")
