import dataclasses
import hashlib
import json
import time
import types
from pathlib import Path

import numpy as np
import pytest

from frontdescent import (
    EvalCounters,
    FDConfig,
    FrontEntry,
    FrontSet,
    compute_iteration_bound,
    counted,
    default_reference_point,
    evaluate,
    front_hypervolume,
    initial_points,
    insert_filter,
    is_stable,
    jacobian,
    make_problem,
    partial_steepest,
    run,
    select_processing_order,
    theta_of_front,
)
from frontdescent import driver
from frontdescent.cli import _trace_csv_text
from frontdescent.driver import TRACE_COLUMNS
from frontdescent.front import front_csv_text

from conftest import golden_points, quadratic_problem

# sha256 of the front CSV, trace CSV, evaluation counts, stop reason and
# refinement log of small capped runs from the filtered golden points of
# conftest. Re-record (``python tests/test_driver.py``) only when a run is
# meant to change: every other change must leave these bytes as they are.
GOLDEN_RUNS = Path(__file__).with_name("golden_runs.json")

# case -> (problem, n, FDConfig keywords); "clocked" cases replace the
# driver's clock by one that advances 1 ms per objective evaluation, so a
# wall-clock cap cuts an iteration short at a reproducible point
GOLDEN_RUN_CASES = {
    "JOS_1_n5__sd": ("JOS_1", 5, {"variant": "sd", "max_iterations": 8}),
    "JOS_1_n5__newton": ("JOS_1", 5, {"variant": "newton", "max_iterations": 8}),
    "JOS_1_n5__bb": ("JOS_1", 5, {"variant": "bb", "max_iterations": 8}),
    "CEC09_1_n10__bb": ("CEC09_1", 10, {"variant": "bb", "max_iterations": 8}),
    "CEC09_8_n10__sd": ("CEC09_8", 10, {"variant": "sd", "max_iterations": 5}),
    "CEC09_10_n10__newton": ("CEC09_10", 10, {"variant": "newton", "max_iterations": 5}),
    "CEC09_8_n10__sd__clocked": ("CEC09_8", 10, {"variant": "sd", "wall_clock_limit": 0.6}),
}


def cached_front(images, thetas):
    """A front of run points with the given images and thetas; their
    Jacobians and directions are placeholders."""
    entries = [
        driver._Point(
            x=np.asarray(f, float), fx=np.asarray(f, float),
            J=np.zeros((2, 2)), v=np.zeros(2), v_norm=0.0, theta=t, bb_history=None,
        )
        for f, t in zip(images, thetas)
    ]
    return FrontSet(entries)


class TestConfig:
    def test_defaults_valid(self):
        c = FDConfig()
        assert c.variant == "sd" and c.sigma == 1e-7

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            FDConfig(variant="cg")

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            FDConfig(delta=1.0)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            FDConfig(sigma=-1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha0": 0.0},
            {"alpha0": -1.0},
            {"max_backtracks": 0},
            {"kappa": 0.0},
            {"kappa": -1.0},
            {"a_min": 0.0},
            {"a_min": -1.0},
            {"a_min": 10.0, "a_max": 1.0},
            {"max_iterations": -1},
            {"wall_clock_limit": -1.0},
        ],
    )
    def test_bad_line_search_constant(self, bad):
        with pytest.raises(ValueError):
            FDConfig(**bad)

    def test_sigma_schedule(self):
        c = FDConfig(sigma=1e-2, sigma_decreasing=True)
        assert c.sigma_at(0) == 1e-2
        assert c.sigma_at(3) == pytest.approx(2.5e-3)
        assert FDConfig(sigma=1e-2).sigma_at(3) == 1e-2


class TestProcessingOrder:
    def test_argmin_theta_first(self):
        front = cached_front([(0, 3), (1, 1), (3, 0)], [-0.5, -2.0, -0.1])
        assert select_processing_order(front) == [1, 0, 2]

    def test_tie_prefers_earlier_insertion(self):
        front = cached_front([(0, 3), (1, 1), (3, 0)], [-1.0, -1.0, -0.1])
        assert select_processing_order(front) == [0, 1, 2]

    def test_remainder_keeps_insertion_order(self):
        front = cached_front([(0, 4), (1, 2), (2, 1), (4, 0)], [0.0, -1.0, -3.0, -2.0])
        assert select_processing_order(front) == [2, 0, 1, 3]

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            select_processing_order(FrontSet([]))

    def test_missing_cache_rejected(self):
        # a plain entry carries no theta to order by
        front = FrontSet([FrontEntry(x=np.zeros(1), fx=np.zeros(2))])
        with pytest.raises(AttributeError):
            select_processing_order(front)


class TestThetaOfFront:
    def test_minimum(self):
        front = cached_front([(0, 1), (1, 0)], [-0.5, -2.0])
        assert theta_of_front(front) == -2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theta_of_front(FrontSet([]))


class TestFrontHypervolume:
    def test_points_beyond_reference_ignored(self):
        front = cached_front([(0, 2), (5, 5)], [0.0, 0.0])
        assert front_hypervolume(front, np.array([3.0, 3.0])) == 3.0

    def test_all_beyond_gives_zero(self):
        front = cached_front([(5, 5)], [0.0])
        assert front_hypervolume(front, np.array([3.0, 3.0])) == 0.0


class TestReferencePoint:
    def test_max_plus_ten_percent_range(self):
        p = make_problem("JOS_1", 20)
        X0 = initial_points(p)
        assert len(X0) >= 2  # non-degenerate image range in both objectives
        zeta = default_reference_point(p, X0)
        F = X0.images()
        assert np.allclose(zeta, F.max(axis=0) + 0.1 * (F.max(axis=0) - F.min(axis=0)))

    def test_singleton_borrows_diagonal_range(self):
        p = make_problem("JOS_1", 5)
        X0 = initial_points(p, count=1)
        zeta = default_reference_point(p, X0)
        assert np.all(zeta > X0.images()[0])

    @pytest.mark.parametrize("variant", ["sd", "newton", "bb"])
    def test_diagonal_sample_evaluations_counted(self, variant):
        # the run counts exactly the calls its problem's callables see: a
        # singleton X0 borrows the range of the n hyper-diagonal samples, and
        # CEC09_10's Newton metrics are Jacobian differences
        raw = make_problem("CEC09_10", 10)
        calls = {"objective": 0, "jacobian": 0}

        def counted(name):
            def call(x):
                calls[name] += 1
                return getattr(raw, name)(x)

            return call

        p = dataclasses.replace(raw, objective=counted("objective"), jacobian=counted("jacobian"))
        x = 0.5 * (p.lower + p.upper)
        X0 = FrontSet([FrontEntry(x=x, fx=p.objective(x))])
        calls["objective"] = 0
        cfg = FDConfig(variant=variant, max_iterations=3, eps_hv=0.0)
        res = run(p, X0, cfg)
        assert res.refinements
        assert res.counters.objective_evals == calls["objective"]
        assert res.counters.jacobian_evals == calls["jacobian"]
        assert res.counters.hessian_evals == (len(res.refinements) if variant == "newton" else 0)
        given = run(p, X0, cfg, reference_point=res.reference_point)
        assert res.counters.objective_evals == given.counters.objective_evals + p.n
        assert res.counters.jacobian_evals == given.counters.jacobian_evals + p.n

    def test_explicit_reference_must_dominate_x0(self):
        # and must be m finite values
        p = make_problem("JOS_1", 5)
        X0 = initial_points(p)
        for zeta in (np.zeros(2), [100.0], 100.0, [np.nan, np.nan], [np.inf, np.inf]):
            with pytest.raises(ValueError):
                run(p, X0, FDConfig(), reference_point=zeta)


class TestPartialThetaExample:
    def test_jos1_origin_partial_theta(self):
        # at x = 0 the second-objective gradient is (-4/n) 1, so the partial
        # stationarity value is -(1/2)||g||^2 = -8/n
        for n in (2, 5, 10):
            p = make_problem("JOS_1", n)
            J = jacobian(p, np.zeros(n))
            res = partial_steepest(J, (1,))
            assert res.theta == pytest.approx(-8.0 / n, abs=1e-12)


class TestStopRules:
    @staticmethod
    def assert_untouched_start(res, cfg, p, X0):
        # a run capped at k = 0 evaluates nothing past the starting set's
        # Jacobians and the reference point's samples, and records the
        # starting set in its one trace row
        assert np.array_equal(res.front.images(), X0.images())
        setup = EvalCounters()
        default_reference_point(counted(p, setup), X0)
        assert res.counters.objective_evals == setup.objective_evals
        assert res.counters.jacobian_evals == setup.jacobian_evals + len(X0)
        (rec,) = res.trace
        n = len(res.front)
        stationary = sum(1 for e in res.front if e.theta >= -cfg.sigma_at(0))
        assert rec.row() == [
            0,
            n,
            100.0 * stationary / n,
            0,
            0,
            0,
            100.0,
            n,
            theta_of_front(res.front),
            front_hypervolume(res.front, res.reference_point),
        ]
        assert res.refinements == []

    def test_zero_iteration_time_cap(self):
        p = make_problem("JOS_1", 5)
        X0 = initial_points(p)
        cfg = FDConfig(wall_clock_limit=0.0, sigma=1e-2, sigma_decreasing=True)
        res = run(p, X0, cfg)
        assert res.stop_reason == "time_cap"
        self.assert_untouched_start(res, cfg, p, X0)

    def test_time_cap_on_a_growing_front(self):
        p = make_problem("CEC09_8", 10)
        t0 = time.perf_counter()
        res = run(p, initial_points(p), FDConfig(eps_hv=0.0, wall_clock_limit=1.0))
        assert res.stop_reason == "time_cap"
        assert time.perf_counter() - t0 < 1.0 + 3.0

    def test_time_cap_holds_within_a_line_search(self, monkeypatch):
        # a clock that advances 1 ms per objective evaluation makes the
        # overshoot exact: past the limit, at most the line search under way
        # finishes, and the cut-short iteration still gets its trace row
        raw = make_problem("CEC09_8", 10)
        clock = [0.0]

        def objective(x):
            clock[0] += 1e-3
            return raw.objective(x)

        monkeypatch.setattr(driver, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        p = dataclasses.replace(raw, objective=objective)
        cfg = FDConfig(eps_hv=0.0, wall_clock_limit=2.0)
        res = run(p, initial_points(raw), cfg)
        assert res.stop_reason == "time_cap"
        assert clock[0] <= cfg.wall_clock_limit + (cfg.max_backtracks + 1) * 1e-3
        assert [r.k for r in res.trace] == list(range(len(res.trace)))
        assert res.trace[-1].front_size_out == len(res.front)
        assert res.trace[-1].hypervolume_value == front_hypervolume(res.front, res.reference_point)

    def test_zero_iteration_cap(self):
        p = make_problem("JOS_1", 5)
        X0 = initial_points(p)
        cfg = FDConfig(max_iterations=0, sigma=1e-2, sigma_decreasing=True)
        res = run(p, X0, cfg)
        assert res.stop_reason == "iteration_cap"
        self.assert_untouched_start(res, cfg, p, X0)

    def test_theta_threshold_on_common_minimum(self):
        # both objectives minimized at the same point: nothing to refine or explore
        p = quadratic_problem(n=2)
        X0 = FrontSet([FrontEntry(x=np.zeros(2), fx=np.zeros(2))])
        res = run(p, X0, FDConfig(eps_hv=0.0))
        assert res.stop_reason == "theta_threshold"
        assert len(res.front) == 1
        assert res.trace[-1].theta_value >= -1e-12

    def test_iteration_cap_beats_theta(self):
        p = quadratic_problem(n=2)
        X0 = FrontSet([FrontEntry(x=np.zeros(2), fx=np.zeros(2))])
        res = run(p, X0, FDConfig(eps_hv=0.0, max_iterations=1))
        assert res.stop_reason == "iteration_cap"

    def test_hv_improvement_stop(self):
        p = make_problem("JOS_1", 5)
        res = run(p, initial_points(p), FDConfig())
        assert res.stop_reason == "hv_improvement"

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            run(make_problem("JOS_1", 2), FrontSet([]), FDConfig())


class TestRunInvariants:
    @pytest.mark.parametrize("variant", ["sd", "newton", "bb"])
    def test_jos1_invariant_checked(self, variant):
        p = make_problem("JOS_1", 5)
        x = np.full(5, 5.0)  # off the Pareto set, so every variant refines
        X0 = FrontSet([FrontEntry(x=x, fx=evaluate(p, x))])
        res = run(p, X0, FDConfig(variant=variant, check_invariants=True))
        assert res.refinements
        assert res.counters.hessian_evals == (len(res.refinements) if variant == "newton" else 0)
        assert is_stable(res.front)
        hvs = [r.hypervolume_value for r in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(hvs, hvs[1:]))
        assert res.trace[-1].front_size_out == len(res.front)

    def test_trace_is_contiguous(self):
        p = make_problem("JOS_1", 5)
        res = run(p, initial_points(p), FDConfig())
        assert [r.k for r in res.trace] == list(range(len(res.trace)))
        assert len(TRACE_COLUMNS) == 10
        assert len(res.trace[0].row()) == 10

    def test_refinement_log(self):
        from frontdescent import evaluate

        p = make_problem("JOS_1", 5)
        x = np.full(5, 5.0)  # off the Pareto set: strictly descendable
        X0 = FrontSet([FrontEntry(x=x, fx=evaluate(p, x))])
        res = run(p, X0, FDConfig())
        assert res.refinements, "descent from a non-stationary start must refine"
        for k, v_norm, alpha in res.refinements:
            assert 0 <= k < len(res.trace)
            assert v_norm > 0 and alpha > 0

    def test_counters_populated(self):
        p = make_problem("JOS_1", 5)
        res = run(p, initial_points(p), FDConfig())
        assert res.counters.objective_evals > 0
        assert res.counters.jacobian_evals > 0

    def test_shared_start_counts_like_a_fresh_one(self):
        p = make_problem("CEC09_1", 10)
        cfg = FDConfig(variant="bb", max_iterations=3)
        fresh = run(p, initial_points(p), cfg)
        X0 = initial_points(p)
        run(p, X0, FDConfig(variant="sd", max_iterations=3))
        assert all(set(vars(e)) == {"x", "fx", "provenance"} for e in X0)
        after = run(p, X0, cfg)
        assert after.counters.as_dict() == fresh.counters.as_dict()
        assert np.array_equal(after.front.images(), fresh.front.images())

    def test_warm_start_counts_like_fresh_entries(self):
        # a finished front's cached Jacobians, thetas and BB histories are
        # neither trusted nor left uncounted by the next run
        p = make_problem("JOS_1", 5)
        res = run(p, initial_points(p), FDConfig(variant="sd", max_iterations=3))
        assert all(e.J is not None for e in res.front)
        cfg = FDConfig(variant="bb", max_iterations=2)
        warm = run(p, res.front, cfg)
        fresh = run(
            p, FrontSet(FrontEntry(e.x, e.fx, e.provenance) for e in res.front), cfg
        )
        assert warm.counters.as_dict() == fresh.counters.as_dict()
        assert np.array_equal(warm.front.images(), fresh.front.images())
        assert [r.row() for r in warm.trace] == [r.row() for r in fresh.trace]

    def test_deterministic(self):
        p = make_problem("MAN_1", 5)
        cfg = FDConfig(max_iterations=5)
        a = run(p, initial_points(p), cfg)
        b = run(p, initial_points(p), cfg)
        assert np.array_equal(a.front.images(), b.front.images())
        assert [r.row() for r in a.trace] == [r.row() for r in b.trace]

    def test_front_grows_on_jos1(self):
        p = make_problem("JOS_1", 5)
        res = run(p, initial_points(p), FDConfig())
        assert len(res.front) > len(initial_points(p))


def golden_run_digest(case: str) -> str:
    name, n, kwargs = GOLDEN_RUN_CASES[case]
    p, points = golden_points(name, n)
    X0 = FrontSet()
    for x in points:
        X0 = insert_filter(X0, FrontEntry(x=x, fx=evaluate(p, x), provenance="initial"))
    with pytest.MonkeyPatch.context() as mp:
        if case.endswith("__clocked"):
            clock = [0.0]
            objective = p.objective

            def ticking(x):
                clock[0] += 1e-3
                return objective(x)

            mp.setattr(driver, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
            p = dataclasses.replace(p, objective=ticking)
        res = run(p, X0, FDConfig(eps_hv=0.0, **kwargs))
    text = "".join(
        [
            front_csv_text(res.front, p.n, p.m),
            _trace_csv_text(res),
            json.dumps(res.counters.as_dict(), sort_keys=True),
            res.stop_reason,
            repr([(k, v.hex(), a.hex()) for k, v, a in res.refinements]),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenRuns:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_RUNS.read_text())

    @pytest.mark.parametrize("case", sorted(GOLDEN_RUN_CASES))
    def test_run_bytes_unchanged(self, case, golden):
        assert golden_run_digest(case) == golden[case]


class TestIterationBound:
    def test_delta_low_example(self):
        # defaults gamma1 = 1e-2, gamma = 1e-4, gamma2 = 1e2, L_max = 1:
        # delta_low = 1e-2 (1 - 1e-4) / 1e4 = 9.999e-7
        cfg = FDConfig()
        bound = compute_iteration_bound(1.0, 0.0, cfg, eps=1e-2, L_max=1.0, m=2)
        delta_low = 1e-2 * (1 - 1e-4) / 1e4
        assert delta_low == pytest.approx(9.999e-7)
        expected = 1.0 / (2 * 1e-4 * 1e-2 * delta_low * 1e-2) ** 2
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_eps(self):
        cfg = FDConfig()
        loose = compute_iteration_bound(1.0, 0.0, cfg, eps=1e-1, L_max=1.0, m=2)
        tight = compute_iteration_bound(1.0, 0.0, cfg, eps=1e-3, L_max=1.0, m=2)
        assert tight > loose

    def test_bad_arguments(self):
        cfg = FDConfig()
        with pytest.raises(ValueError):
            compute_iteration_bound(1.0, 0.0, cfg, eps=0.0, L_max=1.0, m=2)
        with pytest.raises(ValueError):
            compute_iteration_bound(0.0, 1.0, cfg, eps=1e-2, L_max=1.0, m=2)


if __name__ == "__main__":
    GOLDEN_RUNS.write_text(
        json.dumps({c: golden_run_digest(c) for c in sorted(GOLDEN_RUN_CASES)}, indent=1) + "\n"
    )
