import numpy as np
import pytest

from frontdescent import (
    FDConfig,
    FrontEntry,
    FrontSet,
    LineSearchError,
    armijo_front,
    evaluate,
    exploration_ls,
    insert_filter,
)
from conftest import quadratic_problem


@pytest.fixture
def quad():
    # two identical objectives f(x) = x^2/2: componentwise acceptance reduces
    # to the scalar Armijo condition
    return quadratic_problem()


class TestArmijoFront:
    def test_full_step_accepted(self, quad):
        cfg = FDConfig(alpha0=1.0, delta=0.5, gamma=1e-4)
        x = np.array([1.0])
        alpha, z, fz = armijo_front(quad, x, evaluate(quad, x), np.array([-1.0]), -1.0, cfg)
        assert alpha == 1.0
        assert z[0] == 0.0
        assert np.allclose(fz, 0.0)

    def test_one_backtrack(self, quad):
        cfg = FDConfig(alpha0=1.0, delta=0.5, gamma=1e-4)
        x = np.array([1.0])
        alpha, z, _ = armijo_front(quad, x, evaluate(quad, x), np.array([-3.0]), -3.0, cfg)
        assert alpha == 0.5
        assert z[0] == pytest.approx(-0.5)

    def test_nonnegative_d_value_rejected(self, quad):
        cfg = FDConfig()
        with pytest.raises(ValueError):
            armijo_front(quad, np.array([1.0]), np.array([0.5, 0.5]), np.array([1.0]), 0.0, cfg)

    def test_cap_exceeded_raises(self, quad):
        # ascent direction with a lying d_value never satisfies the condition
        cfg = FDConfig(max_backtracks=5)
        with pytest.raises(LineSearchError):
            armijo_front(quad, np.array([1.0]), np.array([0.5, 0.5]), np.array([1.0]), -1.0, cfg)

    def test_accepted_step_satisfies_inequality(self, quad, rng):
        cfg = FDConfig()
        for _ in range(20):
            x = rng.uniform(-5, 5, 1)
            if abs(x[0]) < 1e-8:
                continue
            fx = evaluate(quad, x)
            d = np.array([-x[0]])  # exact Newton step for f = x^2/2
            d_value = float(x[0] * d[0])
            alpha, z, fz = armijo_front(quad, x, fx, d, d_value, cfg)
            assert np.all(fz <= fx + cfg.gamma * alpha * d_value)


class TestExplorationLs:
    def test_singleton_front_accepts_full_step(self, quad):
        cfg = FDConfig()
        z = np.array([1.0])
        front = FrontSet([FrontEntry(x=z, fx=evaluate(quad, z))])
        hit = exploration_ls(quad, z, np.array([-1.0]), front, cfg)
        assert hit is not None
        alpha, w, fw = hit
        assert alpha == 1.0
        assert np.all(fw < front.images()[0])

    def test_accepts_incomparable_candidate(self):
        # front images {(0,2),(2,0)}; candidate at alpha0 has image (1,1)
        prob = quadratic_problem(c=(2.0, 2.0), shift=(0.0, 2.0), n=1)

        def front_of(*xs):
            f = FrontSet()
            for xv in xs:
                x = np.array([float(xv)])
                f = insert_filter(f, FrontEntry(x=x, fx=evaluate(prob, x)))
            return f

        front = front_of(0.0, 2.0)  # images (0, 4) and (4, 0)
        z = np.array([0.0])
        hit = exploration_ls(prob, z, np.array([1.0]), front, FDConfig())
        assert hit is not None
        _, w, fw = hit
        assert w[0] == 1.0
        assert np.allclose(fw, [1.0, 1.0])

    def test_duplicate_image_backtracks(self, quad):
        # a zero direction reproduces z's own image forever: no strict win exists
        cfg = FDConfig(max_backtracks=3)
        z = np.array([1.0])
        front = FrontSet([FrontEntry(x=z, fx=evaluate(quad, z))])
        assert exploration_ls(quad, z, np.zeros(1), front, cfg) is None

    def test_result_not_dominated_by_front(self, quad, rng):
        cfg = FDConfig()
        z = np.array([0.5])
        front = FrontSet([FrontEntry(x=z, fx=evaluate(quad, z))])
        hit = exploration_ls(quad, z, np.array([-0.5]), front, cfg)
        assert hit is not None
        _, _, fw = hit
        F = front.images()
        assert np.all(np.any(fw < F, axis=1))
