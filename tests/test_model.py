import dataclasses

import numpy as np
import pytest

from frontdescent import (
    EvalCounters,
    EvaluationError,
    ProblemDefinition,
    counted,
    evaluate,
    gradient_check,
    hessians,
    jacobian,
    make_problem,
)


@pytest.fixture
def jos1_2():
    return make_problem("JOS_1", 2)


class TestEvaluate:
    def test_jos1_origin(self, jos1_2):
        assert np.allclose(evaluate(jos1_2, np.zeros(2)), [0.0, 4.0])

    def test_jos1_at_two(self, jos1_2):
        assert np.allclose(evaluate(jos1_2, np.array([2.0, 2.0])), [4.0, 0.0])

    def test_nan_input_rejected(self, jos1_2):
        with pytest.raises(EvaluationError):
            evaluate(jos1_2, np.array([np.nan, 0.0]))

    def test_counter_increment(self, jos1_2):
        c = EvalCounters()
        p = counted(jos1_2, c)
        evaluate(p, np.zeros(2))
        evaluate(p, np.zeros(2))
        assert c.objective_evals == 2
        assert c.jacobian_evals == 0

    def test_wrong_length(self, jos1_2):
        with pytest.raises(ValueError):
            evaluate(jos1_2, np.zeros(3))

    def test_nonfinite_output_carries_index(self):
        def bad(x):
            return np.array([1.0, np.inf])

        p = ProblemDefinition(
            name="bad", n=1, m=2, objective=bad,
            jacobian=lambda x: np.zeros((2, 1)),
            lower=np.array([-1.0]), upper=np.array([1.0]),
        )
        with pytest.raises(EvaluationError) as exc:
            evaluate(p, np.zeros(1))
        assert exc.value.index == 1
        assert str(exc.value) == "non-finite objective value at index 1"

    def test_pure(self, jos1_2, rng):
        x = rng.uniform(-10, 10, 2)
        a = evaluate(jos1_2, x)
        b = evaluate(jos1_2, x)
        assert np.array_equal(a, b)


class TestJacobian:
    def test_jos1_rows(self, jos1_2):
        J = jacobian(jos1_2, np.array([1.0, 1.0]))
        assert np.allclose(J, [[1.0, 1.0], [-1.0, -1.0]])

    def test_jos1_origin_rows(self, jos1_2):
        J = jacobian(jos1_2, np.zeros(2))
        assert np.allclose(J, [[0.0, 0.0], [-2.0, -2.0]])

    def test_joint_stationary_point_all_zero(self):
        # both objectives share the minimizer at the origin
        p = ProblemDefinition(
            name="twin", n=2, m=2,
            objective=lambda x: np.array([x @ x, 2.0 * (x @ x)]),
            jacobian=lambda x: np.stack([2.0 * x, 4.0 * x]),
            lower=np.full(2, -1.0), upper=np.full(2, 1.0),
        )
        assert np.all(jacobian(p, np.zeros(2)) == 0.0)

    def test_counter(self, jos1_2):
        c = EvalCounters()
        jacobian(counted(jos1_2, c), np.zeros(2))
        assert c.jacobian_evals == 1


class TestCounted:
    def test_counts_only_calls_that_return(self):
        def objective(x):
            if x[0] > 0:
                raise FloatingPointError("overflow")
            return np.zeros(2)

        p = ProblemDefinition(
            name="flaky", n=1, m=2, objective=objective,
            jacobian=lambda x: np.zeros((2, 1)),
            lower=np.array([-1.0]), upper=np.array([1.0]),
        )
        c = EvalCounters()
        q = counted(p, c)
        q.objective(np.zeros(1))
        with pytest.raises(FloatingPointError):
            q.objective(np.ones(1))
        q.jacobian(np.ones(1))
        assert c.as_dict() == {"objective_evals": 1, "jacobian_evals": 1, "hessian_evals": 0}
        assert p.objective is objective


class TestGradientCheck:
    def test_jos1_quadratic_exact(self, jos1_2, rng):
        x = rng.uniform(-10, 10, 2)
        assert gradient_check(jos1_2, x, h=1e-6) <= 1e-6

    def test_linear_objective_exact(self):
        c1 = np.array([1.0, -2.0, 3.0])
        c2 = np.array([-1.0, 0.5, 2.0])
        p = ProblemDefinition(
            name="lin", n=3, m=2,
            objective=lambda x: np.array([c1 @ x, c2 @ x]),
            jacobian=lambda x: np.stack([c1, c2]),
            lower=np.full(3, -1.0), upper=np.full(3, 1.0),
        )
        # central differences are analytically exact on linear objectives;
        # only float roundoff (~eps |f| / h) remains
        assert gradient_check(p, np.array([0.3, -0.7, 0.1]), h=1e-6) <= 1e-9

    def test_corrupted_jacobian_detected(self):
        def jac(x):
            J = np.stack([2.0 * x, 2.0 * (x - 2.0)])
            J[0, 0] *= 2.0  # deliberate corruption
            return J

        p = ProblemDefinition(
            name="corrupt", n=2, m=2,
            objective=lambda x: np.array([x @ x, (x - 2) @ (x - 2)]),
            jacobian=jac,
            lower=np.full(2, -10.0), upper=np.full(2, 10.0),
        )
        assert gradient_check(p, np.array([3.0, 1.0]), h=1e-6) >= 0.5

    def test_nonpositive_h_rejected(self, jos1_2):
        with pytest.raises(ValueError):
            gradient_check(jos1_2, np.zeros(2), h=0.0)


class TestHessians:
    def test_analytic_jos1(self, jos1_2):
        H = hessians(jos1_2, np.zeros(2))
        assert np.allclose(H[0], np.eye(2))
        assert np.allclose(H[1], np.eye(2))

    def test_finite_difference_fallback(self):
        p = ProblemDefinition(
            name="nohess", n=2, m=2,
            objective=lambda x: np.array([x @ x, (x - 2) @ (x - 2)]),
            jacobian=lambda x: np.stack([2.0 * x, 2.0 * (x - 2.0)]),
            lower=np.full(2, -10.0), upper=np.full(2, 10.0),
        )
        H = hessians(p, np.array([0.3, -0.4]))
        assert np.allclose(H[0], 2.0 * np.eye(2), atol=1e-6)
        assert np.allclose(H[1], 2.0 * np.eye(2), atol=1e-6)

    def test_finite_difference_counts_its_jacobians(self):
        p = make_problem("CEC09_10", 10)
        assert p.hessians is None
        c = EvalCounters()
        hessians(counted(p, c), np.full(10, 0.3))
        assert c.jacobian_evals == 2 * p.n
        # the Hessian stack itself is counted by the run that asks for it
        assert c.hessian_evals == 0

    def test_finite_difference_checks_its_jacobians(self):
        base = make_problem("CEC09_10", 10)
        x = np.full(10, 0.3)

        def jac(y):
            J = base.jacobian(y)
            return np.full_like(J, np.inf) if y[0] > x[0] else J

        p = dataclasses.replace(base, jacobian=jac)
        with pytest.raises(EvaluationError):
            hessians(p, x)

    @pytest.mark.parametrize(
        "bad",
        [
            [np.eye(2)],  # one matrix for m = 2
            [np.eye(2), np.eye(2), np.eye(2)],
            [np.eye(2), np.eye(3)],
            [np.eye(2), np.ones(2)],
            [np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])],
            [np.eye(2), np.array([[1.0, np.inf], [np.inf, 1.0]])],
        ],
    )
    def test_malformed_analytic_hessians_rejected(self, jos1_2, bad):
        p = dataclasses.replace(jos1_2, hessians=lambda x: bad)
        with pytest.raises(EvaluationError):
            hessians(p, np.zeros(2))

    def test_symmetrized(self, rng):
        A = rng.normal(size=(3, 3))

        p = ProblemDefinition(
            name="quadA", n=3, m=2,
            objective=lambda x: np.array([x @ A @ x, x @ x]),
            jacobian=lambda x: np.stack([(A + A.T) @ x, 2.0 * x]),
            lower=np.full(3, -1.0), upper=np.full(3, 1.0),
        )
        H = hessians(p, rng.normal(size=3))
        for h in H:
            assert np.allclose(h, h.T)


class TestProblemDefinitionValidation:
    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ProblemDefinition(
                name="x", n=0, m=2, objective=lambda x: x, jacobian=lambda x: x,
                lower=np.array([]), upper=np.array([]),
            )
        with pytest.raises(ValueError):
            ProblemDefinition(
                name="x", n=1, m=1, objective=lambda x: x, jacobian=lambda x: x,
                lower=np.array([0.0]), upper=np.array([1.0]),
            )

    def test_bad_box(self):
        with pytest.raises(ValueError):
            ProblemDefinition(
                name="x", n=1, m=2, objective=lambda x: x, jacobian=lambda x: x,
                lower=np.array([1.0]), upper=np.array([1.0]),
            )
