import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from frontdescent import (
    evaluate,
    gradient_check,
    initial_points,
    is_stable,
    jacobian,
    list_problems,
    make_problem,
)
from frontdescent.suite import SUITE, diagonal_images

ALL_NAMES = sorted(SUITE)

# Returned values of every problem's callables at fixed points, as float.hex,
# recorded before the CEC09 callables were rewritten to compute values only.
# Re-record (``python tests/test_suite.py``) only when a formula changes on
# purpose: every other change must leave these bytes as they are.
GOLDEN = Path(__file__).with_name("golden_suite.json")
# fractional parts of sqrt(2), sqrt(3) and sqrt(5): three spread-out points
_GOLDEN_STEPS = (0.41421356237309515, 0.7320508075688772, 0.2360679774997898)


class TestRegistry:
    def test_thirteen_problems(self):
        assert len(list_problems()) == 13

    def test_entries_have_valid_m(self):
        for e in list_problems():
            assert e.m in (2, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_problem("NOPE", 2)

    def test_mop3_dimension_fixed(self):
        with pytest.raises(ValueError):
            make_problem("MOP_3", 5)

    def test_cec09_8_minimum_dimension(self):
        with pytest.raises(ValueError):
            make_problem("CEC09_8", 4)
        assert make_problem("CEC09_8", 5).m == 3

    def test_jos1_wide_range(self):
        p = make_problem("JOS_1", 50)
        assert p.n == 50 and p.m == 2


class TestGradients:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_gradient_check_random_interior_points(self, name):
        entry = SUITE[name]
        n = min(entry.dims, key=lambda d: abs(d - 10))
        p = make_problem(name, n)
        rng = np.random.default_rng(sum(map(ord, name)))
        worst = 0.0
        for _ in range(20):
            # stay inside the box with a margin; CEC09 gradients are singular
            # on the x_1 = 0 face
            t = rng.uniform(0.02, 0.98, n)
            x = p.lower + t * (p.upper - p.lower)
            worst = max(worst, gradient_check(p, x, h=1e-6))
        assert worst <= 1e-4, f"{name}: worst relative gradient error {worst:.2e}"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_hessians_match_jacobian_differences(self, name):
        from frontdescent import hessians

        entry = SUITE[name]
        n = min(entry.dims, key=lambda d: abs(d - 4))
        p = make_problem(name, n)
        if p.hessians is None:
            pytest.skip("finite-difference Hessians are derived, not transcribed")
        rng = np.random.default_rng(3)
        t = rng.uniform(0.1, 0.9, n)
        x = p.lower + t * (p.upper - p.lower)
        analytic = hessians(p, x)
        h = 1e-5
        for j in range(p.m):
            fd = np.zeros((n, n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[:, i] = (jacobian(p, x + e)[j] - jacobian(p, x - e)[j]) / (2 * h)
            assert np.allclose(analytic[j], fd, atol=1e-4)


class TestSpecificValues:
    def test_jos1_values(self):
        p = make_problem("JOS_1", 2)
        assert np.allclose(evaluate(p, np.zeros(2)), [0, 4])
        assert np.allclose(evaluate(p, np.full(2, 2.0)), [4, 0])

    def test_man1_minimizers(self):
        p = make_problem("MAN_1", 3)
        idx = np.array([1.0, 2.0, 3.0])
        assert evaluate(p, idx)[0] == 0.0
        assert evaluate(p, -idx)[1] == 0.0

    def test_mop2_range(self):
        p = make_problem("MOP_2", 4)
        c = 1.0 / 2.0
        assert evaluate(p, np.full(4, c))[0] == pytest.approx(0.0)
        f = evaluate(p, np.zeros(4))
        assert np.all(f >= 0) and np.all(f < 1)

    def test_cec09_1_on_pareto_set(self):
        # y_j = 0 along x_j = sin(6 pi x1 + j pi/n): objectives reduce to heads
        n = 10
        p = make_problem("CEC09_1", n)
        x1 = 0.36
        js = np.arange(2, n + 1)
        x = np.concatenate([[x1], np.sin(6 * np.pi * x1 + js * np.pi / n)])
        f = evaluate(p, x)
        assert f[0] == pytest.approx(x1, abs=1e-12)
        assert f[1] == pytest.approx(1.0 - np.sqrt(x1), abs=1e-12)


class TestCec093ProductSlope:
    def test_cosine_of_a_double_is_never_zero(self):
        # CEC09_3's Jacobian takes the product of the other cosine factors as
        # prod / cos(w_j), which needs cos(w_j) != 0 for every double w_j:
        # check the doubles at and beside the zeros (k + 1/2) pi of cos
        x = (np.arange(-20000, 20001) + 0.5) * np.pi
        near = [x]
        lo = hi = x
        for _ in range(8):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
        assert np.all(np.cos(np.concatenate(near)) != 0.0)


class TestInitialPoints:
    def test_three_point_diagonal(self):
        p = make_problem("MOP_2", 4)
        front = initial_points(p, count=3)
        X = front.points()
        # diagonal points at t = 0, 0.5, 1 (possibly filtered)
        for x in X:
            assert np.allclose(x, x[0])

    def test_count_one_is_midpoint(self):
        p = make_problem("JOS_1", 4)
        front = initial_points(p, count=1)
        assert len(front) == 1
        assert np.allclose(front.points()[0], 0.0)  # midpoint of [-10, 10]

    def test_default_count_is_n(self):
        p = make_problem("MAN_1", 6)
        # filtering may remove points, but never yields an empty set
        front = initial_points(p)
        assert 1 <= len(front) <= 6

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_stability(self, name):
        entry = SUITE[name]
        n = min(entry.dims, key=lambda d: abs(d - 10))
        front = initial_points(make_problem(name, n))
        assert len(front) >= 1
        assert is_stable(front)

    def test_jos1_dominated_diagonal_samples_filtered(self):
        p = make_problem("JOS_1", 5)
        front = initial_points(p)
        # every surviving point is on the Pareto segment x_i = t, t in [0, 2]
        for x in front.points():
            assert 0.0 <= x[0] <= 2.0

    def test_bad_count(self):
        with pytest.raises(ValueError):
            initial_points(make_problem("JOS_1", 2), count=0)


class TestDiagonalImages:
    def test_shape(self):
        p = make_problem("JOS_1", 5)
        imgs = diagonal_images(p)
        assert imgs.shape == (5, 2)

    def test_includes_dominated_samples(self):
        p = make_problem("JOS_1", 5)
        assert diagonal_images(p).shape[0] > len(initial_points(p))


def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def golden_record(name):
    """float.hex of objective(x) and of each Jacobian row, and a sha256 of the
    float.hex of the analytic Hessians, at three fixed interior points; n = 10,
    or the only n the problem admits."""
    dims = SUITE[name].dims
    p = make_problem(name, 10 if 10 in dims else dims[0])
    i = np.arange(1, p.n + 1)
    out = []
    for step in _GOLDEN_STEPS:
        x = p.lower + (0.05 + 0.9 * (i * step % 1.0)) * (p.upper - p.lower)
        rec = {
            "objective": _hex(p.objective(x)),
            "jacobian": [_hex(row) for row in p.jacobian(x)],
        }
        if p.hessians is not None:
            text = " ".join(_hex(p.hessians(x)))
            rec["hessians_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        out.append(rec)
    return out


class TestGoldenValues:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_values_bitwise_unchanged(self, name, golden):
        for k, (got, want) in enumerate(zip(golden_record(name), golden[name], strict=True)):
            assert got == want, f"{name}: point {k}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: golden_record(name) for name in ALL_NAMES}, indent=1) + "\n"
    )
