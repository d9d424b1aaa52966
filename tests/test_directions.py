import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from frontdescent import (
    bb_direction,
    common_steepest,
    hessians,
    newton_direction,
    partial_steepest,
    sdr_check,
    solve_dual_simplex,
    spectral_shift,
    update_bb_scalars,
)
from frontdescent.suite import SUITE
from conftest import closed_form_sd_m2, golden_points, grid_theta, hex_sha256

# sha256 of the float.hex of every direction builder's d, theta and d_value,
# and of model.hessians, on each suite problem at the golden points of
# tests/test_suite.py. Re-record (``python tests/test_directions.py``) only
# when a direction is meant to change: every other change must leave these
# bytes as they are.
GOLDEN = Path(__file__).with_name("golden_directions.json")


class TestCommonSteepest:
    def test_single_objective(self):
        res = common_steepest(np.array([[3.0, 4.0]]))
        assert np.allclose(res.d, [-3.0, -4.0])
        assert res.theta == pytest.approx(-12.5)

    def test_stationary_opposed_gradients(self):
        res = common_steepest(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(res.d, 0.0)
        assert res.theta == 0.0
        assert not res.d.any()

    def test_orthogonal_gradients(self):
        J = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = common_steepest(J)
        assert np.allclose(res.d, [-0.5, -0.5])
        assert res.theta == pytest.approx(-0.25)
        assert np.allclose(solve_dual_simplex(J)[0], [0.5, 0.5])

    def test_matches_closed_form_m2(self, rng):
        for n in (2, 10, 50):
            for _ in range(50):
                J = rng.normal(size=(2, n))
                _, d_star, _ = closed_form_sd_m2(J[0], J[1])
                res = common_steepest(J)
                assert np.linalg.norm(res.d - d_star) <= 1e-7

    def test_matches_grid_m3(self, rng):
        for _ in range(20):
            J = rng.normal(size=(3, 4))
            res = common_steepest(J)
            assert abs(res.theta - grid_theta(J)) <= 1e-4

    def test_identities(self, rng):
        # theta = -||v||^2/2 and D(x, v) = -||v||^2
        for m, n in [(2, 2), (2, 10), (3, 50)]:
            for _ in range(30):
                J = rng.normal(size=(m, n))
                res = common_steepest(J)
                nv2 = float(res.d @ res.d)
                assert res.theta == pytest.approx(-0.5 * nv2, abs=1e-8)
                assert res.d_value == pytest.approx(-nv2, abs=1e-8)

    def test_theta_nonpositive(self, rng):
        for _ in range(50):
            J = rng.normal(size=(3, 5))
            assert common_steepest(J).theta <= 0.0


class TestPartialSteepest:
    def test_singleton_subset(self):
        J = np.array([[3.0, 0.0], [0.0, 5.0], [1.0, 1.0]])
        res = partial_steepest(J, [1])
        assert np.allclose(res.d, [0.0, -5.0])
        assert res.theta == pytest.approx(-12.5)

    def test_pair_subset_matches_common_m2(self):
        J = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        res = partial_steepest(J, [0, 1])
        assert np.allclose(res.d, [-0.5, -0.5])
        assert res.theta == pytest.approx(-0.25)

    def test_zero_gradient_subset(self):
        J = np.array([[0.0, 0.0], [1.0, 1.0]])
        res = partial_steepest(J, [0])
        assert not res.d.any() and res.theta == 0.0

    def test_improper_subsets_rejected(self):
        J = np.eye(2)
        for bad in ([], [0, 1], [2], [-1]):
            with pytest.raises(ValueError):
                partial_steepest(J, bad)


class TestSpectralShift:
    def test_positive_definite_untouched(self):
        H = np.diag([0.5, 2.0])
        B, eta = spectral_shift(H, kappa=0.01)
        assert eta == 0.0
        assert np.array_equal(B, H)

    def test_indefinite_shifted_to_kappa(self):
        H = np.diag([-1.0, 3.0])
        B, eta = spectral_shift(H, kappa=0.01)
        assert eta == pytest.approx(1.01)
        assert np.linalg.eigvalsh(B)[0] == pytest.approx(0.01)

    def test_zero_min_eigenvalue_shifted(self):
        B, eta = spectral_shift(np.zeros((2, 2)), kappa=0.5)
        assert eta == pytest.approx(0.5)
        assert np.linalg.eigvalsh(B)[0] == pytest.approx(0.5)


class TestNewtonDirection:
    def test_single_objective_newton(self):
        res = newton_direction(np.array([[2.0, 2.0]]), [np.diag([2.0, 2.0])], kappa=0.01)
        assert np.allclose(res.d, [-1.0, -1.0])

    def test_negative_curvature_shift(self):
        res = newton_direction(np.array([[1.0]]), [np.array([[-1.0]])], kappa=0.01)
        # B = 0.01 after the shift, d = -g / 0.01
        assert res.d[0] == pytest.approx(-100.0)

    def test_theta_bound(self, rng):
        # theta_N <= D(x, v_N)/2
        for _ in range(100):
            J = rng.normal(size=(2, 4))
            H = []
            for _ in range(2):
                A = rng.normal(size=(4, 4))
                H.append(A @ A.T + 0.1 * np.eye(4))
            res = newton_direction(J, H, kappa=1e-2)
            assert res.theta <= res.d_value / 2.0 + 1e-10

    def test_matches_grid_m3(self, rng):
        for _ in range(5):
            J = rng.normal(size=(3, 3))
            H = []
            for _ in range(3):
                A = rng.normal(size=(3, 3))
                H.append(A @ A.T + 0.5 * np.eye(3))
            res = newton_direction(J, H, kappa=1e-2)
            assert abs(res.theta - grid_theta(J, step=1e-2, metrics=H)) <= 1e-3

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            newton_direction(np.eye(2), [np.array([[1.0, 5.0], [0.0, 1.0]])], kappa=0.01)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError):
            newton_direction(np.eye(2), [np.eye(2), np.eye(2)], kappa=0.0)


class TestBBDirection:
    def test_unit_scalars_reduce_to_sd(self, rng):
        J = rng.normal(size=(2, 5))
        a = np.ones(2)
        assert np.allclose(bb_direction(J, a, 1e-3, 1e3).d, common_steepest(J).d)

    def test_single_objective_rescaled(self):
        res = bb_direction(np.array([[4.0, 0.0]]), np.array([2.0]), 1e-3, 1e3)
        assert np.allclose(res.d, [-2.0, 0.0])
        assert res.theta == pytest.approx(-2.0)

    def test_clamping(self):
        res = bb_direction(np.array([[1.0]]), np.array([1e6]), 1e-3, 1e3)
        # scalar clamped to 1e3: d = -g/1e3
        assert res.d[0] == pytest.approx(-1e-3)

    def test_theta_identity(self, rng):
        # theta_a = -||v_a||^2 / 2
        for _ in range(50):
            J = rng.normal(size=(3, 6))
            a = rng.uniform(0.1, 10.0, 3)
            res = bb_direction(J, a, 1e-3, 1e3)
            assert res.theta == pytest.approx(-0.5 * float(res.d @ res.d), abs=1e-8)

    def test_norm_bound(self, rng):
        # ||v_a|| <= (1/a_min) ||v||
        a_min, a_max = 1e-3, 1e3
        for _ in range(100):
            J = rng.normal(size=(2, 4))
            a = rng.uniform(a_min, a_max, 2)
            va = bb_direction(J, a, a_min, a_max).d
            v = common_steepest(J).d
            assert np.linalg.norm(va) <= np.linalg.norm(v) / a_min + 1e-8

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            bb_direction(np.eye(2), np.ones(2), 0.0, 1.0)


class TestUpdateBBScalars:
    def test_quadratic_recovers_curvature(self):
        s = np.array([0.5, -0.25, 1.0])
        c = 3.0
        a = update_bb_scalars(s, (c * s)[None, :], 1e-3, 1e3)
        assert a[0] == pytest.approx(c)

    def test_negative_curvature_fallback(self):
        s = np.array([1.0, 0.0])
        a = update_bb_scalars(s, np.array([[-1.0, 0.0]]), 1e-3, 1e3)
        assert a[0] == 1.0

    def test_clamped(self):
        s = np.array([1.0])
        a = update_bb_scalars(s, np.array([[1e9]]), 1e-3, 1e3)
        assert a[0] == 1e3

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            update_bb_scalars(np.zeros(2), np.ones((1, 2)), 1e-3, 1e3)


class TestSdrCheck:
    def test_steepest_descent_always_passes(self, rng):
        for _ in range(20):
            J = rng.normal(size=(2, 3))
            v = common_steepest(J).d
            nv = float(np.linalg.norm(v))
            assert sdr_check(-(nv**2), nv, nv, gamma1=1e-2, gamma2=1e2)

    def test_zero_progress_fails(self):
        assert not sdr_check(0.0, 1.0, 1.0, gamma1=1e-2, gamma2=1e2)

    def test_oversized_direction_fails(self):
        assert not sdr_check(-10.0, 1e5, 1.0, gamma1=1e-2, gamma2=1e2)

    def test_newton_guarantee(self, rng):
        # eigenvalues in [c1, c2] => passes with Gamma1 = c1/(2 c2^2), Gamma2 = 1/c1
        c1, c2 = 0.5, 4.0
        gamma1, gamma2 = c1 / (2.0 * c2**2), 1.0 / c1
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 4))
            J = rng.normal(size=(m, n))
            H = []
            for _ in range(m):
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                H.append(Q @ np.diag(rng.uniform(c1, c2, n)) @ Q.T)
            res = newton_direction(J, H, kappa=1e-2)
            v = common_steepest(J).d
            assert sdr_check(
                float(np.max(J @ res.d)),
                float(np.linalg.norm(res.d)),
                float(np.linalg.norm(v)),
                gamma1,
                gamma2,
            )

    def test_bb_guarantee(self, rng):
        a_min, a_max = 1e-3, 1e3
        gamma1, gamma2 = a_min / (4.0 * a_max**2), 1.0 / a_min
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(2, 4))
            J = rng.normal(size=(m, n))
            a = rng.uniform(a_min, a_max, m)
            res = bb_direction(J, a, a_min, a_max)
            v = common_steepest(J).d
            assert sdr_check(
                float(np.max(J @ res.d)),
                float(np.linalg.norm(res.d)),
                float(np.linalg.norm(v)),
                gamma1,
                gamma2,
            )


class TestDualSolver:
    def test_m2_matches_closed_form(self, rng):
        for _ in range(100):
            G = rng.normal(size=(2, 4))
            lam, d, theta, _ = solve_dual_simplex(G)
            lam_star, _, _ = closed_form_sd_m2(G[0], G[1])
            assert abs(lam[0] - lam_star) <= 1e-8

    def test_m3_matches_grid(self, rng):
        for _ in range(20):
            G = rng.normal(size=(3, 3))
            _, _, theta, _ = solve_dual_simplex(G)
            assert abs(theta - grid_theta(G)) <= 1e-4

    def test_zero_gradient_hull(self):
        # one zero gradient puts 0 in the convex hull: theta = 0, d = 0
        G = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
        _, d, theta, _ = solve_dual_simplex(G)
        assert abs(theta) <= 1e-10
        assert np.linalg.norm(d) <= 1e-5

    def test_weights_on_simplex(self, rng):
        for _ in range(30):
            G = rng.normal(size=(3, 5))
            lam, _, _, _ = solve_dual_simplex(G)
            assert np.all(lam >= -1e-12)
            assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)

    def test_identity_kkt(self, rng):
        # every third draw repeats a gradient row, every third puts zero in
        # the gradient hull; n = 2 with m = 3 is MOP_7's shape (m = n + 1)
        for m in (3, 4, 5):
            for n in (2, 5, 10):
                B = [np.eye(n)] * m
                for k in range(50):
                    G = rng.normal(size=(m, n))
                    if k % 3 == 1:
                        G[-1] = G[0]
                    elif k % 3 == 2:
                        G -= rng.dirichlet(np.ones(m)) @ G
                    lam, d, theta, terms = solve_dual_simplex(G)
                    assert_kkt(G, B, lam, d, theta, terms)


def random_spd(rng, n, lo=0.1, hi=10.0):
    """Random symmetric matrix with eigenvalues log-uniform in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(np.exp(rng.uniform(np.log(lo), np.log(hi), n))) @ Q.T


def assert_kkt(G, B, lam, d, theta, terms, rel=1e-9):
    """lam on the simplex, d = -B(lam)^{-1} g(lam), terms equal on the support
    and no larger outside it, theta their maximum. Tolerances are relative to
    the size of terms or, when zero is in the gradient hull and terms vanish,
    to the single-objective optima g_j' B_j^{-1} g_j."""
    G = np.asarray(G)
    vertex = max(float(g @ np.linalg.solve(b, g)) for g, b in zip(G, B))
    scale = max(float(np.max(np.abs(terms))), vertex)
    assert np.all(lam >= 0.0) and np.sum(lam) == pytest.approx(1.0, abs=1e-12)
    Blam = sum(l * b for l, b in zip(lam, B))
    assert np.allclose(Blam @ d, -(lam @ G), rtol=0.0, atol=1e-9 * np.linalg.norm(lam @ G))
    expected = np.array([g @ d + 0.5 * d @ b @ d for g, b in zip(G, B)])
    assert np.allclose(terms, expected, rtol=0.0, atol=1e-12 * scale)
    support = lam > 0.0
    assert np.ptp(terms[support]) <= rel * scale
    assert np.all(terms <= np.max(terms[support]) + rel * scale)
    assert theta == np.max(terms)


class TestNewtonDual:
    def test_kkt_random_metrics(self, rng):
        # m = 1 has no closed form: the active-set solver's support is
        # stationary at once
        for m in (1, 2, 3, 4):
            for n in (2, 5, 10):
                for _ in range(20):
                    G = rng.normal(size=(m, n))
                    B = [random_spd(rng, n) for _ in range(m)]
                    lam, d, theta, terms = solve_dual_simplex(G, metrics=B)
                    assert_kkt(G, B, lam, d, theta, terms)

    def test_ill_conditioned_matches_grid(self, rng):
        # spectral_shift of Hessians with one negative eigenvalue gives metric
        # spectra from kappa = 1e-2 up to about 1e4. The grid misses the
        # optimum by O(|H| step^2); an m = 3 grid fine enough for that costs
        # about 2 s, so it gets one draw
        for m, step, rel, draws in ((2, 1e-4, 1e-6, 3), (3, 2e-3, 1e-3, 1)):
            for _ in range(draws):
                n = 6
                J = rng.normal(size=(m, n))
                H = []
                for _ in range(m):
                    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                    eig = np.concatenate([[-3.0], np.logspace(-1, 4, n - 1)])
                    H.append(Q @ np.diag(eig) @ Q.T)
                B = [spectral_shift(0.5 * (h + h.T), 1e-2)[0] for h in H]
                assert np.linalg.cond(B[0]) > 1e5
                res = newton_direction(J, H, kappa=1e-2)
                lam, d, theta, terms = solve_dual_simplex(J, metrics=B)
                assert_kkt(J, B, lam, d, theta, terms)
                assert np.array_equal(res.d, d) and res.theta == theta
                grid = grid_theta(J, step=step, metrics=B)
                # grid points are feasible dual points, so never above theta
                assert grid <= theta + 1e-12 * abs(theta)
                assert theta - grid <= rel * abs(theta)

    def test_vertex_optimum(self):
        # at d = -B_0^{-1} g_0 objective 0 has the largest term: lam = e_0
        G = np.array([[1.0, 0.5, 0.0], [2.0, 1.0, 0.5], [1.5, 1.0, -0.1]])
        B = [np.diag([1.0, 2.0, 3.0]), np.eye(3), np.diag([2.0, 2.0, 1.0])]
        lam, d, theta, terms = solve_dual_simplex(G, metrics=B)
        d0 = -np.linalg.solve(B[0], G[0])
        assert np.array_equal(lam, [1.0, 0.0, 0.0])
        assert np.allclose(d, d0, rtol=1e-14, atol=0.0)
        assert theta == pytest.approx(-0.5 * G[0] @ np.linalg.solve(B[0], G[0]), rel=1e-14)
        assert_kkt(G, B, lam, d, theta, terms)

    def test_edge_optimum(self, rng):
        # g_2 = 3 g_0 with B_2 = B_0: terms_2 = terms_0 + 2 g_0'd < terms_0
        # at any descent d, so the optimum is that of objectives 0 and 1
        n = 4
        G2 = np.array([[1.0, 1.0, 0.0, 0.5], [-1.0, 1.0, 0.5, 0.0]])
        B2 = [random_spd(rng, n), random_spd(rng, n)]
        lam2, d2, theta2, _ = solve_dual_simplex(G2, metrics=B2)
        assert np.all(lam2 > 0.0)
        G = np.vstack([G2, 3.0 * G2[0]])
        B = B2 + [B2[0]]
        lam, d, theta, terms = solve_dual_simplex(G, metrics=B)
        assert lam[2] == 0.0
        assert np.allclose(lam[:2], lam2, rtol=0.0, atol=1e-12)
        assert np.allclose(d, d2, rtol=1e-9, atol=0.0)
        assert theta == pytest.approx(theta2, rel=1e-12)
        assert_kkt(G, B, lam, d, theta, terms)


def _direction_sha256(res):
    return hex_sha256(np.concatenate([res.d, [res.theta, res.d_value]]))


def golden_record(name):
    """Per golden point: hashes of model.hessians (finite differences where the
    problem has no analytic Hessians), common_steepest, partial_steepest for
    every proper subset, bb_direction with scalars 0.5, 1, 2 (clamped into
    [1e-3, 1e3]) and newton_direction with kappa = 1e-2."""
    p, points = golden_points(name)
    out = []
    for x in points:
        J = p.jacobian(x)
        H = hessians(p, x)
        rec = {
            "hessians": hex_sha256(H),
            "common_steepest": _direction_sha256(common_steepest(J)),
            "bb_direction": _direction_sha256(
                bb_direction(J, 2.0 ** np.arange(-1, p.m - 1), 1e-3, 1e3)
            ),
            "newton_direction": _direction_sha256(newton_direction(J, H, 1e-2)),
        }
        for size in range(1, p.m):
            for I in itertools.combinations(range(p.m), size):
                key = f"partial_steepest{I}"
                rec[key] = _direction_sha256(partial_steepest(J, I))
        out.append(rec)
    return out


class TestGoldenDirections:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_directions_bitwise_unchanged(self, name, golden):
        for k, (got, want) in enumerate(zip(golden_record(name), golden[name], strict=True)):
            assert got == want, f"{name}: point {k}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: golden_record(name) for name in sorted(SUITE)}, indent=1) + "\n"
    )
