import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontdescent import (
    box_gain_lower_bound,
    hv_monte_carlo,
    hypervolume,
    hypervolume_2d,
    hypervolume_3d,
    reference_point_cross_solver,
)


class TestReferencePoint:
    def test_rule(self):
        z = reference_point_cross_solver([[0, 2], [2, 0]], offset=0.01)
        assert np.allclose(z, [2.01, 2.01])

    def test_singleton_zero_offset(self):
        assert np.allclose(reference_point_cross_solver([[1, 1]], offset=0.0), [1, 1])

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            reference_point_cross_solver([[0, 0]], offset=-0.1)


class TestHypervolume2d:
    def test_unit_box(self):
        assert hypervolume_2d([[0, 0]], [1, 1]) == 1.0

    def test_three_point_staircase(self):
        assert hypervolume_2d([(0, 2), (1, 1), (2, 0)], (3, 3)) == 6.0

    def test_dominated_point_ignored(self):
        assert hypervolume_2d([(0, 2), (1, 1), (2, 0), (1.5, 1.5)], (3, 3)) == 6.0

    def test_duplicates_ignored(self):
        assert hypervolume_2d([(0, 2), (0, 2), (2, 0)], (3, 3)) == pytest.approx(
            hypervolume_2d([(0, 2), (2, 0)], (3, 3))
        )

    def test_image_beyond_reference_rejected(self):
        with pytest.raises(ValueError):
            hypervolume_2d([(4, 0)], (3, 3))

    def test_empty(self):
        assert hypervolume_2d(np.empty((0, 2)), (1, 1)) == 0.0

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_permutation_invariance(self, points, rnd):
        shuffled = list(points)
        rnd.shuffle(shuffled)
        zeta = (2.0, 2.0)
        assert hypervolume_2d(points, zeta) == pytest.approx(
            hypervolume_2d(shuffled, zeta), abs=1e-12
        )


class TestHypervolume3d:
    def test_unit_cube(self):
        assert hypervolume_3d([[0, 0, 0]], [1, 1, 1]) == 1.0

    def test_two_point_union_vs_monte_carlo(self):
        images = [(0, 0, 1), (1, 1, 0)]
        zeta = (2, 2, 2)
        exact = hypervolume_3d(images, zeta)
        est, se = hv_monte_carlo(images, zeta, ideal=(0, 0, 0), samples=10**6, seed=7)
        assert abs(exact - est) <= 3.0 * se

    def test_duplicates(self):
        a = hypervolume_3d([(0, 0, 0), (0, 0, 0), (1, 1, 1)], (2, 2, 2))
        b = hypervolume_3d([(0, 0, 0), (1, 1, 1)], (2, 2, 2))
        assert a == pytest.approx(b)

    def test_inclusion_exclusion_two_boxes(self):
        # [0,2]x[0,2]x[1,2] plus [1,2]^3 minus intersection [1,2]^2 x [1,2]
        exact = hypervolume_3d([(0, 0, 1), (1, 1, 0)], (2, 2, 2))
        assert exact == pytest.approx(4.0 + 2.0 - 1.0)

    def test_dispatch(self):
        assert hypervolume([[0, 0]], [1, 1]) == 1.0
        assert hypervolume([[0, 0, 0]], [1, 1, 1]) == 1.0
        with pytest.raises(ValueError):
            hypervolume([[0, 0, 0, 0]], [1, 1, 1, 1])


class TestMonteCarlo:
    def test_empty_images(self):
        est, se = hv_monte_carlo(np.empty((0, 2)), (1, 1), (0, 0), samples=100)
        assert est == 0.0 and se == 0.0

    def test_full_box(self):
        est, _ = hv_monte_carlo([(0, 0)], (1, 1), (0, 0), samples=10_000, seed=1)
        assert est == pytest.approx(1.0)

    def test_seed_reproducible(self):
        a = hv_monte_carlo([(0.3, 0.4)], (1, 1), (0, 0), samples=10_000, seed=5)
        b = hv_monte_carlo([(0.3, 0.4)], (1, 1), (0, 0), samples=10_000, seed=5)
        assert a == b

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_row_wise_reference(self, rng, m):
        # the reference tests whole sample rows with all(); the estimate is a
        # hit count over the same draws (100_000 per chunk), so both agree
        # exactly
        Y = rng.uniform(0.1, 0.9, size=(5, m))
        zeta, ideal, samples = np.ones(m), np.zeros(m), 250_000
        draws = np.random.default_rng(3)
        pts = np.concatenate(
            [draws.uniform(ideal, zeta, size=(k, m)) for k in (100_000, 100_000, 50_000)]
        )
        dominated = np.zeros(samples, dtype=bool)
        for y in Y:
            dominated |= np.all(pts >= y, axis=1)
        p_hit = int(dominated.sum()) / samples
        want = (p_hit, float(np.sqrt(p_hit * (1.0 - p_hit) / samples)))
        assert hv_monte_carlo(Y, zeta, ideal, samples=samples, seed=3) == want

    def test_agreement_with_exact_2d(self, rng):
        for _ in range(5):
            Y = rng.uniform(0.1, 0.9, size=(6, 2))
            zeta = (1.0, 1.0)
            exact = hypervolume_2d(Y, zeta)
            est, se = hv_monte_carlo(Y, zeta, ideal=(0, 0), samples=200_000, seed=3)
            assert abs(exact - est) <= 3.0 * se


class TestBoxGain:
    def test_direct_product(self):
        assert box_gain_lower_bound((1, 1), (0.5, 0.5)) == pytest.approx(0.25)

    def test_epsilon_shift(self):
        eps = 1e-3
        old = np.array([1.0, 1.0, 1.0])
        assert box_gain_lower_bound(old, old - eps) == pytest.approx(eps**3)

    def test_non_strict_rejected(self):
        with pytest.raises(ValueError):
            box_gain_lower_bound((1, 1), (0.5, 1.0))

    def test_replacement_gain_bound_2d(self, rng):
        # the lemma assumes a mutually nondominated set: build staircases
        zeta = np.array([2.0, 2.0])
        for _ in range(50):
            Y = np.column_stack(
                [np.sort(rng.uniform(0.5, 1.5, 5)), -np.sort(-rng.uniform(0.5, 1.5, 5))]
            )
            i = int(rng.integers(0, 5))
            gap = rng.uniform(0.05, 0.4, 2)
            new = Y[i] - gap
            before = hypervolume_2d(Y, zeta)
            Y2 = Y.copy()
            Y2[i] = new
            after = hypervolume_2d(Y2, zeta)
            assert after - before >= box_gain_lower_bound(Y[i], new) - 1e-12
