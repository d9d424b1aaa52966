import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontdescent import (
    FrontEntry,
    FrontSet,
    hypervolume,
    insert_filter,
    is_stable,
    nondominated,
    write_front_csv,
)
from frontdescent.front import read_csv
from conftest import front_from_images


def entry(*fx):
    f = np.asarray(fx, dtype=float)
    return FrontEntry(x=f.copy(), fx=f)


class TestInsertFilter:
    def test_incomparable_appended(self):
        f = front_from_images([(0, 2), (2, 0)])
        out = insert_filter(f, entry(1, 1))
        assert [tuple(e.fx) for e in out] == [(0, 2), (2, 0), (1, 1)]

    def test_dominated_member_removed(self):
        f = front_from_images([(0, 2), (2, 0), (1, 1)])
        out = insert_filter(f, entry(0.5, 0.5))
        assert [tuple(e.fx) for e in out] == [(0, 2), (2, 0), (0.5, 0.5)]

    def test_dominated_candidate_rejected(self):
        f = front_from_images([(0, 0)])
        out = insert_filter(f, entry(1, 1))
        assert out is f

    def test_exact_tie_keeps_incumbent(self):
        f = front_from_images([(1, 1)])
        incumbent = f.entries[0]
        out = insert_filter(f, entry(1, 1))
        assert len(out) == 1 and out.entries[0] is incumbent

    def test_empty_front(self):
        out = insert_filter(FrontSet(), entry(1, 2))
        assert len(out) == 1

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_sequences_stay_stable(self, images):
        f = FrontSet()
        for im in images:
            f = insert_filter(f, entry(*im))
        assert is_stable(f)

    @given(
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0, 5)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100)
    def test_never_decreases_hypervolume(self, images):
        zeta = np.array([6.0, 6.0])
        f = FrontSet()
        prev = 0.0
        for im in images:
            f = insert_filter(f, entry(*im))
            hv = hypervolume(f.images(), zeta)
            assert hv >= prev - 1e-12
            prev = hv


class TestFrontSetCache:
    def test_images_follow_a_stream_of_inserts(self, rng):
        f = FrontSet()
        inserted = []
        for im in rng.uniform(0.0, 1.0, size=(300, 3)):
            z = entry(*im)
            inserted.append(z)
            f = insert_filter(f, z)
            assert np.array_equal(f.images(), np.stack([e.fx for e in f.entries]))
        members = {id(e) for e in f.entries}
        assert all((z in f) == (id(z) in members) for z in inserted)
        assert is_stable(f)


class TestIsStable:
    def test_stable_pair(self):
        assert is_stable(front_from_images([(0, 2), (2, 0)]))

    def test_unstable_pair(self):
        assert not is_stable(front_from_images([(0, 2), (0, 3)]))

    def test_singleton(self):
        assert is_stable(front_from_images([(1, 1)]))

    def test_empty(self):
        assert is_stable(FrontSet())

    def test_equal_images_stable(self):
        assert is_stable(front_from_images([(1, 1), (1, 1)]))

    def test_equal_images_with_a_dominator_unstable(self):
        assert not is_stable(front_from_images([(1, 1), (1, 1), (0, 1)]))


def brute_force_nondominated(Y):
    """Unique rows of Y that no other row weakly dominates, by all pairs."""
    U = np.unique(Y, axis=0)
    keep = [
        i
        for i in range(len(U))
        if not any(np.all(U[j] <= U[i]) for j in range(len(U)) if j != i)
    ]
    return U[keep]


# coarse values so that duplicates and ties in single coordinates are common
image_rows = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -1.0])] * d),
        min_size=1,
        max_size=40,
    )
)


class TestNondominated:
    @given(image_rows)
    @settings(max_examples=300)
    def test_matches_brute_force(self, rows):
        Y = np.array(rows, dtype=float)
        out = nondominated(Y)
        assert np.array_equal(out, brute_force_nondominated(Y))

    def test_lexicographic_order(self):
        Y = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert np.array_equal(nondominated(Y), Y[[1, 2, 0]])

    def test_single_and_empty(self):
        assert nondominated([1.0, 2.0]).shape == (1, 2)
        assert nondominated(np.empty((0, 3))).shape == (0, 3)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        f = FrontSet(
            [
                FrontEntry(
                    x=np.array([0.1, 0.2]), fx=np.array([1.0 / 3.0, 2.0]),
                    provenance="exploration((1,))",
                )
            ]
        )
        path = tmp_path / "front.csv"
        write_front_csv(f, path, n=2, m=2)
        header, rows = read_csv(path)
        assert header == ["x_1", "x_2", "f_1", "f_2", "provenance"]
        assert len(rows) == 1
        assert np.array_equal([float(v) for v in rows[0][:2]], f.entries[0].x)
        assert np.array_equal([float(v) for v in rows[0][2:4]], f.entries[0].fx)
        assert rows[0][4] == "exploration((1,))"

    def test_schema_header_written(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(front_from_images([(1, 2)]), path, n=2, m=2)
        assert path.read_text().startswith("# fd-schema v1")
