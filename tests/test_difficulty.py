import numpy as np
import pytest
from hypothesis import given, strategies as st

from moscl.difficulty import (
    DifficultyRecord,
    dump_difficulty_csv,
    fuse_ranks,
    quadrant_classify,
    rank_descending,
    single_source_records,
)


class TestRankDescending:
    def test_example(self):
        assert rank_descending([0.9, 0.1, 0.5], [0, 1, 2]) == {0: 0, 1: 2, 2: 1}

    def test_single(self):
        assert rank_descending([3.0], [7]) == {7: 0}

    def test_all_equal_ties_by_id(self):
        assert rank_descending([1.0, 1.0, 1.0], [2, 0, 1]) == {0: 0, 1: 1, 2: 2}

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rank_descending([1.0, float("nan")], [0, 1])
        with pytest.raises(ValueError):
            rank_descending([float("inf"), 1.0], [0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_descending([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rank_descending([1.0, 2.0], [0])

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e-300, -7.0]),
            min_size=1,
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_sorted_reference_with_ties(self, values, rnd):
        ids = rnd.sample(range(1000), len(values))
        order = sorted(range(len(ids)), key=lambda k: (-values[k], ids[k]))
        assert rank_descending(values, ids) == {ids[k]: r for r, k in enumerate(order)}


class TestFuseRanks:
    def test_example(self):
        recs = fuse_ranks(
            {0: 0.8, 1: 0.2, 2: 0.5}, {0: 0.9, 1: 0.1, 2: 0.5}
        )
        d = {r.sample_id: r.d for r in recs}
        assert d == {0: 0, 1: 4, 2: 2}
        # hardness order (smaller d = harder): 0, then 2, then 1
        assert sorted(d, key=d.get) == [0, 2, 1]

    def test_singleton(self):
        recs = fuse_ranks({5: 1.0}, {5: 2.0})
        assert recs[0].d == 0

    def test_opposed_orders_make_flat_d(self):
        n = 7
        losses = {i: float(n - i) for i in range(n)}
        uncertainties = {i: float(i) for i in range(n)}
        recs = fuse_ranks(losses, uncertainties)
        assert all(r.d == n - 1 for r in recs)

    def test_id_mismatch(self):
        with pytest.raises(ValueError):
            fuse_ranks({0: 1.0}, {1: 1.0})

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_d_sum_conserved(self, pairs):
        n = len(pairs)
        losses = {i: p[0] for i, p in enumerate(pairs)}
        us = {i: p[1] for i, p in enumerate(pairs)}
        recs = fuse_ranks(losses, us)
        assert sum(r.d for r in recs) == n * (n - 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        losses = {i: float(v) for i, v in enumerate(rng.uniform(0, 2, 20))}
        us = {i: float(v) for i, v in enumerate(rng.uniform(0, 1, 20))}
        base = {r.sample_id: r.d for r in fuse_ranks(losses, us)}
        for f in (lambda x: 3 * x + 1, np.exp, np.sqrt, np.tanh):
            warped = {i: float(f(v)) for i, v in losses.items()}
            assert {r.sample_id: r.d for r in fuse_ranks(warped, us)} == base


class TestQuadrants:
    def _rec(self, sid, u, l):
        return DifficultyRecord(sample_id=sid, loss=l, uncertainty=u)

    def test_grid_around_medians(self):
        recs = [
            self._rec(0, 0.9, 0.9),
            self._rec(1, 0.1, 0.9),
            self._rec(2, 0.1, 0.1),
            self._rec(3, 0.9, 0.1),
        ]
        q = quadrant_classify(recs, thresholds=(0.5, 0.5))
        assert q == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_degenerate_all_equal_is_LL(self):
        recs = [self._rec(i, 0.3, 0.4) for i in range(5)]
        assert set(quadrant_classify(recs).values()) == {"LL"}

    def test_default_median_thresholds(self):
        recs = [
            self._rec(0, 0.9, 0.9),
            self._rec(1, 0.1, 0.8),
            self._rec(2, 0.2, 0.1),
            self._rec(3, 0.8, 0.2),
        ]
        q = quadrant_classify(recs)
        assert q == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            quadrant_classify([self._rec(0, 1, 1)], thresholds=(float("nan"), 0.0))


class TestSingleSource:
    def test_loss_only(self):
        recs = single_source_records({0: 0.9, 1: 0.1}, "loss")
        assert [r.d for r in recs] == [0, 1]

    def test_uncertainty_only(self):
        recs = single_source_records({0: 0.1, 1: 0.9}, "uncertainty")
        assert [r.d for r in recs] == [1, 0]


class TestCsvDump:
    def test_header_and_rows(self, tmp_path):
        recs = fuse_ranks({0: 0.8, 1: 0.2}, {0: 0.9, 1: 0.1})
        path = tmp_path / "difficulty.csv"
        dump_difficulty_csv(path, recs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,loss,uncertainty,rank_l,rank_u,d,quadrant"
        assert len(lines) == 3
