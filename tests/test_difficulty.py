from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moscl.difficulty import (
    dump_difficulty_csv,
    fuse_ranks,
    median,
    quadrant_classify,
    rank_descending,
)


def _by_id(ids, per_row):
    return dict(zip(list(ids), np.asarray(per_row).tolist()))


class TestRankDescending:
    def test_example(self):
        ranks = rank_descending([0.9, 0.1, 0.5], [0, 1, 2])
        assert _by_id([0, 1, 2], ranks) == {0: 0, 1: 2, 2: 1}

    def test_single(self):
        assert _by_id([7], rank_descending([3.0], [7])) == {7: 0}

    def test_all_equal_ties_by_id(self):
        ranks = rank_descending([1.0, 1.0, 1.0], [2, 0, 1])
        assert _by_id([2, 0, 1], ranks) == {0: 0, 1: 1, 2: 2}

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
        assert _by_id(ids, rank_descending(values, ids)) == {
            ids[k]: r for r, k in enumerate(order)
        }


class TestFuseRanks:
    def test_example(self):
        d = _by_id([0, 1, 2], fuse_ranks([0.8, 0.2, 0.5], [0.9, 0.1, 0.5], [0, 1, 2]).d)
        assert d == {0: 0, 1: 4, 2: 2}
        # hardness order (smaller d = harder): 0, then 2, then 1
        assert sorted(d, key=d.get) == [0, 2, 1]

    def test_singleton(self):
        assert fuse_ranks([1.0], [2.0], [5]).d[0] == 0

    def test_opposed_orders_make_flat_d(self):
        n = 7
        losses = [float(n - i) for i in range(n)]
        uncertainties = [float(i) for i in range(n)]
        table = fuse_ranks(losses, uncertainties, range(n))
        assert all(d == n - 1 for d in table.d)

    def test_id_mismatch(self):
        with pytest.raises(ValueError):
            fuse_ranks([1.0], [1.0, 2.0], [0])

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
        losses = [p[0] for p in pairs]
        us = [p[1] for p in pairs]
        assert int(fuse_ranks(losses, us, range(n)).d.sum()) == n * (n - 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        ids = np.arange(20)
        losses = rng.uniform(0, 2, 20)
        us = rng.uniform(0, 1, 20)
        base = _by_id(ids, fuse_ranks(losses, us, ids).d)
        for f in (lambda x: 3 * x + 1, np.exp, np.sqrt, np.tanh):
            warped = f(losses)
            assert _by_id(ids, fuse_ranks(warped, us, ids).d) == base


    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 1e-300]),
                st.sampled_from([0.0, -0.0, 0.25, 0.7, 0.7, 3.0]),
            ),
            min_size=1,
            max_size=41,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_id_keyed_reference(self, pairs, rnd):
        # the former fuse_ranks: dicts keyed by id, each rank a sort by
        # (-value, id), d their sum
        ids = rnd.sample(range(10**6), len(pairs))
        losses = {i: p[0] for i, p in zip(ids, pairs)}
        us = {i: p[1] for i, p in zip(ids, pairs)}

        def ranks(values):
            order = sorted(values, key=lambda i: (-values[i], i))
            return {i: r for r, i in enumerate(order)}

        rank_l, rank_u = ranks(losses), ranks(us)
        table = fuse_ranks([p[0] for p in pairs], [p[1] for p in pairs], ids)
        assert _by_id(ids, table.rank_l) == rank_l
        assert _by_id(ids, table.rank_u) == rank_u
        assert _by_id(ids, table.d) == {i: rank_l[i] + rank_u[i] for i in ids}


class TestQuadrants:
    @staticmethod
    def _scores(*u_l):
        """(losses, uncertainties) rows from (u, l) pairs."""
        return [l for _, l in u_l], [u for u, _ in u_l]

    def test_grid_around_medians(self):
        losses, us = self._scores((0.9, 0.9), (0.1, 0.9), (0.1, 0.1), (0.9, 0.1))
        q = quadrant_classify(losses, us, thresholds=(0.5, 0.5))
        assert _by_id(range(4), q) == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_degenerate_all_equal_is_LL(self):
        losses, us = self._scores(*[(0.3, 0.4)] * 5)
        assert set(quadrant_classify(losses, us).tolist()) == {"LL"}

    def test_default_median_thresholds(self):
        losses, us = self._scores((0.9, 0.9), (0.1, 0.8), (0.2, 0.1), (0.8, 0.2))
        q = quadrant_classify(losses, us)
        assert _by_id(range(4), q) == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            quadrant_classify([1.0], [1.0], thresholds=(float("nan"), 0.0))
        # a NaN score is not classed low: its column's median is NaN
        with pytest.raises(ValueError, match="thresholds must be finite"):
            quadrant_classify([1.0, 2.0, 3.0], [float("nan"), 1.0, 2.0])

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=49))
    def test_default_thresholds_are_the_middles_of_the_sorted_scores(self, rows):
        losses, us = self._scores(*rows)
        thresholds = (_exact_middle(us), _exact_middle(losses))
        assert (quadrant_classify(losses, us).tolist()
                == quadrant_classify(losses, us, thresholds=thresholds).tolist())

    def test_middles_whose_sum_overflows(self):
        q = quadrant_classify([1e308, 1e308], [1.0, 2.0])
        assert q.tolist() == ["LL", "HL"]


def _exact_middle(values):
    """The middle of the sorted values, or the exact mean of the two middle
    ones rounded once to a float."""
    v, mid = sorted(values), len(values) // 2
    return v[mid] if len(v) % 2 else float((Fraction(v[mid - 1]) + Fraction(v[mid])) / 2)


def _bits(x):
    return np.float64(x).view(np.uint64)


class TestMedian:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=9))
    def test_is_np_median_where_that_is_finite(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.median(values)
            got = median(np.array(values))
        if np.isfinite(expected):
            assert _bits(got) == _bits(expected)

    # scores within 6% of the largest float, of either sign
    _huge = st.floats(min_value=1.7e308, max_value=1.7976931348623157e308)

    @given(st.lists(_huge | _huge.map(lambda v: -v), min_size=1, max_size=8))
    def test_stays_finite_near_the_float_limit(self, values):
        got = median(np.array(values))
        assert np.isfinite(got)
        assert _bits(got) == _bits(_exact_middle(values))

    def test_nan_stays_nan(self):
        assert np.isnan(median(np.array([1.0, float("nan"), 2.0])))


class TestSingleSource:
    # a loss-only or uncertainty-only difficulty (the Mo+l / Mo+u
    # ablations) is the one descending rank
    def test_loss_only(self):
        assert rank_descending([0.9, 0.1], [0, 1]).tolist() == [0, 1]

    def test_uncertainty_only(self):
        assert rank_descending([0.1, 0.9], [0, 1]).tolist() == [1, 0]


class TestCsvDump:
    def test_header_and_rows(self, tmp_path):
        table = fuse_ranks([0.8, 0.2], [0.9, 0.1], [0, 1])
        path = tmp_path / "difficulty.csv"
        dump_difficulty_csv(path, table)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,loss,uncertainty,rank_l,rank_u,d,quadrant"
        assert len(lines) == 3
