from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moscl import difficulty
from moscl.difficulty import (
    ascending_order,
    dump_difficulty_csv,
    fuse_ranks,
    median,
    quadrant_classify,
    rank_descending,
)


def _by_id(ids, per_row):
    return dict(zip(list(ids), np.asarray(per_row).tolist()))


# keys with heavy ties: a few values drawn over and over, signed zeros,
# infinities and NaN among them
_TIED_KEYS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e-300]


class TestAscendingOrder:
    """Both ways `ascending_order` sorts give np.lexsort((ids, key))."""

    @given(st.data())
    def test_matches_lexsort(self, data):
        n = data.draw(st.sampled_from([1, 2, 1023, 1024, 3000]) | st.integers(1, 3000), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["tied", "float", "int"]), label="key kind")
        if kind == "tied":
            pool = np.array(_TIED_KEYS)[: data.draw(st.integers(1, len(_TIED_KEYS)), label="pool")]
            key = rng.choice(pool, n)
        elif kind == "float":
            key = rng.normal(size=n)
        else:
            key = rng.integers(-3, data.draw(st.integers(-2, 2 * n), label="top"), n)
        # negative, sparse or few distinct ids: the last repeat often
        span = data.draw(st.sampled_from([3, n, 10**15]), label="id span")
        ids = rng.integers(-span, span, n)
        want = np.lexsort((ids, key))
        assert np.array_equal(ascending_order(key, ids), want)
        assert np.array_equal(difficulty._two_sort_order(key, ids), want)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="^2 ids for 3 keys$"):
            ascending_order([1.0, 2.0, 3.0], [0, 1])


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
        with pytest.raises(ValueError, match="^1 ids for 2 keys$"):
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
        d = _by_id([0, 1, 2], fuse_ranks([0.8, 0.2, 0.5], [0.9, 0.1, 0.5], [0, 1, 2]))
        assert d == {0: 0, 1: 4, 2: 2}
        # hardness order (smaller d = harder): 0, then 2, then 1
        assert sorted(d, key=d.get) == [0, 2, 1]

    def test_singleton(self):
        assert fuse_ranks([1.0], [2.0], [5])[0] == 0

    def test_opposed_orders_make_flat_d(self):
        n = 7
        losses = [float(n - i) for i in range(n)]
        uncertainties = [float(i) for i in range(n)]
        d = fuse_ranks(losses, uncertainties, range(n))
        assert all(v == n - 1 for v in d)

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
        assert int(fuse_ranks(losses, us, range(n)).sum()) == n * (n - 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        ids = np.arange(20)
        losses = rng.uniform(0, 2, 20)
        us = rng.uniform(0, 1, 20)
        base = _by_id(ids, fuse_ranks(losses, us, ids))
        for f in (lambda x: 3 * x + 1, np.exp, np.sqrt, np.tanh):
            warped = f(losses)
            assert _by_id(ids, fuse_ranks(warped, us, ids)) == base


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
        l_col, u_col = [p[0] for p in pairs], [p[1] for p in pairs]
        assert _by_id(ids, rank_descending(l_col, ids)) == rank_l
        assert _by_id(ids, rank_descending(u_col, ids)) == rank_u
        assert _by_id(ids, fuse_ranks(l_col, u_col, ids)) == {
            i: rank_l[i] + rank_u[i] for i in ids
        }


class TestQuadrants:
    @staticmethod
    def _scores(*u_l):
        """(losses, uncertainties) rows from (u, l) pairs."""
        return [l for _, l in u_l], [u for u, _ in u_l]

    def test_grid_around_medians(self):
        losses, us = self._scores((0.9, 0.9), (0.1, 0.9), (0.1, 0.1), (0.9, 0.1))
        q = quadrant_classify(losses, us)
        assert _by_id(range(4), q) == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_degenerate_all_equal_is_LL(self):
        losses, us = self._scores(*[(0.3, 0.4)] * 5)
        assert set(quadrant_classify(losses, us).tolist()) == {"LL"}

    def test_default_median_thresholds(self):
        losses, us = self._scores((0.9, 0.9), (0.1, 0.8), (0.2, 0.1), (0.8, 0.2))
        q = quadrant_classify(losses, us)
        assert _by_id(range(4), q) == {0: "HH", 1: "LH", 2: "LL", 3: "HL"}

    def test_bad_thresholds(self):
        # a NaN score is not classed low: its column's median is NaN
        with pytest.raises(ValueError, match="thresholds must be finite"):
            quadrant_classify([1.0, 2.0, 3.0], [float("nan"), 1.0, 2.0])

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=49))
    def test_default_thresholds_are_the_middles_of_the_sorted_scores(self, rows):
        losses, us = self._scores(*rows)
        u_split, l_split = _exact_middle(us), _exact_middle(losses)
        want = [
            ("H" if u > u_split else "L") + ("H" if l > l_split else "L")
            for l, u in zip(losses, us)
        ]
        assert quadrant_classify(losses, us).tolist() == want

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
        path = tmp_path / "difficulty.csv"
        dump_difficulty_csv(path, [0, 1], [0.8, 0.2], [0.9, 0.1])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,loss,uncertainty,rank_l,rank_u,d,quadrant"
        assert len(lines) == 3

    def test_int_scores_are_written_as_floats(self, tmp_path):
        path = tmp_path / "difficulty.csv"
        dump_difficulty_csv(path, [3, 1], [1, 2], [0, 5])
        assert path.read_text().splitlines()[1:] == [
            "1,2.0,5.0,0,0,0,HH",
            "3,1.0,0.0,1,1,2,LL",
        ]
