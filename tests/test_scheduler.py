import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moscl.scheduler import (
    anti_mixed_plan,
    d_sum_spread,
    mixed_order_plan,
    ohem_plan,
    random_plan,
    sp_weight,
)


def rows_from_d(d_values):
    """(d, ids) of samples whose ids are their rows."""
    return np.asarray(d_values), np.arange(len(d_values))


def batch_d_sums(plan, d):
    return [sum(d[i] for i in batch) for batch in plan.batches]


def brute_force_min_max_pair_sum(d_values):
    """All-matchings oracle: minimum over perfect matchings of the maximum
    pair d-sum."""
    n = len(d_values)
    idx = list(range(n))

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            remainder = rest[1:k] + rest[k + 1 :]
            for m in matchings(remainder):
                yield [(a, b)] + m

    best = math.inf
    for m in matchings(idx):
        worst = max(d_values[a] + d_values[b] for a, b in m)
        best = min(best, worst)
    return best


class TestRandomPlan:
    def test_deterministic(self):
        a = random_plan(4, 2, np.random.default_rng(5))
        b = random_plan(4, 2, np.random.default_rng(5))
        assert a.batches == b.batches

    def test_partition(self):
        plan = random_plan(4, 2, np.random.default_rng(0))
        assert len(plan.batches) == 2
        assert sorted(plan.order.tolist()) == [0, 1, 2, 3]

    def test_uniformity(self):
        rng = np.random.default_rng(1)
        counts = {}
        for _ in range(10_000):
            order = tuple(random_plan(3, 3, rng).batches[0])
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 6) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            random_plan(0, 2, np.random.default_rng(0))


class TestMixedOrderPlan:
    def test_pairing_b2(self):
        plan = mixed_order_plan(*rows_from_d([0, 1, 2, 3]), 2)
        assert plan.batches == [[0, 3], [1, 2]]

    def test_singleton(self):
        plan = mixed_order_plan(*rows_from_d([0]), 2)
        assert plan.batches == [[0]]

    def test_alternating_fill_b3(self):
        # sorted hardness a..f = ids 0..5
        plan = mixed_order_plan(*rows_from_d([0, 1, 2, 3, 4, 5]), 3)
        assert plan.batches == [[0, 5, 1], [4, 2, 3]]

    def test_odd_n_short_final_batch(self):
        plan = mixed_order_plan(*rows_from_d([0, 1, 2, 3, 4]), 2)
        assert plan.batches == [[0, 4], [1, 3], [2]]
        assert sorted(plan.order.tolist()) == list(range(5))

    def test_missing_scores(self):
        with pytest.raises(ValueError):
            mixed_order_plan(np.array([], dtype=np.int64), np.array([0]), 2)

    def test_matches_brute_force_matching_oracle(self):
        rng = np.random.default_rng(3)
        for n in (4, 6, 8):
            for _ in range(50):
                d = rng.integers(0, 20, n).tolist()
                plan = mixed_order_plan(*rows_from_d(d), 2)
                got = max(batch_d_sums(plan, d))
                assert got == brute_force_min_max_pair_sum(d)


class TestAntiMixedPlan:
    def test_contiguous_chunks(self):
        plan = anti_mixed_plan(*rows_from_d([0, 1, 2, 3]), 2)
        assert plan.batches == [[0, 1], [2, 3]]

    def test_single_batch(self):
        plan = anti_mixed_plan(*rows_from_d([2, 0, 1]), 3)
        assert plan.batches == [[1, 2, 0]]

    def test_batches_sorted_by_d(self):
        rng = np.random.default_rng(8)
        d = rng.integers(0, 50, 10).tolist()
        plan = anti_mixed_plan(*rows_from_d(d), 2)
        for prev, nxt in zip(plan.batches, plan.batches[1:]):
            assert max(d[i] for i in prev) <= min(d[i] for i in nxt)

    def test_spread_dominance_exhaustive(self):
        # mixed spread <= anti-mixed spread for every d-assignment, N <= 8
        for n in (4, 6, 8):
            for d in itertools.product(range(4), repeat=n):
                rows = rows_from_d(list(d))
                mixed = d_sum_spread(mixed_order_plan(*rows, 2), rows[0])
                anti = d_sum_spread(anti_mixed_plan(*rows, 2), rows[0])
                assert mixed <= anti


def _has_duplicates(plan):
    """Whether the plan visits some row more than once."""
    return len(np.unique(plan.order)) < len(plan.order)


class TestOhemPlan:
    def test_ratio_one_no_duplicates(self):
        losses = np.arange(6, dtype=float)
        plan = ohem_plan(losses, np.arange(6), 2, 1.0, np.random.default_rng(0))
        assert sorted(plan.order.tolist()) == list(range(6))
        assert not _has_duplicates(plan)

    def test_quarter_ratio_duplicates_top_two(self):
        losses = np.arange(8, dtype=float)
        plan = ohem_plan(losses, np.arange(8), 2, 0.25, np.random.default_rng(1))
        flat = [i for b in plan.batches for i in b]
        assert len(flat) == 10
        assert flat.count(7) == 2 and flat.count(6) == 2
        assert _has_duplicates(plan)

    def test_top_loss_always_present(self):
        losses = np.arange(5, dtype=float)
        for seed in range(10):
            plan = ohem_plan(losses, np.arange(5), 2, 0.4, np.random.default_rng(seed))
            assert any(4 in b for b in plan.batches)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            ohem_plan([1.0], [0], 2, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ohem_plan([1.0], [0], 2, 1.5, np.random.default_rng(0))


class TestSpWeight:
    def test_hard_indicator(self):
        for l in np.linspace(0.0, 1.0, 21):
            assert sp_weight(float(l), 0.5, hard=True) == (1.0 if l < 0.5 else 0.0)

    def test_linear(self):
        assert sp_weight(0.0, 0.5, hard=False) == 1.0
        assert sp_weight(0.25, 0.5, hard=False) == pytest.approx(0.5)
        assert sp_weight(0.5, 0.5, hard=False) == 0.0
        assert sp_weight(2.0, 0.5, hard=False) == 0.0

    def test_monotone_non_increasing(self):
        ls = np.linspace(0, 2, 100)
        ws = [sp_weight(float(l), 0.7, hard=False) for l in ls]
        assert all(a >= b for a, b in zip(ws, ws[1:]))
        assert all(0.0 <= w <= 1.0 for w in ws)

    def test_bad_lambda(self):
        for lam, hard in itertools.product([0.0, -0.5, math.nan], [True, False]):
            with pytest.raises(ValueError, match=f"age lambda must be positive, got {lam!r}"):
                sp_weight(np.array([0.1, 0.2]), lam, hard=hard)


# --- row-indexed plans against the id-keyed logic they replaced -------------
# Each reference below is the former implementation, keyed by sample id; the
# array plans must visit the same ids in the same order.

_IDS = st.integers(1, 41).flatmap(
    lambda n: st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)
)
_TIED_LOSSES = st.sampled_from([0.0, -0.0, 1e-300, 0.15, 0.5, 0.5, 2.5, 7.0])


def _ref_chunk(order, b):
    return [list(order[k : k + b]) for k in range(0, len(order), b)]


def _ref_hard_first(d_by_id):
    return sorted(d_by_id, key=lambda i: (d_by_id[i], i))


def _ref_mixed(d_by_id):
    hard, out = _ref_hard_first(d_by_id), []
    lo, hi = 0, len(hard) - 1
    while lo <= hi:
        out.append(hard[lo])
        if hi != lo:
            out.append(hard[hi])
        lo += 1
        hi -= 1
    return out


def _ref_ohem(losses, ratio, rng):
    ids = sorted(losses)
    n_hard = int(ratio * len(ids)) if ratio < 1.0 else 0
    by_loss = sorted(ids, key=lambda i: (-losses[i], i))
    pool = ids + by_loss[:n_hard]
    return [pool[k] for k in rng.permutation(len(pool))]


def _ref_sp_weight(l, lam, hard):
    if hard:
        return 1.0 if l < lam else 0.0
    return max(0.0, 1.0 - l / lam)


def _ref_spread(order, b, d_by_id):
    sums = [sum(d_by_id[i] for i in batch) for batch in _ref_chunk(order, b)
            if len(batch) == b]
    return max(sums) - min(sums) if sums else 0


class TestAgainstIdKeyedReference:
    @given(_IDS, st.data(), st.integers(1, 5))
    def test_mixed_and_anti_mixed_plans_and_spread(self, ids, data, b):
        d = data.draw(st.lists(st.integers(0, 6), min_size=len(ids), max_size=len(ids)))
        d_by_id = dict(zip(ids, d))
        ids_arr, d_arr = np.asarray(ids), np.asarray(d)
        for build, ref in ((mixed_order_plan, _ref_mixed), (anti_mixed_plan, _ref_hard_first)):
            plan = build(d_arr, ids_arr, b)
            want = ref(d_by_id)
            assert ids_arr[plan.order].tolist() == want
            assert [ids_arr[batch].tolist() for batch in plan.batches] == _ref_chunk(want, b)
            assert d_sum_spread(plan, d_arr) == _ref_spread(want, b, d_by_id)

    @given(_IDS, st.data(), st.integers(1, 5),
           st.sampled_from([0.1, 0.25, 0.5, 0.99, 1.0]), st.integers(0, 2**32))
    def test_ohem_plan(self, ids, data, b, ratio, seed):
        losses = data.draw(st.lists(_TIED_LOSSES, min_size=len(ids), max_size=len(ids)))
        plan = ohem_plan(np.asarray(losses), np.asarray(ids), b, ratio,
                         np.random.default_rng(seed))
        want = _ref_ohem(dict(zip(ids, losses)), ratio, np.random.default_rng(seed))
        assert np.asarray(ids)[plan.order].tolist() == want
        assert _has_duplicates(plan) == (len(want) > len(ids))

    @given(_IDS, st.integers(1, 5), st.integers(0, 2**32))
    def test_random_plan(self, ids, b, seed):
        plan = random_plan(len(ids), b, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want = [ids[k] for k in rng.permutation(len(ids))]
        assert np.asarray(ids)[plan.order].tolist() == want

    @given(
        st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.15, 0.5, 2.0, math.inf, math.nan]),
                 min_size=1, max_size=41),
        st.sampled_from([0.15, 0.5, 1.0]),
        st.booleans(),
    )
    def test_sp_weights(self, losses, lam, hard):
        got = sp_weight(np.asarray(losses), lam, hard)
        want = [_ref_sp_weight(l, lam, hard) for l in losses]
        # Python's max(0.0, nan) is 0.0: a NaN loss gets weight 0
        assert got.tolist() == want
