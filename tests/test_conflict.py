import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata, spearmanr

from moscl.conflict import (
    MAX_EXHAUSTIVE_N,
    PAIR_CAP,
    PAIR_DTYPE,
    ConflictReport,
    average_ranks,
    conflict_loss_monotonicity,
    rank_correlation,
)
from moscl import uncertainty
from moscl.model import MlpModel

from oracles import (
    bits,
    conflict_pair_rows,
    grad_wrt_latent,
    gradient_cosine,
    has_converged,
    latent_gradient_scale,
    pair_cosines,
    stable_average_ranks,
)


class TestGradientCosine:
    def test_identity(self):
        g = np.array([1.0, 2.0, -3.0])
        assert gradient_cosine(g, g) == pytest.approx(1.0)

    def test_opposite(self):
        g = np.array([1.0, 2.0, -3.0])
        assert gradient_cosine(g, -g) == pytest.approx(-1.0)

    def test_scale_invariance_and_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert gradient_cosine(a, b) == pytest.approx(gradient_cosine(b, a))
        assert gradient_cosine(3.5 * a, b) == pytest.approx(gradient_cosine(a, b))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            gradient_cosine(np.zeros(3), np.ones(3))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gradient_cosine(np.ones(3), np.ones(4))

    def test_same_input_opposite_residual_collinear(self):
        # equal features, labels 0 and 1: per-sample gradients point along
        # the same direction with opposite dL/dz signs
        m = MlpModel(1, 1, seed=2)
        x = np.array([0.8])
        g0 = m.per_sample_gradient(x, 0)
        g1 = m.per_sample_gradient(x, 1)
        assert gradient_cosine(g0, g1) == pytest.approx(-1.0, abs=1e-12)


class TestLatentGradientScale:
    def test_points(self):
        assert latent_gradient_scale(1, 1.0) == 0.0
        assert latent_gradient_scale(1, 0.5) == pytest.approx(0.25)
        assert latent_gradient_scale(0, 0.5) == pytest.approx(0.25)

    def test_matches_abs_latent_gradient_on_grid(self):
        for y in (0, 1):
            for p in np.linspace(0.01, 0.99, 99):
                assert abs(
                    latent_gradient_scale(y, p) - abs(grad_wrt_latent(y, p))
                ) < 1e-12

    def test_bad_label(self):
        with pytest.raises(ValueError):
            latent_gradient_scale(2, 0.5)


class TestConflictReport:
    def _dataset(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [rng.normal(-1.5, 1.0, (n // 2, 2)), rng.normal(1.5, 1.0, (n // 2, 2))]
        )
        y = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.int64)
        return X, y

    def test_identical_samples_degenerate(self):
        m = MlpModel(2, 3, seed=1)
        X = np.tile(np.array([0.3, 0.7]), (4, 1))
        y = np.ones(4, dtype=np.int64)
        report = conflict_loss_monotonicity(m, X, y)
        assert report.degenerate
        assert report.spearman_rho is None

    def test_order_invariance(self):
        m = MlpModel(2, 3, seed=1)
        X, y = self._dataset()
        a = conflict_loss_monotonicity(m, X, y)
        perm = np.random.default_rng(4).permutation(len(y))
        b = conflict_loss_monotonicity(
            m, X[perm], y[perm], sample_ids=np.arange(len(y))[perm]
        )
        assert a.spearman_rho == pytest.approx(b.spearman_rho)
        assert sorted(a.pairs.tolist()) == sorted(b.pairs.tolist())

    def test_small_dataset_rejected(self):
        m = MlpModel(2, 3, seed=1)
        X, y = self._dataset()
        with pytest.raises(ValueError):
            conflict_loss_monotonicity(m, X[:2], y[:2])

    def test_pair_cap_sampling(self):
        m = MlpModel(2, 3, seed=1)
        X, y = self._dataset(n=80, seed=2)
        report = conflict_loss_monotonicity(m, X, y, seed=3)
        assert len(report.pairs) <= 2000

    def test_json_and_csv_outputs(self, tmp_path):
        m = MlpModel(2, 3, seed=1)
        X, y = self._dataset()
        report = conflict_loss_monotonicity(m, X, y, model_tag="test")
        report.save(tmp_path / "report.json")
        report.save_pairs_csv(tmp_path / "pairs.csv")
        assert (tmp_path / "report.json").exists()
        header = (tmp_path / "pairs.csv").read_text().splitlines()[0]
        assert header == "id_i,id_j,cosine,conflict,loss_sum"


class TestReportFiles:
    """The pairs table holds the pairs to the bit, the summary JSON the
    former report's head, and the CSV the former per-pair writer's bytes."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**63), 2**63 - 1),
                st.integers(0, 10**6),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 1e-300, -0.7071067811865476]),
                st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-300, 2.5]),
            ),
            max_size=20,
        ),
        st.sampled_from([None, 0.25, -1.0]),
        st.booleans(),
        st.text(max_size=8),
    )
    def test_bytes_match_per_pair_writers(self, tmp_path_factory, rows, rho, degenerate, tag):
        report = ConflictReport(
            pairs=np.array(rows, dtype=PAIR_DTYPE), spearman_rho=rho,
            degenerate=degenerate, model_tag=tag,
        )
        path = tmp_path_factory.mktemp("report")
        report.save(path / "report.json")
        report.save_pairs_csv(path / "pairs.csv")
        want = json.dumps({
            "model_tag": tag, "spearman_rho": rho, "degenerate": degenerate,
            "n_pairs": len(rows),
        })
        assert (path / "report.json").read_text() == want
        table = np.load(path / "report.npy", allow_pickle=False)
        assert table.dtype == PAIR_DTYPE and table.shape == (len(rows),)
        # bit for bit: -0.0 keeps its sign and 1e-300 its value
        assert table.tobytes() == np.array(rows, dtype=PAIR_DTYPE).tobytes()
        assert [tuple(r) for r in table.tolist()] == rows
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["id_i", "id_j", "cosine", "conflict", "loss_sum"])
        for i, j, c, l in rows:
            writer.writerow([i, j, repr(c), repr(1.0 - c), repr(l)])
        assert (path / "pairs.csv").read_bytes() == buf.getvalue().encode()

    def _report(self):
        return ConflictReport(pairs=np.zeros(3, dtype=PAIR_DTYPE), spearman_rho=0.5)

    def test_failed_pairs_write_leaves_no_summary(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "save", fail)
        with pytest.raises(OSError, match="no space"):
            self._report().save(tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    def test_npy_report_path_is_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="ends in .npy"):
            self._report().save(tmp_path / "report.npy")
        assert list(tmp_path.iterdir()) == []


def _reference_report(model, X, y, ids, seed):
    """The pairwise loop over single-sample gradients the batched report
    must reproduce: (pairs, rho)."""
    per_loss = model.batch_losses(X, y)
    grads, losses = {}, {}
    for row in np.argsort(ids):
        sid = int(ids[row])
        grads[sid] = model.per_sample_gradient(X[row], int(y[row]))
        losses[sid] = float(per_loss[row])
    keys = sorted(grads)
    all_pairs = [(a, b) for k, a in enumerate(keys) for b in keys[k + 1 :]]
    if len(keys) > MAX_EXHAUSTIVE_N and len(all_pairs) > PAIR_CAP:
        pick = np.random.default_rng(seed).choice(len(all_pairs), PAIR_CAP, replace=False)
        all_pairs = [all_pairs[k] for k in sorted(pick)]
    pairs = [
        (a, b, gradient_cosine(grads[a], grads[b]), losses[a] + losses[b])
        for a, b in all_pairs
        if np.linalg.norm(grads[a]) > 0.0 and np.linalg.norm(grads[b]) > 0.0
    ]
    rho = spearmanr([1.0 - c for _, _, c, _ in pairs], [s for *_, s in pairs])
    return pairs, float(rho.statistic)


# heavily tied samples: few distinct values, rounded to 0-2 decimals
_tied = st.integers(3, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
        st.integers(0, 2),
    )
)


class TestRankCorrelationIsScipySpearman:
    """`rank_correlation` is scipy.stats.spearmanr's statistic to the bit."""

    @given(_tied, st.floats(0.01, 10.0))
    def test_tied_rounded_samples(self, case, scale):
        a, b, decimals = case
        x = np.round(np.array(a) * scale / 3.0, decimals)
        y = np.round(np.array(b) * scale / 7.0 + x, decimals)
        assert bits(average_ranks(x)).tolist() == bits(rankdata(x)).tolist()
        if np.ptp(x) > 0.0 and np.ptp(y) > 0.0:
            assert bits(rank_correlation(x, y)) == bits(spearmanr(x, y).statistic)

    def test_continuous_samples(self):
        rng = np.random.default_rng(3)
        for n in (3, 10, 400, 2000):
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
            assert bits(rank_correlation(x, y)) == bits(spearmanr(x, y).statistic)

    def test_constant_or_nan_sample_gives_nan(self):
        x = np.array([1.0, 2.0, 3.0])
        for bad in ([4.0, 4.0, 4.0], [np.inf] * 3, [1.0, np.nan, 2.0]):
            assert np.isnan(rank_correlation(x, np.array(bad)))
            assert np.isnan(rank_correlation(np.array(bad), x))


# ties from rounding, signed zeros and NaNs among ordinary floats
_ranked = st.lists(
    st.one_of(
        st.integers(-4, 4).map(lambda k: k / 2),
        st.sampled_from([0.0, -0.0, np.nan]),
        st.floats(-1e3, 1e3),
    ),
    min_size=1,
    max_size=300,
)


@given(_ranked)
@settings(max_examples=300)
def test_average_ranks_match_a_stable_sort(values):
    """The default, unstable argsort gives the ranks of a stable one, to the
    bit: tied values share one rank, and NaNs keep their index order."""
    x = np.array(values)
    assert average_ranks(x).tobytes() == stable_average_ranks(x).tobytes()


class TestMatchesPairwiseLoop:
    def _check(self, model, X, y, ids, seed=5):
        got = conflict_loss_monotonicity(model, X, y, sample_ids=ids, seed=seed)
        pairs, rho = _reference_report(model, X, y, ids, seed)
        got_pairs = got.pairs.tolist()
        assert [p[:2] for p in got_pairs] == [p[:2] for p in pairs]
        assert [p[3] for p in got_pairs] == [p[3] for p in pairs]
        cos_got = np.array([p[2] for p in got_pairs])
        cos_ref = np.array([p[2] for p in pairs])
        assert np.abs(cos_got - cos_ref).max() <= 1e-12
        assert not got.degenerate
        assert abs(got.spearman_rho - rho) <= 1e-12
        return got

    @pytest.mark.parametrize("n", [8, 80])  # exhaustive, sampled
    def test_shuffled_ids(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, n).astype(np.int64)
        ids = rng.permutation(3 * n)[:n]  # sparse ids in shuffled order
        got = self._check(MlpModel(2, 5, seed=n), X, y, ids)
        assert len(got.pairs) == min(n * (n - 1) // 2, PAIR_CAP)

    def test_zero_gradients_skipped(self):
        # one relu unit; rows at x=100 saturate p to exactly 1.0 with label
        # 1, so their gradient is exactly zero and their pairs are dropped
        m = MlpModel(1, 1, activation="relu", seed=0)
        m.W1[:], m.b1[:], m.W2[:], m.b2[:] = 1.0, 0.0, 1.0, 0.0
        X = np.array([[0.1], [100.0], [0.5], [-0.3], [100.0], [0.9], [0.2], [1.5]])
        y = np.array([0, 1, 1, 0, 1, 0, 1, 0], dtype=np.int64)
        got = self._check(m, X, y, np.arange(8))
        assert len(got.pairs) == 15  # the 6 rows with nonzero gradients
        assert not {1, 4} & {i for p in got.pairs.tolist() for i in p[:2]}


@pytest.mark.parametrize("n", [3, 4, 5, 64, 65, 400, 3000])
def test_pairs_match_triu_indices(n):
    """The report's pairs are the `np.triu_indices` pairs, all of them up to
    MAX_EXHAUSTIVE_N rows and the seeded PAIR_CAP sample above it."""
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, 2, n).astype(np.int64)
    got = conflict_loss_monotonicity(MlpModel(2, 5, seed=1), X, y, seed=9)
    I, J = conflict_pair_rows(n, 9, MAX_EXHAUSTIVE_N, PAIR_CAP)
    assert len(I) == (n * (n - 1) // 2 if n <= MAX_EXHAUSTIVE_N else PAIR_CAP)
    assert got.pairs["id_i"].tolist() == I.tolist()
    assert got.pairs["id_j"].tolist() == J.tolist()


class TestConvergenceRule:
    def test_not_converged_while_improving(self):
        losses = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2]
        assert not has_converged(losses)

    def test_converged_on_plateau(self):
        losses = [1.0, 0.5] + [0.400001 - 1e-9 * k for k in range(6)]
        assert has_converged(losses)

    def test_needs_window(self):
        assert not has_converged([0.1, 0.1])


def _pair_cosine_case(n, d, h):
    """A report over ``n`` rows of ``d`` features under an ``h``-unit model,
    and the one-shot `pair_cosines` of its kept row pairs."""
    rng = np.random.default_rng(n + d + h)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(np.int64)
    model = MlpModel(d, h, seed=h)
    report = conflict_loss_monotonicity(model, X, y, seed=4)
    grads = model.per_sample_gradients(X, y)
    I, J = conflict_pair_rows(n, 4, MAX_EXHAUSTIVE_N, PAIR_CAP)
    norms = np.linalg.norm(grads, axis=1)
    keep = (norms[I] != 0.0) & (norms[J] != 0.0)
    return report, pair_cosines(grads, I[keep], J[keep])


@pytest.mark.parametrize("n", [65, 400, 3000])
@pytest.mark.parametrize("h", [3, 8, 16])
@pytest.mark.parametrize("d", [2, 5])
def test_pair_cosines_match_one_shot_einsum(n, d, h):
    """The blocked dot products give the cosines of one `einsum` over all
    gathered pairs, to the bit."""
    report, want = _pair_cosine_case(n, d, h)
    assert report.pairs["cosine"].tobytes() == want.tobytes()


# a gradient holds 33 values at d=2, H=8: blocks of 1 pair (the floor),
# 7 pairs and 64 pairs, so PAIR_CAP = 2000 pairs end in a block of 5 or 16
@pytest.mark.parametrize("block_values", [16, 7 * 33 + 16, 64 * 33 + 16],
                         ids=["one-pair", "7-pairs", "64-pairs"])
def test_pair_cosines_match_across_many_short_blocks(monkeypatch, block_values):
    """With `BLOCK_VALUES` shrunk, the pairs span many blocks, the last of
    them short, and the cosines still match to the bit."""
    monkeypatch.setattr(uncertainty, "BLOCK_VALUES", block_values)
    report, want = _pair_cosine_case(400, 2, 8)
    assert len(want) == PAIR_CAP
    assert report.pairs["cosine"].tobytes() == want.tobytes()
