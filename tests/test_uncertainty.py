import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moscl import cli, kernels, uncertainty
from moscl.datagen import GenSpec, generate, save_dataset
from moscl.experiment import ExperimentConfig
from moscl.model import MlpModel
from moscl.uncertainty import (
    batch_score_uncertainty,
    dump_scores,
    entropy,
    load_score_table,
    load_scores,
    perturbations,
    save_score_table,
)

from oracles import loss, loss_based_uncertainty, prob, sigmoid


def _score_one(m, x, G, gamma, seed):
    """The uncertainty of the one sample ``x``, scored as id 0 at epoch 0."""
    return float(batch_score_uncertainty(m, np.asarray(x)[None], [0], G, gamma, seed)[0])


class TestEstimateUncertainty:
    """The uncertainty estimate of a single sample."""

    def test_gamma_zero_is_entropy_of_prediction(self):
        m = MlpModel(2, 4, seed=3)
        x = np.array([0.4, -0.7])
        u = _score_one(m, x, G=8, gamma=0.0, seed=0)
        assert u == pytest.approx(entropy(prob(m, x)), abs=1e-12)

    def test_zero_output_weights_ignore_perturbation(self):
        m = MlpModel(2, 4, seed=3)
        m.W2[:] = 0.0
        x = np.array([1.0, 2.0])
        assert _score_one(m, x, G=8, gamma=0.3, seed=5) == pytest.approx(
            entropy(sigmoid(m.b2[0])), abs=1e-12
        )

    def test_gamma_zero_matches_loss_based_uncertainty(self):
        # Lemma-style consistency: u at gamma=0 equals lu at the sample's loss
        rng = np.random.default_rng(9)
        for trial in range(20):
            m = MlpModel(3, 4, seed=trial)
            x = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            l = loss("mse", y, prob(m, x))
            assert abs(
                _score_one(m, x, G=4, gamma=0.0, seed=0) - loss_based_uncertainty("mse", y, l)
            ) < 1e-10

    def test_nonnegative_and_zero_iff_saturated(self):
        m = MlpModel(2, 4, seed=3)
        u = _score_one(m, np.array([0.1, 0.1]), G=8, gamma=0.3, seed=1)
        assert u >= 0.0
        m.b2[:] = 1000.0  # saturate the head
        m.W2[:] = 0.0
        assert _score_one(m, np.array([0.1, 0.1]), G=8, gamma=0.3, seed=1) == 0.0

    def test_variance_shrinks_with_more_disturbances(self):
        m = MlpModel(2, 4, seed=3)
        x = np.array([0.4, -0.7])
        us = {G: [] for G in (2, 32)}
        for G in us:
            for rep in range(200):
                us[G].append(_score_one(m, x, G=G, gamma=0.3, seed=rep))
        assert np.var(us[32]) < np.var(us[2])


class TestBatchScore:
    def _setup(self):
        m = MlpModel(2, 4, seed=1)
        X = np.random.default_rng(0).normal(size=(5, 2))
        ids = np.arange(5)
        cfg = dict(G=8, gamma=0.3, seed=7)
        return m, X, ids, cfg

    def test_deterministic(self):
        m, X, ids, cfg = self._setup()
        a = batch_score_uncertainty(m, X, ids, **cfg)
        b = batch_score_uncertainty(m, X, ids, **cfg)
        assert np.array_equal(a, b)

    def test_singleton_matches_estimate_with_shared_stream(self):
        m, X, ids, cfg = self._setup()
        scores = batch_score_uncertainty(m, X[:1], ids[:1], **cfg)
        assert cfg["gamma"] == 0.3
        # the lone row is scored as the first of two copies of itself
        T = perturbations(cfg["seed"], [0, 0], 0, (cfg["G"], m.hidden_dim), cfg["gamma"])
        P = kernels.mean_perturbed_predictions(
            m.W1, m.b1, m.W2, m.b2, X[[0, 0]], T, m._act, m._head
        )
        assert scores[0] == entropy(P[:, 0])[0]
        T = perturbations(cfg["seed"], [0], 0, (cfg["G"], m.hidden_dim), cfg["gamma"])
        p_bar = kernels.mean_perturbed_predictions(
            m.W1, m.b1, m.W2, m.b2, X[:1], T, m._act, m._head
        )[0, 0]
        assert scores[0] == pytest.approx(entropy(float(p_bar)), abs=1e-12)

    def test_lone_row_scores_as_among_others(self):
        """A row scored alone gets the score it gets in a batch: numpy
        multiplies a one-row matrix as a matrix-vector product, whose
        rounding differs for some rows."""
        for s in range(50):
            m = MlpModel(2, 8, seed=s)
            X = np.random.default_rng(s).normal(size=(20, 2))
            ids = np.arange(20)
            batch = batch_score_uncertainty(m, X, ids, G=8, gamma=0.3, seed=1)
            alone = [
                batch_score_uncertainty(m, X[k : k + 1], ids[k : k + 1], G=8, gamma=0.3, seed=1)[0]
                for k in range(len(X))
            ]
            assert np.array_equal(alone, batch), s

    def test_duplicated_sample_distinct_ids_differ_only_by_stream(self):
        m, X, ids, cfg = self._setup()
        X2 = np.stack([X[0], X[0]])
        scores = batch_score_uncertainty(m, X2, np.array([3, 9]), **cfg)
        # identical features, different streams: generally different values
        assert scores[0] != scores[1]
        # forcing a shared stream makes them equal
        again = batch_score_uncertainty(m, X2, np.array([3, 3]), **cfg)
        assert len({round(v, 15) for v in again.tolist()}) == 1

    def test_order_independent(self):
        m, X, ids, cfg = self._setup()
        fwd = batch_score_uncertainty(m, X, ids, **cfg)
        rev = batch_score_uncertainty(m, X[::-1].copy(), ids[::-1].copy(), **cfg)
        for row in range(len(ids)):
            assert fwd[row] == pytest.approx(rev[len(ids) - 1 - row], abs=1e-15)

    def test_epoch_resamples(self):
        m, X, ids, cfg = self._setup()
        a = batch_score_uncertainty(m, X, ids, **cfg, epoch=0)
        b = batch_score_uncertainty(m, X, ids, **cfg, epoch=1)
        assert not np.array_equal(a, b)

    def test_empty_rejected(self):
        m, X, ids, cfg = self._setup()
        with pytest.raises(ValueError):
            batch_score_uncertainty(m, X[:0], ids[:0], **cfg)

    @pytest.mark.parametrize("n_rows, n_ids", [(5, 1), (1, 5), (5, 4), (5, 6)])
    def test_ids_not_one_per_row_rejected(self, n_rows, n_ids):
        m, X, _, cfg = self._setup()
        with pytest.raises(ValueError, match=f"^{n_ids} sample ids for {n_rows} rows of X"):
            batch_score_uncertainty(m, X[:n_rows], np.arange(n_ids), **cfg)


def _block_sizes(n, rows):
    """Rows per block: blocks of max(2, rows), a lone last row joining the
    block before it; a lone row is scored as two."""
    n, rows = max(2, n), max(2, rows)
    sizes = [rows] * (n // rows) + [n % rows] * (n % rows > 0)
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2:] = [rows + 1]
    return sizes


class TestBlockedScoring:
    """`batch_score_uncertainty` scores rows in blocks; its scores equal
    those of one perturbed forward pass over all rows, bit for bit, with a
    lone row scored as the first of two copies of itself."""

    @staticmethod
    def _reference(m, X, ids, cfg, epoch):
        n = len(X)
        if n == 1:
            X, ids = np.repeat(X, 2, axis=0), np.repeat(ids, 2)
        T = perturbations(cfg["seed"], ids, epoch, (cfg["G"], m.hidden_dim), cfg["gamma"])
        P = kernels.mean_perturbed_predictions(
            m.W1, m.b1, m.W2, m.b2, X, T, m._act, m._head
        )[:n]
        return entropy(P[:, 0]) if m.head == "sigmoid" else entropy(P).sum(axis=1)

    @staticmethod
    def _score_counting_blocks(m, X, ids, cfg, epoch, block_values):
        """The scores with `BLOCK_VALUES` set to ``block_values``, and the
        row count of each block's perturbed forward pass."""
        real = kernels.mean_perturbed_predictions
        rows = []

        def counting(W1, b1, W2, b2, X, T, act, head):
            assert T.shape == (len(X), cfg["G"], m.hidden_dim)
            rows.append(len(X))
            return real(W1, b1, W2, b2, X, T, act, head)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uncertainty, "BLOCK_VALUES", block_values)
            mp.setattr(kernels, "mean_perturbed_predictions", counting)
            return batch_score_uncertainty(m, X, ids, **cfg, epoch=epoch), rows

    @given(st.data())
    def test_blocks_match_one_shot_reference(self, data):
        # 1 row per block asks for less than the two-row floor
        rows = data.draw(st.sampled_from([1, 3, 7]), label="rows per block")
        block = max(2, rows)
        n = data.draw(
            st.sampled_from(sorted({1, block - 1, block, block + 1}))
            | st.integers(1, 4 * block + 2),
            label="N",
        )
        G, H = data.draw(st.integers(1, 5), label="G"), data.draw(st.integers(1, 6), label="H")
        head = data.draw(st.sampled_from(["sigmoid", "softmax"]), label="head")
        act = data.draw(st.sampled_from(["tanh", "relu"]), label="activation")
        # sparse ids in any order, repeated when the pool is smaller than N
        pool = data.draw(
            st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=n, unique=True), label="pool"
        )
        ids = np.array(
            data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="ids"),
            dtype=np.int64,
        )
        seed = data.draw(st.integers(-(2**31), 2**31), label="seed")
        epoch = data.draw(st.integers(0, 50), label="epoch")
        m = MlpModel(3, H, out_dim=1 if head == "sigmoid" else 3, activation=act, head=head,
                     seed=abs(seed) % 1000)
        X = np.random.default_rng(abs(seed)).normal(size=(n, 3))
        cfg = dict(G=G, gamma=0.3, seed=seed)
        got, rows_seen = self._score_counting_blocks(m, X, ids, cfg, epoch, rows * G * H)
        assert rows_seen == _block_sizes(n, rows)
        want = self._reference(m, X, ids, cfg, epoch)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("G, n, sizes", [
        # 14 * 2**10 // (16 * 8) = 112 rows per block, a 40-row tail
        (16, 600, [112] * 5 + [40]),
        # a lone 225th row joins the last block
        (16, 225, [112, 113]),
        # one row holds 2**15 values: two rows per block
        (2**12, 7, [2, 2, 3]),
        # a lone row is scored as two
        (8, 1, [2]),
    ])
    def test_block_rows_follow_G_times_H(self, G, n, sizes):
        m = MlpModel(2, 8, seed=1)
        X = np.random.default_rng(0).normal(size=(n, 2))
        cfg = dict(G=G, gamma=ExperimentConfig.gamma, seed=ExperimentConfig.seed)
        got, rows_seen = self._score_counting_blocks(
            m, X, np.arange(n), cfg, 0, uncertainty.BLOCK_VALUES
        )
        assert rows_seen == sizes
        assert np.array_equal(got, self._reference(m, X, np.arange(n), cfg, 0))


class TestPerturbations:
    def test_shape_and_range(self):
        T = perturbations(3, np.arange(50), 2, (8, 6), 0.3)
        assert T.shape == (50, 8, 6)
        assert np.all(T >= -0.3) and np.all(T < 0.3)

    def test_deterministic(self):
        a = perturbations(3, np.arange(20), 2, (4, 5), 0.3)
        b = perturbations(3, np.arange(20), 2, (4, 5), 0.3)
        assert np.array_equal(a, b)

    def test_seed_id_and_epoch_each_change_the_draw(self):
        base = perturbations(3, [5], 2, (4, 5), 0.3)
        for seed, sid, epoch in ((4, 5, 2), (3, 6, 2), (3, 5, 3)):
            other = perturbations(seed, [sid], epoch, (4, 5), 0.3)
            assert not np.array_equal(base, other)

    def test_block_depends_only_on_its_id(self):
        alone = perturbations(3, [5], 2, (4, 5), 0.3)[0]
        among = perturbations(3, [9, 5, 0], 2, (4, 5), 0.3)[1]
        assert np.array_equal(alone, among)

    def test_python_and_numpy_ids_agree(self):
        ids = [0, 7, 2**40]
        assert np.array_equal(
            perturbations(1, ids, 0, (3,), 0.3),
            perturbations(1, np.array(ids, dtype=np.int64), 0, (3,), 0.3),
        )

    def test_negative_seed_and_wide_ids(self):
        T = perturbations(-5, [2**40, 2**63 - 1], 0, (3, 4), 0.3)
        assert T.shape == (2, 3, 4)
        assert np.all(np.abs(T) <= 0.3)
        assert not np.array_equal(T, perturbations(5, [2**40, 2**63 - 1], 0, (3, 4), 0.3))

    def test_uniform_moments(self):
        gamma = 0.3
        T = perturbations(11, np.arange(1000), 0, (100,), gamma)
        assert T.size == 10**5
        assert abs(T.mean()) < 0.01 * gamma
        assert T.var() == pytest.approx(gamma**2 / 3, rel=0.01)


class TestScoreDump:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.json"
        dump_scores(path, [0, 1], [0.5, 0.25], [0.1, 0.2])
        records = load_scores(path)
        assert records == [
            {"sample_id": 0, "loss": 0.5, "uncertainty": 0.1},
            {"sample_id": 1, "loss": 0.25, "uncertainty": 0.2},
        ]

    def test_compact_one_line_with_float_repr(self, tmp_path):
        path = tmp_path / "scores.json"
        dump_scores(path, [1, 0], [0.1 + 0.2, 1e-300], [1 / 3, 0.0])
        text = path.read_text()
        assert "\n" not in text
        assert text == json.dumps(load_scores(path))
        assert repr(0.1 + 0.2) in text and repr(1 / 3) in text

    def test_missing_uncertainty_is_null(self, tmp_path):
        path = tmp_path / "scores.json"
        dump_scores(path, [0], [0.5])
        assert json.loads(path.read_text())[0]["uncertainty"] is None


    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e-300, 2.5, math.inf, -math.inf,
                                 math.nan]),
                st.sampled_from([0.0, 1 / 3, 0.69, math.nan]),
            ),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_bytes_match_json_dumps_of_records(self, tmp_path_factory, scores, rnd, with_u):
        ids = rnd.sample(range(10**6), len(scores))
        losses = [l for l, _ in scores]
        us = [u for _, u in scores] if with_u else None
        path = tmp_path_factory.mktemp("dump") / "scores.json"
        dump_scores(path, np.asarray(ids, dtype=np.int64), np.asarray(losses),
                    None if us is None else np.asarray(us))
        # the former dump: records built from id-keyed dicts, C encoder
        loss_by_id = dict(zip(ids, losses))
        u_by_id = dict(zip(ids, us)) if with_u else {}
        records = [
            {"sample_id": sid, "loss": loss_by_id[sid], "uncertainty": u_by_id.get(sid)}
            for sid in sorted(loss_by_id)
        ]
        assert path.read_text() == json.dumps(records)


class TestScoreTable:
    def test_round_trip_and_repeatable_bytes(self, tmp_path):
        losses, us = np.arange(6.0).reshape(2, 3), np.full((2, 3), 0.5)
        for name in ("a.npz", "b.npz"):
            save_score_table(tmp_path / name, [7, 3, 5], [2, 4], losses, us)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        table = load_score_table(tmp_path / "a.npz")
        assert sorted(table) == ["epochs", "ids", "loss", "uncertainty"]
        assert table["ids"].tolist() == [7, 3, 5] and table["epochs"].tolist() == [2, 4]
        assert np.array_equal(table["loss"], losses) and np.array_equal(table["uncertainty"], us)

    def test_uncertainty_only_when_given(self, tmp_path):
        save_score_table(tmp_path / "t.npz", [0, 1], [], np.empty((0, 2)))
        table = load_score_table(tmp_path / "t.npz")
        assert "uncertainty" not in table and table["loss"].shape == (0, 2)

    def test_bad_layout_names_the_array(self, tmp_path):
        save_score_table(tmp_path / "t.npz", [0, 1], [2], np.zeros((1, 3)))
        with pytest.raises(ValueError, match="'loss' has shape"):
            load_score_table(tmp_path / "t.npz")
        np.savez(tmp_path / "u.npz", ids=np.arange(2), loss=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="no 'epochs' array"):
            load_score_table(tmp_path / "u.npz")


class TestConfigValidation:
    """`batch_score_uncertainty` checks its settings, and `moscl score`,
    which passes its flags straight through, fails on them writing nothing."""

    BAD = [
        (dict(G=0), "G must be >= 1"),
        (dict(gamma=-0.1), "gamma must be >= 0"),
        (dict(gamma=math.nan), "gamma must be finite, got nan"),
        (dict(gamma=math.inf), "gamma must be finite, got inf"),
    ]

    def _check(self, tmp_path, capsys, bad, message):
        m = MlpModel(2, 8, seed=0)
        X = np.random.default_rng(0).normal(size=(4, 2))
        settings = {"G": 8, "gamma": 0.3, "seed": 0, **bad}
        with pytest.raises(ValueError) as info:
            batch_score_uncertainty(m, X, np.arange(4), **settings)
        assert str(info.value) == message
        data = tmp_path / "data.csv"
        save_dataset(generate(GenSpec(n_total=8, seed=1)), data, data.with_suffix(".json"))
        m.save(tmp_path / "ckpt.json")
        out = tmp_path / "out" / "scores.json"
        flags = [f"--{name}={value}" for name, value in bad.items()]
        rc = cli.main(["score", "--dataset", str(data), "--checkpoint",
                       str(tmp_path / "ckpt.json"), "--out", str(out)] + flags)
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not out.parent.exists()

    def test_bad_G(self, tmp_path, capsys):
        self._check(tmp_path, capsys, *self.BAD[0])

    def test_bad_gamma(self, tmp_path_factory, capsys):
        for bad, message in self.BAD[1:]:
            self._check(tmp_path_factory.mktemp("gamma"), capsys, bad, message)

    def test_paper_defaults(self):
        args = cli.build_parser().parse_args(
            ["score", "--dataset", "d.csv", "--checkpoint", "c.json", "--out", "s.json"]
        )
        assert (args.G, args.gamma, args.seed) == (8, 0.3, 0)
        defaults = ExperimentConfig()
        assert (args.G, args.gamma, args.seed) == (defaults.G, defaults.gamma, defaults.seed)
