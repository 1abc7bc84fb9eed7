import copy
import itertools

import numpy as np
import pytest

from moscl import kernels
from moscl.experiment import ExperimentConfig
from moscl.model import LOSSES, MlpModel

from oracles import grad_wrt_latent, grad_wrt_prediction, loss, prob


def fd_param_gradient(model, x, y, loss_kind="mse", h=1e-6):
    """Finite-difference oracle over every parameter coordinate."""
    arrays = [model.W1, model.b1, model.W2, model.b2]
    grads = []
    for arr in arrays:
        flat = arr.ravel()
        g = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss(loss_kind, y, prob(model, x))
            flat[k] = orig - h
            lm = loss(loss_kind, y, prob(model, x))
            flat[k] = orig
            g[k] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return np.concatenate(grads)


def _forward(m, x, t=None):
    """(f, z, y_hat) of `kernels.forward` over the one sample ``x``, each
    flattened; with a perturbation vector ``t`` the hidden map is f * (1 + t)."""
    T = None if t is None else np.asarray(t, dtype=np.float64)[None, None, :]
    out = kernels.forward(m.W1, m.b1, m.W2, m.b2, x[None], m._act, m._head, T)
    return [a.reshape(-1) for a in out[1:]]


class TestForward:
    def test_no_perturbation_equals_zero_perturbation(self):
        m = MlpModel(3, 5, seed=7)
        x = np.array([0.2, -1.1, 0.4])
        t0 = np.zeros(5)
        a = _forward(m, x)
        b = _forward(m, x, t0)
        for got, want in zip(a, b):
            assert np.array_equal(got, want)

    def test_kill_perturbation_leaves_bias(self):
        m = MlpModel(3, 5, seed=7)
        x = np.array([0.2, -1.1, 0.4])
        f, z, _ = _forward(m, x, -np.ones(5))
        assert np.allclose(f, 0.0)
        assert np.allclose(z, m.b2)

    def test_perturbed_prediction_within_extremes_1_hidden_unit(self):
        # monotone-head oracle: with one hidden unit, any perturbation in
        # [-g, g] yields a prediction between the two extreme perturbations
        m = MlpModel(2, 1, seed=3)
        x = np.array([0.5, -0.3])
        g = 0.3
        lo = _forward(m, x, [-g])[2][0]
        hi = _forward(m, x, [g])[2][0]
        lo, hi = min(lo, hi), max(lo, hi)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(-g, g, 1)
            p = _forward(m, x, t)[2][0]
            assert lo - 1e-12 <= p <= hi + 1e-12

    def test_softmax_trace_sums_to_one(self):
        m = MlpModel(3, 4, out_dim=3, head="softmax", seed=0)
        _, _, y_hat = _forward(m, np.array([0.1, 0.2, -0.5]))
        assert y_hat.sum() == pytest.approx(1.0, abs=1e-9)


class TestPerSampleGradient:
    def test_zero_loss_gives_zero_gradient(self):
        # drive the prediction to the label via a huge positive bias
        m = MlpModel(2, 2, seed=1)
        m.b2[:] = 1000.0
        g = m.per_sample_gradient(np.array([0.1, 0.1]), 1)
        assert np.allclose(g, 0.0)

    def test_determinism(self):
        m = MlpModel(2, 3, seed=5)
        x = np.array([0.4, -0.9])
        assert np.array_equal(
            m.per_sample_gradient(x, 1), m.per_sample_gradient(x, 1)
        )

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("loss_kind", ["mse", "ce"])
    def test_matches_finite_differences(self, activation, loss_kind):
        rng = np.random.default_rng(42)
        for trial in range(25):
            m = MlpModel(3, 4, activation=activation, seed=100 + trial)
            x = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            exact = m.per_sample_gradient(x, y, loss_kind)
            approx = fd_param_gradient(m, x, y, loss_kind)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() / scale < 1e-5


COMBOS = list(itertools.product(("tanh", "relu"), ("sigmoid", "softmax"), ("mse", "ce")))


def _combo_case(activation, head, loss_kind, n=7):
    rng = np.random.default_rng(0)
    m = MlpModel(3, 5, out_dim=1 if head == "sigmoid" else 2,
                 activation=activation, head=head, seed=n)
    return m, rng.normal(size=(n, 3)), rng.integers(0, 2, n).astype(np.int64), rng


class TestPerSampleGradients:
    @pytest.mark.parametrize("activation,head,loss_kind", COMBOS)
    def test_rows_match_single_sample(self, activation, head, loss_kind):
        m, X, y, _ = _combo_case(activation, head, loss_kind)
        G = m.per_sample_gradients(X, y, loss_kind)
        assert G.shape == (len(X), m.W1.size + m.b1.size + m.W2.size + m.b2.size)
        for row, (x, label) in enumerate(zip(X, y)):
            single = m.per_sample_gradient(x, int(label), loss_kind)
            assert np.abs(G[row] - single).max() <= 1e-12

    @pytest.mark.parametrize("activation,head,loss_kind", COMBOS)
    def test_sgd_step_is_weighted_gradient_sum(self, activation, head, loss_kind):
        m, X, y, rng = _combo_case(activation, head, loss_kind)
        w, lr, n = rng.uniform(0.0, 2.0, len(X)), 0.3, len(X)
        before = np.concatenate([m.W1.ravel(), m.b1, m.W2.ravel(), m.b2])
        params = [m.W1[None].copy(), m.b1[None].copy(), m.W2[None].copy(), m.b2[None].copy()]
        kernels._sgd_step(*params, X[None], y[None], w[None], lr / n,
                          m._act, m._head, LOSSES[loss_kind])
        after = np.concatenate([p[0].ravel() for p in params])
        expected = -lr / n * (w[:, None] * m.per_sample_gradients(X, y, loss_kind)).sum(axis=0)
        assert np.abs((after - before) - expected).max() <= 1e-12


def _train_step(m, X, y, w, lr):
    """One mini-batch of the training SGD step (mse loss) on m, in place."""
    X = np.asarray(X, dtype=np.float64)
    kernels.sgd_epoch(
        m.W1, m.b1, m.W2, m.b2, X, np.asarray(y, dtype=np.int64), np.arange(len(X)),
        len(X), np.asarray(w, dtype=np.float64), lr, m._act, m._head, LOSSES["mse"],
    )


class TestSgdStep:
    def test_zero_gradient_no_change(self):
        m = MlpModel(2, 3, seed=2)
        before = m.to_checkpoint()
        # zero loss weights zero every per-sample gradient
        _train_step(m, [[0.3, 0.8]], [1], [0.0], lr=0.5)
        assert m.to_checkpoint() == before

    def test_duplicate_sample_same_as_single(self):
        x = np.array([0.3, 0.8])
        m1 = MlpModel(2, 3, seed=9)
        m2 = copy.deepcopy(m1)
        _train_step(m1, [x], [0], [1.0], lr=0.1)
        _train_step(m2, [x, x.copy()], [0, 0], [1.0, 1.0], lr=0.1)
        assert np.allclose(m1.W1, m2.W1) and np.allclose(m1.b2, m2.b2)

    def test_logistic_closed_form_delta(self):
        # 1-hidden-unit model: delta(b2) must be -lr * 2(p-y) * p(1-p)
        m = MlpModel(1, 1, seed=4)
        x = np.array([0.7])
        p = prob(m, x)
        b2_before = m.b2.copy()
        _train_step(m, [x], [1], [1.0], lr=0.2)
        expected = -0.2 * 2.0 * (p - 1.0) * p * (1.0 - p)
        assert m.b2[0] - b2_before[0] == pytest.approx(expected, abs=1e-12)

    def test_bad_lr(self):
        # training takes its learning rate from a validated config
        with pytest.raises(ValueError, match="lr"):
            ExperimentConfig(lr=0.0)


class TestLatentGradients:
    def test_point_values(self):
        assert grad_wrt_prediction(1, 1.0) == 0.0
        assert grad_wrt_prediction(1, 0.5) == -1.0
        assert grad_wrt_prediction(0, 0.5) == 1.0
        assert grad_wrt_latent(1, 1.0) == 0.0
        assert grad_wrt_latent(1, 0.5) == pytest.approx(-0.25)
        assert grad_wrt_latent(0, 0.5) == pytest.approx(0.25)

    def test_chain_rule_consistency(self):
        for y in (0, 1):
            for p in np.linspace(0.01, 0.99, 99):
                chain = grad_wrt_prediction(y, p) * p * (1.0 - p)
                assert abs(grad_wrt_latent(y, p) - chain) < 1e-12

    def test_softmax_rejected(self):
        with pytest.raises(ValueError):
            grad_wrt_latent(1, 0.5, head="softmax")

    def test_backprop_latent_matches_closed_form(self):
        m = MlpModel(2, 3, seed=11)
        x = np.array([0.4, -0.2])
        p = prob(m, x)
        for y in (0, 1):
            latent = m.per_sample_gradient(x, y)[-1]
            assert abs(latent - grad_wrt_latent(y, p)) < 1e-10


class TestCheckpoint:
    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.pop("activation"), "is missing activation"),
            (lambda d: d.update(activation="gelu"), "activation: unknown 'gelu'"),
            (lambda d: d.update(head="tanh"), "head: unknown 'tanh'"),
            (lambda d: d["params"].pop("W1"), "is missing params.W1"),
            (lambda d: d["params"]["b2"].pop("data"), "is missing params.b2.data"),
            (lambda d: d["params"]["b1"]["data"].pop(), "params.b1: 7 values"),
            (lambda d: d["params"].update(W2={"shape": [1, 4], "data": [0.0] * 4}),
             "params.W2: shape"),
            (lambda d: d["params"]["W1"].update(shape=[24]), "params.W1: shape"),
            (lambda d: d["params"].update(W2={"shape": [2, 8], "data": [0.0] * 16},
                                         b2={"shape": [2], "data": [0.0, 0.0]}),
             "params.W2: sigmoid head"),
        ],
    )
    def test_bad_checkpoint_names_field(self, edit, field):
        doc = MlpModel(3, 8, seed=6).to_checkpoint()
        edit(doc)
        with pytest.raises(ValueError, match=f"checkpoint {field}"):
            MlpModel.from_checkpoint(doc)

    def test_softmax_round_trip(self):
        m = MlpModel(3, 4, out_dim=2, activation="relu", head="softmax", seed=6)
        m2 = MlpModel.from_checkpoint(m.to_checkpoint())
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m2, name), getattr(m, name))
        assert (m2.activation, m2.head) == ("relu", "softmax")

    def test_round_trip(self, tmp_path):
        m = MlpModel(3, 4, seed=6)
        path = tmp_path / "ckpt.json"
        m.save(path)
        m2 = MlpModel.load(path)
        x = np.array([0.1, 0.2, 0.3])
        assert prob(m2, x) == prob(m, x)
        assert m2.activation == m.activation
