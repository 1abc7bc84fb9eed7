import copy
import itertools

import numpy as np
import pytest

from moscl import conflict, kernels
from moscl.experiment import ExperimentConfig
from moscl.model import MlpModel

from oracles import fd_param_gradient, grad_wrt_latent, grad_wrt_prediction, prob, sigmoid


def _perturbed(m, x, t):
    """The prediction of `kernels.mean_perturbed_predictions` for the one
    sample ``x`` under one disturbance (G = 1): its hidden map f becomes
    f * (1 + t)."""
    _, F = kernels.hidden(m.W1, m.b1, x[None], m.activation)
    T = np.asarray(t, dtype=np.float64)[None, None, :]
    return kernels.mean_perturbed_predictions(F[None], m.W2[None], m.b2[None], T)[0, 0, 0]


class TestForward:
    def test_no_perturbation_equals_zero_perturbation(self):
        m = MlpModel(3, 5, seed=7)
        x = np.array([0.2, -1.1, 0.4])
        y = kernels.forward(m.W1, m.b1, m.W2, m.b2, x[None], m.activation)[3]
        assert np.array_equal(_perturbed(m, x, np.zeros(5)), y[0, 0])

    def test_kill_perturbation_leaves_bias(self):
        m = MlpModel(3, 5, seed=7)
        x = np.array([0.2, -1.1, 0.4])
        assert np.allclose(_perturbed(m, x, -np.ones(5)), sigmoid(m.b2[0]))

    def test_perturbed_prediction_within_extremes_1_hidden_unit(self):
        # monotone-output oracle: with one hidden unit, any perturbation in
        # [-g, g] yields a prediction between the two extreme perturbations
        m = MlpModel(2, 1, seed=3)
        x = np.array([0.5, -0.3])
        g = 0.3
        lo = _perturbed(m, x, [-g])
        hi = _perturbed(m, x, [g])
        lo, hi = min(lo, hi), max(lo, hi)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(-g, g, 1)
            p = _perturbed(m, x, t)
            assert lo - 1e-12 <= p <= hi + 1e-12


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


# every activation x loss pair of the one-sigmoid-output model
COMBOS = list(itertools.product(("tanh", "relu"), ("mse", "ce")))
COMBO_IDS = [f"{activation}-sigmoid-{loss_kind}" for activation, loss_kind in COMBOS]


def _combo_case(activation, n=7):
    rng = np.random.default_rng(0)
    m = MlpModel(3, 5, activation=activation, seed=n)
    return m, rng.normal(size=(n, 3)), rng.integers(0, 2, n).astype(np.int64), rng


class TestPerSampleGradients:
    @pytest.mark.parametrize("activation,loss_kind", COMBOS, ids=COMBO_IDS)
    def test_rows_match_single_sample(self, activation, loss_kind):
        m, X, y, _ = _combo_case(activation)
        G = m.per_sample_gradients(X, y, loss_kind)
        assert G.shape == (len(X), m.W1.size + m.b1.size + m.W2.size + m.b2.size)
        for row, (x, label) in enumerate(zip(X, y)):
            single = m.per_sample_gradient(x, int(label), loss_kind)
            assert np.abs(G[row] - single).max() <= 1e-12

    @pytest.mark.parametrize("activation,loss_kind", COMBOS, ids=COMBO_IDS)
    def test_sgd_step_is_weighted_gradient_sum(self, activation, loss_kind):
        m, X, y, rng = _combo_case(activation)
        w, lr, n = rng.uniform(0.0, 2.0, len(X)), 0.3, len(X)
        before = np.concatenate([m.W1.ravel(), m.b1, m.W2.ravel(), m.b2])
        params = [m.W1.copy(), m.b1.copy(), m.W2.copy(), m.b2.copy()]
        # one batch of every row: a single SGD step
        kernels.sgd_epoch(*params, X, y, np.arange(n), n, w, lr, m.activation, loss_kind)
        after = np.concatenate([p.ravel() for p in params])
        expected = -lr / n * (w[:, None] * m.per_sample_gradients(X, y, loss_kind)).sum(axis=0)
        assert np.abs((after - before) - expected).max() <= 1e-12


def _train_step(m, X, y, w, lr):
    """One mini-batch of the training SGD step (mse loss) on m, in place."""
    X = np.asarray(X, dtype=np.float64)
    kernels.sgd_epoch(
        m.W1, m.b1, m.W2, m.b2, X, np.asarray(y, dtype=np.int64), np.arange(len(X)),
        len(X), np.asarray(w, dtype=np.float64), lr, m.activation, "mse",
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

    def test_backprop_latent_matches_closed_form(self):
        m = MlpModel(2, 3, seed=11)
        x = np.array([0.4, -0.2])
        p = prob(m, x)
        for y in (0, 1):
            latent = m.per_sample_gradient(x, y)[-1]
            assert abs(latent - grad_wrt_latent(y, p)) < 1e-10


_X3, _Y3 = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]]), np.array([0, 1, 1])


# The kernels run any name outside their tuples as relu or CE, so
# each public entry point must reject it, naming the field.
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: MlpModel(2, 3, activation="gelu"), "unknown activation 'gelu'"),
        (lambda: MlpModel(2, 3).batch_losses(_X3, _Y3, "bogus"), "unknown loss_kind 'bogus'"),
        (lambda: MlpModel(2, 3).per_sample_gradients(_X3, _Y3, "bogus"),
         "unknown loss_kind 'bogus'"),
        (lambda: conflict.conflict_loss_monotonicity(MlpModel(2, 3), _X3, _Y3, loss_kind="bogus"),
         "unknown loss_kind 'bogus'"),
    ],
    ids=["MlpModel-activation", "batch_losses", "per_sample_gradients",
         "conflict_loss_monotonicity"],
)
def test_misspelled_piece_name_is_rejected_at_entry(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestCheckpoint:
    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.pop("activation"), "is missing activation"),
            (lambda d: d.update(activation="gelu"), "activation: unknown 'gelu'"),
            (lambda d: d.update(head="tanh"), "head: unknown 'tanh'"),
            # a checkpoint of the removed softmax head fails on its name
            (lambda d: d.update(head="softmax"), "head: unknown 'softmax'"),
            # a JSON list is unhashable: membership, not a dict lookup, rejects it
            (lambda d: d.update(activation=["tanh"]), r"activation: unknown \['tanh'\]"),
            (lambda d: d["params"].pop("W1"), "is missing params.W1"),
            (lambda d: d["params"]["b2"].pop("data"), "is missing params.b2.data"),
            (lambda d: d["params"]["b1"]["data"].pop(), "params.b1: 7 values"),
            (lambda d: d["params"].update(W2={"shape": [1, 4], "data": [0.0] * 4}),
             "params.W2: shape"),
            (lambda d: d["params"]["W1"].update(shape=[24]), "params.W1: shape"),
            # no hidden unit, or no input feature
            (lambda d: d["params"].update(W1={"shape": [0, 3], "data": []}),
             r"params.W1: shape \(0, 3\) has an axis of size 0"),
            (lambda d: d["params"].update(W1={"shape": [8, 0], "data": []}),
             r"params.W1: shape \(8, 0\) has an axis of size 0"),
            # shapes that are not lists of non-negative integers, each with
            # as many values as their product, so no size check names them
            (lambda d: d["params"].update(W1={"shape": [3.0, 2], "data": [0.0] * 6}),
             r"params.W1.shape: \[3.0, 2\] is not a list of non-negative integers"),
            (lambda d: d["params"].update(W1={"shape": "32", "data": [0.0] * 6}),
             "params.W1.shape: '32' is not a list of non-negative integers"),
            (lambda d: d["params"].update(W1={"shape": 6, "data": [0.0] * 6}),
             "params.W1.shape: 6 is not a list of non-negative integers"),
            (lambda d: d["params"].update(W1={"shape": [-3, -2], "data": [0.0] * 6}),
             r"params.W1.shape: \[-3, -2\] is not a list of non-negative integers"),
            (lambda d: d["params"].update(W1={"shape": [True, 3], "data": [0.0] * 3}),
             r"params.W1.shape: \[True, 3\] is not a list of non-negative integers"),
            # two output rows, as a softmax checkpoint holds: the model has one
            (lambda d: d["params"].update(W2={"shape": [2, 8], "data": [0.0] * 16},
                                         b2={"shape": [2], "data": [0.0, 0.0]}),
             "params.W2: shape .2, 8."),
            # values a JSON checkpoint can hold that are not finite numbers
            (lambda d: d["params"]["W1"]["data"].__setitem__(2, "0.5"),
             "params.W1: value '0.5' at index 2 is not a finite number"),
            (lambda d: d["params"]["b1"]["data"].__setitem__(0, True),
             "params.b1: value True at index 0 is not a finite number"),
            (lambda d: d["params"]["W2"]["data"].__setitem__(7, None),
             "params.W2: value None at index 7 is not a finite number"),
            (lambda d: d["params"]["b2"]["data"].__setitem__(0, [1.0]),
             r"params.b2: value \[1.0\] at index 0 is not a finite number"),
        ],
    )
    def test_bad_checkpoint_names_field(self, edit, field):
        doc = MlpModel(3, 8, seed=6).to_checkpoint()
        edit(doc)
        with pytest.raises(ValueError, match=f"checkpoint {field}"):
            MlpModel.from_checkpoint(doc)

    def test_round_trip(self, tmp_path):
        m = MlpModel(3, 4, seed=6)
        path = tmp_path / "ckpt.json"
        m.save(path)
        m2 = MlpModel.load(path)
        x = np.array([0.1, 0.2, 0.3])
        assert prob(m2, x) == prob(m, x)
        assert m2.activation == m.activation
