"""Two-layer perceptron with manual backprop, multiplicative perturbation
injection at the hidden feature map, per-sample gradients, and SGD updates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .kernels import (
    ACT_RELU,
    ACT_TANH,
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    LOSS_CE,
    LOSS_MSE,
)

ACTIVATIONS = {"tanh": ACT_TANH, "relu": ACT_RELU}
HEADS = {"sigmoid": HEAD_SIGMOID, "softmax": HEAD_SOFTMAX}
LOSSES = {"mse": LOSS_MSE, "ce": LOSS_CE}


def _loss_code(loss_kind: str) -> int:
    """The kernel code of ``loss_kind``, or a ValueError naming the field."""
    if loss_kind not in LOSSES:
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    return LOSSES[loss_kind]


@dataclass
class ForwardTrace:
    """Record of one forward pass: hidden feature map (post-activation and
    post-perturbation), pre-head latent, and prediction."""

    f: np.ndarray
    z: np.ndarray
    y_hat: np.ndarray

    @property
    def prob(self) -> float:
        """Scalar prediction for sigmoid heads."""
        return float(self.y_hat[0])


class MlpModel:
    """input -> hidden (tanh or relu) -> linear head (sigmoid or softmax).

    Parameters are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    from the given seed.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        out_dim: int = 1,
        activation: str = "tanh",
        head: str = "sigmoid",
        seed: int = 0,
    ):
        if head == "sigmoid" and out_dim != 1:
            raise ValueError("sigmoid head requires out_dim=1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        self.activation = activation
        self.head = head
        rng = np.random.default_rng(seed)
        s1 = 1.0 / np.sqrt(input_dim)
        s2 = 1.0 / np.sqrt(hidden_dim)
        self.W1 = rng.uniform(-s1, s1, (hidden_dim, input_dim))
        self.b1 = rng.uniform(-s1, s1, hidden_dim)
        self.W2 = rng.uniform(-s2, s2, (out_dim, hidden_dim))
        self.b2 = rng.uniform(-s2, s2, out_dim)

    # -- basic geometry ----------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W2.shape[0]

    @property
    def n_params(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    @property
    def _act(self) -> int:
        return ACTIVATIONS[self.activation]

    @property
    def _head(self) -> int:
        return HEADS[self.head]

    def copy(self) -> "MlpModel":
        other = MlpModel.__new__(MlpModel)
        other.activation = self.activation
        other.head = self.head
        other.W1 = self.W1.copy()
        other.b1 = self.b1.copy()
        other.W2 = self.W2.copy()
        other.b2 = self.b2.copy()
        return other

    # -- forward -----------------------------------------------------------

    def forward(
        self, x: np.ndarray, perturbation: Optional[np.ndarray] = None
    ) -> ForwardTrace:
        """Single-sample forward pass.  If a perturbation vector ``t`` is
        given, the hidden feature map becomes f * (1 + t) elementwise before
        the head."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected input of shape ({self.input_dim},)")
        T = None
        if perturbation is not None:
            t = np.asarray(perturbation, dtype=np.float64)
            if t.shape != (self.hidden_dim,):
                raise ValueError(f"perturbation must have shape ({self.hidden_dim},)")
            T = t[None, None, :]
        _, f, z, y_hat = kernels.forward(
            self.W1, self.b1, self.W2, self.b2, x[None], self._act, self._head, T
        )
        return ForwardTrace(f=f.reshape(-1), z=z.reshape(-1), y_hat=y_hat.reshape(-1))

    def forward_batch(self, X: np.ndarray):
        """Vectorized unperturbed forward; returns (F, Z, Y_hat) arrays."""
        X = np.asarray(X, dtype=np.float64)
        return kernels.forward(
            self.W1, self.b1, self.W2, self.b2, X, self._act, self._head
        )[1:]

    def batch_losses(self, X: np.ndarray, labels: np.ndarray, loss_kind: str = "mse"):
        """Per-sample losses and predictions over a dataset matrix."""
        _, _, Y = self.forward_batch(X)
        labels = np.asarray(labels, dtype=np.int64)
        return kernels.loss_batch(Y, labels, self._head, _loss_code(loss_kind)), Y

    # -- gradients ---------------------------------------------------------

    def per_sample_gradients(
        self, X: np.ndarray, labels, loss_kind: str = "mse"
    ) -> np.ndarray:
        """Exact gradient of each sample's loss w.r.t. all parameters, (N, P)
        rows flattened as [W1, b1, W2, b2]: one batched backprop and the
        per-example outer products (Goodfellow, arXiv:1510.01799)."""
        X = np.asarray(X, dtype=np.float64)
        lossk = _loss_code(loss_kind)
        Fpre, F, _, Y = kernels.forward(
            self.W1, self.b1, self.W2, self.b2, X, self._act, self._head
        )
        labels = np.asarray(labels, dtype=np.int64)
        dz, dFpre = kernels.backward(
            self.W2, Fpre, F, Y, labels, np.ones(len(X)), self._act, self._head, lossk
        )
        dW1 = (dFpre[:, :, None] * X[:, None, :]).reshape(len(X), -1)
        dW2 = (dz[:, :, None] * F[:, None, :]).reshape(len(X), -1)
        return np.hstack([dW1, dFpre, dW2, dz])

    def per_sample_gradient(
        self, x: np.ndarray, y: int, loss_kind: str = "mse"
    ) -> np.ndarray:
        """`per_sample_gradients` of the one sample ``x`` with label ``y``."""
        return self.per_sample_gradients(np.asarray(x)[None], [y], loss_kind)[0]

    def latent_gradient(self, x: np.ndarray, y: int, loss_kind: str = "mse") -> float:
        """Backpropagated dL/dz for sigmoid heads.  Equals the b2 component
        of the full parameter gradient."""
        if self.head != "sigmoid":
            raise ValueError("latent gradient is defined for the sigmoid head")
        return float(self.per_sample_gradient(x, y, loss_kind)[-1])

    # -- checkpointing -----------------------------------------------------

    def to_checkpoint(self) -> dict:
        """JSON-serializable checkpoint: named row-major arrays with shapes."""
        out = {"activation": self.activation, "head": self.head, "params": {}}
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(self, name)
            out["params"][name] = {
                "shape": list(arr.shape),
                "data": arr.ravel().tolist(),
            }
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_checkpoint(), fh)

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "MlpModel":
        """Model from a `to_checkpoint` document.  A missing key, an unknown
        activation or head, a ``data`` length other than prod(shape), or
        shapes that disagree raise ValueError naming the field."""
        model = cls.__new__(cls)
        for key, known in (("activation", ACTIVATIONS), ("head", HEADS)):
            value = _field(doc, key, key)
            if value not in known:
                raise ValueError(f"checkpoint {key}: unknown {value!r}")
            setattr(model, key, value)
        params = _field(doc, "params", "params")
        sizes = {}  # axis name -> size, first seen
        for name, axes in _PARAM_AXES.items():
            where = f"params.{name}"
            entry = _field(params, name, where)
            shape = tuple(_field(entry, "shape", f"{where}.shape"))
            data = _field(entry, "data", f"{where}.data")
            if len(data) != math.prod(shape):
                raise ValueError(f"checkpoint {where}: {len(data)} values for shape {shape}")
            if len(shape) != len(axes) or any(
                sizes.setdefault(axis, size) != size for axis, size in zip(axes, shape)
            ):
                raise ValueError(
                    f"checkpoint {where}: shape {shape} disagrees with "
                    f"W1 (H, d), b1 (H,), W2 (C, H), b2 (C,)"
                )
            setattr(model, name, np.asarray(data, dtype=np.float64).reshape(shape))
        if model.head == "sigmoid" and model.out_dim != 1:
            raise ValueError("checkpoint params.W2: sigmoid head requires out_dim 1")
        return model

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as fh:
            return cls.from_checkpoint(json.load(fh))


# Checkpoint arrays and the size behind each axis: H hidden, d input, C out.
_PARAM_AXES = {"W1": "Hd", "b1": "H", "W2": "CH", "b2": "C"}


def _field(doc, key, where):
    """``doc[key]``, or a ValueError naming the checkpoint field ``where``."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"checkpoint is missing {where}") from None


def grad_wrt_prediction(y: int, y_hat: float) -> float:
    """MSE loss gradient w.r.t. the prediction: 2 * (y_hat - y)."""
    return 2.0 * (y_hat - y)


def grad_wrt_latent(y: int, y_hat: float, head: str = "sigmoid") -> float:
    """Closed-form dL/dz for the sigmoid+MSE model:
    -2*y_hat*(1-y_hat)^2 when y=1, +2*y_hat^2*(1-y_hat) when y=0."""
    if head != "sigmoid":
        raise ValueError("closed form is sigmoid-specific")
    if y == 1:
        return -2.0 * y_hat * (1.0 - y_hat) ** 2
    if y == 0:
        return 2.0 * y_hat**2 * (1.0 - y_hat)
    raise ValueError(f"label must be 0 or 1, got {y}")
