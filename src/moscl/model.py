"""Two-layer perceptron: its parameters and checkpoints, batched losses and
per-sample gradients over the forward pass and backprop of `kernels`.
"""

from __future__ import annotations

import json
import math

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
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W2.shape[0]

    @property
    def _act(self) -> int:
        return ACTIVATIONS[self.activation]

    @property
    def _head(self) -> int:
        return HEADS[self.head]

    # -- forward -----------------------------------------------------------

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
