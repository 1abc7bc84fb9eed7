"""Two-layer perceptron: its parameters and checkpoints, batched losses and
per-sample gradients over the forward pass and backprop of `kernels`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import kernels
from .kernels import ACTIVATIONS, LOSSES


class MlpModel:
    """input -> hidden (tanh or relu) -> one linear output through a sigmoid,
    the binary classifier's p(y = 1).

    Parameters are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    from the given seed.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        activation: str = "tanh",
        seed: int = 0,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        rng = np.random.default_rng(seed)
        s1 = 1.0 / np.sqrt(input_dim)
        s2 = 1.0 / np.sqrt(hidden_dim)
        self.W1 = rng.uniform(-s1, s1, (hidden_dim, input_dim))
        self.b1 = rng.uniform(-s1, s1, hidden_dim)
        # W2 (1, H), not (H,): numpy multiplies by a vector on its
        # matrix-vector path, whose rounding differs from the matrix product
        self.W2 = rng.uniform(-s2, s2, (1, hidden_dim))
        self.b2 = rng.uniform(-s2, s2, 1)

    # -- basic geometry ----------------------------------------------------

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    # -- forward -----------------------------------------------------------

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized unperturbed forward; returns the predictions Y_hat.
        Finite parameters can still overflow to a NaN prediction, which
        raises a ValueError naming its row."""
        X = np.asarray(X, dtype=np.float64)
        Y = kernels.forward(self.W1, self.b1, self.W2, self.b2, X, self.activation)[3]
        if np.isnan(Y).any():
            row = np.isnan(Y[:, 0]).argmax()
            raise ValueError(f"prediction of row {row} is nan: the parameters overflow")
        return Y

    def batch_losses(self, X: np.ndarray, labels: np.ndarray, loss_kind: str = "mse"):
        """Per-sample losses over a dataset matrix."""
        if loss_kind not in LOSSES:  # the kernels would run it as CE
            raise ValueError(f"unknown loss_kind {loss_kind!r}")
        Y = self.forward_batch(X)
        labels = np.asarray(labels, dtype=np.int64)
        return kernels.loss_batch(Y, labels, loss_kind)

    # -- gradients ---------------------------------------------------------

    def per_sample_gradients(
        self, X: np.ndarray, labels, loss_kind: str = "mse"
    ) -> np.ndarray:
        """Exact gradient of each sample's loss w.r.t. all parameters, (N, P)
        rows flattened as [W1, b1, W2, b2]: one batched backprop and the
        per-example outer products (Goodfellow, arXiv:1510.01799)."""
        X = np.asarray(X, dtype=np.float64)
        if loss_kind not in LOSSES:  # the kernels would run it as CE
            raise ValueError(f"unknown loss_kind {loss_kind!r}")
        Fpre, F, _, Y = kernels.forward(self.W1, self.b1, self.W2, self.b2, X, self.activation)
        labels = np.asarray(labels, dtype=np.int64)
        dz, dFpre = kernels.backward(
            self.W2, Fpre, F, Y, labels, np.ones(len(X)), self.activation, loss_kind
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
        """JSON-serializable checkpoint: named row-major arrays with shapes.
        Its ``head`` key is always "sigmoid", the one output the model has."""
        out = {"activation": self.activation, "head": "sigmoid", "params": {}}
        for name in PARAM_AXES:
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
        activation, a head other than sigmoid, a ``data`` length other than
        prod(shape), an axis of size 0, shapes that disagree (a W2 of more
        than one row included), or a value that is not a finite number
        raise ValueError naming the field."""
        model = cls.__new__(cls)
        for key, known in (("activation", ACTIVATIONS), ("head", ("sigmoid",))):
            if _field(doc, key, key) not in known:
                raise ValueError(f"checkpoint {key}: unknown {doc[key]!r}")
        model.activation = doc["activation"]
        params = _field(doc, "params", "params")
        sizes = {"1": 1}  # axis name -> size, first seen
        for name, axes in PARAM_AXES.items():
            where = f"params.{name}"
            entry = _field(params, name, where)
            shape = tuple(_field(entry, "shape", f"{where}.shape"))
            data = _field(entry, "data", f"{where}.data")
            if len(data) != math.prod(shape):
                raise ValueError(f"checkpoint {where}: {len(data)} values for shape {shape}")
            if 0 in shape:
                raise ValueError(f"checkpoint {where}: shape {shape} has an axis of size 0")
            if len(shape) != len(axes) or any(
                sizes.setdefault(axis, size) != size for axis, size in zip(axes, shape)
            ):
                raise ValueError(
                    f"checkpoint {where}: shape {shape} disagrees with "
                    f"W1 (H, d), b1 (H,), W2 (1, H), b2 (1,)"
                )
            for k, value in enumerate(data):
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(f"checkpoint {where}: value {value!r} at index {k} "
                                     "is not a finite number")
            setattr(model, name, np.asarray(data, dtype=np.float64).reshape(shape))
        return model

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as fh:
            return cls.from_checkpoint(json.load(fh))


# The parameter arrays, in checkpoint order, and the size behind each axis:
# H hidden, d input, and the one output.
PARAM_AXES = {"W1": "Hd", "b1": "H", "W2": "1H", "b2": "1"}


def _field(doc, key, where):
    """``doc[key]``, or a ValueError naming the checkpoint field ``where``."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"checkpoint is missing {where}") from None
