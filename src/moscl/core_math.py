"""Scalar numerics shared by every module: activations, losses and their
inverses, the entropy score, and a finite-difference gradient checker.

All functions are pure and accept plain floats or numpy arrays where noted.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import entr

__all__ = [
    "entropy",
    "sigmoid",
    "loss",
    "inverse_loss",
    "loss_based_uncertainty",
    "finite_difference_gradient",
    "LOSS_KINDS",
]

LOSS_KINDS = ("mse", "ce")


def entropy(p):
    """The paper's entropy score H(p) = -p*ln(p), with H(0) = 0 by the limit
    convention, of a probability or elementwise of an array of them (a float
    in, a float out; an array in, an array of its shape out)."""
    a = np.asarray(p, dtype=np.float64)
    ok = (a >= 0.0) & (a <= 1.0)
    if not ok.all():
        raise ValueError(f"probability {a[~ok][0]} outside [0, 1]")
    # entr(x) = -x*ln(x) with entr(0) = 0
    h = entr(a)
    return float(h) if h.ndim == 0 else h


def sigmoid(z: float) -> float:
    """Numerically stable logistic function, saturating at the extremes."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")


def _check_label(y: int) -> None:
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")


def loss(kind: str, y: int, y_hat: float) -> float:
    """Per-sample loss: MSE (y_hat - y)^2 or binary cross-entropy."""
    _check_kind(kind)
    _check_label(y)
    if kind == "mse":
        return (y_hat - y) ** 2
    # cross-entropy; undefined at the saturated prediction of the wrong label
    if y == 1:
        if y_hat == 0.0:
            raise ValueError("CE undefined at y_hat=0 with y=1")
        return -math.log(y_hat)
    if y_hat == 1.0:
        raise ValueError("CE undefined at y_hat=1 with y=0")
    return -math.log(1.0 - y_hat)


def inverse_loss(kind: str, y: int, l: float) -> float:
    """Recover the prediction from its loss, on the branch containing the
    label's side of [0, 1].

    MSE: y=1 -> 1 - sqrt(l), y=0 -> sqrt(l).  CE: y=1 -> exp(-l),
    y=0 -> 1 - exp(-l).
    """
    _check_kind(kind)
    _check_label(y)
    if l < 0.0:
        raise ValueError(f"loss must be nonnegative, got {l}")
    if kind == "mse":
        if l > 1.0:
            raise ValueError(f"MSE loss {l} has no root in [0, 1]")
        root = math.sqrt(l)
        return 1.0 - root if y == 1 else root
    p = math.exp(-l)
    return p if y == 1 else 1.0 - p


def loss_based_uncertainty(kind: str, y: int, l: float) -> float:
    """Uncertainty score read off the loss alone: entropy of the prediction
    recovered by inverting the loss function."""
    return entropy(inverse_loss(kind, y, l))


def finite_difference_gradient(
    fn: Callable[[float], float], x: float, h: float = 1e-5
) -> float:
    """Central-difference derivative estimate, used as a gradient oracle."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    return (fn(x + h) - fn(x - h)) / (2.0 * h)
