"""Closed-form oracles of the paper's theory, checked against the batched
program in `moscl`: scalar losses and their inverses, the loss-derived
uncertainty (the zero-gamma entropy identity), the sigmoid + MSE latent
gradient and its scale rewrite, a finite-difference gradient, the gradient
cosine, the conflict report's row pairs, pair cosines and average ranks,
the convergence rule, the per-class recall and the quadrant recovery rate.

The program never calls these; the acceptance criteria and unit tests do.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from moscl import kernels
from moscl.datagen import Dataset
from moscl.difficulty import quadrant_classify
from moscl.uncertainty import entropy


def prob(model, x) -> float:
    """The sigmoid prediction for the one sample ``x``: `kernels.forward` of one row."""
    params = (model.W1, model.b1, model.W2, model.b2)
    y_hat = kernels.forward(*params, np.asarray(x)[None], model.activation)[3]
    return float(y_hat[0, 0])


# the tags `quadrant_classify` returns: high or low uncertainty, then loss
QUADRANTS = ("HH", "LH", "LL", "HL")


def sigmoid(z: float) -> float:
    """Numerically stable logistic function, saturating at the extremes."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def sigmoid_array(Z: np.ndarray) -> np.ndarray:
    """`sigmoid` elementwise in numpy, e = exp(-|z|) then where(z >= 0, 1,
    e) / (1 + e): the bits ``kernels._sigmoid`` must keep."""
    e = np.exp(-np.abs(Z))
    return np.where(Z >= 0, 1.0, e) / (1.0 + e)


def _check_kind(kind: str) -> None:
    if kind not in kernels.LOSSES:
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


def grad_wrt_prediction(y: int, y_hat: float) -> float:
    """MSE loss gradient w.r.t. the prediction: 2 * (y_hat - y)."""
    return 2.0 * (y_hat - y)


def grad_wrt_latent(y: int, y_hat: float) -> float:
    """Closed-form dL/dz for the sigmoid+MSE model:
    -2*y_hat*(1-y_hat)^2 when y=1, +2*y_hat^2*(1-y_hat) when y=0."""
    if y == 1:
        return -2.0 * y_hat * (1.0 - y_hat) ** 2
    if y == 0:
        return 2.0 * y_hat**2 * (1.0 - y_hat)
    raise ValueError(f"label must be 0 or 1, got {y}")


def gradient_cosine(g_i: np.ndarray, g_j: np.ndarray) -> float:
    """Cosine of the angle between two gradient vectors."""
    g_i = np.asarray(g_i, dtype=np.float64)
    g_j = np.asarray(g_j, dtype=np.float64)
    if g_i.shape != g_j.shape:
        raise ValueError("gradient dimension mismatch")
    ni = np.linalg.norm(g_i)
    nj = np.linalg.norm(g_j)
    if ni == 0.0 or nj == 0.0:
        raise ValueError("conflict undefined for a zero gradient")
    return float(np.dot(g_i, g_j) / (ni * nj))


def conflict_pair_rows(n: int, seed: int, max_exhaustive_n: int, cap: int):
    """The row pairs (I, J) a conflict report keeps, through the N(N-1)/2
    index arrays of `np.triu_indices`: every i < j in lexicographic order,
    or for n above ``max_exhaustive_n`` a sorted sample of ``cap`` of them
    drawn with ``seed``."""
    I, J = np.triu_indices(n, 1)
    if n > max_exhaustive_n and len(I) > cap:
        pick = np.sort(np.random.default_rng(seed).choice(len(I), size=cap, replace=False))
        I, J = I[pick], J[pick]
    return I, J


def pair_cosines(grads: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The gradient cosine of each row pair (I[k], J[k]), all pairs in one
    `einsum` over the gathered rows."""
    norms = np.linalg.norm(grads, axis=1)
    return np.einsum("pk,pk->p", grads[I], grads[J]) / (norms[I] * norms[J])


def stable_average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based average ranks through a stable argsort: tied values share the
    mean of their positions, and NaNs, which never tie, rank last in index
    order."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, len(s)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def latent_gradient_scale(y: int, y_hat: float) -> float:
    """Magnitude of dL/dz for the sigmoid+MSE model, written through the
    squared residual: 2*y_hat*l when y=1 (l = (1-y_hat)^2), and
    2*y_hat^2*sqrt(r) with r = (1-y_hat)^2 when y=0, so that the scale is an
    exact rewrite of the closed-form latent gradient on both branches."""
    if y == 1:
        return 2.0 * y_hat * (1.0 - y_hat) ** 2
    if y == 0:
        return 2.0 * y_hat**2 * np.sqrt((1.0 - y_hat) ** 2)
    raise ValueError(f"label must be 0 or 1, got {y}")


def has_converged(epoch_losses: List[float], rel_tol: float = 1e-4, window: int = 5) -> bool:
    """Convergence rule: relative improvement of mean epoch loss below
    rel_tol for `window` consecutive epochs."""
    if len(epoch_losses) < window + 1:
        return False
    recent = epoch_losses[-(window + 1):]
    for prev, cur in zip(recent, recent[1:]):
        if prev <= 0.0:
            continue
        if (prev - cur) / abs(prev) >= rel_tol:
            return False
    return True


def class_recalls(pred: np.ndarray, labels: np.ndarray) -> List[float]:
    """The recall of classes 0 and 1: the mean of ``pred == c`` over the rows
    labelled c, NaN for a class with no row."""
    return [
        float((pred[labels == c] == c).mean()) if (labels == c).any() else math.nan
        for c in (0, 1)
    ]


def quadrant_recovery_rate(
    dataset: Dataset, losses, uncertainties
) -> Dict[str, Optional[float]]:
    """Per generation tag, the fraction of samples whose measured quadrant
    matches the tag; the scores are in dataset-row order.  Tags absent from
    the dataset map to None."""
    if len(losses) != len(dataset):
        raise ValueError(f"{len(losses)} scores for {len(dataset)} samples")
    tags = dataset.tag
    hits = quadrant_classify(losses, uncertainties) == tags
    return {
        tag: float(hits[tags == tag].mean()) if (tags == tag).any() else None
        for tag in QUADRANTS
    }
