"""Hot numeric kernels: the MLP's forward pass and backprop, mini-batch SGD
epochs over a stack of runs and the G-perturbation prediction averaging.

Integer codes select the model's pieces:
  activation: 0 = tanh, 1 = relu
  head:       0 = sigmoid (out_dim 1), 1 = softmax
  loss:       0 = mse, 1 = ce
"""

from __future__ import annotations

import numpy as np

ACT_TANH, ACT_RELU = 0, 1
HEAD_SIGMOID, HEAD_SOFTMAX = 0, 1
LOSS_MSE, LOSS_CE = 0, 1


def backend_name() -> str:
    return "numpy"


def _activate(fpre, act):
    return np.tanh(fpre) if act == ACT_TANH else np.maximum(fpre, 0.0)


def _head_np(Z, head):
    if head == HEAD_SIGMOID:
        # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: neither overflows
        e = np.exp(-np.abs(Z))
        return np.where(Z >= 0, 1.0, e) / (1.0 + e)
    E = np.exp(Z - Z.max(axis=-1, keepdims=True))
    return E / E.sum(axis=-1, keepdims=True)


def forward(W1, b1, W2, b2, X, act, head, T=None):
    """Forward pass over any leading run axes: ``W1`` (..., H, d), ``b1``
    (..., H), ``W2`` (..., C, H), ``b2`` (..., C) and ``X`` (..., N, d).
    Returns (Fpre, F, Z, Y_hat): pre-activation and hidden map (..., N, H),
    latent and prediction (..., N, C).

    With a perturbation tensor ``T`` (N, G, H) the hidden map becomes
    F * (1 + T), and F, Z and Y_hat gain a G axis before their last.
    """
    Fpre = X @ W1.swapaxes(-1, -2) + b1[..., None, :]
    F = _activate(Fpre, act)
    if T is not None:
        F = F[..., None, :] * (1.0 + T)
        W2, b2 = W2[..., None, :, :], b2[..., None, :]
    Z = F @ W2.swapaxes(-1, -2) + b2[..., None, :]
    return Fpre, F, Z, _head_np(Z, head)


def _onehot(labels, Y_hat):
    onehot = np.zeros_like(Y_hat)
    np.put_along_axis(onehot, labels[..., None].astype(np.intp), 1.0, axis=-1)
    return onehot


def loss_batch(Y_hat, labels, head, lossk):
    """Per-sample losses from predictions ``Y_hat`` (..., C) and integer
    ``labels`` (...)."""
    if head == HEAD_SIGMOID:
        p = Y_hat[..., 0]
        if lossk == LOSS_MSE:
            return (p - labels) ** 2
        # a saturated p of 0 or 1 takes log(0) = -inf in one branch, which
        # np.where evaluates even when the label picks the other; the loss
        # is inf only where it does, and a run raises on an inf mean loss
        with np.errstate(divide="ignore"):
            return np.where(labels == 1, -np.log(p), -np.log(1.0 - p))
    if lossk == LOSS_MSE:
        return ((Y_hat - _onehot(labels, Y_hat)) ** 2).sum(axis=-1)
    idx = labels[..., None].astype(np.intp)
    with np.errstate(divide="ignore"):
        return -np.log(np.take_along_axis(Y_hat, idx, axis=-1)[..., 0])


def _dloss_dz_np(Y_hat, labels, head, lossk):
    """dL/dz per sample, shaped like ``Y_hat`` (..., C)."""
    if head == HEAD_SIGMOID:
        p = Y_hat[..., 0]
        if lossk == LOSS_MSE:
            dz = 2.0 * (p - labels) * p * (1.0 - p)
        else:
            dz = p - labels
        return dz[..., None]
    onehot = _onehot(labels, Y_hat)
    if lossk == LOSS_CE:
        return Y_hat - onehot
    g = 2.0 * (Y_hat - onehot)
    return Y_hat * (g - (g * Y_hat).sum(axis=-1, keepdims=True))


def backward(W2, Fpre, F, Y_hat, labels, w, act, head, lossk):
    """Backprop through an unperturbed `forward` of each sample's loss times
    its weight ``w`` (..., N).  Returns dL/dZ (..., N, C) and dL/dFpre
    (..., N, H); their outer products with F and X are the gradients."""
    dz = _dloss_dz_np(Y_hat, labels, head, lossk) * w[..., None]
    dF = dz @ W2
    if act == ACT_TANH:
        dFpre = dF * (1.0 - F * F)
    else:
        dFpre = np.where(Fpre > 0.0, dF, 0.0)
    return dz, dFpre


def _sgd_step(W1, b1, W2, b2, Xb, lab, wb, scale, act, head, lossk):
    """One mini-batch update of S stacked runs, in place on the parameter
    arrays.  ``Xb`` is (S, n, d), ``lab`` and ``wb`` are (S, n); ``scale`` is
    lr / n.  Returns the (S, n) raw losses."""
    Fpre, F, _, Y = forward(W1, b1, W2, b2, Xb, act, head)
    dz, dFpre = backward(W2, Fpre, F, Y, lab, wb, act, head, lossk)
    W2 -= scale * (dz.transpose(0, 2, 1) @ F)
    b2 -= scale * dz.sum(axis=1)
    W1 -= scale * (dFpre.transpose(0, 2, 1) @ Xb)
    b1 -= scale * dFpre.sum(axis=1)
    return loss_batch(Y, lab, head, lossk)


def sgd_epochs(W1, b1, W2, b2, X, labels, orders, bsz, weights, lr, act, head, lossk):
    """Run one epoch of mini-batch SGD for each of S runs at once, in place.

    Parameters are stacked on a leading run axis: ``W1`` (S, H, d), ``b1``
    (S, H), ``W2`` (S, C, H), ``b2`` (S, C).  ``orders[s]`` is run s's
    flattened visiting sequence of rows of ``X`` (it may contain repeats,
    e.g. OHEM, and lengths may differ); it is chunked into batches of
    ``bsz`` with a short final batch.  ``weights`` (S, N) are per-run loss
    multipliers applied to gradients only.  Every run's arithmetic is
    exactly that of stepping it alone.  Returns each run's raw (unweighted)
    loss at each visit.
    """
    S = len(orders)
    lengths = np.array([len(o) for o in orders], dtype=np.int64)
    M = int(lengths.max())
    O = np.zeros((S, M), dtype=np.int64)
    for s, order in enumerate(orders):
        O[s, : len(order)] = order
    # Each run's visits in order: inputs, labels and loss weights.
    XO, LO, WO = X[O], labels[O], np.take_along_axis(weights, O, axis=1)
    L = np.empty((S, M))
    # Batches every run fills: the whole stack steps in place.
    full = int(lengths.min()) // bsz * bsz
    for pos in range(0, full, bsz):
        at = slice(pos, pos + bsz)
        L[:, at] = _sgd_step(
            W1, b1, W2, b2, XO[:, at], LO[:, at], WO[:, at], lr / bsz, act, head, lossk
        )
    # Ragged tails: runs with equal batch sizes step together on row subsets.
    for pos in range(full, M, bsz):
        n = np.minimum(lengths - pos, bsz)
        for k in np.unique(n[n > 0]).tolist():
            sub, at = np.flatnonzero(n == k), slice(pos, pos + k)
            params = [W1[sub], b1[sub], W2[sub], b2[sub]]
            L[sub, at] = _sgd_step(
                *params, XO[sub, at], LO[sub, at], WO[sub, at], lr / k, act, head, lossk
            )
            W1[sub], b1[sub], W2[sub], b2[sub] = params
    return [L[s, :m] for s, m in enumerate(lengths)]


def sgd_epoch(W1, b1, W2, b2, X, labels, order, bsz, weights, lr, act, head, lossk):
    """One run's epoch of mini-batch SGD following ``order``, in place:
    ``sgd_epochs`` with S=1.  Returns the raw (unweighted) loss at each
    visit."""
    return sgd_epochs(
        W1[None], b1[None], W2[None], b2[None], X, labels, [order], bsz,
        weights[None], lr, act, head, lossk,
    )[0]


def mean_perturbed_predictions(W1, b1, W2, b2, X, T, act, head):
    """Average prediction per sample under the (N, G, hidden) multiplicative
    perturbation tensor ``T``."""
    return forward(W1, b1, W2, b2, X, act, head, T)[3].mean(axis=1)
