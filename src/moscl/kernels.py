"""Hot numeric kernels: the MLP's forward pass and backprop, mini-batch SGD
epochs over a stack of runs and the G-perturbation prediction averaging.

The model is a binary classifier with one sigmoid output p(y = 1).  Its
hidden activation and its loss are selected by the names that configs and
checkpoints hold, from ``ACTIVATIONS`` and ``LOSSES``.  The kernels do not
check them: a name outside these tuples runs as the second entry, so
callers check names where they enter the program.
"""

from __future__ import annotations

import numpy as np

ACTIVATIONS = ("tanh", "relu")
LOSSES = ("mse", "ce")


def backend_name() -> str:
    return "numpy"


def _activate(fpre, act):
    return np.tanh(fpre) if act == "tanh" else np.maximum(fpre, 0.0)


def _sigmoid(Z):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: neither overflows
    e = np.exp(-np.abs(Z))
    return np.where(Z >= 0, 1.0, e) / (1.0 + e)


def forward(W1, b1, W2, b2, X, act, T=None):
    """Forward pass over any leading run axes: ``W1`` (..., H, d), ``b1``
    (..., H), ``W2`` (..., 1, H), ``b2`` (..., 1) and ``X`` (..., N, d).
    Returns (Fpre, F, Z, Y_hat): pre-activation and hidden map (..., N, H),
    latent and prediction p(y = 1) (..., N, 1).

    With a perturbation tensor ``T`` (N, G, H) the hidden map becomes
    F * (1 + T), and F, Z and Y_hat gain a G axis before their last.
    """
    Fpre = X @ W1.swapaxes(-1, -2) + b1[..., None, :]
    F = _activate(Fpre, act)
    if T is not None:
        F = F[..., None, :] * (1.0 + T)
        W2, b2 = W2[..., None, :, :], b2[..., None, :]
    Z = F @ W2.swapaxes(-1, -2) + b2[..., None, :]
    return Fpre, F, Z, _sigmoid(Z)


def loss_batch(Y_hat, labels, lossk):
    """Per-sample losses from predictions ``Y_hat`` (..., 1) and 0/1
    ``labels`` (...)."""
    p = Y_hat[..., 0]
    if lossk == "mse":
        return (p - labels) ** 2
    # a saturated p of 0 or 1 takes log(0) = -inf in one branch, which
    # np.where evaluates even when the label picks the other; the loss
    # is inf only where it does, and a run raises on an inf mean loss
    with np.errstate(divide="ignore"):
        return np.where(labels == 1, -np.log(p), -np.log(1.0 - p))


def _dloss_dz_np(Y_hat, labels, lossk):
    """dL/dz per sample, shaped like ``Y_hat`` (..., 1)."""
    p = Y_hat[..., 0]
    if lossk == "mse":
        dz = 2.0 * (p - labels) * p * (1.0 - p)
    else:
        dz = p - labels
    return dz[..., None]


def backward(W2, Fpre, F, Y_hat, labels, w, act, lossk):
    """Backprop through an unperturbed `forward` of each sample's loss times
    its weight ``w`` (..., N).  Returns dL/dZ (..., N, 1) and dL/dFpre
    (..., N, H); their outer products with F and X are the gradients."""
    dz = _dloss_dz_np(Y_hat, labels, lossk) * w[..., None]
    dF = dz @ W2
    if act == "tanh":
        dFpre = dF * (1.0 - F * F)
    else:
        dFpre = np.where(Fpre > 0.0, dF, 0.0)
    return dz, dFpre


def _sgd_step(W1, b1, W2, b2, Xb, lab, wb, scale, act, lossk):
    """One mini-batch update of S stacked runs, in place on the parameter
    arrays.  ``Xb`` is (S, n, d), ``lab`` and ``wb`` are (S, n); ``scale`` is
    lr / n.  Returns the (S, n) raw losses."""
    Fpre, F, _, Y = forward(W1, b1, W2, b2, Xb, act)
    dz, dFpre = backward(W2, Fpre, F, Y, lab, wb, act, lossk)
    W2 -= scale * (dz.transpose(0, 2, 1) @ F)
    b2 -= scale * dz.sum(axis=1)
    W1 -= scale * (dFpre.transpose(0, 2, 1) @ Xb)
    b1 -= scale * dFpre.sum(axis=1)
    return loss_batch(Y, lab, lossk)


def sgd_epochs(W1, b1, W2, b2, X, labels, orders, bsz, weights, lr, act, lossk):
    """Run one epoch of mini-batch SGD for each of S runs at once, in place.

    Parameters are stacked on a leading run axis: ``W1`` (S, H, d), ``b1``
    (S, H), ``W2`` (S, 1, H), ``b2`` (S, 1).  ``orders[s]`` is run s's
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
            W1, b1, W2, b2, XO[:, at], LO[:, at], WO[:, at], lr / bsz, act, lossk
        )
    # Ragged tails: each run steps alone, in place on its row of the stack.
    for pos in range(full, M, bsz):
        for s, m in enumerate(lengths.tolist()):
            if m > pos:
                r, at = slice(s, s + 1), slice(pos, min(m, pos + bsz))
                L[r, at] = _sgd_step(W1[r], b1[r], W2[r], b2[r], XO[r, at], LO[r, at],
                                     WO[r, at], lr / (at.stop - pos), act, lossk)
    return [L[s, :m] for s, m in enumerate(lengths)]


def sgd_epoch(W1, b1, W2, b2, X, labels, order, bsz, weights, lr, act, lossk):
    """One run's epoch of mini-batch SGD following ``order``, in place:
    ``sgd_epochs`` with S=1.  Returns the raw (unweighted) loss at each
    visit."""
    return sgd_epochs(
        W1[None], b1[None], W2[None], b2[None], X, labels, [order], bsz,
        weights[None], lr, act, lossk,
    )[0]


def mean_perturbed_predictions(W1, b1, W2, b2, X, T, act):
    """Average prediction per sample under the (N, G, hidden) multiplicative
    perturbation tensor ``T``."""
    return forward(W1, b1, W2, b2, X, act, T)[3].mean(axis=1)
