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


def _activate(fpre, act, out=None):
    return np.tanh(fpre, out=out) if act == "tanh" else np.maximum(fpre, 0.0, out=out)


def _sigmoid(Z, out=None):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: neither overflows
    e = np.exp(np.copysign(Z, -1.0))
    num = np.where(Z >= 0.0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=out)


def forward(W1, b1, W2, b2, X, act, T=None):
    """Forward pass over any leading run axes: ``W1`` (..., H, d), ``b1``
    (..., H), ``W2`` (..., 1, H), ``b2`` (..., 1) and ``X`` (..., N, d).
    Returns (Fpre, F, Z, Y_hat): pre-activation and hidden map (..., N, H),
    latent and prediction p(y = 1) (..., N, 1).

    With a perturbation tensor ``T`` (N, G, H) the hidden map becomes
    F * (1 + T), and F, Z and Y_hat gain a G axis before their last.
    """
    Fpre = X @ W1.swapaxes(-1, -2)
    Fpre += b1[..., None, :]
    F = _activate(Fpre, act)
    if T is not None:
        F = F[..., None, :] * (1.0 + T)
        W2, b2 = W2[..., None, :, :], b2[..., None, :]
    Z = F @ W2.swapaxes(-1, -2)
    Z += b2[..., None, :]
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


def backward(W2, Fpre, F, Y_hat, labels, w, act, lossk):
    """Backprop through an unperturbed `forward` of each sample's loss times
    its weight ``w`` (..., N).  Returns dL/dZ (..., N, 1) and dL/dFpre
    (..., N, H); their outer products with F and X are the gradients."""
    p = Y_hat[..., 0]
    dz = (2.0 * (p - labels) * p * (1.0 - p) if lossk == "mse" else p - labels)[..., None]
    dz = dz * w[..., None]
    dF = dz @ W2
    if act == "tanh":
        dFpre = dF * (1.0 - F * F)
    else:
        dFpre = np.where(Fpre > 0.0, dF, 0.0)
    return dz, dFpre


def _sgd_batches(params, XB, YB, WB, LB, lr, act, lossk):
    """Step the S runs of ``params`` (W1, b1, W2, b2) in place through k
    batches of inputs XB (k, S, n, d), float labels and loss weights YB, WB
    (k, S, n), writing each visit's raw loss into LB (k, S, n): exactly
    `forward`, `loss_batch` and `backward`, then lr / n times the gradient
    sum subtracted from one flat state, its views and buffers built once."""
    (_, S, n, _), H = XB.shape, params[0].shape[1]
    theta = np.concatenate([P.ravel() for P in params])
    grad = np.empty_like(theta)
    # each parameter is one contiguous block over all runs
    split = np.cumsum([P.size for P in params])[:-1]
    W1, b1, W2, b2 = (a.reshape(P.shape) for a, P in zip(np.split(theta, split), params))
    gW1, gb1, gW2, gb2 = (a.reshape(P.shape) for a, P in zip(np.split(grad, split), params))
    W1T, W2T, b2r = W1.swapaxes(1, 2), W2.swapaxes(1, 2), b2[:, None]
    # the hidden maps are stored batch-major, (n, S, H), so b1 and its
    # gradient broadcast over and sum along their leading axis
    Fpre, F, dF, dFpre = (np.empty((n, S, H)) for _ in range(4))
    Fpre_r, F_r, dF_r = (A.swapaxes(0, 1) for A in (Fpre, F, dF))
    dFpreT = dFpre.transpose(1, 2, 0)
    Y, dz, r = np.empty((S, n, 1)), np.empty((S, n, 1)), np.empty((S, n))
    p, dz_, dzT = Y[..., 0], dz[..., 0], dz.swapaxes(1, 2)
    # 0-d arrays: numpy converts a Python float operand on every call
    scale, one, two = np.array(lr / n), np.array(1.0), np.array(2.0)
    for Xb, yb, wb, out in zip(XB, YB, WB, LB):
        np.matmul(Xb, W1T, Fpre_r)
        np.add(Fpre, b1, Fpre)
        _activate(Fpre, act, out=F)
        np.matmul(F_r, W2T, Y)
        np.add(Y, b2r, Y)
        _sigmoid(Y, out=Y)
        np.subtract(p, yb, r)
        if lossk == "mse":
            np.multiply(r, r, out)
            g = r * two * p * (one - p)
        else:
            out[...], g = loss_batch(Y, yb, lossk), r
        np.multiply(g, wb, dz_)
        np.matmul(dz, W2, dF_r)
        if act == "tanh":
            np.multiply(dF, one - F * F, dFpre)
        else:
            dFpre[...] = np.where(Fpre > 0.0, dF, 0.0)
        np.matmul(dzT, F_r, gW2)
        np.add.reduce(dz, 1, None, gb2)
        np.matmul(dFpreT, Xb, gW1)
        np.add.reduce(dFpre, 0, None, gb1)
        np.multiply(grad, scale, grad)
        np.subtract(theta, grad, theta)
    for P, view in zip(params, (W1, b1, W2, b2)):
        P[...] = view


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
    lengths = [len(o) for o in orders]
    L = np.empty((len(orders), max(lengths)))

    def steps(rows, lo, hi, n):
        # the runs in ``rows`` step over their visits lo:hi, n at a time
        if hi <= lo:
            return
        runs = range(len(orders))[rows]
        # step-major: the j-th batch of every run is one contiguous block
        O = np.stack([orders[s][lo:hi] for s in runs]).reshape(len(runs), -1, n).swapaxes(0, 1)
        LB = np.empty(O.shape)
        _sgd_batches([P[rows] for P in (W1, b1, W2, b2)], X[O], labels[O].astype(np.float64),
                     weights[rows][np.arange(len(runs))[:, None], O], LB, lr, act, lossk)
        L[rows, lo:hi] = LB.swapaxes(0, 1).reshape(len(runs), -1)

    # Batches every run fills: the whole stack steps at once.
    full = min(lengths) // bsz * bsz
    steps(slice(None), 0, full, bsz)
    # Ragged tails: each run steps alone, its last batch short.
    for s, m in enumerate(lengths):
        end = m // bsz * bsz
        steps(slice(s, s + 1), full, end, bsz)
        steps(slice(s, s + 1), end, m, m - end)
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
