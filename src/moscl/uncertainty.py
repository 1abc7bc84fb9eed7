"""Perturbation-based uncertainty: entropy of the mean prediction under G
random multiplicative disturbances of the hidden feature map."""

from __future__ import annotations

import json
import math
from typing import Tuple

import numpy as np

from . import kernels
from .model import PARAM_AXES


def entropy(p):
    """The paper's entropy score H(p) = -p*ln(p), with H(0) = 0 by the limit
    convention, of a probability or elementwise of an array of them (a float
    in, a float out; an array in, an array of its shape out)."""
    a = np.asarray(p, dtype=np.float64)
    ok = (a >= 0.0) & (a <= 1.0)
    if not ok.all():
        raise ValueError(f"probability {a[~ok][0]} outside [0, 1]")
    # libm's log, one value at a time: numpy's SIMD log is off by an ulp on
    # some inputs, which would move scores and, through near-ties, plans.
    # A zero's log is taken of 0.5 instead, so its term is -0.0 * ln(0.5) =
    # +0.0, the limit H(0) = 0.
    logs = map(math.log, np.where(a > 0.0, a, 0.5).ravel().tolist())
    h = -a * np.fromiter(logs, np.float64, a.size).reshape(a.shape)
    return float(h) if h.ndim == 0 else h


def check_scoring(G: int, gamma: float) -> None:
    """Reject a disturbance count G < 1 and a non-finite or negative
    disturbance scale gamma, naming the value."""
    if G < 1:
        raise ValueError("G must be >= 1")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the stream increment and
# the two multipliers of its output finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer, a bijection of uint64, in place on ``z``;
    ``tmp`` is scratch space of z's shape."""
    z ^= np.right_shift(z, 30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=tmp)


def _as_u64(value: int) -> np.uint64:
    # two's complement, so negative seeds are accepted and stay distinct
    return np.uint64(int(value) % (1 << 64))


# Values of the (rows, G, H) perturbation tensor drawn and pushed through
# the perturbed pass at a time: 14 * 2**10 float64s (112 KiB) per array, so
# a block's hash state, disturbances and perturbed hidden map stay in a
# core's L2 cache.  A block holds rows = max(1, BLOCK_VALUES // (G * H))
# rows, so an array takes at most rows * G * H * 8 bytes: 112 KiB or less
# while G * H <= BLOCK_VALUES.  By default glibc's malloc gives requests of
# 128 KiB and up fresh pages and returns them on free, so larger blocks
# page-fault in anew at each scoring call (256 KiB blocks took 30,000 minor
# faults per 250 calls at N = 400, G = H = 8).
BLOCK_VALUES = 14 << 10


def _stream_keys(seed: int, sample_ids, epoch: int) -> np.ndarray:
    """Per-sample stream key mix(mix(mix(seed) ^ id) ^ epoch), as uint64."""
    ids = np.asarray(sample_ids, dtype=np.int64).astype(np.uint64)
    key = np.full(len(ids), _as_u64(seed))
    scratch = np.empty(len(ids), dtype=np.uint64)
    _mix(key, scratch)
    key ^= ids
    _mix(key, scratch)
    key ^= _as_u64(epoch)
    _mix(key, scratch)
    return key


def _draw(keys: np.ndarray, m: int, gamma: float) -> np.ndarray:
    """The first m disturbances of each stream key, shaped (len(keys), m)."""
    counter = np.arange(1, m + 1, dtype=np.uint64)
    counter *= _GOLDEN
    z = np.add(keys[:, None], counter[None, :])
    # the output buffer doubles as the hash's scratch space
    out = np.empty(z.shape)
    _mix(z, out.view(np.uint64))
    z >>= np.uint64(11)
    # k * (2 gamma / 2**53) - gamma lies in [-gamma, gamma) for k < 2**53
    np.multiply(z, 2.0 * gamma / 2.0**53, out=out)
    out -= gamma
    return out


def perturbations(
    seed: int, sample_ids, epoch: int, shape: Tuple[int, ...], gamma: float
) -> np.ndarray:
    """Disturbances uniform on [-gamma, gamma), shaped (N, *shape): one
    block per sample id, and each value a pure function of (seed,
    sample_id, epoch, flat index in ``shape``).

    A counter-based stream (Salmon et al., SC'11): (seed, id, epoch) is
    hashed into a SplitMix64 state, and value j of the block is the
    finalizer of state + (j + 1) * golden-ratio increment.  The top 53 bits
    become the uniform.  So a block depends only on its own id, equal ids
    get equal blocks, and every epoch draws anew.
    """
    keys = _stream_keys(seed, sample_ids, epoch)
    return _draw(keys, math.prod(shape), gamma).reshape((len(keys), *shape))


def batch_score_uncertainty(
    model,
    X: np.ndarray,
    sample_ids: np.ndarray,
    G: int,
    gamma: float,
    seed: int,
    epoch: int = 0,
) -> np.ndarray:
    """Uncertainty of each row of X, row k scored as sample ``sample_ids[k]``
    under G disturbances uniform on [-gamma, gamma).  Each sample's
    disturbances are a pure function of (seed, sample_id, epoch) (see
    `perturbations`), so scoring is order-independent and the perturbations
    are resampled at every scoring epoch.

    ``model`` is an `MlpModel`, scored as (N,), or a list of S models of one
    hidden size and activation, scored as (S, N): runs that share (seed, G,
    gamma) share their disturbances, so each block is drawn once and pushed
    through every model, and row s equals the call on ``model[s]`` alone.

    Every model's hidden map is computed once; the draw and the perturbed
    pass run in blocks of about `BLOCK_VALUES` disturbances, each value
    depending on its own row alone, so the scores equal those of one pass
    over all rows, bit for bit.  numpy multiplies a one-row matrix as a
    matrix-vector product, whose rounding differs from the matrix product
    that row gets among others, so a one-row dataset's hidden map is taken
    over two copies of its row."""
    check_scoring(G, gamma)
    models = model if isinstance(model, list) else [model]
    kinds = {(m.hidden_dim, m.activation) for m in models}
    if len(kinds) != 1:
        raise ValueError(f"models of one hidden size and activation only, got {sorted(kinds)}")
    hidden, act = kinds.pop()
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    keys = _stream_keys(seed, sample_ids, epoch)
    if len(keys) != len(X):
        raise ValueError(f"{len(keys)} sample ids for {len(X)} rows of X; want one id per row")
    n = len(X)
    W1, b1, W2, b2 = (np.stack([getattr(m, name) for m in models]) for name in PARAM_AXES)
    _, F = kernels.hidden(W1, b1, X if n > 1 else X[[0, 0]], act)
    rows = max(1, BLOCK_VALUES // (G * hidden))
    P = np.empty((len(models), n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        T = _draw(keys[lo:hi], G * hidden, gamma).reshape((-1, G, hidden))
        P[:, lo:hi] = kernels.mean_perturbed_predictions(F[:, lo:hi], W2, b2, T)[..., 0]
    U = entropy(P)
    return U if isinstance(model, list) else U[0]


def json_records(columns: dict) -> str:
    """``json.dumps`` of the records ``{name: column[k], ...}``, one per row
    k, written from the columns: each column (a list of numbers) is
    encoded by one ``json.dumps`` call, as the C encoder writes it, and the
    tokens fill one ``%`` template of all the records."""
    n = len(next(iter(columns.values())))
    if n == 0:
        return "[]"
    record = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in columns) + "}"
    tokens = [None] * (len(columns) * n)
    for k, values in enumerate(columns.values()):
        tokens[k :: len(columns)] = json.dumps(values)[1:-1].split(", ")
    return "[" + ", ".join([record] * n) % tuple(tokens) + "]"


def dump_scores(path, sample_ids, losses, uncertainties) -> None:
    """Score dump shared with the difficulty module: JSON array of
    {sample_id, loss, uncertainty} records, ordered by sample id, on one
    line.  The arrays are row-aligned."""
    rows = np.argsort(sample_ids, kind="stable")
    with open(path, "w") as fh:
        fh.write(json_records({
            "sample_id": np.asarray(sample_ids)[rows].tolist(),
            "loss": np.asarray(losses)[rows].tolist(),
            "uncertainty": np.asarray(uncertainties)[rows].tolist(),
        }))


def load_scores(path) -> dict:
    """A `dump_scores` file as a one-row score table at epoch 0, the epoch
    `moscl score` scores at, in `load_score_table`'s layout, ``uncertainty``
    included.  A file that is not an array of {sample_id, loss, uncertainty}
    records, or a value that is not an integer int64 holds (``sample_id``; a
    bool is not one) or a number float64 holds (a null is not one), raises a
    ValueError naming the file, the record and the key."""
    with open(path) as fh:
        records = json.load(fh)
    try:
        ids, losses, us = ([r[key] for r in records]
                           for key in ("sample_id", "loss", "uncertainty"))
    except (KeyError, TypeError):
        raise ValueError(f"{path} is not an array of "
                         "{sample_id, loss, uncertainty} records") from None
    number = ({int, float}, "a number", np.float64)
    return {"ids": _record_column(path, "sample_id", ids, {int}, "an integer", np.int64),
            "epochs": np.zeros(1, dtype=np.int64),
            "loss": _record_column(path, "loss", losses, *number)[None],
            "uncertainty": _record_column(path, "uncertainty", us, *number)[None]}


def _record_column(path, key, values, types, want, dtype) -> np.ndarray:
    """``values``, the ``key`` of each record of the score JSON ``path``, as
    a ``dtype`` array; the first value not of ``types``, or one ``dtype``
    cannot hold, raises a ValueError naming its record."""
    bad = next((k for k, v in enumerate(values) if type(v) not in types), None)
    if bad is None:
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            bad = next(k for k, v in enumerate(values) if not _holds(dtype, v))
            want += f" that {dtype.__name__} holds"
    raise ValueError(f"{path}: record {bad}: {key!r} is {values[bad]!r}, not {want}")


def _holds(dtype, value) -> bool:
    try:
        np.array(value, dtype=dtype)
    except OverflowError:
        return False
    return True


def save_score_table(path, ids, epochs, losses, uncertainties=None) -> None:
    """One run's scores as an uncompressed ``.npz`` table: ``ids`` (N,) in
    dataset-row order, the scored ``epochs`` (E,), ``loss`` (E, N) and, only
    when given, ``uncertainty`` (E, N); row e holds the scores of epoch
    ``epochs[e]``.  Equal inputs give equal bytes."""
    table = {
        "ids": np.asarray(ids, dtype=np.int64),
        "epochs": np.asarray(epochs, dtype=np.int64),
        "loss": np.asarray(losses, dtype=np.float64),
    }
    if uncertainties is not None:
        table["uncertainty"] = np.asarray(uncertainties, dtype=np.float64)
    # a file object, so np.savez adds no ".npz" to the name
    with open(path, "wb") as fh:
        np.savez(fh, **table)


def load_score_table(path) -> dict:
    """The arrays of a `save_score_table` file by name; ``uncertainty`` is
    present only when the run scored it.  A missing array, or a shape or
    dtype other than the layout above, raises a ValueError naming the
    array."""
    with np.load(path, allow_pickle=False) as npz:
        table = {name: npz[name] for name in npz.files}
    for name in ("ids", "epochs", "loss"):
        if name not in table:
            raise ValueError(f"score table {path} has no {name!r} array")
    for name in ("ids", "epochs"):
        if table[name].ndim != 1:
            raise ValueError(f"score table {name!r} has shape {table[name].shape}; want 1-D")
    for name, kind in (("ids", np.integer), ("epochs", np.integer),
                       ("loss", np.floating), ("uncertainty", np.floating)):
        if name in table and not np.issubdtype(table[name].dtype, kind):
            raise ValueError(
                f"score table {name!r} has dtype {table[name].dtype}; want {kind.__name__}"
            )
    shape = (len(table["epochs"]), len(table["ids"]))
    for name in ("loss", "uncertainty"):
        if name in table and table[name].shape != shape:
            raise ValueError(
                f"score table {name!r} has shape {table[name].shape}; want (epochs, ids) {shape}"
            )
    return table
