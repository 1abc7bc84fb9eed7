"""Pairwise gradient-conflict measurement: cosine angles between per-sample
parameter gradients and the rank correlation between conflict and loss sum."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import uncertainty
from .model import MlpModel

MAX_EXHAUSTIVE_N = 64
PAIR_CAP = 2000
PAIR_DTYPE = np.dtype(
    [("id_i", np.int64), ("id_j", np.int64), ("cosine", np.float64), ("loss_sum", np.float64)]
)


@dataclass
class ConflictReport:
    """``pairs`` is a PAIR_DTYPE structured array, one element per kept
    pair: the two sample ids (id_i < id_j), their gradient cosine and their
    loss sum."""

    pairs: np.ndarray
    spearman_rho: Optional[float]
    degenerate: bool = False
    model_tag: str = ""

    def save(self, path) -> None:
        """The pairs as a PAIR_DTYPE ``.npy`` array beside ``path``, then
        the one-line summary JSON at ``path``, written last so that a
        failed pairs write leaves no summary."""
        table = Path(path).with_suffix(".npy")
        if table == Path(path):
            raise ValueError(f"report path {str(path)!r} ends in .npy, the pairs table's suffix")
        # a file object, so np.save adds no ".npy" to the name
        with open(table, "wb") as fh:
            np.save(fh, self.pairs, allow_pickle=False)
        with open(path, "w") as fh:
            fh.write(json.dumps({"model_tag": self.model_tag, "spearman_rho": self.spearman_rho,
                                 "degenerate": self.degenerate, "n_pairs": len(self.pairs)}))

    def save_pairs_csv(self, path) -> None:
        p = self.pairs
        columns = (p["id_i"], p["id_j"], p["cosine"], 1.0 - p["cosine"], p["loss_sum"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id_i", "id_j", "cosine", "conflict", "loss_sum"])
            writer.writerows(zip(*[column.tolist() for column in columns]))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their
    positions.  NaNs rank last, each on its own, in index order."""
    # tied values share one rank, so only the NaNs, which never tie, need the
    # order a stable sort would give them
    order = np.argsort(x)
    s = x[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, len(s)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    nan = np.isnan(x)
    ranks[nan] = np.arange(len(s) - np.count_nonzero(nan), len(s)) + 1.0
    return ranks


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho of two equal-length samples: the Pearson correlation
    of their average ranks, computed as scipy.stats.spearmanr does, to the
    bit.  NaN where either sample is constant or holds a NaN."""
    if any(np.isnan(v).any() or (v == v[0]).all() for v in (x, y)):
        return math.nan
    # scipy reads [1, 0]; the [0, 1] entry can differ from it in the last bit
    return float(np.corrcoef(np.vstack([average_ranks(x), average_ranks(y)]))[1, 0])


def conflict_loss_monotonicity(
    model: MlpModel,
    X: np.ndarray,
    labels: np.ndarray,
    sample_ids: Optional[np.ndarray] = None,
    loss_kind: str = "mse",
    seed: int = 0,
    model_tag: str = "",
) -> ConflictReport:
    """Pairwise (conflict = 1 - cosine, loss_sum = l_i + l_j) over the
    dataset, with the Spearman rank correlation between them.

    Pairs where either gradient vanishes are skipped.  For N above
    MAX_EXHAUSTIVE_N, PAIR_CAP pairs are sampled with the given seed.
    An all-constant conflict column is reported as degenerate.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = X.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples")
    ids = np.arange(n) if sample_ids is None else np.asarray(sample_ids)
    order = np.argsort(ids)  # report independent of input order
    per_loss = model.batch_losses(X, labels, loss_kind)
    ids, losses = ids[order], per_loss[order]
    grads = model.per_sample_gradients(X[order], labels[order], loss_kind)
    n_pairs = n * (n - 1) // 2  # row pairs i < j, numbered in lexicographic order
    if n > MAX_EXHAUSTIVE_N and n_pairs > PAIR_CAP:
        p = np.sort(np.random.default_rng(seed).choice(n_pairs, PAIR_CAP, replace=False))
    else:
        p = np.arange(n_pairs)
    rows = np.arange(n)
    starts = rows * n - rows * (rows + 1) // 2  # the number of row i's first pair
    I = np.searchsorted(starts, p, "right") - 1
    J = p - starts[I] + I + 1
    norms = np.linalg.norm(grads, axis=1)
    keep = (norms[I] != 0.0) & (norms[J] != 0.0)
    I, J = I[keep], J[keep]
    # the dot products in blocks of about `uncertainty.BLOCK_VALUES` gradient
    # values: gathered all at once, the rows are big enough that malloc maps
    # them fresh pages on every call
    dots = np.empty(len(I))
    step = max(1, uncertainty.BLOCK_VALUES // grads.shape[1])
    for start in range(0, len(I), step):
        at = slice(start, start + step)
        np.einsum("pk,pk->p", grads[I[at]], grads[J[at]], out=dots[at])
    cosines = dots / (norms[I] * norms[J])
    loss_sums = losses[I] + losses[J]
    pairs = np.empty(len(I), dtype=PAIR_DTYPE)
    pairs["id_i"], pairs["id_j"] = ids[I], ids[J]
    pairs["cosine"], pairs["loss_sum"] = cosines, loss_sums
    conflicts = 1.0 - cosines
    degenerate = bool(
        len(pairs) < 2
        or np.ptp(conflicts) == 0.0
        or np.ptp(loss_sums) == 0.0
    )
    rho = None
    if not degenerate:
        rho = rank_correlation(conflicts, loss_sums)
    return ConflictReport(
        pairs=pairs, spearman_rho=rho, degenerate=degenerate, model_tag=model_tag
    )
