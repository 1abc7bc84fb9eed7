"""Per-epoch mini-batch plans: random, mixed-order (hard paired with easy),
anti-mixed (hard with hard), OHEM oversampling, and self-paced loss weights.

Plans, difficulties, losses and weights are arrays in dataset-row order;
sample ids only break ties."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .difficulty import ascending_order


@dataclass
class BatchPlan:
    """One epoch's visiting order as dataset rows; consecutive chunks of
    batch_size rows are its mini-batches, the last one possibly short."""

    order: np.ndarray
    batch_size: int

    @property
    def batches(self) -> List[List[int]]:
        rows, b = self.order.tolist(), self.batch_size
        return [rows[k : k + b] for k in range(0, len(rows), b)]


def random_plan(n: int, b: int, rng: np.random.Generator) -> BatchPlan:
    """Uniform shuffle of n rows chunked into batches of b."""
    if n < 1:
        raise ValueError("no samples")
    return BatchPlan(order=rng.permutation(n), batch_size=b)


def mixed_order_plan(d, ids, b: int) -> BatchPlan:
    """Pair hard with easy: interleave the hardness-sorted rows from both
    ends (hard, easy, hard, easy, ...) and chunk into batches of b.  For b=2
    this pairs position k with position N-1-k; odd N leaves the median
    sample in a short final batch."""
    # rows by ascending d (smaller d = harder), ties by ascending id
    hard = ascending_order(d, ids)
    k = np.arange(len(hard))
    ends = np.where(k % 2 == 0, k // 2, len(hard) - 1 - k // 2)
    return BatchPlan(order=hard[ends], batch_size=b)


def anti_mixed_plan(d, ids, b: int) -> BatchPlan:
    """Hard with hard: contiguous chunks of the hardness-sorted rows."""
    return BatchPlan(order=ascending_order(d, ids), batch_size=b)


def ohem_plan(
    losses, ids, b: int, oversample_ratio: float, rng: np.random.Generator
) -> BatchPlan:
    """Online hard example mining: the top-loss fraction of rows appears
    twice in the shuffled order.  ratio=1 degenerates to plain random
    coverage."""
    if not 0.0 < oversample_ratio <= 1.0:
        raise ValueError("oversample_ratio must be in (0, 1]")
    L = np.asarray(losses, dtype=np.float64)
    n_hard = int(oversample_ratio * len(L)) if oversample_ratio < 1.0 else 0
    # every row in id order, then the top-loss rows (ties by ascending id)
    pool = np.concatenate(
        [np.argsort(ids, kind="stable"), ascending_order(0.0 - L, ids)[:n_hard]]
    )
    return BatchPlan(order=pool[rng.permutation(len(pool))], batch_size=b)


def sp_weight(l, lam: float, hard: bool):
    """Self-paced loss multiplier v in [0, 1] of a loss or an array of
    losses under the age lambda ``lam``, non-increasing in the loss.  hard:
    1 if l < lambda else 0; linear (not hard): max(0, 1 - l/lambda).  A NaN
    loss gets 0."""
    if not lam > 0.0:
        raise ValueError(f"age lambda must be positive, got {lam!r}")
    if hard:
        return np.where(np.less(l, lam), 1.0, 0.0)
    return np.fmax(0.0, 1.0 - np.divide(l, lam))


def d_sum_spread(plan: BatchPlan, d) -> int:
    """max - min of batch d-sums over full-size batches, d given per row (a
    short final batch is excluded so the spread compares like with like)."""
    b = plan.batch_size
    full = len(plan.order) // b * b
    if full == 0:
        return 0
    sums = np.asarray(d)[plan.order[:full]].reshape(-1, b).sum(axis=1)
    return int(sums.max() - sums.min())
