"""Rank-fused difficulty scores: descending ranks over loss and uncertainty,
their sum d (smaller d = harder), and the four-quadrant taxonomy.

Scores, ranks and quadrants are arrays in dataset-row order; sample ids
only break ties and label the CSV rows."""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np


def rank_descending(values: Sequence[float], ids: Sequence[int]) -> np.ndarray:
    """Rank of each row: 0 for the largest value; ties broken by ascending
    sample id."""
    if len(values) == 0:
        raise ValueError("cannot rank an empty list")
    if len(values) != len(ids):
        raise ValueError("values and ids length mismatch")
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"non-finite value {v[~finite][0]}")
    # 0.0 - v, not -v: no -0.0 key, so 0.0 and -0.0 tie as they compare
    order = np.lexsort((np.asarray(ids), 0.0 - v))
    ranks = np.empty(len(v), dtype=np.int64)
    ranks[order] = np.arange(len(v))
    return ranks


def fuse_ranks(losses, uncertainties, ids) -> np.ndarray:
    """Difficulty d = rank_l + rank_u of each row, an (N,) int array.
    Smaller d means harder (rank 0 is the highest loss/uncertainty)."""
    return rank_descending(losses, ids) + rank_descending(uncertainties, ids)


def median(x: np.ndarray) -> float:
    """np.median of a non-empty array, but finite whenever its middle values
    are: where the sum of the two middle values overflows, their mean is
    taken as the sum of their halves."""
    with np.errstate(over="ignore"):
        m = float(np.median(x))
    if math.isinf(m):
        # halving keeps the order, so the middles of x / 2 are the halves of
        # x's, and doubling their finite mean is exact
        m = float(np.median(x / 2.0)) * 2.0
    return m


def quadrant_classify(losses, uncertainties) -> np.ndarray:
    """HH/LH/LL/HL of each row by (uncertainty, loss) against the dataset
    medians of each.  'High' means strictly above the median, so a
    degenerate dataset with all values equal classifies as all-LL."""
    l = np.asarray(losses, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    if len(l) == 0:
        raise ValueError("no difficulty scores to classify")
    if len(l) != len(u):
        raise ValueError("loss and uncertainty lengths differ")
    u_split, l_split = median(u), median(l)
    if not (math.isfinite(u_split) and math.isfinite(l_split)):
        raise ValueError("thresholds must be finite")
    hi_l = l > l_split
    return np.where(u > u_split, np.where(hi_l, "HH", "HL"), np.where(hi_l, "LH", "LL"))


def dump_difficulty_csv(path, ids, losses, uncertainties) -> None:
    """One row per sample, in ascending id order: its loss, uncertainty,
    both descending ranks, d and quadrant."""
    ids = np.asarray(ids)
    l = np.asarray(losses, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    rank_l, rank_u = rank_descending(l, ids), rank_descending(u, ids)
    columns = (ids, l, u, rank_l, rank_u, rank_l + rank_u, quadrant_classify(l, u))
    rows = np.argsort(ids, kind="stable")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "loss", "uncertainty", "rank_l", "rank_u", "d", "quadrant"]
        )
        writer.writerows(zip(*[column[rows].tolist() for column in columns]))
