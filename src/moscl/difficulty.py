"""Rank-fused difficulty scores: descending ranks over loss and uncertainty,
their sum d (smaller d = harder), and the four-quadrant taxonomy.

Scores, ranks and quadrants are arrays in dataset-row order; sample ids
only break ties and label the CSV rows."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

QUADRANTS = ("HH", "LH", "LL", "HL")


@dataclass
class DifficultyTable:
    """Fused difficulty of a scored dataset: row k is sample ``ids[k]``,
    and d = rank_l + rank_u (rank 0 is the highest value)."""

    ids: np.ndarray
    loss: np.ndarray
    uncertainty: np.ndarray
    rank_l: np.ndarray
    rank_u: np.ndarray
    d: np.ndarray


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


def fuse_ranks(losses, uncertainties, ids) -> DifficultyTable:
    """Difficulty d = rank_u + rank_l of each row.  Smaller d means harder
    (rank 0 is the highest loss/uncertainty)."""
    rank_l = rank_descending(losses, ids)
    rank_u = rank_descending(uncertainties, ids)
    return DifficultyTable(
        ids=np.asarray(ids),
        loss=np.asarray(losses, dtype=np.float64),
        uncertainty=np.asarray(uncertainties, dtype=np.float64),
        rank_l=rank_l,
        rank_u=rank_u,
        d=rank_l + rank_u,
    )


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


def quadrant_classify(
    losses,
    uncertainties,
    thresholds: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """HH/LH/LL/HL of each row by (uncertainty, loss) against the given
    (u_split, l_split) thresholds; defaults are the dataset medians.
    'High' means strictly above the threshold, so a degenerate dataset with
    all values equal classifies as all-LL."""
    l = np.asarray(losses, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    if len(l) == 0:
        raise ValueError("no difficulty scores to classify")
    if len(l) != len(u):
        raise ValueError("loss and uncertainty lengths differ")
    if thresholds is None:
        thresholds = (median(u), median(l))
    u_split, l_split = thresholds
    if not (math.isfinite(u_split) and math.isfinite(l_split)):
        raise ValueError("thresholds must be finite")
    hi_l = l > l_split
    return np.where(u > u_split, np.where(hi_l, "HH", "HL"), np.where(hi_l, "LH", "LL"))


def dump_difficulty_csv(path, table: DifficultyTable) -> None:
    """One row per sample, in ascending id order, with its quadrant."""
    rows = np.argsort(table.ids, kind="stable")
    quadrants = quadrant_classify(table.loss, table.uncertainty)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "loss", "uncertainty", "rank_l", "rank_u", "d", "quadrant"]
        )
        writer.writerows(
            zip(
                table.ids[rows].tolist(),
                map(repr, table.loss[rows].tolist()),
                map(repr, table.uncertainty[rows].tolist()),
                table.rank_l[rows].tolist(),
                table.rank_u[rows].tolist(),
                table.d[rows].tolist(),
                quadrants[rows].tolist(),
            )
        )
