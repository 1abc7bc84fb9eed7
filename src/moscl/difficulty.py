"""Rank-fused difficulty scores: descending ranks over loss and uncertainty,
their sum d (smaller d = harder), and the four-quadrant taxonomy.

Scores, ranks and quadrants are arrays in dataset-row order; sample ids
only break ties and label the CSV rows."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .datagen import write_csv


# Rows from which `ascending_order` sorts with numpy's default argsort: below
# it np.lexsort's stable sort runs in cache and is the faster (at N = 400,
# 6 us against 10-27 us; at N = 3000, 165-205 us against 50-125 us).
SIMD_SORT_ROWS = 1024


def ascending_order(key, ids) -> np.ndarray:
    """Rows by ascending key, ties by ascending id, then by row: the
    permutation ``np.lexsort((ids, key))``, which gives it below
    `SIMD_SORT_ROWS` rows and `_two_sort_order` from there on."""
    key = np.asarray(key)
    if len(key) != len(ids):
        raise ValueError(f"{len(ids)} ids for {len(key)} keys")
    if len(key) < SIMD_SORT_ROWS:
        return np.lexsort((ids, key))
    return _two_sort_order(key, ids)


def _two_sort_order(key: np.ndarray, ids) -> np.ndarray:
    """``np.lexsort((ids, key))`` from numpy's default (SIMD) argsort of the
    key and, when keys tie, one argsort of the unique integers run * N +
    the rank of each row's id among the ids, run numbering the distinct
    keys in ascending order."""
    order = np.argsort(key)
    k = key[order]
    new_run = k[1:] != k[:-1]
    # numpy sorts NaNs last and, as lexsort does, ties them with each other
    if k.dtype.kind == "f" and len(k) and np.isnan(k[-1]):
        new_run[np.isnan(k).argmax():] = False
    if new_run.all():
        return order
    n = len(k)
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(new_run, out=run[1:])
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[np.argsort(ids, kind="stable")] = np.arange(n)
    run *= n
    run += id_rank[order]
    return order[np.argsort(run)]


def rank_descending(values: Sequence[float], ids: Sequence[int]) -> np.ndarray:
    """Rank of each row: 0 for the largest value; ties broken by ascending
    sample id."""
    if len(values) == 0:
        raise ValueError("cannot rank an empty list")
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"non-finite value {v[~finite][0]}")
    # 0.0 - v, not -v: no -0.0 key, so 0.0 and -0.0 tie as they compare
    order = ascending_order(0.0 - v, ids)
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
    write_csv(path, ["sample_id", "loss", "uncertainty", "rank_l", "rank_u", "d", "quadrant"],
              zip(*[column[rows].tolist() for column in columns]))
