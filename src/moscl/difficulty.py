"""Rank-fused difficulty scores: descending ranks over loss and uncertainty,
their sum d (smaller d = harder), and the four-quadrant taxonomy."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

QUADRANTS = ("HH", "LH", "LL", "HL")


@dataclass
class DifficultyRecord:
    sample_id: int
    loss: float
    uncertainty: Optional[float] = None
    rank_l: Optional[int] = None
    rank_u: Optional[int] = None
    d: Optional[int] = None


def rank_descending(values: Sequence[float], ids: Sequence[int]) -> Dict[int, int]:
    """Rank index per id: 0 for the largest value; ties broken by ascending
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
    return {ids[k]: rank for rank, k in enumerate(order.tolist())}


def fuse_ranks(
    losses: Dict[int, float],
    uncertainties: Dict[int, float],
) -> List[DifficultyRecord]:
    """Build difficulty records with d = rank_u + rank_l.  Smaller d means
    harder (rank 0 is the highest loss/uncertainty)."""
    if set(losses) != set(uncertainties):
        raise ValueError("loss and uncertainty id sets differ")
    ids = sorted(losses)
    rank_l = rank_descending([losses[i] for i in ids], ids)
    rank_u = rank_descending([uncertainties[i] for i in ids], ids)
    return [
        DifficultyRecord(
            sample_id=i,
            loss=losses[i],
            uncertainty=uncertainties[i],
            rank_l=rank_l[i],
            rank_u=rank_u[i],
            d=rank_l[i] + rank_u[i],
        )
        for i in ids
    ]


def single_source_records(
    values: Dict[int, float], source: str
) -> List[DifficultyRecord]:
    """Records whose d is a single descending rank (loss-only or
    uncertainty-only difficulty, the Mo+l / Mo+u ablations)."""
    ids = sorted(values)
    ranks = rank_descending([values[i] for i in ids], ids)
    recs = []
    for i in ids:
        r = DifficultyRecord(sample_id=i, loss=values[i] if source == "loss" else 0.0)
        if source == "loss":
            r.rank_l = ranks[i]
        else:
            r.uncertainty = values[i]
            r.rank_u = ranks[i]
        r.d = ranks[i]
        recs.append(r)
    return recs


def quadrant_classify(
    records: Iterable[DifficultyRecord],
    thresholds: Optional[Tuple[float, float]] = None,
) -> Dict[int, str]:
    """Map each sample to HH/LH/LL/HL by (uncertainty, loss) against the
    given (u_split, l_split) thresholds; defaults are the dataset medians.
    'High' means strictly above the threshold, so a degenerate dataset with
    all values equal classifies as all-LL."""
    recs = list(records)
    if not recs:
        raise ValueError("no difficulty records to classify")
    if thresholds is None:
        us = sorted(r.uncertainty for r in recs)
        ls = sorted(r.loss for r in recs)
        thresholds = (_median(us), _median(ls))
    u_split, l_split = thresholds
    if not (math.isfinite(u_split) and math.isfinite(l_split)):
        raise ValueError("thresholds must be finite")
    out = {}
    for r in recs:
        hi_u = r.uncertainty > u_split
        hi_l = r.loss > l_split
        if hi_u:
            out[r.sample_id] = "HH" if hi_l else "HL"
        else:
            out[r.sample_id] = "LH" if hi_l else "LL"
    return out


def _median(sorted_vals: Sequence[float]) -> float:
    n = len(sorted_vals)
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    return 0.5 * (sorted_vals[mid - 1] + sorted_vals[mid])


def dump_difficulty_csv(path, records: Iterable[DifficultyRecord]) -> None:
    recs = sorted(records, key=lambda r: r.sample_id)
    quadrants = quadrant_classify(recs) if all(
        r.uncertainty is not None for r in recs
    ) else {r.sample_id: "" for r in recs}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "loss", "uncertainty", "rank_l", "rank_u", "d", "quadrant"]
        )
        for r in recs:
            writer.writerow(
                [
                    r.sample_id,
                    repr(float(r.loss)),
                    "" if r.uncertainty is None else repr(float(r.uncertainty)),
                    "" if r.rank_l is None else r.rank_l,
                    "" if r.rank_u is None else r.rank_u,
                    r.d,
                    quadrants[r.sample_id],
                ]
            )
