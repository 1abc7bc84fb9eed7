"""Seeded synthetic two-class Gaussian datasets engineered to populate the
four uncertainty/loss quadrants:

  HH - minority-cluster samples (too few to fit well),
  LH - majority samples with flipped labels,
  HL - majority samples with large feature jitter near the boundary,
  LL - clean majority samples.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from .difficulty import QUADRANTS, quadrant_classify

JITTER_SCALE = 3.0  # feature noise, in units of the cluster std


@dataclass
class Sample:
    id: int
    x: np.ndarray
    y: int
    clean_label: int
    true_quadrant: str


@dataclass
class GenSpec:
    n_total: int = 400
    minority_fraction: float = 0.1
    label_noise_rate: float = 0.1
    feature_noise_rate: float = 0.05
    cluster_separation: float = 3.0
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_total < 4:
            raise ValueError("n_total must be >= 4")
        if not 2 <= self.dim <= 8:
            raise ValueError("dim must be in [2, 8]")
        for name in ("minority_fraction", "label_noise_rate", "feature_noise_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.label_noise_rate + self.feature_noise_rate > 1.0:
            raise ValueError("noise fractions sum above 1")


@dataclass
class Dataset:
    samples: List[Sample]
    spec: GenSpec

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def X(self) -> np.ndarray:
        return np.stack([s.x for s in self.samples])

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([s.y for s in self.samples], dtype=np.int64)

    @property
    def ids(self) -> np.ndarray:
        return np.asarray([s.id for s in self.samples], dtype=np.int64)

    @property
    def minority_label(self) -> int:
        return 1

    def tag_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for s in self.samples:
            counts[s.true_quadrant] = counts.get(s.true_quadrant, 0) + 1
        return counts


def generate(spec: GenSpec) -> Dataset:
    """Two Gaussian clusters (std 1, centers separated by
    cluster_separation stds along the first axis).  The minority cluster is
    class 1 and tagged HH.  Among majority samples, label_noise_rate are
    flipped (LH), feature_noise_rate get large jitter (HL), rest are LL."""
    rng = np.random.default_rng(spec.seed)
    n_min = int(round(spec.minority_fraction * spec.n_total))
    n_maj = spec.n_total - n_min
    sep = spec.cluster_separation

    center_maj = np.zeros(spec.dim)
    center_min = np.zeros(spec.dim)
    center_min[0] = sep

    samples: List[Sample] = []
    X_maj = center_maj + rng.standard_normal((n_maj, spec.dim))
    X_min = center_min + rng.standard_normal((n_min, spec.dim))

    n_flip = int(round(spec.label_noise_rate * n_maj))
    n_jit = int(round(spec.feature_noise_rate * n_maj))
    roles = rng.permutation(n_maj)
    flip_set = set(roles[:n_flip].tolist())
    jit_set = set(roles[n_flip : n_flip + n_jit].tolist())

    sid = 0
    for k in range(n_maj):
        x = X_maj[k]
        clean, y, tag = 0, 0, "LL"
        if k in flip_set:
            y, tag = 1, "LH"
        elif k in jit_set:
            x = x + JITTER_SCALE * rng.standard_normal(spec.dim)
            tag = "HL"
        samples.append(Sample(id=sid, x=x, y=y, clean_label=clean, true_quadrant=tag))
        sid += 1
    for k in range(n_min):
        samples.append(
            Sample(id=sid, x=X_min[k], y=1, clean_label=1, true_quadrant="HH")
        )
        sid += 1
    return Dataset(samples=samples, spec=spec)


def quadrant_recovery_rate(
    dataset: Dataset, losses, uncertainties
) -> Dict[str, Optional[float]]:
    """Per generation tag, the fraction of samples whose measured quadrant
    matches the tag; the scores are in dataset-row order.  Tags absent from
    the dataset map to None."""
    if len(losses) != len(dataset):
        raise ValueError(f"{len(losses)} scores for {len(dataset)} samples")
    tags = np.asarray([s.true_quadrant for s in dataset.samples])
    hits = quadrant_classify(losses, uncertainties) == tags
    return {
        tag: float(hits[tags == tag].mean()) if (tags == tag).any() else None
        for tag in QUADRANTS
    }


def check_unique_ids(ids) -> None:
    """Rows and sample ids must be a bijection: a ValueError names the
    first duplicated id."""
    values, counts = np.unique(np.asarray(ids), return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate id {values[counts > 1][0]}: sample ids must be unique")


def save_dataset(dataset: Dataset, csv_path, sidecar_json_path=None) -> None:
    """CSV with header id,y,clean_label,true_quadrant,x0,x1,...; the spec is
    echoed to a sidecar JSON."""
    dim = dataset.spec.dim
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "y", "clean_label", "true_quadrant"] + [f"x{j}" for j in range(dim)]
        )
        for s in dataset.samples:
            writer.writerow(
                [s.id, s.y, s.clean_label, s.true_quadrant]
                + [repr(float(v)) for v in s.x]
            )
    if sidecar_json_path is not None:
        with open(sidecar_json_path, "w") as fh:
            json.dump(asdict(dataset.spec), fh, indent=1)


def load_dataset(csv_path, sidecar_json_path=None) -> Dataset:
    spec = None
    if sidecar_json_path is not None:
        with open(sidecar_json_path) as fh:
            spec = GenSpec(**json.load(fh))
    samples = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        xcols = [c for c in reader.fieldnames if c.startswith("x")]
        for row in reader:
            samples.append(
                Sample(
                    id=int(row["id"]),
                    x=np.asarray([float(row[c]) for c in xcols]),
                    y=int(row["y"]),
                    clean_label=int(row["clean_label"]),
                    true_quadrant=row["true_quadrant"],
                )
            )
    check_unique_ids([s.id for s in samples])
    if spec is None:
        spec = GenSpec(n_total=len(samples), minority_fraction=0.0,
                       label_noise_rate=0.0, feature_noise_rate=0.0,
                       dim=len(samples[0].x))
    return Dataset(samples=samples, spec=spec)
