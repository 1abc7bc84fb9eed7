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
from typing import Optional

import numpy as np

JITTER_SCALE = 3.0  # feature noise, in units of the cluster std


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
    """One table of columns in row order: sample ``ids``, features ``X``
    (N, dim), ``labels``, ``clean_label`` and the generation ``tag``
    (HH/LH/HL/LL) of each row.  ``spec`` is the GenSpec that generated the
    rows, or None for a CSV loaded without its sidecar."""

    ids: np.ndarray
    X: np.ndarray
    labels: np.ndarray
    clean_label: np.ndarray
    tag: np.ndarray
    spec: Optional[GenSpec] = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def minority_label(self) -> int:
        return 1


def generate(spec: GenSpec) -> Dataset:
    """Two Gaussian clusters (std 1, centers separated by
    cluster_separation stds along the first axis).  The minority cluster is
    class 1 and tagged HH.  Among majority samples, label_noise_rate are
    flipped (LH), feature_noise_rate get large jitter (HL), rest are LL.
    Majority rows come first; ids are the rows."""
    rng = np.random.default_rng(spec.seed)
    n_min = int(round(spec.minority_fraction * spec.n_total))
    n_maj = spec.n_total - n_min

    X_maj = rng.standard_normal((n_maj, spec.dim))
    X_min = rng.standard_normal((n_min, spec.dim))
    X_min[:, 0] += spec.cluster_separation

    n_flip = int(round(spec.label_noise_rate * n_maj))
    n_jit = int(round(spec.feature_noise_rate * n_maj))
    roles = rng.permutation(n_maj)
    flip = roles[:n_flip]
    # rounding can leave fewer than n_jit rows; jitter draws in row order
    jit = np.sort(roles[n_flip : n_flip + n_jit])
    X_maj[jit] += JITTER_SCALE * rng.standard_normal((len(jit), spec.dim))

    labels = np.repeat(np.array([0, 1], dtype=np.int64), [n_maj, n_min])
    tag = np.repeat(np.array(["LL", "HH"]), [n_maj, n_min])
    tag[flip], tag[jit] = "LH", "HL"
    clean_label = labels.copy()
    labels[flip] = 1
    return Dataset(ids=np.arange(spec.n_total), X=np.concatenate([X_maj, X_min]),
                   labels=labels, clean_label=clean_label, tag=tag, spec=spec)


def check_dataset(dataset: Dataset, n_classes: Optional[int] = None) -> None:
    """Every column has one entry per row, ids are unique, features are
    finite and labels are integers in [0, n_classes) (only >= 0 without a
    class count).  A ValueError names the first offending row and field."""
    n, X = len(dataset.ids), dataset.X
    if n == 0 or X.ndim != 2:
        raise ValueError(f"{n} ids and X of shape {X.shape}: need rows and (N, dim) features")
    for name in ("X", "labels", "clean_label", "tag"):
        if len(getattr(dataset, name)) != n:
            raise ValueError(f"{name} has {len(getattr(dataset, name))} rows for {n} ids")
    values, counts = np.unique(dataset.ids, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate id {values[counts > 1][0]}: sample ids must be unique")
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        row, j = bad[0]
        raise ValueError(
            f"row {row} (id {dataset.ids[row]}): feature x{j} is {X[row, j]}; "
            "features must be finite"
        )
    labels = dataset.labels
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels have dtype {labels.dtype}; they must be integers")
    high = np.inf if n_classes is None else n_classes
    bad = np.flatnonzero((labels < 0) | (labels >= high))
    if len(bad):
        row = bad[0]
        allowed = ">= 0" if n_classes is None else f"in [0, {n_classes})"
        raise ValueError(
            f"row {row} (id {dataset.ids[row]}): label y={labels[row]} must be {allowed}"
        )


def save_dataset(dataset: Dataset, csv_path, sidecar_json_path=None) -> None:
    """CSV with header id,y,clean_label,true_quadrant,x0,x1,..., one x
    column per column of X; the spec is echoed to a sidecar JSON, which a
    dataset without a spec cannot have."""
    if sidecar_json_path is not None and dataset.spec is None:
        raise ValueError("dataset has no GenSpec to write to a sidecar")
    xcols = [f"x{j}" for j in range(dataset.X.shape[1])]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y", "clean_label", "true_quadrant"] + xcols)
        writer.writerows(
            zip(
                dataset.ids.tolist(),
                dataset.labels.tolist(),
                dataset.clean_label.tolist(),
                dataset.tag.tolist(),
                *[map(repr, column) for column in dataset.X.T.tolist()],
            )
        )
    if sidecar_json_path is not None:
        with open(sidecar_json_path, "w") as fh:
            json.dump(asdict(dataset.spec), fh, indent=1)


def _parse_column(path, name, cells, parse, dtype) -> np.ndarray:
    try:
        return np.fromiter(map(parse, cells), dtype, count=len(cells))
    except (ValueError, OverflowError):
        for row, cell in enumerate(cells):
            try:
                np.array(parse(cell), dtype=dtype)
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path}: row {row}, column {name!r}: {cell!r} is not {dtype.__name__}"
                ) from None
        raise


def load_dataset(csv_path, sidecar_json_path=None) -> Dataset:
    """The dataset written by `save_dataset`, read column by column; its
    spec comes from the sidecar, or is None without one.  A malformed file
    raises a ValueError naming the row (counted from 0 after the header)
    or the column."""
    spec = None
    if sidecar_json_path is not None:
        with open(sidecar_json_path) as fh:
            spec = GenSpec(**json.load(fh))
    with open(csv_path) as fh:
        header, *lines = fh.read().splitlines() or [""]
    if not lines:
        raise ValueError(f"{csv_path}: no data rows")
    names = header.split(",")
    width = len(names)
    for row, line in enumerate(lines):
        if line.count(",") != width - 1:
            raise ValueError(
                f"{csv_path}: row {row} has {line.count(',') + 1} fields, the header {width}"
            )
    cells = ",".join(lines).split(",")
    columns = {name: cells[k::width] for k, name in enumerate(names)}
    for name in ("id", "y", "clean_label", "true_quadrant"):
        if name not in columns:
            raise ValueError(f"{csv_path}: no {name!r} column")
    xcols = [name for name in names if name.startswith("x")]
    if not xcols:
        raise ValueError(f"{csv_path}: no feature columns x0, x1, ...")

    def parse(name, kind, dtype):
        return _parse_column(csv_path, name, columns[name], kind, dtype)

    dataset = Dataset(
        ids=parse("id", int, np.int64),
        X=np.column_stack([parse(name, float, np.float64) for name in xcols]),
        labels=parse("y", int, np.int64),
        clean_label=parse("clean_label", int, np.int64),
        tag=np.array(columns["true_quadrant"]),
        spec=spec,
    )
    check_dataset(dataset)
    return dataset
