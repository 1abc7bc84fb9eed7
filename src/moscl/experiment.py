"""Training harness: random warmup, online difficulty scoring, scheduler
dispatch, per-epoch metrics, and multi-seed scheduler comparisons.

The three-phase loop: random mini-batches for the first `warmup_epochs`,
then at every rescore boundary the dataset is scored (loss and/or
perturbation uncertainty), ranks are fused into difficulty scores, and the
configured scheduler rebuilds the epoch's batch plan.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import difficulty, scheduler, uncertainty
from .datagen import Dataset, check_dataset, load_dataset
from .model import ACTIVATIONS, HEADS, LOSSES, MlpModel
from . import kernels

SCHEDULERS = ("random", "mixed", "anti_mixed", "sp_hard", "sp_linear", "ohem")
DIFFICULTY_SOURCES = ("loss", "uncertainty", "both")

METRICS_HEADER = [
    "epoch",
    "mean_loss",
    "recall_class0",
    "recall_class1",
    "minority_recall",
    "mean_uncertainty",
    "d_sum_spread",
]


@dataclass
class ExperimentConfig:
    dataset: str = ""
    scheduler: str = "mixed"
    difficulty_source: str = "both"
    warmup_epochs: int = 10
    total_epochs: int = 60
    rescore_every: int = 1
    batch_size: int = 2
    lr: float = 0.1
    hidden_dim: int = 8
    activation: str = "tanh"
    head: str = "sigmoid"
    loss_kind: str = "mse"
    G: int = 8
    gamma: float = 0.3
    sp_lambda0: float = 0.5
    sp_growth: float = 0.0
    ohem_ratio: float = 0.25
    seed: int = 0
    outdir: str = ""

    def __post_init__(self):
        for name in ("lr", "sp_lambda0", "sp_growth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.difficulty_source not in DIFFICULTY_SOURCES:
            raise ValueError(f"unknown difficulty_source {self.difficulty_source!r}")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.warmup_epochs >= self.total_epochs:
            raise ValueError("warmup_epochs must be < total_epochs")
        if self.rescore_every < 1:
            raise ValueError("rescore_every must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name, known in (
            ("activation", ACTIVATIONS), ("head", HEADS), ("loss_kind", LOSSES)
        ):
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if not 0.0 < self.ohem_ratio <= 1.0:
            raise ValueError("ohem_ratio must be in (0, 1]")
        uncertainty.check_scoring(self.G, self.gamma)
        if self.sp_lambda0 <= 0.0:
            raise ValueError("sp_lambda0 must be positive")
        # the age lambda is linear in the epoch and positive at the first
        # rescore boundary, so it stays positive if it is at the last one
        last = self.total_epochs - 1 - self.warmup_epochs
        age = last // self.rescore_every * self.rescore_every
        if self.sp_lambda0 + self.sp_growth * age <= 0.0:
            raise ValueError(
                f"age lambda sp_lambda0 + sp_growth * {age} must be positive "
                f"at the last rescore boundary, epoch {self.warmup_epochs + age}"
            )

    # -- flat key=value config text -----------------------------------------

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        values = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_strings(values)

    @classmethod
    def from_strings(cls, values: Dict[str, object]) -> "ExperimentConfig":
        kwargs = {
            name: _cast(cls, name, values[name])
            for name in cls.__dataclass_fields__
            if name in values
        }
        unknown = set(values) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)

    def write_resolved(self, path) -> None:
        with open(path, "w") as fh:
            for key, value in sorted(asdict(self).items()):
                fh.write(f"{key}={value}\n")


def _cast(cls, name: str, value) -> object:
    kind = type(cls.__dataclass_fields__[name].default)
    if not isinstance(value, str) or kind is str:
        return value
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ExperimentConfig fields the shared SGD step depends on: runs that differ in
# one of them cannot step together.
LOCKSTEP_FIELDS = (
    "batch_size",
    "hidden_dim",
    "activation",
    "head",
    "loss_kind",
    "lr",
    "total_epochs",
)
TIMINGS_HEADER = ["epoch", "wall_time_s", "plan_s", "train_s", "runs_in_step"]
_PARAMS = ("W1", "b1", "W2", "b2")


class _Run:
    """Single training run; owns the model, score caches, and output files.

    `_train` drives the epochs: the run builds its plan (`plan_epoch`), one
    shared SGD step advances it, and it records its metrics row
    (`record_epoch`).  Metrics and timing rows, and the scores of each
    rescore boundary, are buffered and written by `write_logs`, so a run
    holds no file open between epochs.
    """

    def __init__(self, cfg: ExperimentConfig, dataset: Dataset, outdir: Path):
        self.cfg = cfg
        self.dataset = dataset
        self.outdir = outdir
        self.X = dataset.X
        self.labels = dataset.labels
        self.ids = dataset.ids
        self.model = MlpModel(
            input_dim=self.X.shape[1],
            hidden_dim=cfg.hidden_dim,
            out_dim=1 if cfg.head == "sigmoid" else 2,
            activation=cfg.activation,
            head=cfg.head,
            seed=cfg.seed,
        )
        self.loss_code = LOSSES[cfg.loss_kind]
        self.scored = cfg.scheduler != "random"
        self.need_u = cfg.scheduler in ("mixed", "anti_mixed") and cfg.difficulty_source in (
            "uncertainty",
            "both",
        )
        # one row per rescore boundary, the rows of scores.npz
        n_rows = (
            len(range(cfg.warmup_epochs, cfg.total_epochs, cfg.rescore_every))
            if self.scored else 0
        )
        self.n_scored = 0
        self.score_epochs = np.empty(n_rows, dtype=np.int64)
        self.score_losses = np.empty((n_rows, len(dataset)))
        self.score_us = np.empty((n_rows, len(dataset))) if self.need_u else None
        self.weights = np.ones(len(dataset))
        self.plan: Optional[scheduler.BatchPlan] = None
        self.plan_s = 0.0
        self.d: Optional[np.ndarray] = None
        self.last_mean_uncertainty: Optional[float] = None
        self.metrics_rows: List[list] = []
        self.timing_rows: List[list] = []
        # a run owns its dir's score files: none may survive from an earlier
        # run, nor the per-epoch JSON files that older runs wrote
        for stale in [outdir / "scores.npz", *outdir.glob("scores_epoch*.json")]:
            stale.unlink(missing_ok=True)
        cfg.write_resolved(outdir / "config_resolved.txt")

    def _epoch_rng(self, epoch: int) -> np.random.Generator:
        return np.random.default_rng([self.cfg.seed, 1, epoch])

    def _score(self, epoch: int):
        """Loss (and, when needed, uncertainty) of every row, kept as the
        next row of the score table."""
        losses, _ = self.model.batch_losses(self.X, self.labels, self.cfg.loss_kind)
        uncertainties = None
        k = self.n_scored
        self.score_epochs[k] = epoch
        self.score_losses[k] = losses
        if self.need_u:
            cfg = self.cfg
            uncertainties = uncertainty.batch_score_uncertainty(
                self.model, self.X, self.ids, cfg.G, cfg.gamma, cfg.seed, epoch=epoch
            )
            self.score_us[k] = uncertainties
            self.last_mean_uncertainty = float(np.mean(uncertainties))
        self.n_scored += 1
        return losses, uncertainties

    def _difficulty(self, losses, uncertainties) -> np.ndarray:
        src = self.cfg.difficulty_source
        if src == "both":
            return difficulty.fuse_ranks(losses, uncertainties, self.ids).d
        return difficulty.rank_descending(
            losses if src == "loss" else uncertainties, self.ids
        )

    def _build_plan(self, epoch: int) -> scheduler.BatchPlan:
        """This epoch's plan.  At a rescore boundary every row is scored, and
        an sp_* run reweights the losses while the other scored runs build
        the plan they keep until the next boundary; otherwise the kept plan,
        or a random one."""
        cfg = self.cfg
        since = epoch - cfg.warmup_epochs
        if self.scored and since >= 0 and since % cfg.rescore_every == 0:
            losses, uncertainties = self._score(epoch)
            if cfg.scheduler == "ohem":
                return scheduler.ohem_plan(
                    losses, self.ids, cfg.batch_size, cfg.ohem_ratio, self._epoch_rng(epoch)
                )
            if cfg.scheduler in ("mixed", "anti_mixed"):
                self.d = self._difficulty(losses, uncertainties)
                build = (
                    scheduler.mixed_order_plan
                    if cfg.scheduler == "mixed"
                    else scheduler.anti_mixed_plan
                )
                return build(self.d, self.ids, cfg.batch_size)
            # the age lambda grows linearly from the first rescore boundary
            lam = cfg.sp_lambda0 + cfg.sp_growth * since
            self.weights[:] = scheduler.sp_weight(losses, lam, hard=cfg.scheduler == "sp_hard")
        elif self.scored and since >= 0 and cfg.scheduler not in ("sp_hard", "sp_linear"):
            return self.plan
        # warmup, random and sp_* runs batch randomly
        return scheduler.random_plan(len(self.ids), cfg.batch_size, self._epoch_rng(epoch))

    def _recalls(self):
        _, _, Y = self.model.forward_batch(self.X)
        if self.cfg.head == "sigmoid":
            pred = (Y[:, 0] > 0.5).astype(np.int64)
        else:
            pred = Y.argmax(axis=1)
        recalls = {}
        for c in (0, 1):
            mask = self.labels == c
            recalls[c] = (
                float((pred[mask] == c).mean()) if mask.any() else float("nan")
            )
        return recalls

    def plan_epoch(self, epoch: int) -> None:
        """Score if due, build this epoch's plan and its visiting order."""
        t0 = time.perf_counter()
        self.plan = self._build_plan(epoch)
        self.plan_s = time.perf_counter() - t0

    def record_epoch(self, epoch: int, visit_losses: np.ndarray) -> None:
        """Metrics row after this epoch's SGD step."""
        mean_loss = float(np.mean(visit_losses))
        if not np.isfinite(mean_loss):
            raise RuntimeError(
                f"non-finite mean loss {mean_loss} at epoch {epoch}; "
                "reduce lr or inspect the dataset"
            )
        recalls = self._recalls()
        spread = scheduler.d_sum_spread(self.plan, self.d) if self.d is not None else None
        self.metrics_rows.append(
            [
                epoch,
                _fmt(mean_loss),
                _fmt(recalls[0]),
                _fmt(recalls[1]),
                _fmt(recalls[self.dataset.minority_label]),
                _fmt(self.last_mean_uncertainty),
                _fmt(spread),
            ]
        )

    def write_logs(self) -> None:
        """metrics.csv, timings.csv and, for a scored run, scores.npz with
        the rows scored so far: a failed run keeps those before its error."""
        if self.scored:
            k = self.n_scored
            uncertainty.save_score_table(
                self.outdir / "scores.npz", self.ids, self.score_epochs[:k],
                self.score_losses[:k], None if self.score_us is None else self.score_us[:k],
            )
        for name, header, rows in (
            ("metrics.csv", METRICS_HEADER, self.metrics_rows),
            ("timings.csv", TIMINGS_HEADER, self.timing_rows),
        ):
            with open(self.outdir / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)


def _bind(runs: List[_Run]):
    """Stack the runs' parameters and loss weights on a leading run axis and
    point each run's arrays at its row, so one step updates them all."""
    params = [np.stack([getattr(r.model, name) for r in runs]) for name in _PARAMS]
    weights = np.stack([r.weights for r in runs])
    for s, r in enumerate(runs):
        for name, stack in zip(_PARAMS, params):
            setattr(r.model, name, stack[s])
        r.weights = weights[s]
    return params, weights


def _train(runs: List[_Run]) -> Dict[_Run, Exception]:
    """Train runs that share the dataset and every LOCKSTEP_FIELDS value in
    lockstep; returns the exception of each run that failed.

    A run that raises leaves the stack with its error and its logs so far;
    the others go on unchanged, since the stacked step is exact per run.
    """
    first = runs[0]
    cfg = first.cfg
    failed: Dict[_Run, Exception] = {}
    live = list(runs)
    stacked: List[_Run] = []

    def each(step):
        for run in list(live):
            try:
                step(run)
            except Exception as exc:  # noqa: BLE001 - cell failures are recorded
                failed[run] = exc
                live.remove(run)

    try:
        for epoch in range(cfg.total_epochs):
            t0 = time.perf_counter()
            each(lambda run: run.plan_epoch(epoch))
            if not live:
                break
            if stacked != live:
                (W1, b1, W2, b2), weights = _bind(live)
                stacked = list(live)
            t1 = time.perf_counter()
            visit_losses = kernels.sgd_epochs(
                W1, b1, W2, b2, first.X, first.labels,
                [run.plan.order for run in stacked], cfg.batch_size, weights, cfg.lr,
                first.model._act, first.model._head, first.loss_code,
            )
            train_s = time.perf_counter() - t1
            by_run = dict(zip(stacked, visit_losses))
            each(lambda run: run.record_epoch(epoch, by_run[run]))
            wall = time.perf_counter() - t0
            for run in live:
                run.timing_rows.append([
                    epoch, f"{wall:.5f}", f"{run.plan_s:.5f}", f"{train_s:.5f}", len(stacked)
                ])
        each(lambda run: run.model.save(run.outdir / "checkpoint.json"))
    finally:
        for run in runs:
            run.write_logs()
    return failed


def load_data(path: str) -> Dataset:
    """The dataset CSV at ``path``, with its ``.json`` sidecar if present."""
    sidecar = Path(path).with_suffix(".json")
    return load_dataset(path, sidecar if sidecar.exists() else None)


def _start(cfg: ExperimentConfig, dataset: Dataset) -> _Run:
    # both heads classify two classes: sigmoid with one output, softmax with two
    check_dataset(dataset, n_classes=2)
    outdir = resolve_outdir(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _Run(cfg, dataset, outdir)


def run(cfg: ExperimentConfig, dataset: Optional[Dataset] = None) -> Path:
    """Execute one training run; returns the run directory."""
    one = _start(cfg, dataset if dataset is not None else load_data(cfg.dataset))
    exc = _train([one]).get(one)
    if exc is not None:
        raise exc
    return one.outdir


def resolve_outdir(outdir: str) -> Path:
    root = os.environ.get("MOSCL_OUTPUT_ROOT", ".")
    path = Path(outdir if outdir else "run")
    return path if path.is_absolute() else Path(root) / path


def final_metrics(run_dir: Path) -> Dict[str, float]:
    """The last epoch row of a run's metrics.csv; a run that failed before
    its first epoch row raises a ValueError naming the file."""
    path = Path(run_dir) / "metrics.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} has no epoch rows: the run failed before its first epoch")
    last = rows[-1]
    return {
        "mean_loss": float(last["mean_loss"]),
        "minority_recall": float(last["minority_recall"]),
        "recall_class0": float(last["recall_class0"]),
        "recall_class1": float(last["recall_class1"]),
    }


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def compare(
    configs: List[ExperimentConfig],
    seeds: List[int],
    dataset: Optional[Dataset] = None,
    labels: Optional[List[str]] = None,
) -> Dict:
    """Run the config x seed grid and summarize final minority recall and
    loss per config (mean and spread over seeds), plus per-seed win counts
    of every config against the first one.

    Cells that share the dataset and every LOCKSTEP_FIELDS value train in
    lockstep, one SGD step for all of them per epoch; each cell's outputs
    are byte-identical to a solo `run` of it."""
    if len(configs) < 2:
        raise ValueError("compare needs at least 2 configs")
    if labels is None:
        labels = [c.scheduler for c in configs]
    if not seeds:
        raise ValueError("compare needs at least 1 seed")
    if len(labels) != len(configs):
        raise ValueError(f"{len(labels)} labels for {len(configs)} configs; want one per config")
    # a repeated label or seed would train two cells into one run dir
    for name, values in (("labels", labels), ("seeds", seeds)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"duplicate {name}: {repeated}")
    cells: Dict[str, Dict[int, Optional[Dict[str, float]]]] = {l: {} for l in labels}
    loaded: Dict[str, Dataset] = {}
    started = []
    groups: Dict[tuple, List[_Run]] = {}
    for label, cfg in zip(labels, configs):
        for seed in seeds:
            try:
                # a bad seed fails here, as its cell's error, before any dir exists
                outdir = Path(cfg.outdir or "compare") / f"{label}_seed{seed}"
                variant = replace(cfg, seed=seed, outdir=str(outdir))
                ds = dataset if dataset is not None else loaded.get(variant.dataset)
                if ds is None:
                    ds = loaded[variant.dataset] = load_data(variant.dataset)
                one = _start(variant, ds)
            except Exception as exc:  # noqa: BLE001 - cell failures are recorded
                cells[label][seed] = {"error": _error(exc)}
                continue
            started.append((label, seed, one))
            key = (id(ds),) + tuple(getattr(variant, f) for f in LOCKSTEP_FIELDS)
            groups.setdefault(key, []).append(one)
    failed: Dict[_Run, Exception] = {}
    for group in groups.values():
        failed.update(_train(group))
    for label, seed, one in started:
        exc = failed.get(one)
        cells[label][seed] = (
            {"error": _error(exc)} if exc is not None else final_metrics(one.outdir)
        )
    summary = {"seeds": seeds, "configs": {}, "wins_vs_baseline": {}}
    baseline = labels[0]
    for label in labels:
        vals = [
            cells[label][s]["minority_recall"]
            for s in seeds
            if "error" not in cells[label][s]
        ]
        losses = [
            cells[label][s]["mean_loss"]
            for s in seeds
            if "error" not in cells[label][s]
        ]
        summary["configs"][label] = {
            "minority_recall_mean": float(np.mean(vals)) if vals else None,
            "minority_recall_spread": (max(vals) - min(vals)) if len(vals) > 1 else 0.0,
            "mean_loss_mean": float(np.mean(losses)) if losses else None,
            "failed_seeds": [s for s in seeds if "error" in cells[label][s]],
            "errors": {
                str(s): cells[label][s]["error"] for s in seeds if "error" in cells[label][s]
            },
            "per_seed_minority_recall": {
                str(s): cells[label][s].get("minority_recall") for s in seeds
            },
        }
        if label != baseline:
            wins = sum(
                1
                for s in seeds
                if "error" not in cells[label][s]
                and "error" not in cells[baseline][s]
                and cells[label][s]["minority_recall"]
                >= cells[baseline][s]["minority_recall"]
            )
            summary["wins_vs_baseline"][label] = wins
    return summary


def _table_row(path, epoch):
    """(ids, losses, uncertainties) lists of one epoch's row of a score
    table, by ascending id as a score JSON holds them; no uncertainties
    gives a list of None."""
    if epoch is None:
        raise ValueError(f"{path} is a score table: pass the epoch to export")
    table = uncertainty.load_score_table(path)
    at = np.flatnonzero(table["epochs"] == epoch)
    if len(at) == 0:
        raise ValueError(f"epoch {epoch} is not in {path}; it holds {table['epochs'].tolist()}")
    rows = np.argsort(table["ids"], kind="stable")
    us = table.get("uncertainty")
    return (
        table["ids"][rows].tolist(),
        table["loss"][at[0], rows].tolist(),
        [None] * len(rows) if us is None else us[at[0], rows].tolist(),
    )


def export_scatter(scores_path, out_csv, mode: str = "value", epoch: Optional[int] = None) -> None:
    """Fig-style scatter export of (loss, uncertainty) pairs, either raw
    values or descending rank indices, one row per sample by ascending id.

    ``scores_path`` is a score JSON (`moscl score`), or a run's
    ``scores.npz`` table, whose row of ``epoch`` is exported."""
    if mode not in ("value", "index"):
        raise ValueError(f"unknown scatter mode {mode!r}")
    if Path(scores_path).suffix == ".npz":
        ids, losses, us = _table_row(scores_path, epoch)
    elif epoch is not None:
        raise ValueError(f"epoch {epoch} given, but {scores_path} is a score JSON, not a table")
    else:
        records = uncertainty.load_scores(scores_path)
        ids = [r["sample_id"] for r in records]
        losses = [r["loss"] for r in records]
        us = [r["uncertainty"] for r in records]
    if any(u is None for u in us):
        raise ValueError("scores file has no uncertainty column to export")
    if mode == "index":
        rows = zip(
            difficulty.rank_descending(losses, ids).tolist(),
            difficulty.rank_descending(us, ids).tolist(),
        )
    else:
        rows = zip(losses, us)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss", "uncertainty"])
        for l, u in rows:
            writer.writerow([_fmt(l), _fmt(u)])
