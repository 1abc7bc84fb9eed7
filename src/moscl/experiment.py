"""Training harness: random warmup, online difficulty scoring, scheduler
dispatch, per-epoch metrics, and multi-seed scheduler comparisons.

The three-phase loop: random mini-batches for the first `warmup_epochs`,
then at every rescore boundary the dataset is scored (loss and/or
perturbation uncertainty), ranks are fused into difficulty scores, and the
configured scheduler rebuilds the epoch's batch plan.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import difficulty, scheduler, uncertainty
from .datagen import Dataset, check_dataset, check_field_types, load_dataset
from .kernels import ACTIVATIONS, LOSSES
from .model import PARAM_AXES, MlpModel
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
    loss_kind: str = "mse"
    G: int = 8
    gamma: float = 0.3
    sp_lambda0: float = 0.5
    sp_growth: float = 0.0
    ohem_ratio: float = 0.25
    seed: int = 0
    outdir: str = ""

    def __post_init__(self):
        check_field_types(self)
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
        for name, known in (("activation", ACTIVATIONS), ("loss_kind", LOSSES)):
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if not 0.0 < self.ohem_ratio <= 1.0:
            raise ValueError("ohem_ratio must be in (0, 1]")
        uncertainty.check_scoring(self.G, self.gamma)
        if self.sp_lambda0 <= 0.0:
            raise ValueError("sp_lambda0 must be positive")
        # the age lambda is linear in the epoch and positive at the first
        # rescore boundary, so it stays positive if it is at the last one
        last = self.rescore_epochs[-1]
        age = last - self.warmup_epochs
        if self.sp_lambda0 + self.sp_growth * age <= 0.0:
            raise ValueError(
                f"age lambda sp_lambda0 + sp_growth * {age} must be positive "
                f"at the last rescore boundary, epoch {last}"
            )

    @property
    def rescore_epochs(self) -> range:
        """The rescore boundaries: every ``rescore_every``-th epoch from the
        end of warmup on.  A scored run's score table has one row for each."""
        return range(self.warmup_epochs, self.total_epochs, self.rescore_every)

    # -- flat key=value config text -----------------------------------------

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        values, first = {}, {}
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                key = key.strip()
                if first.setdefault(key, number) != number:
                    raise ValueError(
                        f"{path}: key {key!r} set twice, on lines {first[key]} and {number}"
                    )
                values[key] = raw.strip()
        values.update({k: v for k, v in overrides.items() if v is not None})
        return from_strings(cls, values)

    def write_resolved(self, path) -> None:
        with open(path, "w") as fh:
            for key, value in sorted(asdict(self).items()):
                fh.write(f"{key}={value}\n")


def from_strings(cls, values: Dict[str, object]):
    """The dataclass ``cls`` (`ExperimentConfig` or `GenSpec`) of ``values``,
    strings cast to their fields' types, with errors naming the field."""
    fields = cls.__dataclass_fields__
    kwargs = {name: _cast(cls, name, values[name]) for name in fields if name in values}
    unknown = set(values) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**kwargs)


def _cast(cls, name: str, value) -> object:
    kind = type(cls.__dataclass_fields__[name].default)
    if not isinstance(value, str) or kind is str:
        return value
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}") from None


# ExperimentConfig fields the shared SGD step depends on: runs that differ in
# one of them cannot step together.
LOCKSTEP_FIELDS = (
    "batch_size",
    "hidden_dim",
    "activation",
    "loss_kind",
    "lr",
    "total_epochs",
)
TIMINGS_HEADER = ["epoch", "wall_time_s", "score_s", "plan_s", "train_s", "runs_in_step"]


class _Run:
    """Single training run; owns the model, score caches, and output files.

    `_train` drives the epochs: at a rescore boundary it scores the
    uncertainties of the runs that share their draws in one call
    (`_score_uncertainties`), the run builds its plan (`plan_epoch`), one
    shared SGD step advances it, and it records its metrics row
    (`record_epoch`).  Metrics and timing rows, and the scores of each
    rescore boundary, are buffered and written by `write_logs`, so a run
    holds no file open between epochs.
    """

    def __init__(self, cfg: ExperimentConfig, dataset: Dataset):
        # an in-memory dataset has not passed `load_dataset`'s check
        check_dataset(dataset)
        # rows per class: a class with none has recall 0 / 0 in every metrics
        # row; the minority is the rarer class, class 1 on a tie
        self.counts = np.bincount(dataset.labels, minlength=2)
        if not self.counts.all():
            raise ValueError(f"labels hold no row of class {int(np.argmin(self.counts))}; "
                             "training needs both classes")
        self.outdir = Path(cfg.outdir or "run")
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.X = dataset.X
        self.labels = dataset.labels
        self.ids = dataset.ids
        self.minority = int(self.counts[1] <= self.counts[0])
        self.model = MlpModel(
            input_dim=self.X.shape[1],
            hidden_dim=cfg.hidden_dim,
            activation=cfg.activation,
            seed=cfg.seed,
        )
        self.scored = cfg.scheduler != "random"
        self.need_u = cfg.scheduler in ("mixed", "anti_mixed") and cfg.difficulty_source in (
            "uncertainty",
            "both",
        )
        # one row per rescore boundary, the rows of scores.npz
        self.boundaries = cfg.rescore_epochs if self.scored else range(0)
        n_rows = len(self.boundaries)
        self.n_scored = 0
        self.score_losses = np.empty((n_rows, len(dataset)))
        self.score_us = np.empty((n_rows, len(dataset))) if self.need_u else None
        self.weights = np.ones(len(dataset))
        self.plan: Optional[scheduler.BatchPlan] = None
        self.plan_s = 0.0
        # the wall time of the call that scored this boundary's
        # uncertainties, set by `_score_uncertainties`
        self.score_s = 0.0
        # the (N, 1) predictions of the last recall: the parameters do not
        # move before the next plan, so they give that boundary's losses
        self.pred: Optional[np.ndarray] = None
        self.d: Optional[np.ndarray] = None
        self.metrics_rows: List[list] = []
        self.timing_rows: List[list] = []
        self.error: Optional[Exception] = None
        # a run owns its dir's score table and checkpoint: none survives a rerun
        for stale in ("scores.npz", "checkpoint.json"):
            (self.outdir / stale).unlink(missing_ok=True)
        cfg.write_resolved(self.outdir / "config_resolved.txt")

    def _epoch_rng(self, epoch: int) -> np.random.Generator:
        return np.random.default_rng([self.cfg.seed, 1, epoch])

    def rescores(self, epoch: int) -> bool:
        """Whether every row is scored at ``epoch``, a rescore boundary."""
        return epoch in self.boundaries

    def _score(self):
        """Loss of every row, kept with the uncertainties `_train` scored
        into the same row (when needed) as the next row of the score table.
        The losses are those of the last recall's predictions; only a
        boundary that no epoch precedes runs a forward pass of its own."""
        pred = self.pred if self.pred is not None else self.model.forward_batch(self.X)
        k = self.n_scored
        losses = self.score_losses[k] = kernels.loss_batch(pred, self.labels, self.cfg.loss_kind)
        self.n_scored += 1
        return losses, self.score_us[k] if self.need_u else None

    def _difficulty(self, losses, uncertainties) -> np.ndarray:
        src = self.cfg.difficulty_source
        if src == "both":
            return difficulty.fuse_ranks(losses, uncertainties, self.ids)
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
        if self.rescores(epoch):
            losses, uncertainties = self._score()
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
            self.weights = scheduler.sp_weight(losses, lam, hard=cfg.scheduler == "sp_hard")
        elif self.scored and since >= 0 and cfg.scheduler not in ("sp_hard", "sp_linear"):
            return self.plan
        # warmup, random and sp_* runs batch randomly
        return scheduler.random_plan(len(self.ids), cfg.batch_size, self._epoch_rng(epoch))

    def _recalls(self) -> list:
        """The recall of each class: its rows predicted as it, over its
        count.  The predictions are kept for the next boundary's losses."""
        self.pred = self.model.forward_batch(self.X)
        pred = (self.pred[:, 0] > 0.5).astype(np.int64)
        return (np.bincount(self.labels, weights=pred == self.labels) / self.counts).tolist()

    def plan_epoch(self, epoch: int) -> None:
        """Score the losses if due, build this epoch's plan and its visiting
        order."""
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
        mean_u = (float(np.mean(self.score_us[self.n_scored - 1]))
                  if self.need_u and self.n_scored else None)
        self.metrics_rows.append([
            epoch, mean_loss, recalls[0], recalls[1], recalls[self.minority], mean_u, spread,
        ])

    def write_logs(self) -> None:
        """metrics.csv, timings.csv and, for a scored run, scores.npz with
        the rows scored so far: a failed run keeps those before its error."""
        if self.scored:
            k = self.n_scored
            uncertainty.save_score_table(
                self.outdir / "scores.npz", self.ids, self.boundaries[:k],
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


def _score_uncertainties(group: List[_Run], epoch: int) -> None:
    """The uncertainties of every row under each run of ``group``, runs of
    one dataset, seed, G and gamma: one call draws their disturbances once.
    Each run keeps its row in the score-table row `_score` fills next, and
    the call's wall time."""
    first = group[0]
    cfg = first.cfg
    t0 = time.perf_counter()
    us = uncertainty.batch_score_uncertainty(
        [run.model for run in group], first.X, first.ids, cfg.G, cfg.gamma, cfg.seed, epoch=epoch
    )
    score_s = time.perf_counter() - t0
    for run, u in zip(group, us):
        run.score_us[run.n_scored], run.score_s = u, score_s


# a diverging run fails its own loss check, not on numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def _train(runs: List[_Run]) -> None:
    """Train runs that share the dataset and every LOCKSTEP_FIELDS value in
    lockstep: each epoch one SGD step advances a stack of the live runs, and
    each keeps its row of the result.  Before the plans, the runs due to
    score uncertainty that share (seed, G, gamma) score it in one call.  A
    run that raises, in its scoring, its plan, its metrics row or its log
    write, keeps that first error as its `error` and leaves the stack; the
    others go on unchanged, since the stacked step is exact per run.  Only
    a run whose logs were all written saves a checkpoint.
    """
    first = runs[0]
    cfg = first.cfg
    live = list(runs)

    def each(step, over=live):
        for run in list(over):
            try:
                step(run)
            except Exception as exc:  # noqa: BLE001 - cell failures are recorded
                run.error = run.error or exc
                if run in live:
                    live.remove(run)

    try:
        for epoch in range(cfg.total_epochs):
            t0 = time.perf_counter()
            draws: Dict[tuple, List[_Run]] = {}
            for run in live:
                run.score_s = 0.0
                if run.need_u and run.rescores(epoch):
                    draws.setdefault((run.cfg.seed, run.cfg.G, run.cfg.gamma), []).append(run)
            for group in draws.values():
                try:
                    _score_uncertainties(group, epoch)
                except Exception:  # noqa: BLE001 - each run scores alone, keeping its own error
                    each(lambda run: _score_uncertainties([run], epoch), group)
            each(lambda run: run.plan_epoch(epoch))
            if not live:
                break
            t1 = time.perf_counter()
            params = [np.stack([getattr(r.model, name) for r in live]) for name in PARAM_AXES]
            visit_losses = kernels.sgd_epochs(
                *params, first.X, first.labels, [run.plan.order for run in live],
                cfg.batch_size, np.stack([run.weights for run in live]), cfg.lr,
                cfg.activation, cfg.loss_kind,
            )
            train_s = time.perf_counter() - t1
            for s, run in enumerate(live):
                for name, stack in zip(PARAM_AXES, params):
                    setattr(run.model, name, stack[s])
            by_run = dict(zip(live, visit_losses))
            each(lambda run: run.record_epoch(epoch, by_run[run]))
            wall = time.perf_counter() - t0
            for run in live:
                run.timing_rows.append([
                    epoch, f"{wall:.5f}", f"{run.score_s:.5f}", f"{run.plan_s:.5f}",
                    f"{train_s:.5f}", len(by_run),
                ])
    finally:
        each(lambda run: run.write_logs(), runs)
    each(lambda run: run.model.save(run.outdir / "checkpoint.json"))


def run(cfg: ExperimentConfig, dataset: Optional[Dataset] = None) -> Path:
    """Execute one training run; returns the run directory."""
    one = _Run(cfg, dataset if dataset is not None else load_dataset(cfg.dataset))
    _train([one])
    if one.error is not None:
        raise one.error
    return one.outdir


def final_metrics(run_dir: Path) -> Dict[str, float]:
    """The last epoch row of a finished run's metrics.csv.  A dir without
    the checkpoint that only a finished run saves raises a ValueError."""
    if not Path(run_dir, "checkpoint.json").exists():
        raise ValueError(f"{run_dir} has no checkpoint.json: its run failed or did not finish")
    with open(Path(run_dir, "metrics.csv"), newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
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
    loss per config (mean and spread over seeds).  Every config after the
    first is set against it seed by seed: its ``wins_vs_baseline`` counts
    the seeds where its recall is at least the first config's, and its
    ``vs_baseline`` counts those above, tied and below, with the exact
    two-sided sign-test p-value of above against below (null when no seed
    of both finished).

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
    # (label, seed) -> the cell's run while it trains, then its final
    # metrics or its "<ExcType>: <message>" error
    cells: Dict[tuple, object] = {}
    # one Dataset, so one lockstep group, per path; a failed load is not cached
    load = functools.cache(load_dataset)
    groups: Dict[tuple, List[_Run]] = {}
    for label, cfg in zip(labels, configs):
        for seed in seeds:
            try:
                # a bad seed or dataset fails here, as its cell's error, before any dir exists
                outdir = Path(cfg.outdir or "compare") / f"{label}_seed{seed}"
                variant = replace(cfg, seed=seed, outdir=str(outdir))
                ds = dataset if dataset is not None else load(variant.dataset)
                one = cells[label, seed] = _Run(variant, ds)
            except Exception as exc:  # noqa: BLE001 - cell failures are recorded
                cells[label, seed] = _error(exc)
                continue
            key = (id(ds),) + tuple(getattr(variant, f) for f in LOCKSTEP_FIELDS)
            groups.setdefault(key, []).append(one)
    for group in groups.values():
        _train(group)
    for cell, one in cells.items():
        if isinstance(one, _Run):
            cells[cell] = final_metrics(one.outdir) if one.error is None else _error(one.error)
    summary = {"seeds": seeds, "configs": {}, "wins_vs_baseline": {}}
    recall: Dict[str, Dict[int, float]] = {}
    for label in labels:
        done = {s: cells[label, s] for s in seeds if isinstance(cells[label, s], dict)}
        recall[label] = {s: m["minority_recall"] for s, m in done.items()}
        vals = list(recall[label].values())
        losses = [m["mean_loss"] for m in done.values()]
        failed_seeds = [s for s in seeds if s not in done]
        summary["configs"][label] = {
            "minority_recall_mean": float(np.mean(vals)) if vals else None,
            "minority_recall_spread": (max(vals) - min(vals)) if vals else None,
            "mean_loss_mean": float(np.mean(losses)) if losses else None,
            "failed_seeds": failed_seeds,
            "errors": {str(s): cells[label, s] for s in failed_seeds},
            "per_seed_minority_recall": {str(s): recall[label].get(s) for s in seeds},
        }
    baseline = recall[labels[0]]
    for label in labels[1:]:
        pairs = [(r, baseline[s]) for s, r in recall[label].items() if s in baseline]
        above, ties = sum(r > b for r, b in pairs), sum(r == b for r, b in pairs)
        below = len(pairs) - above - ties
        summary["wins_vs_baseline"][label] = above + ties
        summary["configs"][label]["vs_baseline"] = {
            "above": above, "ties": ties, "below": below,
            "sign_test_p": sign_test_p(above, below) if pairs else None,
        }
    return summary


def sign_test_p(above: int, below: int) -> float:
    """Exact two-sided sign-test p-value of ``above`` against ``below``
    (ties dropped): twice the Binomial(n, 1/2) tail of the rarer sign, at
    most 1."""
    n = above + below
    tail = sum(math.comb(n, k) for k in range(min(above, below) + 1))
    return min(1.0, 2 * tail / 2**n)


def export_scatter(scores_path, out_csv, mode: str = "value", epoch: Optional[int] = None) -> None:
    """Fig-style scatter export of (loss, uncertainty) pairs, either raw
    values or descending rank indices, one row per sample by ascending id.

    ``scores_path`` is a run's ``scores.npz`` table, or a score JSON
    (`moscl score`), read as a table of one row at epoch 0.  The row of
    ``epoch`` is exported; ``epoch`` may be left out when the file holds
    one row.  The parent directories of ``out_csv`` are made once the input
    has been read."""
    if mode not in ("value", "index"):
        raise ValueError(f"unknown scatter mode {mode!r}")
    read = (uncertainty.load_score_table if Path(scores_path).suffix == ".npz"
            else uncertainty.load_scores)
    table = read(scores_path)
    if not len(table["ids"]):
        raise ValueError(f"{scores_path} holds no sample")
    epochs = table["epochs"].tolist()
    if epoch is None and len(epochs) == 1:
        epoch = epochs[0]
    if epoch not in epochs:
        raise ValueError(f"{scores_path} holds the epochs {epochs}: give one of them as the epoch")
    if "uncertainty" not in table:
        raise ValueError("scores file has no uncertainty column to export")
    k, order = epochs.index(epoch), np.argsort(table["ids"], kind="stable")
    ids, losses, us = table["ids"][order], table["loss"][k, order], table["uncertainty"][k, order]
    if mode == "index":
        losses, us = difficulty.rank_descending(losses, ids), difficulty.rank_descending(us, ids)
    rows = zip(losses.tolist(), us.tolist())
    Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss", "uncertainty"])
        writer.writerows(rows)
