"""Command-line entry point.

Subcommands: gen-data, train, score, compare, export-scatter,
analyze-conflicts.  Failures exit nonzero with an error JSON on stderr.
The MOSCL_OUTPUT_ROOT environment variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import conflict, difficulty, experiment, uncertainty
from .datagen import GenSpec, check_dataset, generate, save_dataset
from .experiment import ExperimentConfig
from .model import MlpModel


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for f in dataclasses.fields(ExperimentConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name) is not None
    }
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig.from_strings(overrides)


def _load_dataset_and_checkpoint(args):
    """The ``--dataset`` and ``--checkpoint`` of ``args``.  The dataset is
    checked as a run checks its own (both heads classify two classes), and
    the checkpoint must take as many features as the dataset's rows hold."""
    dataset = experiment.load_data(args.dataset)
    check_dataset(dataset, n_classes=2)
    model = MlpModel.load(args.checkpoint)
    if model.W1.shape[1] != dataset.X.shape[1]:
        raise ValueError(
            f"checkpoint takes {model.W1.shape[1]} input features, "
            f"dataset has {dataset.X.shape[1]}"
        )
    return dataset, model


def cmd_gen_data(args) -> None:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GenSpec)})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(generate(spec), out, out.with_suffix(".json"))
    print(out)


def cmd_train(args) -> None:
    run_dir = experiment.run(_config_from_args(args))
    print(run_dir)


def cmd_score(args) -> None:
    """Score a dataset with a saved checkpoint: losses, uncertainties, and
    the rank-fused difficulty CSV."""
    # the scoring settings pass a run's own checks before any file is read
    cfg = ExperimentConfig(loss_kind=args.loss_kind, G=args.G, gamma=args.gamma, seed=args.seed)
    dataset, model = _load_dataset_and_checkpoint(args)
    X, ids = dataset.X, dataset.ids
    losses, _ = model.batch_losses(X, dataset.labels, cfg.loss_kind)
    us = uncertainty.batch_score_uncertainty(model, X, ids, cfg.G, cfg.gamma, cfg.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    uncertainty.dump_scores(out, ids, losses, us)
    difficulty.dump_difficulty_csv(
        out.with_suffix(".csv"), difficulty.fuse_ranks(losses, us, ids)
    )
    print(out)


def cmd_compare(args) -> None:
    base = _config_from_args(args)
    schedulers = args.schedulers.split(",")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    configs = [dataclasses.replace(base, scheduler=s) for s in schedulers]
    summary = experiment.compare(configs, seeds, labels=schedulers)
    out = experiment.resolve_outdir(base.outdir or "compare") / "comparison.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    json.dump(summary["configs"], sys.stdout, indent=1)
    print()


def cmd_export_scatter(args) -> None:
    experiment.export_scatter(args.scores, args.out, mode=args.mode, epoch=args.epoch)
    print(args.out)


def cmd_analyze_conflicts(args) -> None:
    # the analysis settings pass a run's own checks before any file is read
    cfg = ExperimentConfig(loss_kind=args.loss_kind, seed=args.seed)
    dataset, model = _load_dataset_and_checkpoint(args)
    report = conflict.conflict_loss_monotonicity(
        model,
        dataset.X,
        dataset.labels,
        sample_ids=dataset.ids,
        loss_kind=cfg.loss_kind,
        seed=cfg.seed,
        # the checkpoint's bytes, not the spelling of its path, name the model
        model_tag=hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest(),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report.save(out)
    if args.pairs_csv:
        report.save_pairs_csv(args.pairs_csv)
    print(json.dumps({"spearman_rho": report.spearman_rho, "degenerate": report.degenerate}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="moscl",
        description="Mixed-order self-paced curriculum learning lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic quadrant dataset")
    p.add_argument("--out", required=True)
    for f in dataclasses.fields(GenSpec):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training configuration")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a dataset with a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-kind", default="mse")
    # the scoring settings of a run, with a run's defaults
    for name in ("G", "gamma", "seed"):
        default = getattr(ExperimentConfig, name)
        p.add_argument(f"--{name}", type=type(default), default=default)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare", help="scheduler comparison over seeds")
    _add_config_flags(p)
    p.add_argument("--schedulers", default="random,mixed")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-scatter", help="loss/uncertainty scatter CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["value", "index"], default="value")
    p.add_argument("--epoch", type=int, default=None,
                   help="the epoch to export when --scores is a run's scores.npz")
    p.set_defaults(func=cmd_export_scatter)

    p = sub.add_parser("analyze-conflicts", help="pairwise gradient conflict report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-csv", default=None)
    p.add_argument("--loss-kind", default="mse")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze_conflicts)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI error contract
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
