"""Command-line entry point.

Subcommands: gen-data, train, score, compare, export-scatter,
analyze-conflicts.  A failure, a malformed flag value included, exits 1
with an error JSON on stderr; a missing or unknown flag exits 2 with
argparse's usage text.  Every path resolves against the working
directory: each --out, --pairs-csv and --difficulty-csv, and the run
directories of train and compare (--outdir, default run and compare), so
compare's comparison.json too.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import conflict, difficulty, experiment, uncertainty
from .datagen import GenSpec, generate, load_dataset, save_dataset
from .experiment import ExperimentConfig, from_strings
from .model import MlpModel


def _add_settings(p: argparse.ArgumentParser, cls, names=None) -> None:
    """A string flag, default None, per named field of the dataclass ``cls``
    (every field without ``names``); `_settings` reads them."""
    names = names or [f.name for f in dataclasses.fields(cls)]
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)
    p.set_defaults(settings=(cls, names))


def _settings(args):
    """The dataclass of the command's `_add_settings` flags, over its
    ``--config`` file if given, cast and checked before any file is read."""
    cls, names = args.settings
    values = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if getattr(args, "config", None):
        return cls.from_file(args.config, **values)
    return from_strings(cls, values)


def _check_overwrites(inputs, outputs) -> None:
    """Raise a ValueError, before any input is read, when an output path
    resolves to an input path or to an earlier output.  Each entry is (how
    the path was given, the path or None, what the file holds)."""
    seen = {}
    for k, (given, path, what) in enumerate([*inputs, *outputs]):
        if path is None:
            continue
        key = Path(path).resolve()
        if k >= len(inputs) and key in seen:
            raise ValueError(f"{given} and {seen[key][0]} name one file, so {what} would "
                             f"overwrite {seen[key][1]}; give them different paths")
        seen.setdefault(key, (given, what))


def _load_dataset_and_checkpoint(args, outputs):
    """The ``--dataset`` and ``--checkpoint`` of ``args``, read once no output
    overwrites them; the checkpoint must fit the dataset's feature count."""
    _check_overwrites(
        [(f"--dataset {args.dataset!r}", args.dataset, "the dataset"),
         (f"--checkpoint {args.checkpoint!r}", args.checkpoint, "the checkpoint")],
        outputs,
    )
    dataset = load_dataset(args.dataset)
    model = MlpModel.load(args.checkpoint)
    if model.W1.shape[1] != dataset.X.shape[1]:
        raise ValueError(
            f"checkpoint takes {model.W1.shape[1]} input features, "
            f"dataset has {dataset.X.shape[1]}"
        )
    return dataset, model


def cmd_gen_data(args) -> None:
    spec = _settings(args)
    out = Path(args.out)
    sidecar = out.with_suffix(".json")
    _check_overwrites([], [(f"--out {args.out!r}", out, "the dataset"),
                           (f"the .json beside --out {args.out!r}", sidecar, "the spec sidecar")])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(generate(spec), out, sidecar)
    print(out)


def cmd_train(args) -> None:
    run_dir = experiment.run(_settings(args))
    print(run_dir)


def cmd_score(args) -> None:
    """Score a dataset with a saved checkpoint: the losses and uncertainties
    at --out, and the rank-fused difficulty CSV at --difficulty-csv if given."""
    out, difficulty_csv = Path(args.out), args.difficulty_csv or None
    if out.suffix == ".npz":
        raise ValueError(f"--out {args.out!r} ends in .npz, which export-scatter reads as a "
                         "score table, but score writes a score JSON; give another suffix")
    cfg = _settings(args)
    dataset, model = _load_dataset_and_checkpoint(args, [
        (f"--out {args.out!r}", out, "the scores"),
        (f"--difficulty-csv {difficulty_csv!r}", difficulty_csv, "the difficulty CSV"),
    ])
    X, ids = dataset.X, dataset.ids
    losses = model.batch_losses(X, dataset.labels, cfg.loss_kind)
    us = uncertainty.batch_score_uncertainty(model, X, ids, cfg.G, cfg.gamma, cfg.seed)
    for path in filter(None, (out, difficulty_csv)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    uncertainty.dump_scores(out, ids, losses, us)
    if difficulty_csv:
        difficulty.dump_difficulty_csv(difficulty_csv, ids, losses, us)
    print(out)


def cmd_compare(args) -> None:
    base = _settings(args)
    schedulers = args.schedulers.split(",")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    configs = [dataclasses.replace(base, scheduler=s) for s in schedulers]
    summary = experiment.compare(configs, seeds, labels=schedulers)
    out = Path(base.outdir or "compare") / "comparison.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    json.dump(summary["configs"], sys.stdout, indent=1)
    print()


def cmd_export_scatter(args) -> None:
    _check_overwrites([(f"--scores {args.scores!r}", args.scores, "the scores")],
                      [(f"--out {args.out!r}", args.out, "the scatter CSV")])
    experiment.export_scatter(args.scores, args.out, mode=args.mode, epoch=args.epoch)
    print(args.out)


def cmd_analyze_conflicts(args) -> None:
    out = Path(args.out)
    table = out.with_suffix(".npy")
    cfg = _settings(args)
    dataset, model = _load_dataset_and_checkpoint(args, [
        (f"--out {args.out!r}", out, "the report"),
        (f"the .npy beside --out {args.out!r}", table, "the pairs table"),
        (f"--pairs-csv {args.pairs_csv!r}", args.pairs_csv or None, "the pairs CSV"),
    ])
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
    for path in filter(None, (out, args.pairs_csv)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    report.save(out)
    if args.pairs_csv:
        report.save_pairs_csv(args.pairs_csv)
    print(json.dumps({"spearman_rho": report.spearman_rho, "degenerate": report.degenerate}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    # a malformed flag value raises ArgumentError, which `main` reports
    parser = argparse.ArgumentParser(
        prog="moscl",
        description="Mixed-order self-paced curriculum learning lab",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # one spelling per flag: compare would read --scheduler as --schedulers
    add = functools.partial(sub.add_parser, exit_on_error=False, allow_abbrev=False)

    p = add("gen-data", help="generate a synthetic quadrant dataset")
    p.add_argument("--out", required=True)
    _add_settings(p, GenSpec)
    p.set_defaults(func=cmd_gen_data)

    p = add("train", help="run one training configuration")
    p.add_argument("--config", help="flat key=value config file")
    _add_settings(p, ExperimentConfig)
    p.set_defaults(func=cmd_train)

    p = add("score", help="score a dataset with a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--difficulty-csv", default=None,
                   help="also write the rank-fused difficulty CSV here")
    _add_settings(p, ExperimentConfig, ("loss_kind", "G", "gamma", "seed"))
    p.set_defaults(func=cmd_score)

    p = add("compare", help="scheduler comparison over seeds")
    p.add_argument("--config", help="flat key=value config file")
    # --schedulers and --seeds set each cell's scheduler and seed
    _add_settings(p, ExperimentConfig, [f.name for f in dataclasses.fields(ExperimentConfig)
                                        if f.name not in ("scheduler", "seed")])
    p.add_argument("--schedulers", default="random,mixed")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_compare)

    p = add("export-scatter", help="loss/uncertainty scatter CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="value")
    p.add_argument("--epoch", type=int, default=None,
                   help="the epoch whose scores to export; optional when --scores holds "
                   "one epoch, as a score JSON (epoch 0) does")
    p.set_defaults(func=cmd_export_scatter)

    p = add("analyze-conflicts", help="pairwise gradient conflict report: a summary "
            "JSON at --out, the pairs as a PAIR_DTYPE .npy beside it")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-csv", default=None)
    _add_settings(p, ExperimentConfig, ("loss_kind", "seed"))
    p.set_defaults(func=cmd_analyze_conflicts)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # read before any input: an empty --out names no file to write
        if getattr(args, "out", None) == "":
            raise ValueError("--out '' names no file")
        # the program's own checks name an overflow, not numpy's warnings (as in `_train`)
        with np.errstate(over="ignore", invalid="ignore"):
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
