"""Training and scoring outputs are byte-identical to committed hashes.

`golden_hashes.json` next to this file holds the SHA-256 of the dataset
CSV and its sidecar, of every `metrics.csv`, `scores.npz` and
`checkpoint.json` of three small compares, and of every file that
`moscl score`, `export-scatter` and `analyze-conflicts` write on one
checkpoint of each: all files at the top of the compare's directory, so
that a new output file is pinned without being named here.  It also
pins each row of every `scores.npz` as the `scores_epoch{E}.json` that
`dump_scores` writes from it, next to the table: the per-boundary files
that runs once wrote, so their hashes hold across the change of format.  Each compare runs all six schedulers plus
the loss-only and uncertainty-only difficulty sources on N=60 samples
whose ids are sparse and shuffled: once tanh-mse at b=2, rescoring every
epoch; once tanh-ce at b=4, G=4, rescoring every other epoch; and once
relu-ce at b=2 with G=128 and 16 hidden units, rescoring every third
epoch, so that uncertainty scoring spans several row blocks.

To check the outputs against the file without pytest:

    PYTHONPATH=src python tests/test_golden_outputs.py

It prints how many hashes the outputs add, change and remove, then names
each such file, sorted, one per line, as a failing test does; it writes
nothing, and exits 1 when any hash differs.  A change that alters a
numeric path on purpose regenerates the file with ``--update`` and says
so in CHANGES.md.
The CLI round passes `score --difficulty-csv` at the `score.csv` beside
the score JSON, so the difficulty CSV, which `score` writes only on
request, stays pinned.

The hashes hold in one numeric environment only: another BLAS kernel or
SIMD target rounds differently.  So the file also records, under
``environment``, numpy's version, its bundled OpenBLAS's core and config,
and numpy's active dispatch targets; ``--update`` writes the record, and
a failing test, or the script, first names each of its keys that differs
from the running process, then the files.  The record alone fails nothing.
"""

import argparse
import ctypes
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from moscl import cli, experiment, uncertainty
from moscl.datagen import Dataset, GenSpec, generate, save_dataset
from moscl.experiment import SCHEDULERS, ExperimentConfig

FIXTURE = Path(__file__).with_name("golden_hashes.json")
SEEDS = [0, 1]
CASES = {
    "tanh_sigmoid_mse_b2": dict(
        batch_size=2, activation="tanh", loss_kind="mse", rescore_every=1
    ),
    "tanh_sigmoid_ce_b4": dict(
        batch_size=4, G=4, activation="tanh", loss_kind="ce", rescore_every=2
    ),
    # G * hidden_dim = 2048 values per sample: scoring spans several row blocks
    "relu_sigmoid_ce_g128_h16": dict(
        batch_size=2, G=128, hidden_dim=16, activation="relu", loss_kind="ce", rescore_every=3,
    ),
}
HASHED = ("metrics.csv", "checkpoint.json", "scores.npz", "scores_epoch*.json")
# the fixture's key of its numeric environment record, beside the file names
ENVIRONMENT = "environment"


def _dataset() -> Dataset:
    ds = generate(GenSpec(n_total=60, seed=12))
    return replace(ds, ids=np.random.default_rng(5).choice(10**6, size=len(ds), replace=False))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _render_score_files(table_path: Path) -> None:
    """``scores_epoch{E}.json`` of each row of a run's score table, written
    by `dump_scores` next to it."""
    table = uncertainty.load_score_table(table_path)
    us = table.get("uncertainty")
    for k, epoch in enumerate(table["epochs"].tolist()):
        uncertainty.dump_scores(
            table_path.with_name(f"scores_epoch{epoch}.json"), table["ids"],
            table["loss"][k], None if us is None else us[k],
        )


def golden_hashes(work: Path) -> dict:
    """SHA-256 per output file, keyed by its path under ``work``."""
    ds = _dataset()
    data = work / "data.csv"
    save_dataset(ds, data, data.with_suffix(".json"))
    for case, fields in CASES.items():
        base = ExperimentConfig(
            warmup_epochs=2, total_epochs=10, lr=0.3, sp_lambda0=0.3, sp_growth=0.02,
            outdir=str(work / case), **fields,
        )
        configs = [replace(base, scheduler=s) for s in SCHEDULERS] + [
            replace(base, scheduler="mixed", difficulty_source="loss"),
            replace(base, scheduler="anti_mixed", difficulty_source="uncertainty"),
        ]
        labels = list(SCHEDULERS) + ["mixed_loss", "anti_mixed_uncertainty"]
        summary = experiment.compare(configs, SEEDS, dataset=ds, labels=labels)
        assert all(not c["failed_seeds"] for c in summary["configs"].values()), summary
        scores = work / case / "score.json"
        argvs = [
            ["score", "--dataset", str(data), "--out", str(scores), "--seed", "3",
             "--difficulty-csv", str(scores.with_suffix(".csv")),
             "--checkpoint", str(work / case / "mixed_seed0" / "checkpoint.json"),
             "--loss-kind", fields["loss_kind"], "--G", str(fields.get("G", 8))],
            ["export-scatter", "--scores", str(scores), "--out", str(work / case / "value.csv")],
            ["export-scatter", "--scores", str(scores), "--out", str(work / case / "index.csv"),
             "--mode", "index"],
            ["analyze-conflicts", "--dataset", str(data), "--seed", "3",
             "--checkpoint", str(work / case / "mixed_seed0" / "checkpoint.json"),
             "--loss-kind", fields["loss_kind"], "--out", str(work / case / "conflict.json"),
             "--pairs-csv", str(work / case / "pairs.csv")],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    for table in work.rglob("scores.npz"):
        _render_score_files(table)
    files = [data, data.with_suffix(".json")]
    files += [p for pattern in HASHED for p in work.rglob(pattern)]
    # every file the CLI round writes, which it writes at the top of the case
    # directory: the runs of the compare sit in subdirectories
    files += [p for case in CASES for p in (work / case).iterdir() if p.is_file()]
    return {p.relative_to(work).as_posix(): _sha(p) for p in sorted(files)}


def numeric_environment() -> dict:
    """numpy's version, the config and core of its bundled OpenBLAS, and its
    active SIMD dispatch targets.  The last three are read through private
    names, so each reads "unknown" where those are missing."""
    env = {"numpy": np.__version__, "blas core": "unknown", "blas config": "unknown",
           "dispatch targets": "unknown"}
    libs = sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        for key, name in (("blas core", "scipy_openblas_get_corename64_"),
                          ("blas config", "scipy_openblas_get_config64_")):
            read = getattr(lib, name)
            read.restype = ctypes.c_char_p
            env[key] = read().decode()
    except (IndexError, OSError, AttributeError):
        pass
    try:
        from numpy._core import _multiarray_umath as umath
        env["dispatch targets"] = [
            t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)
        ]
    except (ImportError, AttributeError):
        pass
    return env


def environment_diff(old: dict, new: dict) -> list:
    """One ``key: old != new`` line per key whose value differs between two
    `numeric_environment` records, in ``new``'s key order."""
    return [f"{key}: {old.get(key)} != {new.get(key)}"
            for key in dict.fromkeys([*new, *old]) if old.get(key) != new.get(key)]


def diff_by_name(old: dict, new: dict) -> dict:
    """The sorted names of the files ``new`` adds to, changes in and removes
    from ``old``, two dicts of file name -> hash."""
    return {
        "added": sorted(new.keys() - old.keys()),
        "changed": sorted(name for name in new.keys() & old.keys() if old[name] != new[name]),
        "removed": sorted(old.keys() - new.keys()),
    }


def describe(diff: dict) -> str:
    """A count per kind of ``diff``, then one line per file named in it."""
    lines = [", ".join(f"{len(names)} {kind}" for kind, names in diff.items())]
    lines += [f"{kind}: {name}" for kind, names in diff.items() for name in names]
    return "\n".join(lines)


def test_outputs_match_golden_hashes(tmp_path):
    want = json.loads(FIXTURE.read_text())
    env = environment_diff(want.pop(ENVIRONMENT, {}), numeric_environment())
    diff = diff_by_name(want, golden_hashes(tmp_path))
    assert not any(diff.values()), "\n".join(env + [f"over {len(want)} hashes: {describe(diff)}"])


def main(argv=None) -> int:
    """Compare the outputs with the fixture, or with ``--update`` rewrite it."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the fixture")
    update = parser.parse_args(argv).update
    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_hashes(Path(tmp))
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    env = numeric_environment()
    for line in environment_diff(old.pop(ENVIRONMENT, {}), env):
        print(line, file=sys.stderr)
    diff = diff_by_name(old, hashes)
    if update:
        record = {**hashes, ENVIRONMENT: env}
        FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} hashes {'->' if update else 'vs'} {FIXTURE}: {describe(diff)}",
          file=sys.stderr)
    return 0 if update or not any(diff.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
