"""The CLI's input contract: one reader per input, one declaration per
setting, and a JSON error with exit 1 for every malformed value."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from moscl import cli, difficulty, uncertainty
from moscl.datagen import Dataset, GenSpec, generate, load_dataset, save_dataset
from moscl.experiment import ExperimentConfig
from moscl.model import MlpModel


@pytest.mark.parametrize("stale", [
    # a key GenSpec does not have, and a spec GenSpec rejects
    {"label_noise": 0.1},
    {"n_total": 3},
], ids=["extra_key", "n_total_3"])
def test_train_ignores_a_stale_sidecar(tmp_path, capsys, stale):
    data = tmp_path / "data.csv"
    spec = GenSpec(n_total=40, minority_fraction=0.25, seed=3)
    save_dataset(generate(spec), data, data.with_suffix(".json"))
    data.with_suffix(".json").write_text(json.dumps({**dataclasses.asdict(spec), **stale}))
    assert load_dataset(data).spec is None
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir),
                   "--warmup-epochs", "1", "--total-epochs", "3"])
    assert rc == 0, capsys.readouterr().err
    assert (run_dir / "checkpoint.json").exists()


# (argv after the command's required flags, error type, message)
MALFORMED = {
    "score-G": (["score", "--G", "two"], "ValueError", "G must be int, got 'two'"),
    "score-gamma": (["score", "--gamma", "wide"], "ValueError",
                    "gamma must be float, got 'wide'"),
    "analyze-conflicts-seed": (["analyze-conflicts", "--seed", "x"], "ValueError",
                               "seed must be int, got 'x'"),
    "gen-data-n-total": (["gen-data", "--n-total", "many"], "ValueError",
                         "n_total must be int, got 'many'"),
    "gen-data-seed": (["gen-data", "--seed", "-1"], "ValueError", "seed must be >= 0"),
    "export-scatter-epoch": (["export-scatter", "--epoch", "e"], "ArgumentError",
                             "argument --epoch: invalid int value: 'e'"),
    "export-scatter-mode": (["export-scatter", "--mode", "blob"], "ValueError",
                            "unknown scatter mode 'blob'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_flag_value_is_a_json_error(tmp_path, capsys, small_dataset, case):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data)
    ckpt = tmp_path / "ckpt.json"
    MlpModel(2, 8, seed=0).save(ckpt)
    (command, *flags), error, message = MALFORMED[case]
    # every input is well formed, so only the flag value can fail
    scores = tmp_path / "scores.json"
    if command == "export-scatter":
        assert cli.main(["score", "--dataset", str(data), "--checkpoint", str(ckpt),
                         "--out", str(scores)]) == 0
        capsys.readouterr()
    out = tmp_path / "out"
    required = {
        "score": ["--dataset", str(data), "--checkpoint", str(ckpt),
                  "--out", str(out / "scores.json")],
        "analyze-conflicts": ["--dataset", str(data), "--checkpoint", str(ckpt),
                              "--out", str(out / "conflict.json")],
        "gen-data": ["--out", str(out / "data.csv")],
        "export-scatter": ["--scores", str(scores), "--out", str(out / "scatter.csv")],
    }[command]
    assert cli.main([command] + required + flags) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
    assert not out.exists()


def test_unknown_command_is_a_json_error(capsys):
    assert cli.main(["bogus"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ArgumentError" and "'bogus'" in err["message"]


@pytest.mark.parametrize("command, flag", [
    # --schedulers and --seeds set each compare cell's scheduler and seed
    ("compare", ["--scheduler", "ohem"]),
    ("compare", ["--seed", "7"]),
    # no flag takes an abbreviation, here of --total-epochs
    ("train", ["--total", "5"]),
], ids=["compare-scheduler", "compare-seed", "train-abbreviation"])
def test_a_flag_the_command_does_not_take_exits_2(tmp_path, capsys, small_dataset, command, flag):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data)
    out = tmp_path / "out"
    argv = [command, "--dataset", str(data), "--outdir", str(out), "--warmup-epochs", "1"]
    if command == "compare":
        argv += ["--schedulers", "random,mixed", "--seeds", "0"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + flag)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_settings_flags_declare_neither_type_nor_default():
    """A flag whose dest is an ExperimentConfig or GenSpec field is a plain
    string defaulting to None: the field casts it and supplies the default,
    so the CLI holds no second declaration of either."""
    fields = {f.name for cls in (ExperimentConfig, GenSpec) for f in dataclasses.fields(cls)}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    checked = set()
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.dest in fields:
                assert action.type is None and action.default is None, (
                    command, action.option_strings, action.type, action.default
                )
                checked.add(command)
    assert checked == {"gen-data", "train", "score", "compare", "analyze-conflicts"}


@pytest.mark.parametrize("command,out_name,extra", [
    # the dataset's sidecar is --out with suffix .json
    ("gen-data", "d.json", ["--n-total", "20"]),
], ids=["gen-data"])
def test_out_that_is_its_own_sidecar_is_rejected_before_writing(
    tmp_path, capsys, command, out_name, extra
):
    """The overwrite rule names both the sidecar and --out, and nothing is
    written."""
    out = tmp_path / "out" / out_name
    assert cli.main([command, "--out", str(out)] + extra) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
        f"the .json beside --out {str(out)!r} and --out {str(out)!r} name one file, so the "
        "spec sidecar would overwrite the dataset; give them different paths"
    )}
    assert not out.parent.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_gen_data_rejects_a_non_finite_cluster_separation(tmp_path, capsys, value):
    """A NaN feature would fail every later command, so the spec is refused
    before anything is written."""
    out = tmp_path / "out" / "d.csv"
    assert cli.main(["gen-data", "--out", str(out), f"--cluster-separation={value}"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
        f"cluster_separation must be finite, got {float(value)!r}"
    )}
    assert not out.parent.exists()


@pytest.mark.parametrize("command,inputs", [
    ("gen-data", []),
    ("score", ["--dataset", "missing.csv", "--checkpoint", "missing.json"]),
    ("export-scatter", ["--scores", "missing.json"]),
    ("analyze-conflicts", ["--dataset", "missing.csv", "--checkpoint", "missing.json"]),
], ids=["gen-data", "score", "export-scatter", "analyze-conflicts"])
def test_an_empty_out_is_refused_before_any_input_is_read(tmp_path, capsys, command, inputs):
    """An empty --out names no file.  Each command fails on it, naming the
    flag, before it reads its inputs (missing here, so a read would fail
    with another error), and writes nothing."""
    assert cli.main([command, "--out", "", *inputs]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "--out '' names no file",
    }
    assert not any(tmp_path.iterdir())


def test_an_empty_optional_output_is_not_given(tmp_path, capsys):
    """An empty --difficulty-csv or --pairs-csv writes nothing beside --out,
    as leaving the flag out does."""
    inputs = _score_inputs(tmp_path)
    assert cli.main(["score", "--out", "out/s.json", "--difficulty-csv", ""] + inputs) == 0
    assert cli.main(["analyze-conflicts", "--out", "out/r.json", "--pairs-csv", ""] + inputs) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["r.json", "r.npy", "s.json"]


def _score_inputs(tmp_path, n=20):
    """A dataset of ``n`` rows and a checkpoint that fits it, as the
    ``--dataset`` and ``--checkpoint`` flags of `score`."""
    data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt.json"
    save_dataset(generate(GenSpec(n_total=n, minority_fraction=0.25, seed=3)), data)
    MlpModel(2, 8, seed=0).save(ckpt)
    return ["--dataset", str(data), "--checkpoint", str(ckpt)]


def test_score_out_ending_in_csv_writes_only_that_file(tmp_path, capsys):
    """The difficulty CSV has a flag of its own, so a score JSON may be named
    ``s.csv``."""
    out = tmp_path / "out" / "s.csv"
    assert cli.main(["score", "--out", str(out)] + _score_inputs(tmp_path)) == 0
    assert capsys.readouterr().out == f"{out}\n"
    assert [p.name for p in out.parent.iterdir()] == ["s.csv"]
    assert uncertainty.load_scores(out)["ids"].tolist() == sorted(
        load_dataset(tmp_path / "data.csv").ids.tolist()
    )


def test_score_refuses_an_out_ending_in_npz_before_any_input_is_read(tmp_path, capsys):
    """export-scatter reads a ``.npz`` as a score table, so it could not read
    a score JSON of that name back: `score` fails naming --out, before it
    reads its inputs (missing here, so a read would fail with another
    error), and writes nothing."""
    argv = ["score", "--out", "out/s.npz", "--dataset", "missing.csv", "--checkpoint", "c.json"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
        "--out 'out/s.npz' ends in .npz, which export-scatter reads as a score table, "
        "but score writes a score JSON; give another suffix"
    )}
    assert not any(tmp_path.iterdir())


def test_score_writes_the_difficulty_csv_only_on_request(tmp_path, capsys):
    """Without --difficulty-csv, `score` writes --out alone; with it, also
    the CSV that `dump_difficulty_csv` writes of the same scores, in a
    directory it makes."""
    inputs = _score_inputs(tmp_path)
    alone, both = tmp_path / "alone", tmp_path / "both"
    assert cli.main(["score", "--out", str(alone / "s.json")] + inputs) == 0
    assert [p.name for p in alone.iterdir()] == ["s.json"]
    csv_path = both / "new" / "d.csv"
    argv = ["score", "--out", str(both / "s.json"), "--difficulty-csv", str(csv_path)]
    assert cli.main(argv + inputs) == 0
    capsys.readouterr()
    assert (both / "s.json").read_bytes() == (alone / "s.json").read_bytes()
    table = uncertainty.load_scores(both / "s.json")
    difficulty.dump_difficulty_csv(tmp_path / "want.csv", table["ids"], table["loss"][0],
                                   table["uncertainty"][0])
    assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()



@pytest.mark.parametrize("argv, written", [
    # --pairs-csv names the --out file, which it would overwrite
    (["analyze-conflicts", "--out", "new/c.json", "--pairs-csv", "./new/c.json"], {}),
    # a --pairs-csv in a missing directory
    (["analyze-conflicts", "--out", "c.json", "--pairs-csv", "new/p.csv"],
     {"c.json": '{"model_tag": ', "new/p.csv": "id_i,id_j,cosine,conflict,loss_sum\n"}),
    # an export-scatter --out in a missing directory
    (["export-scatter", "--scores", "scores.json", "--out", "new/s.csv"],
     {"new/s.csv": "loss,uncertainty\n"}),
], ids=["pairs-csv-is-out", "pairs-csv-in-new-dir", "scatter-in-new-dir"])
def test_output_paths_leave_the_whole_result_or_nothing(tmp_path, capsys, argv, written):
    save_dataset(generate(GenSpec(n_total=30, minority_fraction=0.25, seed=3)), "data.csv")
    MlpModel(2, 8, seed=0).save("ckpt.json")
    inputs = ["--dataset", "data.csv", "--checkpoint", "ckpt.json"]
    assert cli.main(["score", "--out", "scores.json"] + inputs) == 0
    capsys.readouterr()
    command = argv[0]
    rc = cli.main(argv + (inputs if command == "analyze-conflicts" else []))
    err = capsys.readouterr().err
    if written:
        assert rc == 0, err
    else:
        assert rc == 1
        assert json.loads(err) == {"error": "ValueError", "message": (
            "--pairs-csv './new/c.json' and --out 'new/c.json' name one file, so the "
            "pairs CSV would overwrite the report; give them different paths"
        )}
        assert not (tmp_path / "new").exists()
    for name, head in written.items():
        assert (tmp_path / name).read_text().startswith(head)


# (argv, error message): each output resolves to an input or to another output
OVERWRITES = {
    "score-csv-is-dataset": (
        ["score", "--dataset", "data.csv", "--checkpoint", "ckpt.json", "--out", "s.json",
         "--difficulty-csv", "data.csv"],
        "--difficulty-csv 'data.csv' and --dataset 'data.csv' name one file, so the "
        "difficulty CSV would overwrite the dataset; give them different paths"),
    "score-csv-is-checkpoint": (
        ["score", "--dataset", "data.csv", "--checkpoint", "ckpt.json", "--out", "s.json",
         "--difficulty-csv", "sub/../ckpt.json"],
        "--difficulty-csv 'sub/../ckpt.json' and --checkpoint 'ckpt.json' name one file, so "
        "the difficulty CSV would overwrite the checkpoint; give them different paths"),
    "score-csv-is-out": (
        ["score", "--dataset", "data.csv", "--checkpoint", "ckpt.json", "--out", "s.json",
         "--difficulty-csv", "./s.json"],
        "--difficulty-csv './s.json' and --out 's.json' name one file, so the difficulty "
        "CSV would overwrite the scores; give them different paths"),
    "score-out-is-checkpoint": (
        ["score", "--dataset", "data.csv", "--checkpoint", "ckpt.json", "--out", "./ckpt.json"],
        "--out './ckpt.json' and --checkpoint 'ckpt.json' name one file, so the scores "
        "would overwrite the checkpoint; give them different paths"),
    "conflict-out-is-checkpoint": (
        ["analyze-conflicts", "--dataset", "data.csv", "--checkpoint", "ckpt.json",
         "--out", "ckpt.json"],
        "--out 'ckpt.json' and --checkpoint 'ckpt.json' name one file, so the report "
        "would overwrite the checkpoint; give them different paths"),
    "conflict-pairs-csv-is-dataset": (
        ["analyze-conflicts", "--dataset", "data.csv", "--checkpoint", "ckpt.json",
         "--out", "r.json", "--pairs-csv", "sub/../data.csv"],
        "--pairs-csv 'sub/../data.csv' and --dataset 'data.csv' name one file, so the "
        "pairs CSV would overwrite the dataset; give them different paths"),
    "scatter-out-is-scores": (
        ["export-scatter", "--scores", "scores.json", "--out", "./scores.json"],
        "--out './scores.json' and --scores 'scores.json' name one file, so the scatter "
        "CSV would overwrite the scores; give them different paths"),
    "conflict-out-is-npy": (
        ["analyze-conflicts", "--dataset", "data.csv", "--checkpoint", "ckpt.json",
         "--out", "r.npy"],
        "the .npy beside --out 'r.npy' and --out 'r.npy' name one file, so the pairs "
        "table would overwrite the report; give them different paths"),
    "conflict-pairs-csv-is-npy": (
        ["analyze-conflicts", "--dataset", "data.csv", "--checkpoint", "ckpt.json",
         "--out", "r.json", "--pairs-csv", "r.npy"],
        "--pairs-csv 'r.npy' and the .npy beside --out 'r.json' name one file, so the "
        "pairs CSV would overwrite the pairs table; give them different paths"),
    "train-dataset-is-metrics": (
        ["train", "--dataset", "sub/metrics.csv", "--outdir", "sub", "--total-epochs", "2",
         "--warmup-epochs", "1", "--scheduler", "random"],
        "dataset 'sub/metrics.csv' and the run's metrics.csv in 'sub' name one file, so "
        "the run would overwrite the dataset; give them different paths"),
    "compare-dataset-is-comparison": (
        ["compare", "--dataset", "sub/comparison.json", "--outdir", "sub", "--total-epochs",
         "2", "--warmup-epochs", "1", "--seeds", "0"],
        "the comparison.json in 'sub' and dataset 'sub/comparison.json' name one file, so "
        "the comparison would overwrite the dataset; give them different paths"),
    "compare-config-is-comparison": (
        ["compare", "--config", "cfg/comparison.json", "--seeds", "0"],
        "the comparison.json in 'cfg' and --config 'cfg/comparison.json' name one file, so "
        "the comparison would overwrite the config; give them different paths"),
}


@pytest.mark.parametrize("case", list(OVERWRITES))
def test_an_output_that_would_overwrite_an_input_or_output_is_rejected(
    tmp_path, monkeypatch, capsys, case
):
    """Exit 1 with an error naming both paths, with every file left as it
    was.  No input is read, but for the dataset `train` reads before it
    makes its run dir."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "cfg").mkdir()
    dataset = generate(GenSpec(n_total=30, minority_fraction=0.25, seed=3))
    for path in ("data.csv", "sub/metrics.csv", "sub/comparison.json"):
        save_dataset(dataset, path)
    (tmp_path / "cfg" / "comparison.json").write_text(
        "dataset=data.csv\noutdir=cfg\ntotal_epochs=2\nwarmup_epochs=1\n")
    MlpModel(2, 8, seed=0).save("ckpt.json")
    assert cli.main(["score", "--dataset", "data.csv", "--checkpoint", "ckpt.json",
                     "--out", "scores.json"]) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "load_dataset", read)
    monkeypatch.setattr(MlpModel, "load", read)
    monkeypatch.setattr(uncertainty, "load_scores", read)
    argv, message = OVERWRITES[case]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_a_rerun_from_the_runs_own_resolved_config_is_allowed(tmp_path):
    """The config is read before the run writes over it, so a rerun into the
    same dir succeeds and writes the same bytes."""
    save_dataset(generate(GenSpec(n_total=30, minority_fraction=0.25, seed=3)), "data.csv")
    argv = ["train", "--dataset", "data.csv", "--outdir", "run", "--total-epochs", "3",
            "--warmup-epochs", "1"]
    assert cli.main(argv) == 0
    run = tmp_path / "run"
    first = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "timings.csv"}
    assert cli.main(["train", "--config", "run/config_resolved.txt"]) == 0
    assert {name: (run / name).read_bytes() for name in first} == first


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
@pytest.mark.parametrize("command", ["score", "analyze-conflicts"])
def test_a_non_finite_checkpoint_value_is_a_named_error(tmp_path, capsys, command, name, value):
    """A NaN or infinite parameter, which `json` reads and writes as a bare
    token, or an integer too large for a float, fails at load with the
    field and index, and nothing is written."""
    inputs = _score_inputs(tmp_path, n=100)
    doc = MlpModel(2, 8, seed=0).to_checkpoint()
    k = len(doc["params"][name]["data"]) - 1
    doc["params"][name]["data"][k] = value
    (tmp_path / "ckpt.json").write_text(json.dumps(doc))

    def files():
        return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

    before = files()
    out = tmp_path / "out" / "r.json"
    assert cli.main([command, "--out", str(out)] + inputs) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
        f"checkpoint params.{name}: value {value!r} at index {k} is not a finite number"
    )}
    assert files() == before


@pytest.mark.parametrize("command", ["score", "analyze-conflicts"])
def test_a_checkpoint_with_an_axis_of_size_0_is_a_named_error(tmp_path, capsys, command):
    """A model of no hidden unit would divide by zero while scoring, or give
    a conflict report of nothing: it fails at load, and nothing is
    written."""
    inputs = _score_inputs(tmp_path)
    doc = MlpModel(2, 8, seed=0).to_checkpoint()
    for name, shape in (("W1", [0, 2]), ("b1", [0]), ("W2", [1, 0])):
        doc["params"][name] = {"shape": shape, "data": []}
    (tmp_path / "ckpt.json").write_text(json.dumps(doc))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([command, "--out", str(tmp_path / "out" / "r.json")] + inputs) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
        "checkpoint params.W1: shape (0, 2) has an axis of size 0"
    )}
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["train", "score", "analyze-conflicts"])
def test_a_nan_prediction_is_a_named_error(tmp_path, capsys, command):
    """Finite parameters whose forward pass overflows to NaN fail the command
    with the first NaN row, and no checkpoint or output is written."""
    data, ckpt, out = tmp_path / "data.csv", tmp_path / "ckpt.json", tmp_path / "out"
    if command == "train":
        # one step at lr 1e200 leaves finite parameters and NaN predictions
        save_dataset(generate(GenSpec(n_total=4, minority_fraction=0.25, label_noise_rate=0.0,
                                      feature_noise_rate=0.0)), data)
        argv = ["--dataset", data, "--lr", "1e200", "--loss-kind", "ce", "--activation", "relu",
                "--batch-size", "4", "--warmup-epochs", "0", "--total-epochs", "1",
                "--scheduler", "random", "--outdir", out]
    else:
        # positive features meet W1's 1e308 as an inf hidden unit, and W2's
        # +1 and -1 sum those to inf - inf
        labels = np.array([0, 1, 0, 1])
        save_dataset(Dataset(ids=np.arange(4), X=np.ones((4, 2)), labels=labels,
                             clean_label=labels, tag=np.array(["LL", "HH"] * 2)), data)
        model = MlpModel(2, 2, activation="relu")
        model.W1[:], model.b1[:], model.W2[:], model.b2[:] = 1e308, 0.0, [1.0, -1.0], 0.0
        model.save(ckpt)
        argv = ["--dataset", data, "--checkpoint", ckpt, "--out", out / "r.json"]
    assert cli.main([command] + [str(a) for a in argv]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "prediction of row 0 is nan: the parameters overflow"
    }
    assert not (out / "checkpoint.json").exists() and not (out / "r.json").exists()


def test_an_overflow_is_reported_by_the_error_json_alone(tmp_path, capsys):
    """numpy's overflow warnings do not reach stderr ahead of the error JSON,
    which names the epoch whose mean loss is not finite."""
    data = tmp_path / "d.csv"
    assert cli.main(["gen-data", "--out", str(data)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--dataset", str(data), "--lr", "1e4", "--loss-kind", "ce",
                     "--activation", "relu", "--total-epochs", "12",
                     "--outdir", str(tmp_path / "run")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "RuntimeError", "message": (
        "non-finite mean loss nan at epoch 0; reduce lr or inspect the dataset"
    )}
