"""End-to-end tests for the training harness, comparison grid, scatter
export, and the command-line interface."""

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moscl import cli, experiment, scheduler, uncertainty
from moscl.datagen import GenSpec, generate, load_dataset, save_dataset
from moscl.experiment import METRICS_HEADER, ExperimentConfig
from moscl.model import MlpModel
from moscl.uncertainty import dump_scores, load_score_table, save_score_table

from oracles import class_recalls


@pytest.fixture(scope="module")
def small_dataset():
    return generate(
        GenSpec(
            n_total=24,
            minority_fraction=0.25,
            label_noise_rate=0.1,
            feature_noise_rate=0.05,
            seed=3,
        )
    )


def _cfg(tmp_path, **kw):
    defaults = dict(
        scheduler="mixed",
        warmup_epochs=2,
        total_epochs=6,
        seed=0,
        outdir=str(tmp_path / kw.pop("name", "run")),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- config parsing ---------------------------------------------------------


def test_config_rejects_unknown_scheduler():
    with pytest.raises(ValueError, match="scheduler"):
        ExperimentConfig(scheduler="bogus")


def test_config_rejects_warmup_not_below_total():
    with pytest.raises(ValueError, match="warmup"):
        ExperimentConfig(warmup_epochs=5, total_epochs=5)


def test_config_rejects_zero_hidden_dim():
    with pytest.raises(ValueError, match="hidden_dim"):
        ExperimentConfig(hidden_dim=0)


@pytest.mark.parametrize("ratio", [0.0, 5.0])
def test_config_rejects_ohem_ratio_before_writing(tmp_path, ratio):
    with pytest.raises(ValueError, match="ohem_ratio"):
        _cfg(tmp_path, name="ohem_bad", scheduler="ohem", ohem_ratio=ratio)
    assert not (tmp_path / "ohem_bad").exists()


BAD_CONFIG = {
    "G": (dict(G=0), "G must be >= 1"),
    "gamma": (dict(gamma=-0.1), "gamma must be >= 0"),
    "gamma_nan": (dict(gamma=math.nan), "gamma must be finite, got nan"),
    "lr_nan": (dict(lr=math.nan), "lr must be finite, got nan"),
    "sp_lambda0": (dict(sp_lambda0=0.0), "sp_lambda0 must be positive"),
    "sp_growth_inf": (dict(sp_growth=math.inf), "sp_growth must be finite, got inf"),
    # lambda = 0.5 - 0.2 * 4 < 0 at the last boundary, epoch 5
    "sp_growth_age": (
        dict(scheduler="sp_linear", sp_lambda0=0.5, sp_growth=-0.2,
             warmup_epochs=1, total_epochs=6),
        "age lambda sp_lambda0 + sp_growth * 4 must be positive "
        "at the last rescore boundary, epoch 5",
    ),
    "warmup_epochs": (dict(warmup_epochs=-1, total_epochs=0), "warmup_epochs must be >= 0"),
    "seed": (dict(seed=-1), "seed must be >= 0"),
}


@pytest.mark.parametrize("field", sorted(BAD_CONFIG))
def test_run_rejects_bad_config_field_before_writing(tmp_path, small_dataset, field):
    fields, message = BAD_CONFIG[field]
    with pytest.raises(ValueError) as info:
        experiment.run(_cfg(tmp_path, name="bad", **fields), dataset=small_dataset)
    assert str(info.value) == message
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("field", sorted(BAD_CONFIG))
def test_cli_train_rejects_bad_config_field_before_writing(
    tmp_path, small_dataset, capsys, field
):
    fields, message = BAD_CONFIG[field]
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    run_dir = tmp_path / "bad_run"
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in fields.items()]
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir)] + flags)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message}
    assert not run_dir.exists()


@pytest.mark.parametrize("field", ["activation", "loss_kind"])
def test_cli_train_rejects_unknown_model_field_before_writing(
    tmp_path, small_dataset, capsys, field
):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    run_dir = tmp_path / "bad_run"
    flag = "--" + field.replace("_", "-")
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir), flag, "bogus"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"unknown {field} 'bogus'"}
    assert not run_dir.exists()


@pytest.mark.parametrize("source, line, message", [
    ("flag", "batch_size=two", "batch_size must be int, got 'two'"),
    ("config", "batch_size=two", "batch_size must be int, got 'two'"),
    ("flag", "lr=fast", "lr must be float, got 'fast'"),
    ("config", "lr=fast", "lr must be float, got 'fast'"),
    # a config_resolved.txt of a run from before sp_regularizer was dropped
    ("config", "sp_regularizer=hard", "unknown config keys: ['sp_regularizer']"),
    # and of a run from before the model lost its softmax head
    ("config", "head=sigmoid", "unknown config keys: ['head']"),
])
def test_cli_train_rejects_bad_config_text_before_writing(
    tmp_path, small_dataset, capsys, source, line, message
):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    run_dir = tmp_path / "bad_run"
    if source == "flag":
        key, _, value = line.partition("=")
        extra = [f"--{key.replace('_', '-')}", value]
    else:
        config = tmp_path / "config.txt"
        config.write_text(f"scheduler=mixed\n{line}\n")
        extra = ["--config", str(config)]
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir)] + extra)
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not run_dir.exists()


def _with_duplicate_id(dataset):
    """The dataset with row 3 relabelled to row 5's id (5)."""
    ids = dataset.ids.copy()
    ids[3] = ids[5]
    return replace(dataset, ids=ids)


def test_run_rejects_duplicate_ids_before_writing(tmp_path, small_dataset):
    with pytest.raises(ValueError, match="duplicate id 5"):
        experiment.run(_cfg(tmp_path, name="dup"), dataset=_with_duplicate_id(small_dataset))
    assert not (tmp_path / "dup").exists()


def test_cli_train_rejects_duplicate_ids_before_writing(tmp_path, small_dataset, capsys):
    data = tmp_path / "data.csv"
    save_dataset(_with_duplicate_id(small_dataset), data, data.with_suffix(".json"))
    run_dir = tmp_path / "bad_run"
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "duplicate id 5" in err["message"]
    assert not run_dir.exists()


def _with_label(dataset, value):
    labels = dataset.labels.copy()
    labels[4] = value
    return replace(dataset, labels=labels)


def _with_nan_feature(dataset):
    X = dataset.X.copy()
    X[4, 1] = np.nan
    return replace(dataset, X=X)


BAD_DATA = {
    "label_2_sigmoid": (
        dict(), lambda ds: _with_label(ds, 2),
        "row 4 (id 4): label y=2 must be in [0, 2)",
    ),
    "label_minus_1": (
        dict(loss_kind="ce"), lambda ds: _with_label(ds, -1),
        "row 4 (id 4): label y=-1 must be",
    ),
    "nan_feature": (
        dict(), _with_nan_feature, "row 4 (id 4): feature x1 is nan; features must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_run_rejects_bad_rows_before_writing(tmp_path, small_dataset, case):
    fields, corrupt, message = BAD_DATA[case]
    with pytest.raises(ValueError) as info:
        experiment.run(_cfg(tmp_path, name="bad", **fields), dataset=corrupt(small_dataset))
    assert message in str(info.value)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_cli_train_rejects_bad_rows_before_writing(tmp_path, small_dataset, capsys, case):
    fields, corrupt, message = BAD_DATA[case]
    data = tmp_path / "data.csv"
    save_dataset(corrupt(small_dataset), data, data.with_suffix(".json"))
    run_dir = tmp_path / "bad_run"
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in fields.items()]
    rc = cli.main(["train", "--dataset", str(data), "--outdir", str(run_dir)] + flags)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ["score", "analyze-conflicts"])
@pytest.mark.parametrize("case", ["label_2", "loss_kind", "seed", "width", "softmax_head"])
def test_cli_score_and_analyze_reject_bad_input_before_writing(
    tmp_path, small_dataset, capsys, command, case
):
    data = tmp_path / "data.csv"
    ds = _with_label(small_dataset, 2) if case == "label_2" else small_dataset
    save_dataset(ds, data, data.with_suffix(".json"))
    ckpt = tmp_path / "ckpt.json"
    # the dataset has 2 features per row
    MlpModel(3 if case == "width" else 2, 8, seed=0).save(ckpt)
    if case == "softmax_head":
        doc = json.loads(ckpt.read_text())
        doc["head"] = "softmax"
        doc["params"].update(W2={"shape": [2, 8], "data": [0.1] * 16},
                             b2={"shape": [2], "data": [0.0, 0.0]})
        ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--dataset", str(data), "--checkpoint", str(ckpt),
            "--out", str(out / "result.json")]
    if command == "analyze-conflicts":
        argv += ["--pairs-csv", str(out / "pairs.csv")]
    if case == "loss_kind":
        argv += ["--loss-kind", "bogus"]
    if case == "seed":
        argv += ["--seed", "-1"]
    rc = cli.main(argv)
    assert rc == 1
    message = {
        "label_2": "row 4 (id 4): label y=2 must be in [0, 2)",
        "loss_kind": "unknown loss_kind 'bogus'",
        "seed": "seed must be >= 0",
        "width": "checkpoint takes 3 input features, dataset has 2",
        "softmax_head": "checkpoint head: unknown 'softmax'",
    }[case]
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_compare_reports_the_error_of_each_failed_cell(tmp_path, small_dataset):
    base = _cfg(tmp_path, name="cmp", scheduler="random")
    configs = [base, replace(base, scheduler="mixed")]
    summary = experiment.compare(configs, [0, 1], dataset=_with_duplicate_id(small_dataset))
    message = "ValueError: duplicate id 5: sample ids must be unique"
    for stats in summary["configs"].values():
        assert stats["failed_seeds"] == [0, 1]
        assert stats["errors"] == {"0": message, "1": message}
    assert not (tmp_path / "cmp").exists()


def test_compare_records_a_negative_seed_as_its_cells_error(tmp_path, small_dataset):
    base = _cfg(tmp_path, name="cmp", total_epochs=3)
    configs = [base, replace(base, scheduler="random")]
    summary = experiment.compare(configs, [0, -1], dataset=small_dataset)
    for stats in summary["configs"].values():
        assert stats["failed_seeds"] == [-1]
        assert stats["errors"] == {"-1": "ValueError: seed must be >= 0"}
    assert sorted(p.name for p in (tmp_path / "cmp").iterdir()) == [
        "mixed_seed0", "random_seed0"
    ]


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("present", [0, 1])
def test_a_dataset_with_one_class_fails_before_any_run_dir(tmp_path, capsys, present):
    """Training needs a row of each class, or every recall of the missing one
    is 0 / 0: `train` exits 1 naming the labels and writes nothing, and each
    `compare` cell records the error, so comparison.json stays valid JSON."""
    dataset = generate(GenSpec(n_total=40, minority_fraction=0, label_noise_rate=0))
    dataset = replace(dataset, labels=np.full(len(dataset), present, dtype=np.int64))
    data = tmp_path / "data.csv"
    save_dataset(dataset, data)
    message = f"labels hold no row of class {1 - present}; training needs both classes"
    assert cli.main(["train", "--dataset", str(data), "--outdir", "run"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "run").exists()
    argv = ["compare", "--dataset", str(data), "--schedulers", "random,mixed", "--seeds", "0,1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    summary = _strict_json((tmp_path / "compare" / "comparison.json").read_text())
    for stats in summary["configs"].values():
        assert stats["failed_seeds"] == [0, 1]
        assert stats["errors"] == {"0": f"ValueError: {message}", "1": f"ValueError: {message}"}
        assert stats["minority_recall_mean"] is None
    assert [p.name for p in (tmp_path / "compare").iterdir()] == ["comparison.json"]


# any numpy warning would be an error: the run's own RuntimeError is its
# only report of the inf loss
@pytest.mark.filterwarnings("error")
def test_final_metrics_names_a_metrics_file_without_epoch_rows(tmp_path):
    # lr=1e4 with ce saturates the sigmoid: the mean loss is inf at epoch 0
    dataset = generate(GenSpec(n_total=60))
    cfg = _cfg(tmp_path, name="diverged", lr=1e4, loss_kind="ce")
    with pytest.raises(RuntimeError, match="non-finite mean loss inf at epoch 0"):
        experiment.run(cfg, dataset=dataset)
    run_dir = tmp_path / "diverged"
    assert (run_dir / "metrics.csv").read_text().splitlines() == [",".join(METRICS_HEADER)]
    with pytest.raises(ValueError) as info:
        experiment.final_metrics(run_dir)
    assert str(info.value) == (
        f"{run_dir} has no checkpoint.json: its run failed or did not finish"
    )


@pytest.mark.filterwarnings("error")
def test_a_diverging_library_run_fails_on_its_own_check_alone(tmp_path):
    """numpy's overflow warnings from the shared SGD step do not escape a
    library call, so under warnings-as-errors a `compare` of diverging cells
    returns each cell's named error, and `run` of one raises it."""
    dataset = generate(GenSpec())
    base = _cfg(tmp_path, name="cmp", lr=1e4, loss_kind="ce", activation="relu")
    message = "non-finite mean loss nan at epoch 0; reduce lr or inspect the dataset"
    summary = experiment.compare([base, replace(base, scheduler="random")], [0, 1],
                                 dataset=dataset)
    for stats in summary["configs"].values():
        assert stats["errors"] == {"0": f"RuntimeError: {message}", "1": f"RuntimeError: {message}"}
    with pytest.raises(RuntimeError) as info:
        experiment.run(replace(base, outdir=str(tmp_path / "solo")), dataset=dataset)
    assert str(info.value) == message


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        experiment.from_strings(ExperimentConfig, {"scheduler": "mixed", "typo_key": "1"})


def test_config_from_file_casts_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\nscheduler = anti_mixed\nlr = 0.05\ntotal_epochs = 20\n"
    )
    cfg = ExperimentConfig.from_file(path, lr="0.25", seed=7)
    assert cfg.scheduler == "anti_mixed"
    assert cfg.lr == 0.25 and isinstance(cfg.lr, float)
    assert cfg.total_epochs == 20 and isinstance(cfg.total_epochs, int)
    assert cfg.seed == 7


def test_write_resolved_round_trips(tmp_path):
    cfg = _cfg(tmp_path, scheduler="ohem", lr=0.2)
    path = tmp_path / "resolved.txt"
    cfg.write_resolved(path)
    again = ExperimentConfig.from_file(path)
    assert again == cfg


# --- run artifacts ----------------------------------------------------------


def _read_metrics(run_dir):
    with open(Path(run_dir) / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_expected_artifacts(tmp_path, small_dataset):
    cfg = _cfg(tmp_path, name="artifacts")
    run_dir = experiment.run(cfg, dataset=small_dataset)
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "timings.csv").exists()
    assert (run_dir / "config_resolved.txt").exists()
    assert (run_dir / "checkpoint.json").exists()
    rows = _read_metrics(run_dir)
    assert len(rows) == cfg.total_epochs
    assert list(rows[0]) == METRICS_HEADER
    # scores are kept starting at the first post-warmup boundary
    table = load_score_table(run_dir / "scores.npz")
    assert table["epochs"].tolist() == list(range(cfg.warmup_epochs, cfg.total_epochs))
    assert table["ids"].tolist() == small_dataset.ids.tolist()
    n = (cfg.total_epochs - cfg.warmup_epochs, len(small_dataset))
    assert table["loss"].shape == table["uncertainty"].shape == n
    assert not list(run_dir.glob("scores_epoch*.json"))
    with open(run_dir / "timings.csv", newline="") as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == cfg.total_epochs
    assert all(float(r["wall_time_s"]) >= 0 for r in trows)


def test_metrics_values_are_sane(tmp_path, small_dataset):
    run_dir = experiment.run(_cfg(tmp_path, name="sane"), dataset=small_dataset)
    for row in _read_metrics(run_dir):
        assert np.isfinite(float(row["mean_loss"]))
        for key in ("recall_class0", "recall_class1", "minority_recall"):
            assert 0.0 <= float(row[key]) <= 1.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_recalls_are_the_per_class_masked_mean_bit_for_bit(data):
    """`_Run._recalls` against the per-class masked mean, over label vectors
    with both classes, equal class counts forced in some."""
    n = data.draw(st.integers(2, 3000), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="tie"):
        n -= n % 2
        labels = rng.permutation(np.repeat(np.array([0, 1], dtype=np.int64), n // 2))
    else:
        labels = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
    # probabilities at 0.5 exactly, the threshold, included
    probs = np.where(rng.random(n) < 0.1, 0.5, rng.random(n))
    run = SimpleNamespace(
        model=SimpleNamespace(forward_batch=lambda X: probs[:, None]),
        X=None, labels=labels, counts=np.bincount(labels, minlength=2),
    )
    got = experiment._Run._recalls(run)
    want = class_recalls((probs > 0.5).astype(np.int64), labels)
    assert [float.hex(r) for r in got] == [float.hex(r) for r in want]


MAJORITY_1 = GenSpec(n_total=100, minority_fraction=0.7, label_noise_rate=0, seed=1)


@pytest.mark.parametrize("spec,via_csv,minority", [
    (MAJORITY_1, False, 0),
    (MAJORITY_1, True, 0),
    (replace(MAJORITY_1, minority_fraction=0.5), False, 1),
], ids=["class1-larger", "class1-larger-csv", "tie"])
def test_minority_recall_is_the_recall_of_the_rarer_class(tmp_path, spec, via_csv, minority):
    """The minority is the class with fewer rows, class 1 on a tie, however
    the dataset was made."""
    dataset = generate(spec)
    if via_csv:
        save_dataset(dataset, tmp_path / "data.csv")
        dataset = load_dataset(tmp_path / "data.csv")
    counts = np.bincount(dataset.labels).tolist()
    assert counts == ([50, 50] if minority else [30, 70])
    run_dir = experiment.run(_cfg(tmp_path, scheduler="random"), dataset=dataset)
    rows = _read_metrics(run_dir)
    assert all(r["minority_recall"] == r[f"recall_class{minority}"] for r in rows)
    # the two recalls differ, so the rows tell the classes apart
    assert any(r["recall_class0"] != r["recall_class1"] for r in rows)


def test_run_is_byte_deterministic(tmp_path, small_dataset):
    first = experiment.run(_cfg(tmp_path, name="det_a"), dataset=small_dataset)
    second = experiment.run(_cfg(tmp_path, name="det_b"), dataset=small_dataset)
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
    assert (first / "scores.npz").read_bytes() == (second / "scores.npz").read_bytes()


def test_rerun_into_used_dir_leaves_no_stale_scores(tmp_path, small_dataset):
    mixed = experiment.run(_cfg(tmp_path, name="reused"), dataset=small_dataset)
    assert (mixed / "scores.npz").exists()
    again = experiment.run(
        _cfg(tmp_path, name="reused", scheduler="random"), dataset=small_dataset
    )
    assert again == mixed
    assert not (again / "scores.npz").exists()
    assert (again / "metrics.csv").exists() and (again / "checkpoint.json").exists()
    # a rerun that fails writes no checkpoint, and leaves none from before
    # beside its own config_resolved.txt
    with pytest.raises(RuntimeError, match="non-finite mean loss"):
        experiment.run(
            _cfg(tmp_path, name="reused", lr=1e4, loss_kind="ce"), dataset=small_dataset
        )
    assert not (again / "checkpoint.json").exists()
    with pytest.raises(ValueError, match="has no checkpoint.json"):
        experiment.final_metrics(again)


def test_warmup_epochs_match_random_baseline(tmp_path, small_dataset):
    """Before the first rescore boundary every scheduler trains exactly like
    the random baseline with the same seed."""
    mixed = experiment.run(
        _cfg(tmp_path, name="warm_mixed", warmup_epochs=3, total_epochs=5),
        dataset=small_dataset,
    )
    rand = experiment.run(
        _cfg(
            tmp_path,
            name="warm_rand",
            scheduler="random",
            warmup_epochs=3,
            total_epochs=5,
        ),
        dataset=small_dataset,
    )
    m_rows, r_rows = _read_metrics(mixed), _read_metrics(rand)
    for e in range(3):
        assert m_rows[e]["mean_loss"] == r_rows[e]["mean_loss"]
    assert m_rows[3]["mean_loss"] != r_rows[3]["mean_loss"]


def test_mixed_spread_not_above_anti_mixed(tmp_path, small_dataset):
    """At the first boundary both variants score the identical warmed-up
    model, so the mixed plan's batch difficulty spread must not exceed the
    anti-mixed plan's."""
    spreads = {}
    for sched in ("mixed", "anti_mixed"):
        run_dir = experiment.run(
            _cfg(tmp_path, name=f"spread_{sched}", scheduler=sched, total_epochs=3),
            dataset=small_dataset,
        )
        rows = _read_metrics(run_dir)
        spreads[sched] = float(rows[2]["d_sum_spread"])
    assert spreads["mixed"] <= spreads["anti_mixed"]


def test_sp_with_huge_lambda_matches_random(tmp_path, small_dataset):
    """A hard self-paced threshold above every loss keeps all weights at 1,
    so training is identical to the random baseline."""
    sp = experiment.run(
        _cfg(tmp_path, name="sp_huge", scheduler="sp_hard", sp_lambda0=1e9),
        dataset=small_dataset,
    )
    rand = experiment.run(
        _cfg(tmp_path, name="sp_rand", scheduler="random"), dataset=small_dataset
    )
    assert [r["mean_loss"] for r in _read_metrics(sp)] == [
        r["mean_loss"] for r in _read_metrics(rand)
    ]


def test_sp_age_lambda_grows_linearly_from_the_first_rescore_boundary(
    tmp_path, small_dataset, monkeypatch
):
    """At each rescore boundary an sp_* run weights its losses under the age
    lambda sp_lambda0 + sp_growth * (epochs since warmup)."""
    seen = []
    real = scheduler.sp_weight

    def sp_weight(l, lam, hard):
        seen.append((lam, hard))
        return real(l, lam, hard)

    monkeypatch.setattr(scheduler, "sp_weight", sp_weight)
    for name in ("sp_linear", "sp_hard"):
        experiment.run(
            _cfg(tmp_path, name=name, scheduler=name, total_epochs=13, rescore_every=2,
                 sp_lambda0=0.1, sp_growth=0.05),
            dataset=small_dataset,
        )
    since = range(0, 11, 2)
    assert seen == [(0.1 + 0.05 * k, False) for k in since] + [
        (0.1 + 0.05 * k, True) for k in since
    ]
    assert [lam for lam, _ in seen[:6]] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


def test_ohem_run_completes_and_duplicates(tmp_path, small_dataset):
    run_dir = experiment.run(
        _cfg(tmp_path, name="ohem", scheduler="ohem", ohem_ratio=0.25),
        dataset=small_dataset,
    )
    rows = _read_metrics(run_dir)
    assert len(rows) == 6
    # ohem never produces difficulty ranks, so spread stays empty
    assert all(r["d_sum_spread"] == "" for r in rows)


def test_uncertainty_column_only_when_scored(tmp_path, small_dataset):
    loss_only = experiment.run(
        _cfg(tmp_path, name="u_loss", difficulty_source="loss"),
        dataset=small_dataset,
    )
    both = experiment.run(
        _cfg(tmp_path, name="u_both", difficulty_source="both"),
        dataset=small_dataset,
    )
    assert all(r["mean_uncertainty"] == "" for r in _read_metrics(loss_only))
    post = _read_metrics(both)[2:]
    assert all(r["mean_uncertainty"] != "" for r in post)


# --- compare ----------------------------------------------------------------


def test_compare_summary_structure(tmp_path, small_dataset):
    base = _cfg(tmp_path, name="cmp", scheduler="random", total_epochs=4)
    configs = [base, replace(base, scheduler="mixed")]
    summary = experiment.compare(configs, seeds=[0, 1], dataset=small_dataset)
    assert summary["seeds"] == [0, 1]
    assert set(summary["configs"]) == {"random", "mixed"}
    for stats in summary["configs"].values():
        assert 0.0 <= stats["minority_recall_mean"] <= 1.0
        assert stats["failed_seeds"] == []
        assert stats["errors"] == {}
        assert set(stats["per_seed_minority_recall"]) == {"0", "1"}
    assert set(summary["wins_vs_baseline"]) == {"mixed"}
    assert 0 <= summary["wins_vs_baseline"]["mixed"] <= 2


def test_compare_needs_two_configs(tmp_path):
    with pytest.raises(ValueError, match="at least 2"):
        experiment.compare([_cfg(tmp_path)], seeds=[0])


@pytest.mark.parametrize("schedulers, seeds, message", [
    (["mixed", "mixed"], [0, 1], "duplicate labels: ['mixed']"),
    (["random", "mixed"], [0, 1, 0], "duplicate seeds: [0]"),
    (["random", "mixed"], [], "compare needs at least 1 seed"),
])
def test_compare_rejects_duplicate_labels_and_seeds_before_writing(
    tmp_path, small_dataset, schedulers, seeds, message
):
    configs = [
        _cfg(tmp_path, name="cmp", scheduler=s, lr=0.1 + 0.4 * k)
        for k, s in enumerate(schedulers)
    ]
    with pytest.raises(ValueError) as info:
        experiment.compare(configs, seeds, dataset=small_dataset)
    assert str(info.value) == message
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("labels, message", [
    (["random", "mixed"], "2 labels for 3 configs; want one per config"),
    (["random", "mixed", "ohem", "extra"], "4 labels for 3 configs; want one per config"),
])
def test_compare_rejects_labels_not_one_per_config_before_writing(
    tmp_path, small_dataset, labels, message
):
    configs = [_cfg(tmp_path, name="cmp", scheduler=s) for s in ("random", "mixed", "ohem")]
    with pytest.raises(ValueError) as info:
        experiment.compare(configs, [0], dataset=small_dataset, labels=labels)
    assert str(info.value) == message
    assert not (tmp_path / "cmp").exists()


# --- scatter export ---------------------------------------------------------


def _run_with_scores(tmp_path, dataset, name):
    """A mixed run's score table and its first scored epoch."""
    run_dir = experiment.run(_cfg(tmp_path, name=name), dataset=dataset)
    table = run_dir / "scores.npz"
    return table, int(load_score_table(table)["epochs"][0])


def test_export_scatter_value_round_trips(tmp_path, small_dataset):
    scores, epoch = _run_with_scores(tmp_path, small_dataset, "scatter_v")
    out = tmp_path / "scatter_value.csv"
    experiment.export_scatter(scores, out, mode="value", epoch=epoch)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = load_score_table(scores)
    by_id = np.argsort(table["ids"], kind="stable")
    assert len(rows) == len(by_id)
    for row, loss, u in zip(rows, table["loss"][0, by_id], table["uncertainty"][0, by_id]):
        assert float(row["loss"]) == loss
        assert float(row["uncertainty"]) == u


def test_export_scatter_index_is_permutation(tmp_path, small_dataset):
    scores, epoch = _run_with_scores(tmp_path, small_dataset, "scatter_i")
    out = tmp_path / "scatter_index.csv"
    experiment.export_scatter(scores, out, mode="index", epoch=epoch)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = len(rows)
    for col in ("loss", "uncertainty"):
        assert sorted(int(r[col]) for r in rows) == list(range(n))


def test_export_scatter_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        experiment.export_scatter(tmp_path / "x.json", tmp_path / "y.csv", mode="blob")


def test_export_scatter_picks_its_row_by_one_rule(tmp_path, capsys):
    """--epoch names the row to export and may be left out when the file
    holds one row; a score JSON holds one, at epoch 0.  Any other epoch, or
    none on a table of several rows, is one error, and nothing is written."""
    ids, losses, us = [5, 2, 9], [[0.5, 0.25, 1.0], [0.1, 0.2, 0.3]], [[0.3, 0.2, 0.1]] * 2
    save_score_table(tmp_path / "one.npz", ids, [7], losses[:1], us[:1])
    save_score_table(tmp_path / "two.npz", ids, [7, 8], losses, us)
    dump_scores(tmp_path / "s.json", ids, losses[0], us[0])
    out = tmp_path / "out"

    def export(scores, csv_name, *epoch):
        return cli.main(["export-scatter", "--scores", str(tmp_path / scores),
                         "--out", str(out / csv_name), *epoch])

    for scores, epoch in (("one.npz", []), ("one.npz", ["--epoch", "7"]),
                          ("two.npz", ["--epoch", "7"]), ("s.json", []),
                          ("s.json", ["--epoch", "0"])):
        assert export(scores, "row.csv", *epoch) == 0
        assert (out / "row.csv").read_text() == "loss,uncertainty\n0.25,0.2\n0.5,0.3\n1.0,0.1\n"
        (out / "row.csv").unlink()
    capsys.readouterr()
    for scores, epoch, held in (("s.json", ["--epoch", "5"], [0]), ("two.npz", [], [7, 8]),
                                ("two.npz", ["--epoch", "0"], [7, 8]),
                                ("one.npz", ["--epoch", "0"], [7])):
        assert export(scores, "bad.csv", *epoch) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": (
            f"{tmp_path / scores} holds the epochs {held}: give one of them as the epoch"
        )}
    assert not any(out.iterdir())


MALFORMED_RECORDS = "{path} is not an array of {{sample_id, loss, uncertainty}} records"


@pytest.mark.parametrize("doc, message", [
    ([{"sample_id": 1, "loss": 0.5}], MALFORMED_RECORDS),
    ({"a": 1}, MALFORMED_RECORDS),
    ([1], MALFORMED_RECORDS),
    (None, MALFORMED_RECORDS),
    # `moscl score` writes no uncertainty as null
    ([{"sample_id": 1, "loss": 0.5, "uncertainty": None}],
     "scores file has no uncertainty column to export"),
    # no command writes an empty score file
    ([], "{path} holds no sample"),
], ids=["no-uncertainty-key", "object", "number-record", "null", "null-uncertainty", "empty"])
def test_export_scatter_names_a_malformed_score_json(tmp_path, capsys, doc, message):
    scores = tmp_path / "s.json"
    scores.write_text(json.dumps(doc))
    assert cli.main(["export-scatter", "--scores", str(scores), "--out", "out/x.csv"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": message.format(path=scores),
    }
    assert not (tmp_path / "out").exists()


def test_export_scatter_refuses_a_score_table_with_no_sample(tmp_path, capsys):
    scores = tmp_path / "e.npz"
    save_score_table(scores, np.empty(0, np.int64), [0], np.empty((1, 0)), np.empty((1, 0)))
    assert cli.main(["export-scatter", "--scores", str(scores), "--out", "out/x.csv"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{scores} holds no sample",
    }
    assert not (tmp_path / "out").exists()


FINITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# ranks need finite scores, so only value mode exports the others
SCORE_FLOATS = {
    "value": st.one_of(FINITE_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan])),
    "index": FINITE_FLOATS,
}


@pytest.mark.parametrize("mode", ["value", "index"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_export_matches_export_of_its_json_row(tmp_path_factory, mode, data):
    n = data.draw(st.integers(1, 20), label="n")
    epochs = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
    # sparse ids in shuffled row order
    ids = data.draw(st.randoms(use_true_random=False)).sample(range(10**6), n)
    cells = st.lists(SCORE_FLOATS[mode], min_size=len(epochs) * n, max_size=len(epochs) * n)
    losses = np.array(data.draw(cells)).reshape(len(epochs), n)
    us = np.array(data.draw(cells)).reshape(len(epochs), n)
    k = data.draw(st.integers(0, len(epochs) - 1), label="row")
    work = tmp_path_factory.mktemp("export")
    save_score_table(work / "scores.npz", ids, epochs, losses, us)
    save_score_table(work / "row.npz", ids, epochs[k : k + 1], losses[k : k + 1], us[k : k + 1])
    dump_scores(work / "row.json", ids, losses[k], us[k])
    experiment.export_scatter(work / "scores.npz", work / "table.csv", mode, epoch=epochs[k])
    experiment.export_scatter(work / "row.npz", work / "row.csv", mode)
    experiment.export_scatter(work / "row.json", work / "json.csv", mode)
    assert (work / "table.csv").read_bytes() == (work / "json.csv").read_bytes()
    assert (work / "row.csv").read_bytes() == (work / "json.csv").read_bytes()


def test_failed_cell_keeps_the_scores_of_the_epochs_before_its_error(
    tmp_path, small_dataset, monkeypatch
):
    clean = load_score_table(
        experiment.run(_cfg(tmp_path, name="clean", seed=1), dataset=small_dataset)
        / "scores.npz"
    )
    real = uncertainty.batch_score_uncertainty

    def batch_score_uncertainty(model, X, sample_ids, G, gamma, seed, epoch=0):
        if seed == 1 and epoch == 4:
            raise ValueError("planned failure")
        return real(model, X, sample_ids, G, gamma, seed, epoch)

    monkeypatch.setattr(uncertainty, "batch_score_uncertainty", batch_score_uncertainty)
    base = _cfg(tmp_path, name="cmp")
    summary = experiment.compare([base, replace(base, scheduler="anti_mixed")], [0, 1],
                                 dataset=small_dataset, labels=["mixed", "anti"])
    assert summary["configs"]["mixed"]["errors"] == {"1": "ValueError: planned failure"}
    failed = load_score_table(tmp_path / "cmp" / "mixed_seed1" / "scores.npz")
    assert failed["epochs"].tolist() == [2, 3]
    assert np.array_equal(failed["ids"], clean["ids"])
    for name in ("loss", "uncertainty"):
        assert np.array_equal(failed[name], clean[name][:2])
    kept = load_score_table(tmp_path / "cmp" / "mixed_seed0" / "scores.npz")
    assert kept["epochs"].tolist() == [2, 3, 4, 5]
    # its metrics.csv ends at epoch 3, but only a finished run is read
    assert _read_metrics(tmp_path / "cmp" / "mixed_seed1")[-1]["epoch"] == "3"
    with pytest.raises(ValueError) as info:
        experiment.final_metrics(tmp_path / "cmp" / "mixed_seed1")
    assert str(info.value) == (
        f"{tmp_path / 'cmp' / 'mixed_seed1'} has no checkpoint.json: "
        "its run failed or did not finish"
    )
    # the anti_mixed cell of seed 1 scores uncertainty too, so it fails alike
    for label, stats in summary["configs"].items():
        assert stats["failed_seeds"] == [1]
        assert (tmp_path / "cmp" / f"{label}_seed0" / "checkpoint.json").exists()


def test_a_failed_checkpoint_save_leaves_a_run_that_final_metrics_refuses(
    tmp_path, small_dataset, monkeypatch
):
    """The checkpoint is saved after the logs, so a save that raises is the
    run's error and leaves every epoch row but no checkpoint."""
    real = MlpModel.save

    def save(model, path):
        if "seed1" in str(path) or "solo" in str(path):
            raise OSError("disk full")
        real(model, path)

    monkeypatch.setattr(MlpModel, "save", save)
    base = _cfg(tmp_path, name="cmp")
    summary = experiment.compare([base, replace(base, scheduler="random")], [0, 1],
                                 dataset=small_dataset)
    with pytest.raises(OSError, match="disk full"):
        experiment.run(_cfg(tmp_path, name="solo"), dataset=small_dataset)
    for label in ("mixed", "random"):
        assert summary["configs"][label]["errors"] == {"1": "OSError: disk full"}
        assert (tmp_path / "cmp" / f"{label}_seed0" / "checkpoint.json").exists()
    for run_dir in (tmp_path / "cmp" / "mixed_seed1", tmp_path / "cmp" / "random_seed1",
                    tmp_path / "solo"):
        assert [r["epoch"] for r in _read_metrics(run_dir)] == [str(e) for e in range(6)]
        assert not (run_dir / "checkpoint.json").exists()
        with pytest.raises(ValueError) as info:
            experiment.final_metrics(run_dir)
        assert str(info.value).startswith(f"{run_dir} has no checkpoint.json")


# --- CLI --------------------------------------------------------------------


def test_cli_full_pipeline(tmp_path):
    data = tmp_path / "data.csv"
    assert (
        cli.main(
            [
                "gen-data",
                "--out",
                str(data),
                "--n-total",
                "24",
                "--minority-fraction",
                "0.25",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    assert data.exists() and data.with_suffix(".json").exists()

    run_out = tmp_path / "cli_run"
    assert (
        cli.main(
            [
                "train",
                "--dataset",
                str(data),
                "--scheduler",
                "mixed",
                "--warmup-epochs",
                "2",
                "--total-epochs",
                "5",
                "--outdir",
                str(run_out),
            ]
        )
        == 0
    )
    assert (run_out / "metrics.csv").exists()

    scores = tmp_path / "scores.json"
    assert (
        cli.main(
            [
                "score",
                "--dataset",
                str(data),
                "--checkpoint",
                str(run_out / "checkpoint.json"),
                "--out",
                str(scores),
                "--difficulty-csv",
                str(tmp_path / "difficulty.csv"),
            ]
        )
        == 0
    )
    assert scores.exists() and (tmp_path / "difficulty.csv").exists()
    assert not scores.with_suffix(".csv").exists()

    scatter = tmp_path / "scatter.csv"
    assert (
        cli.main(
            ["export-scatter", "--scores", str(scores), "--out", str(scatter)]
        )
        == 0
    )
    assert scatter.exists()

    report = tmp_path / "conflicts.json"
    assert (
        cli.main(
            [
                "analyze-conflicts",
                "--dataset",
                str(data),
                "--checkpoint",
                str(run_out / "checkpoint.json"),
                "--out",
                str(report),
            ]
        )
        == 0
    )
    with open(report) as fh:
        payload = json.load(fh)
    assert "spearman_rho" in payload
    assert payload["n_pairs"] == len(np.load(report.with_suffix(".npy"), allow_pickle=False))


def test_cli_score_rejects_bad_checkpoint(tmp_path, small_dataset, capsys):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    ckpt = tmp_path / "ckpt.json"
    doc = MlpModel(2, 8, seed=0).to_checkpoint()
    del doc["params"]["W1"]
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "scores.json"
    rc = cli.main(["score", "--dataset", str(data), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "checkpoint is missing params.W1"}
    assert not out.exists()


def test_cli_score_rejects_a_negative_seed(tmp_path, small_dataset, capsys):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    ckpt = tmp_path / "ckpt.json"
    MlpModel(2, 8, seed=0).save(ckpt)
    out = tmp_path / "out" / "scores.json"
    argv = ["score", "--dataset", str(data), "--checkpoint", str(ckpt), "--out", str(out)]
    assert cli.main(argv + ["--seed", "-1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "seed must be >= 0"}
    assert not out.parent.exists()
    assert cli.main(argv + ["--seed", "0"]) == 0
    assert [p.name for p in out.parent.iterdir()] == ["scores.json"]


def test_a_run_whose_logs_fail_saves_no_checkpoint(tmp_path, small_dataset, monkeypatch):
    """The checkpoint comes after the logs: a run whose score table cannot
    be written leaves none, so `final_metrics` refuses its dir."""
    def save_score_table(*args):
        raise OSError("disk full")

    monkeypatch.setattr(uncertainty, "save_score_table", save_score_table)
    with pytest.raises(OSError, match="disk full"):
        experiment.run(_cfg(tmp_path, name="logs"), dataset=small_dataset)
    assert not (tmp_path / "logs" / "checkpoint.json").exists()


def test_run_dirs_resolve_against_the_working_directory(
    tmp_path, small_dataset, capsys, monkeypatch
):
    """A relative --outdir of train and compare, comparison.json included,
    lands under the working directory; an absolute one is kept as given,
    and an empty one is the default, run or compare."""
    data, work, elsewhere = tmp_path / "data.csv", tmp_path / "work", tmp_path / "elsewhere"
    save_dataset(small_dataset, data)
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["--dataset", str(data), "--warmup-epochs", "1", "--total-epochs", "2"]
    for given, default, at in (("rel/out", None, work / "rel" / "out"),
                               (str(elsewhere / "out"), None, elsewhere / "out"),
                               ("", "run", work / "run")):
        assert cli.main(["train", "--outdir", given] + argv) == 0
        assert capsys.readouterr().out == f"{given or default}\n"
        assert (at / "checkpoint.json").exists()
    for given, at in (("rel/cmp", work / "rel" / "cmp"),
                      (str(elsewhere / "cmp"), elsewhere / "cmp"), ("", work / "compare")):
        assert cli.main(["compare", "--outdir", given, "--seeds", "0"] + argv) == 0
        capsys.readouterr()
        assert sorted(p.name for p in at.iterdir()) == [
            "comparison.json", "mixed_seed0", "random_seed0"
        ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "elsewhere", "work"]
    assert sorted(p.name for p in work.iterdir()) == ["compare", "rel", "run"]


def test_cli_compare_writes_summary(tmp_path, capsys):
    data = tmp_path / "data.csv"
    cli.main(["gen-data", "--out", str(data), "--n-total", "16",
              "--minority-fraction", "0.25", "--seed", "1"])
    capsys.readouterr()
    rc = cli.main(
        [
            "compare",
            "--dataset",
            str(data),
            "--schedulers",
            "random,mixed",
            "--seeds",
            "0,1",
            "--warmup-epochs",
            "2",
            "--total-epochs",
            "4",
            "--outdir",
            "cmp",
        ]
    )
    assert rc == 0
    with open(tmp_path / "cmp" / "comparison.json") as fh:
        summary = json.load(fh)
    assert set(summary["configs"]) == {"random", "mixed"}
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"random", "mixed"}


@pytest.mark.parametrize("schedulers, seeds, message", [
    ("mixed,mixed", "0,1", "duplicate labels: ['mixed']"),
    ("random,mixed", "0,0", "duplicate seeds: [0]"),
    ("random,mixed", "0,x", "--seeds must be comma-separated integers, got '0,x'"),
    ("random,mixed", "", "--seeds must be comma-separated integers, got ''"),
])
def test_cli_compare_rejects_duplicates_before_writing(
    tmp_path, small_dataset, capsys, schedulers, seeds, message
):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    rc = cli.main(["compare", "--dataset", str(data), "--schedulers", schedulers,
                   "--seeds", seeds, "--outdir", str(tmp_path / "cmp")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "cmp").exists()


def test_cli_compare_reports_labels_not_one_per_config_before_writing(
    tmp_path, small_dataset, capsys, monkeypatch
):
    """The CLI labels each config by its scheduler; a label list that loses
    one on the way fails through the CLI's error contract, writing nothing."""
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    real = experiment.compare
    monkeypatch.setattr(
        experiment, "compare",
        lambda configs, seeds, labels: real(configs, seeds, labels=labels[:-1]),
    )
    rc = cli.main(["compare", "--dataset", str(data), "--schedulers", "random,mixed,ohem",
                   "--seeds", "0", "--outdir", str(tmp_path / "cmp")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "2 labels for 3 configs; want one per config",
    }
    assert not (tmp_path / "cmp").exists()


def test_cli_conflict_report_names_the_checkpoint_by_its_bytes(tmp_path, small_dataset):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    ckpt = tmp_path / "ckpt.json"
    MlpModel(2, 8, seed=0).save(ckpt)
    reports = []
    for name, path in (("abs", str(ckpt)), ("rel", "ckpt.json")):
        out = tmp_path / f"{name}.json"
        argv = ["analyze-conflicts", "--dataset", str(data), "--checkpoint", path,
                "--out", str(out)]
        assert cli.main(argv) == 0
        reports.append((out.read_bytes(), out.with_suffix(".npy").read_bytes()))
    assert reports[0] == reports[1]
    tag = json.loads(reports[0][0])["model_tag"]
    assert tag == hashlib.sha256(ckpt.read_bytes()).hexdigest()


def test_cli_errors_emit_json_and_nonzero(tmp_path, capsys):
    rc = cli.main(
        ["train", "--dataset", str(tmp_path / "missing.csv"), "--scheduler", "nope"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert "scheduler" in payload["message"]
