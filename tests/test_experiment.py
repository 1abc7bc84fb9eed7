"""End-to-end tests for the training harness, comparison grid, scatter
export, and the command-line interface."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moscl import cli, experiment
from moscl.datagen import GenSpec, generate, save_dataset
from moscl.experiment import METRICS_HEADER, ExperimentConfig
from moscl.model import MlpModel


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


@pytest.mark.parametrize("field", ["activation", "head", "loss_kind"])
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
        dict(head="sigmoid"), lambda ds: _with_label(ds, 2),
        "row 4 (id 4): label y=2 must be in [0, 2)",
    ),
    "label_minus_1_softmax": (
        dict(head="softmax", loss_kind="ce"), lambda ds: _with_label(ds, -1),
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


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_strings({"scheduler": "mixed", "typo_key": "1"})


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
    # scores are dumped starting at the first post-warmup boundary
    for epoch in range(cfg.warmup_epochs, cfg.total_epochs):
        assert (run_dir / f"scores_epoch{epoch}.json").exists()
    assert not (run_dir / "scores_epoch0.json").exists()
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


def test_run_is_byte_deterministic(tmp_path, small_dataset):
    first = experiment.run(_cfg(tmp_path, name="det_a"), dataset=small_dataset)
    second = experiment.run(_cfg(tmp_path, name="det_b"), dataset=small_dataset)
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
    for score in sorted(first.glob("scores_epoch*.json")):
        assert score.read_bytes() == (second / score.name).read_bytes()


def test_rerun_into_used_dir_leaves_no_stale_scores(tmp_path, small_dataset):
    mixed = experiment.run(_cfg(tmp_path, name="reused"), dataset=small_dataset)
    assert list(mixed.glob("scores_epoch*.json"))
    again = experiment.run(
        _cfg(tmp_path, name="reused", scheduler="random"), dataset=small_dataset
    )
    assert again == mixed
    assert not list(again.glob("scores_epoch*.json"))
    assert (again / "metrics.csv").exists() and (again / "checkpoint.json").exists()


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


def test_resolve_outdir_env_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("MOSCL_OUTPUT_ROOT", str(tmp_path))
    assert experiment.resolve_outdir("foo") == tmp_path / "foo"
    absolute = tmp_path / "abs"
    assert experiment.resolve_outdir(str(absolute)) == absolute


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


# --- scatter export ---------------------------------------------------------


def _run_with_scores(tmp_path, dataset, name):
    run_dir = experiment.run(_cfg(tmp_path, name=name), dataset=dataset)
    return next(iter(sorted(run_dir.glob("scores_epoch*.json"))))


def test_export_scatter_value_round_trips(tmp_path, small_dataset):
    scores = _run_with_scores(tmp_path, small_dataset, "scatter_v")
    out = tmp_path / "scatter_value.csv"
    experiment.export_scatter(scores, out, mode="value")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(scores) as fh:
        records = json.load(fh)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert float(row["loss"]) == rec["loss"]
        assert float(row["uncertainty"]) == rec["uncertainty"]


def test_export_scatter_index_is_permutation(tmp_path, small_dataset):
    scores = _run_with_scores(tmp_path, small_dataset, "scatter_i")
    out = tmp_path / "scatter_index.csv"
    experiment.export_scatter(scores, out, mode="index")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = len(rows)
    for col in ("loss", "uncertainty"):
        assert sorted(int(r[col]) for r in rows) == list(range(n))


def test_export_scatter_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        experiment.export_scatter(tmp_path / "x.json", tmp_path / "y.csv", mode="blob")


# --- CLI --------------------------------------------------------------------


def test_cli_full_pipeline(tmp_path, monkeypatch):
    monkeypatch.setenv("MOSCL_OUTPUT_ROOT", str(tmp_path))
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
            ]
        )
        == 0
    )
    assert scores.exists() and scores.with_suffix(".csv").exists()

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
    assert "spearman_rho" in payload and "pairs" in payload


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


def test_cli_compare_writes_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MOSCL_OUTPUT_ROOT", str(tmp_path))
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


def test_cli_errors_emit_json_and_nonzero(tmp_path, capsys):
    rc = cli.main(
        ["train", "--dataset", str(tmp_path / "missing.csv"), "--scheduler", "nope"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert "scheduler" in payload["message"]
