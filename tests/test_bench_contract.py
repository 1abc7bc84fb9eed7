"""The benchmark under perfbench/ reaches into moscl by name: every function
its tracer wraps must exist where the tracer looks, and installing and
removing the tracer must leave the program as it was."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
from moscl import cli, experiment, kernels, uncertainty  # noqa: E402
from moscl.datagen import save_dataset  # noqa: E402
from moscl.model import MlpModel  # noqa: E402


def _owner(module_name):
    return importlib.import_module(f"moscl.{module_name}")


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in tracing.TARGETS], ids=lambda v: v
)
def test_traced_target_exists(module_name, attr):
    owner = _owner(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the class's own __dict__ entry
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr, None))


def test_backend_name():
    assert kernels.backend_name() == "numpy"


def _snapshot():
    """Identity of every attribute the tracer may patch: module globals of
    each moscl module and the dicts of the traced classes."""
    for module_name, *_ in tracing.TARGETS:
        _owner(module_name)
    modules = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "moscl" or n.startswith("moscl."))}
    state = {(n, k): id(v) for n, m in modules.items() for k, v in vars(m).items()}
    for module_name, attr, _ in tracing.TARGETS:
        if "." in attr:
            cls = getattr(_owner(module_name), attr.split(".")[0])
            state.update({(cls, k): id(v) for k, v in vars(cls).items()})
    return state


def test_install_then_uninstall_restores_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _snapshot() != before
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_traced_round_computes_every_counter(tmp_path, capsys, monkeypatch, small_dataset):
    """A tiny traced compare of every scheduler and one score, export-scatter
    and analyze-conflicts round: each counter reads the arguments of its
    traced function by name, so a renamed or dropped parameter fails here.
    Scoring runs in blocks of 5 rows, and the perturbed-forward counters
    still sum to N * G forwards and N * G * H float64s per scoring call."""
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data, data.with_suffix(".json"))
    # every scoring call below scores all 24 rows with the default G and H
    defaults = experiment.ExperimentConfig()
    n, g, h = len(small_dataset), defaults.G, defaults.hidden_dim
    resolved = cli._settings(cli.build_parser().parse_args(
        ["score", "--dataset", "d", "--checkpoint", "c", "--out", "o"]
    ))
    assert (resolved.G, resolved.gamma, resolved.seed) == (g, defaults.gamma, defaults.seed)
    monkeypatch.setattr(uncertainty, "BLOCK_VALUES", 5 * g * h)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        configs = [
            experiment.ExperimentConfig(scheduler=s, warmup_epochs=2, total_epochs=4,
                                        outdir=str(tmp_path / "cmp"))
            for s in experiment.SCHEDULERS
        ]
        summary = experiment.compare(configs, [0], dataset=small_dataset)
        # training steps through sgd_epochs; the one-run entry is called here
        m = MlpModel(2, 4, seed=0)
        kernels.sgd_epoch(m.W1, m.b1, m.W2, m.b2, small_dataset.X, small_dataset.labels,
                          np.arange(n), 2, np.ones(n), 0.1, m.activation, "mse")
        ckpt = str(tmp_path / "cmp" / "mixed_seed0" / "checkpoint.json")
        scores = str(tmp_path / "scores.json")
        codes = [cli.main(argv) for argv in (
            ["score", "--dataset", str(data), "--checkpoint", ckpt, "--out", scores,
             "--difficulty-csv", str(tmp_path / "difficulty.csv")],
            ["export-scatter", "--scores", scores, "--out", str(tmp_path / "scatter.csv")],
            ["analyze-conflicts", "--dataset", str(data), "--checkpoint", ckpt,
             "--out", str(tmp_path / "conflict.json")],
        )]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(not c["failed_seeds"] for c in summary["configs"].values()), summary
    assert codes == [0, 0, 0]
    spans, counters = tracer.take()
    assert sorted(counters) == sorted(
        f"{module}.{attr}" for module, attr, count in tracing.TARGETS if count is not None
    )
    stats = tracing.summarize(spans, counters)
    for builder in ("mixed_order_plan", "anti_mixed_plan", "ohem_plan", "random_plan"):
        assert stats[f"scheduler.{builder}"]["calls"] >= 1, builder
    scoring = stats["uncertainty.batch_score_uncertainty"]
    assert scoring["calls"] >= 1
    assert scoring["streams"] == scoring["calls"] * n
    perturbed = stats["kernels.mean_perturbed_predictions"]
    assert perturbed["calls"] == scoring["calls"] * 5  # blocks of 5, 5, 5, 5, 4 rows
    assert perturbed["forwards"] == scoring["calls"] * n * g
    assert perturbed["computed_bytes"] == scoring["calls"] * n * g * h * 8
    metrics = tracing.layer_metrics(stats)
    assert all(np.isfinite(m["value"]) for m in metrics.values())
