"""Lockstep training: the stacked SGD kernel and multi-run `compare` must
reproduce solo runs bit for bit."""

import csv
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moscl import datagen, experiment, kernels, uncertainty
from moscl.datagen import GenSpec, generate, save_dataset
from moscl.experiment import SCHEDULERS, ExperimentConfig

from oracles import sigmoid_array


def _reference_epoch(W1, b1, W2, b2, X, labels, order, bsz, weights, lr, act, lossk):
    """One run's epoch written directly on 2-D arrays, batch by batch."""
    losses = np.empty(len(order))
    for pos in range(0, len(order), bsz):
        idx = order[pos : pos + bsz]
        n = len(idx)
        Xb, lab = X[idx], labels[idx]
        Fpre = Xb @ W1.T + b1
        F = kernels._activate(Fpre, act)
        Y = sigmoid_array(F @ W2.T + b2)
        losses[pos : pos + n] = kernels.loss_batch(Y, lab, lossk)
        p = Y[:, 0]
        dz = (2.0 * (p - lab) * p * (1.0 - p) if lossk == "mse" else p - lab)[:, None]
        dz = dz * weights[idx][:, None]
        dF = dz @ W2
        dFpre = dF * (1.0 - F * F) if act == "tanh" else np.where(Fpre > 0.0, dF, 0.0)
        W2 -= lr / n * (dz.T @ F)
        b2 -= lr / n * dz.sum(axis=0)
        W1 -= lr / n * (dFpre.T @ Xb)
        b1 -= lr / n * dFpre.sum(axis=0)
    return losses


def _check_against_separate_runs(act, lossk, rng, X, labels, orders, bsz, weights):
    """`sgd_epochs` over a stack of len(orders) runs, drawn from ``rng``,
    against each run's `sgd_epoch` and `_reference_epoch`, bit for bit."""
    d, H = X.shape[1], 5
    S = len(orders)
    params = [
        [rng.uniform(-1, 1, (H, d)), rng.uniform(-1, 1, H),
         rng.uniform(-1, 1, (1, H)), rng.uniform(-1, 1, 1)]
        for _ in range(S)
    ]
    stacked = [np.stack([p[k] for p in params]) for k in range(4)]
    got = kernels.sgd_epochs(
        *stacked, X, labels, orders, bsz, weights, 0.3, act, lossk
    )
    for s in range(S):
        solo = [a.copy() for a in params[s]]
        ref = [a.copy() for a in params[s]]
        solo_losses = kernels.sgd_epoch(
            *solo, X, labels, orders[s], bsz, weights[s], 0.3, act, lossk
        )
        ref_losses = _reference_epoch(
            *ref, X, labels, orders[s], bsz, weights[s], 0.3, act, lossk
        )
        assert np.array_equal(got[s], solo_losses)
        assert np.array_equal(got[s], ref_losses)
        for k in range(4):
            assert np.array_equal(stacked[k][s], solo[k])
            assert np.array_equal(stacked[k][s], ref[k])


# indices into the kernels' name tuples, which also seed each case's data
@pytest.mark.parametrize("a,k", list(itertools.product((0, 1), (0, 1))))
def test_sgd_epochs_matches_separate_runs_bitwise(a, k):
    act, lossk = kernels.ACTIVATIONS[a], kernels.LOSSES[k]
    rng = np.random.default_rng(100 + 4 * a + k)
    N, bsz = 23, 4
    X = rng.normal(size=(N, 2))
    labels = rng.integers(0, 2, N).astype(np.int64)
    # unequal lengths: plain, OHEM-like repeats, a short order; N is odd and
    # not a multiple of bsz, so every run ends on a short batch
    orders = [
        rng.permutation(N),
        np.concatenate([rng.permutation(N), rng.integers(0, N, 6)]),
        rng.permutation(N)[:18],
    ]
    weights = rng.uniform(0.0, 1.0, (len(orders), N))
    _check_against_separate_runs(act, lossk, rng, X, labels, orders, bsz, weights)


# (N, batch size, each run's order length); a length above N repeats rows,
# as an OHEM order does
STACKS = {
    # perfbench's grid: 15 equal orders of whole batches, no tail
    "grid": (400, 2, [400] * 15),
    # the longest order runs several batches past the others, then ends short
    "wide_tail": (300, 32, [300, 300, 620]),
    # one order shorter than a batch: no batch every run fills
    "shorter_than_a_batch": (12, 4, [3, 9, 10]),
    "one_run": (41, 2, [41]),
}


@pytest.mark.parametrize("act,lossk", list(itertools.product(kernels.ACTIVATIONS, kernels.LOSSES)))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_sgd_epochs_matches_separate_runs_bitwise_for_each_stack(stack, act, lossk):
    N, bsz, lengths = STACKS[stack]
    rng = np.random.default_rng(
        [sorted(STACKS).index(stack), kernels.ACTIVATIONS.index(act), kernels.LOSSES.index(lossk)]
    )
    X = rng.normal(size=(N, 2))
    labels = rng.integers(0, 2, N).astype(np.int64)
    orders = [
        np.concatenate([rng.permutation(N), rng.integers(0, N, m - N)]) if m > N
        else rng.permutation(N)[:m]
        for m in lengths
    ]
    # loss weights of exactly zero, as an sp_hard run's are
    weights = rng.uniform(0.0, 2.0, (len(orders), N))
    weights[rng.random(weights.shape) < 0.3] = 0.0
    _check_against_separate_runs(act, lossk, rng, X, labels, orders, bsz, weights)


# an index into kernels.ACTIVATIONS, which also seeds the case's data
@pytest.mark.parametrize("a", [0, 1])
def test_forward_over_run_axis_and_perturbations(a):
    act = kernels.ACTIVATIONS[a]
    rng = np.random.default_rng(7 + a)
    S, N, G, d, H = 3, 6, 4, 2, 5
    X = rng.normal(size=(N, d))
    T = rng.uniform(-0.3, 0.3, (N, G, H))
    stacked = [rng.uniform(-1, 1, shape) for shape in ((S, H, d), (S, H), (S, 1, H), (S, 1))]
    for perturb in (None, T):
        got = kernels.forward(*stacked, X, act, perturb)
        for s in range(S):
            solo = kernels.forward(*(p[s] for p in stacked), X, act, perturb)
            for g, o in zip(got, solo):
                assert np.array_equal(g[s], o)
    _, F, Z, Y = got
    assert F.shape == (S, N, G, H) and Z.shape == Y.shape == (S, N, G, 1)
    p_bar = kernels.mean_perturbed_predictions(*(p[0] for p in stacked), X, T, act)
    assert np.array_equal(p_bar, Y[0].mean(axis=1))


# --- compare cells against solo runs ----------------------------------------


@pytest.fixture(scope="module")
def small_dataset():
    return generate(
        GenSpec(n_total=24, minority_fraction=0.25, label_noise_rate=0.1,
                feature_noise_rate=0.05, seed=3)
    )


def _cfg(scheduler_name, outdir, **kw):
    return ExperimentConfig(
        scheduler=scheduler_name, warmup_epochs=2, total_epochs=6, seed=0,
        outdir=str(outdir), **kw,
    )


def _outputs(run_dir):
    """Every artifact of a run that must be byte-identical across reruns."""
    names = ["metrics.csv", "checkpoint.json"]
    # a random run scores nothing and writes no table
    names += [p.name for p in run_dir.glob("scores.npz")]
    return {name: (run_dir / name).read_bytes() for name in names}


def _solo(cfg, seed, outdir, dataset):
    return experiment.run(replace(cfg, seed=seed, outdir=str(outdir)), dataset=dataset)


def _runs_in_step(run_dir):
    with open(run_dir / "timings.csv", newline="") as fh:
        return [int(r["runs_in_step"]) for r in csv.DictReader(fh)]


def test_compare_cells_match_solo_runs_for_every_scheduler(tmp_path, small_dataset):
    configs = [_cfg(s, tmp_path / "cmp") for s in SCHEDULERS]
    seeds = [0, 1]
    summary = experiment.compare(configs, seeds, dataset=small_dataset)
    for cfg in configs:
        assert summary["configs"][cfg.scheduler]["failed_seeds"] == []
        for seed in seeds:
            cell = tmp_path / "cmp" / f"{cfg.scheduler}_seed{seed}"
            solo = _solo(cfg, seed, tmp_path / f"solo_{cfg.scheduler}_{seed}", small_dataset)
            assert _outputs(cell) == _outputs(solo)
            assert _runs_in_step(cell) == [len(configs) * len(seeds)] * cfg.total_epochs
            assert _runs_in_step(solo) == [1] * cfg.total_epochs


# the failing cell's dir, matched by its exact name: it is a substring of
# anti_mixed_seed0
FAILING = "mixed_seed0"


def _fail_at_epoch_3(method):
    """A patch of the `_Run` method that raises in the failing cell at epoch 3."""
    def fail(monkeypatch):
        real = getattr(experiment._Run, method)

        def patched(self, epoch, *args):
            if self.outdir.name == FAILING and epoch == 3:
                raise ValueError("planned failure")
            return real(self, epoch, *args)

        monkeypatch.setattr(experiment._Run, method, patched)
    return fail


def _fail_in_log_write(monkeypatch):
    real = uncertainty.save_score_table

    def save_score_table(path, *args):
        if Path(path).parent.name == FAILING:
            raise OSError("planned failure")
        return real(path, *args)

    monkeypatch.setattr(uncertainty, "save_score_table", save_score_table)


# where the cell fails, its error, and runs_in_step of every other cell: a
# run leaves the stack after the epoch its plan or its metrics row failed in,
# while the logs are written after the last step
FAILURES = {
    "plan": (_fail_at_epoch_3("plan_epoch"), "ValueError: planned failure", [6, 6, 6, 5, 5, 5]),
    "metrics_row": (_fail_at_epoch_3("record_epoch"), "ValueError: planned failure",
                    [6, 6, 6, 6, 5, 5]),
    "log_write": (_fail_in_log_write, "OSError: planned failure", [6] * 6),
}


@pytest.mark.parametrize("where", sorted(FAILURES))
def test_failing_cell_leaves_the_stack_and_others_match_solo(
    tmp_path, small_dataset, monkeypatch, where
):
    fail, error, in_step = FAILURES[where]
    fail(monkeypatch)
    configs = [_cfg(s, tmp_path / "cmp") for s in ("random", "mixed", "anti_mixed")]
    summary = experiment.compare(configs, [0, 1], dataset=small_dataset)
    assert summary["configs"]["mixed"]["failed_seeds"] == [0]
    assert summary["configs"]["mixed"]["errors"] == {"0": error}
    assert summary["configs"]["mixed"]["per_seed_minority_recall"]["0"] is None
    for label in ("random", "anti_mixed"):
        assert summary["configs"][label]["failed_seeds"] == []
        assert summary["configs"][label]["errors"] == {}
    with pytest.raises(Exception) as solo_error:
        _solo(configs[1], 0, tmp_path / "solo" / FAILING, small_dataset)
    assert experiment._error(solo_error.value) == error
    failed = tmp_path / "cmp" / FAILING
    assert not (failed / "checkpoint.json").exists()
    with pytest.raises(ValueError, match="has no checkpoint.json"):
        experiment.final_metrics(failed)
    if where != "log_write":
        assert _runs_in_step(failed) == [6, 6, 6]
    for cfg, seed in itertools.product(configs, (0, 1)):
        cell = tmp_path / "cmp" / f"{cfg.scheduler}_seed{seed}"
        if cell == failed:
            continue
        solo = _solo(cfg, seed, tmp_path / f"solo_{cfg.scheduler}_{seed}", small_dataset)
        assert _outputs(cell) == _outputs(solo)
        assert _runs_in_step(cell) == in_step


def test_configs_with_different_batch_sizes_form_two_groups(tmp_path, small_dataset):
    configs = [
        _cfg("mixed", tmp_path / "cmp", batch_size=2),
        _cfg("mixed", tmp_path / "cmp", batch_size=5),
    ]
    labels = ["b2", "b5"]
    summary = experiment.compare(configs, [0, 1, 2], dataset=small_dataset, labels=labels)
    for label, cfg in zip(labels, configs):
        assert summary["configs"][label]["failed_seeds"] == []
        for seed in (0, 1, 2):
            cell = tmp_path / "cmp" / f"{label}_seed{seed}"
            solo = _solo(cfg, seed, tmp_path / f"solo_{label}_{seed}", small_dataset)
            assert _outputs(cell) == _outputs(solo)
            assert _runs_in_step(cell) == [3] * cfg.total_epochs


def test_cells_of_one_dataset_path_load_it_once_and_step_together(
    tmp_path, small_dataset, monkeypatch
):
    data = tmp_path / "data.csv"
    save_dataset(small_dataset, data)
    paths = []

    def load_dataset(path):
        paths.append(path)
        return datagen.load_dataset(path)

    monkeypatch.setattr(experiment, "load_dataset", load_dataset)
    configs = [_cfg(s, tmp_path / "cmp", dataset=str(data)) for s in ("random", "mixed")]
    summary = experiment.compare(configs, [0, 1])
    assert paths == [str(data)]
    for cfg in configs:
        assert summary["configs"][cfg.scheduler]["failed_seeds"] == []
        for seed in (0, 1):
            cell = tmp_path / "cmp" / f"{cfg.scheduler}_seed{seed}"
            assert _runs_in_step(cell) == [4] * cfg.total_epochs


def test_lockstep_reruns_are_byte_identical(tmp_path, small_dataset):
    runs = []
    for name in ("a", "b"):
        configs = [_cfg(s, tmp_path / name) for s in ("mixed", "sp_linear", "ohem")]
        experiment.compare(configs, [0, 1], dataset=small_dataset)
        runs.append(tmp_path / name)
    cells = sorted(p.name for p in runs[0].iterdir())
    assert len(cells) == 6
    for cell in cells:
        assert _outputs(runs[0] / cell) == _outputs(runs[1] / cell)
