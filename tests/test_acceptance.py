"""Acceptance gate: ten end-to-end checks of the package's core claims.

Each test emits a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, so ``pytest -v`` shows one
pass/fail line per criterion through the test names alone.
"""

import csv

import numpy as np
import pytest

from moscl import experiment, kernels, scheduler
from moscl.conflict import conflict_loss_monotonicity
from moscl.datagen import GenSpec, generate
from moscl.difficulty import fuse_ranks
from moscl.experiment import ExperimentConfig
from moscl.model import MlpModel
from moscl.scheduler import mixed_order_plan, sp_weight
from moscl.uncertainty import batch_score_uncertainty, load_score_table

from oracles import (
    grad_wrt_latent,
    has_converged,
    latent_gradient_scale,
    loss,
    loss_based_uncertainty,
    prob,
)


def _report(n: int, desc: str, ok: bool) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


# --- 1: zero-perturbation uncertainty reduces to loss entropy ---------------


def test_criterion_01_zero_gamma_uncertainty_equals_loss_entropy():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = MlpModel(3, 5, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=3)
        y = int(rng.integers(2))
        u = batch_score_uncertainty(m, x[None], [0], G=8, gamma=0.0, seed=0)[0]
        l = loss("mse", y, prob(m, x))
        worst = max(worst, abs(u - loss_based_uncertainty("mse", y, l)))
    _report(
        1,
        f"gamma=0 uncertainty matches loss-derived entropy, max |diff|={worst:.2e} < 1e-10",
        worst < 1e-10,
    )


# --- 2: latent gradient closed form and its scale rewrite -------------------


def test_criterion_02_latent_gradient_closed_form_and_scale():
    m = MlpModel(2, 4, seed=5)
    x = np.array([0.3, -0.7])
    f = kernels.forward(m.W1, m.b1, m.W2, m.b2, x[None], m.activation)[1][0]
    worst_bp, worst_scale = 0.0, 0.0
    for p in np.linspace(0.01, 0.99, 99):
        m.b2[0] = np.log(p / (1.0 - p)) - float((m.W2 @ f)[0])
        y_hat = prob(m, x)
        for y in (0, 1):
            closed = grad_wrt_latent(y, y_hat)
            backprop = float(m.per_sample_gradient(x, y, "mse")[-1])
            worst_bp = max(worst_bp, abs(backprop - closed))
            worst_scale = max(
                worst_scale, abs(abs(closed) - latent_gradient_scale(y, y_hat))
            )
    _report(
        2,
        "backprop dL/dz matches closed form "
        f"(max {worst_bp:.2e} < 1e-10) and |dL/dz| matches the loss-scale "
        f"rewrite (max {worst_scale:.2e} < 1e-12)",
        worst_bp < 1e-10 and worst_scale < 1e-12,
    )


# --- 3: full parameter gradient vs finite differences -----------------------


def _fd_param_gradient(model, x, y, h=1e-6):
    grads = []
    for arr in (model.W1, model.b1, model.W2, model.b2):
        flat = arr.ravel()
        g = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss("mse", y, prob(model, x))
            flat[k] = orig - h
            lm = loss("mse", y, prob(model, x))
            flat[k] = orig
            g[k] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return np.concatenate(grads)


def test_criterion_03_parameter_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        m = MlpModel(2, 3, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=2)
        y = int(rng.integers(2))
        bp = m.per_sample_gradient(x, y, "mse")
        fd = _fd_param_gradient(m, x, y)
        rel = np.max(np.abs(bp - fd)) / (np.max(np.abs(fd)) + 1e-12)
        worst = max(worst, rel)
    _report(
        3,
        f"backprop gradient matches finite differences, max rel err={worst:.2e} < 1e-5",
        worst < 1e-5,
    )


# --- 4: mixed-order pairing minimizes the max pair difficulty sum -----------


def _brute_force_min_max_pair_sum(d_by_id):
    ids = sorted(d_by_id)

    def matchings(pool):
        if not pool:
            yield []
            return
        first, rest = pool[0], pool[1:]
        for k, other in enumerate(rest):
            for tail in matchings(rest[:k] + rest[k + 1 :]):
                yield [(first, other)] + tail

    return min(
        max(d_by_id[a] + d_by_id[b] for a, b in m) for m in matchings(ids)
    )


def test_criterion_04_mixed_pairing_is_minimax_optimal():
    rng = np.random.default_rng(41)
    ok = True
    for n in (4, 6, 8):
        for _ in range(200):
            ds = rng.integers(0, 2 * n, size=n)
            plan = mixed_order_plan(ds, np.arange(n), b=2)
            d_by_id = {i: int(ds[i]) for i in range(n)}
            achieved = max(sum(d_by_id[i] for i in batch) for batch in plan.batches)
            ok = ok and achieved == _brute_force_min_max_pair_sum(d_by_id)
    _report(
        4,
        "mixed-order pairing attains the brute-force minimax pair sum "
        "on 600 random instances (N=4,6,8)",
        ok,
    )


# --- 5: difficulty is invariant to monotone score transforms ----------------


def test_criterion_05_difficulty_invariant_under_monotone_transforms():
    rng = np.random.default_rng(53)
    transforms = [
        lambda v: 2.0 * v,
        lambda v: v + 10.0,
        lambda v: v**3,
        lambda v: np.exp(v),
        lambda v: np.tanh(v),
    ]
    ok = True
    for n in (3, 10, 101):
        ids = np.arange(n)
        losses = rng.uniform(0.0, 2.0, n)
        us = rng.uniform(0.0, 0.7, n)
        base = fuse_ranks(losses, us, ids)
        for t in transforms:
            got = fuse_ranks(t(losses), t(us), ids)
            ok = ok and np.array_equal(got, base)
    _report(
        5,
        "rank-fused difficulty is exactly invariant under 5 strictly "
        "increasing transforms (N=3,10,101)",
        ok,
    )


# --- 6: self-paced weights follow the regularizer closed forms --------------


def test_criterion_06_self_paced_weight_closed_forms():
    ok = True
    for l in np.linspace(0.0, 2.0, 201):
        ok = ok and sp_weight(float(l), 0.5, hard=True) == (1.0 if l < 0.5 else 0.0)
        ok = ok and sp_weight(float(l), 0.5, hard=False) == max(0.0, 1.0 - l / 0.5)
        for lam in (0.1, 1.0, 3.0):
            v = sp_weight(float(l), lam, hard=False)
            ok = ok and 0.0 <= v <= 1.0
    _report(6, "hard and linear self-paced weights match their closed forms", ok)


# --- 7: gradient conflict grows with pairwise loss --------------------------


def _train_random(dataset, seed, lr=0.1, max_epochs=500):
    m = MlpModel(2, 8, seed=seed)
    weights = np.ones(len(dataset))
    losses = []
    for epoch in range(max_epochs):
        plan = scheduler.random_plan(len(dataset), 2, np.random.default_rng([seed, 1, epoch]))
        order = plan.order
        raw = kernels.sgd_epoch(
            m.W1, m.b1, m.W2, m.b2,
            dataset.X, dataset.labels, order, 2, weights, lr, m.activation, "mse",
        )
        losses.append(float(np.mean(raw)))
        if has_converged(losses):
            break
    return m


def test_criterion_07_conflict_correlates_with_pair_loss():
    positives = 0
    rhos = []
    for seed in (0, 1, 2):
        ds = generate(
            GenSpec(
                n_total=64,
                minority_fraction=0.5,
                label_noise_rate=0.0,
                feature_noise_rate=0.0,
                cluster_separation=3.0,
                seed=seed,
            )
        )
        m = _train_random(ds, seed)
        report = conflict_loss_monotonicity(
            m, ds.X, ds.labels, sample_ids=ds.ids, seed=seed
        )
        rhos.append(report.spearman_rho)
        if not report.degenerate and report.spearman_rho > 0.0:
            positives += 1
    _report(
        7,
        "pairwise gradient conflict rises with pair loss after convergence: "
        f"Spearman rho > 0 on {positives}/3 seeds (rhos={[f'{r:.3f}' for r in rhos]})",
        positives >= 2,
    )


# --- 8: scheduler ordering effect on minority recall ------------------------

SEEDS_8 = [2, 3, 4, 5, 6]


@pytest.fixture(scope="module")
def scheduler_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    finals = {s: {} for s in ("random", "mixed", "sp_linear")}
    for seed in SEEDS_8:
        ds = generate(
            GenSpec(
                n_total=400,
                minority_fraction=0.1,
                label_noise_rate=0.1,
                feature_noise_rate=0.05,
                seed=seed,
            )
        )
        # one lockstep compare per seed: its cells are bitwise-equal to solo runs
        configs = [
            ExperimentConfig(
                scheduler=sched,
                lr=0.3,
                sp_lambda0=0.15,
                outdir=str(root),
            )
            for sched in finals
        ]
        summary = experiment.compare(configs, [seed], dataset=ds)
        for sched in finals:
            finals[sched][seed] = summary["configs"][sched][
                "per_seed_minority_recall"
            ][str(seed)]
    return root, finals


def test_criterion_08_mixed_helps_and_self_paced_hurts_minority_recall(
    scheduler_sweep,
):
    _, finals = scheduler_sweep
    mixed_wins = sum(
        finals["mixed"][s] >= finals["random"][s] for s in SEEDS_8
    )
    sp_losses = sum(
        finals["sp_linear"][s] <= finals["random"][s] for s in SEEDS_8
    )
    _report(
        8,
        "on the imbalanced quadrant task, mixed-order >= random on "
        f"{mixed_wins}/5 seeds and self-paced <= random on {sp_losses}/5 "
        "seeds (both need >= 3/5)",
        mixed_wins >= 3 and sp_losses >= 3,
    )


# --- 9: byte-identical reruns ------------------------------------------------


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    ds = generate(
        GenSpec(n_total=24, minority_fraction=0.25, label_noise_rate=0.1,
                feature_noise_rate=0.05, seed=3)
    )
    dirs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(
            scheduler="mixed",
            warmup_epochs=2,
            total_epochs=8,
            seed=0,
            outdir=str(tmp_path / name),
        )
        dirs.append(experiment.run(cfg, dataset=ds))
    same_metrics = (
        (dirs[0] / "metrics.csv").read_bytes()
        == (dirs[1] / "metrics.csv").read_bytes()
    )
    same_scores = (dirs[0] / "scores.npz").exists() and (
        (dirs[0] / "scores.npz").read_bytes() == (dirs[1] / "scores.npz").read_bytes()
    )
    _report(
        9,
        "identical configs reproduce metrics.csv and the scores.npz table "
        "byte-for-byte",
        same_metrics and bool(same_scores),
    )


# --- 10: scatter export round-trips values and emits rank permutations ------


def test_criterion_10_scatter_export(tmp_path):
    ds = generate(
        GenSpec(n_total=20, minority_fraction=0.25, label_noise_rate=0.1,
                feature_noise_rate=0.05, seed=7)
    )
    cfg = ExperimentConfig(
        scheduler="mixed",
        warmup_epochs=2,
        total_epochs=4,
        seed=1,
        outdir=str(tmp_path / "run"),
    )
    run_dir = experiment.run(cfg, dataset=ds)
    scores = run_dir / "scores.npz"
    table = load_score_table(scores)
    epoch = int(table["epochs"][0])

    value_csv = tmp_path / "value.csv"
    experiment.export_scatter(scores, value_csv, mode="value", epoch=epoch)
    with open(value_csv, newline="") as fh:
        vrows = list(csv.DictReader(fh))
    # the first epoch's row by ascending id, as the export writes it
    by_id = np.argsort(table["ids"], kind="stable")
    records = [
        {"loss": l, "uncertainty": u}
        for l, u in zip(table["loss"][0, by_id].tolist(),
                        table["uncertainty"][0, by_id].tolist())
    ]
    round_trips = len(vrows) == len(records) and all(
        float(r["loss"]) == rec["loss"]
        and float(r["uncertainty"]) == rec["uncertainty"]
        for r, rec in zip(vrows, records)
    )

    index_csv = tmp_path / "index.csv"
    experiment.export_scatter(scores, index_csv, mode="index", epoch=epoch)
    with open(index_csv, newline="") as fh:
        irows = list(csv.DictReader(fh))
    n = len(irows)
    perms = all(
        sorted(int(r[col]) for r in irows) == list(range(n))
        for col in ("loss", "uncertainty")
    )
    _report(
        10,
        "scatter export round-trips raw values and index mode emits rank "
        "permutations of 0..N-1",
        round_trips and perms,
    )
