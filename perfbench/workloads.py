"""One workload process of the moscl benchmark.

run.py starts this file once per set-up probe (--setup-only) and once for
the measured run.  The process sets the workload up, runs whole timed
passes until the next one would end after --seconds, checks every pass's
outputs, and prints its result as JSON on the last line of stdout.  It
exits 1 when any operation failed its check.

With --trace 1 it alternates an untraced and a traced pass and reports the
per-layer metrics of tracing.PER_LAYER instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# cli imports conflict and so scipy, as `moscl compare` does.
from moscl import cli, datagen, experiment, kernels  # noqa: E402

import tracing  # noqa: E402


def quadrant_dataset(n, seed):
    # GenSpec's defaults are the quadrant mix every workload uses:
    # minority 0.1, label noise 0.1, feature noise 0.05.
    return datagen.generate(datagen.GenSpec(n_total=n, seed=seed))


class Compare:
    """One experiment.compare call over schedulers x seeds, the call
    `moscl compare` makes.  An operation is one compare cell."""

    def __init__(self, n, schedulers, seeds, **config):
        self.n = n
        self.schedulers = schedulers
        self.seeds = seeds
        self.config = config
        self.ops = len(schedulers) * len(seeds)

    def setup(self, seed, work):
        self.dataset = quadrant_dataset(self.n, seed)

    def run_pass(self, out):
        configs = [
            experiment.ExperimentConfig(scheduler=s, outdir=str(out), **self.config)
            for s in self.schedulers
        ]
        t0 = time.perf_counter()
        summary = experiment.compare(
            configs, self.seeds, dataset=self.dataset, labels=list(self.schedulers)
        )
        return time.perf_counter() - t0, [], summary

    def check(self, out, summary):
        """Failed cells: an error, a non-finite final loss or a recall
        outside [0, 1]."""
        failed = 0
        for label in self.schedulers:
            for seed in self.seeds:
                if seed in summary["configs"][label]["failed_seeds"]:
                    failed += 1
                    continue
                m = experiment.final_metrics(out / f"{label}_seed{seed}")
                recalls = (m["recall_class0"], m["recall_class1"], m["minority_recall"])
                if not (math.isfinite(m["mean_loss"]) and all(0.0 <= r <= 1.0 for r in recalls)):
                    failed += 1
        print(f"info: wins vs {self.schedulers[0]} (minority recall, of {len(self.seeds)} "
              f"seeds): {json.dumps(summary['wins_vs_baseline'])}")
        return failed


class Analyze:
    """Per-sample analysis against one checkpoint: each operation runs
    `score`, `export-scatter --mode index` and `analyze-conflicts` through
    cli.main, in-process, with stdout redirected."""

    ops = 100
    n = 400

    def setup(self, seed, work):
        dataset = quadrant_dataset(self.n, seed)
        data = work / "data"
        data.mkdir(parents=True)
        self.csv = data / "train.csv"
        datagen.save_dataset(dataset, self.csv, self.csv.with_suffix(".json"))
        cfg = experiment.ExperimentConfig(
            scheduler="random", total_epochs=20, outdir=str(work / "checkpoint")
        )
        self.checkpoint = experiment.run(cfg, dataset=dataset) / "checkpoint.json"

    def _argvs(self, out, k):
        scores = str(out / f"scores{k}.json")
        return (
            ["score", "--dataset", str(self.csv), "--checkpoint", str(self.checkpoint),
             "--out", scores, "--seed", str(k)],
            ["export-scatter", "--scores", scores, "--out", str(out / f"scatter{k}.csv"),
             "--mode", "index"],
            ["analyze-conflicts", "--dataset", str(self.csv), "--checkpoint",
             str(self.checkpoint), "--out", str(out / f"conflict{k}.json"), "--seed", str(k)],
        )

    def run_pass(self, out):
        out.mkdir(parents=True)
        latencies, codes = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            for k in range(self.ops):
                t = time.perf_counter()
                codes.append([cli.main(argv) for argv in self._argvs(out, k)])
                latencies.append(time.perf_counter() - t)
            wall = time.perf_counter() - t0
        return wall, latencies, codes

    def check(self, out, codes):
        return sum(not self._op_ok(out, k, c) for k, c in enumerate(codes))

    def _op_ok(self, out, k, codes):
        if any(codes):
            return False
        try:
            with open(out / f"scores{k}.json") as fh:
                scores = json.load(fh)
            with open(out / f"scatter{k}.csv", newline="") as fh:
                scatter_rows = sum(1 for _ in csv.reader(fh)) - 1
            with open(out / f"conflict{k}.json") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"op {k}: {exc}", file=sys.stderr)
            return False
        rho = report.get("spearman_rho")
        return (
            len(scores) == self.n
            and all(r.get("uncertainty") is not None for r in scores)
            and scatter_rows == self.n
            and not report.get("degenerate", True)
            and isinstance(rho, float)
            and math.isfinite(rho)
        )


WORKLOADS = {
    # Criterion-8 grid: the SGD batch loop dominates.
    "grid": lambda: Compare(
        400, ("random", "mixed", "sp_linear"), [2, 3, 4, 5, 6],
        lr=0.3, sp_lambda0=0.15,
    ),
    # Few SGD steps per epoch: scoring, score files, ranks and plans dominate.
    "rescore_wide": lambda: Compare(
        3000, ("mixed", "anti_mixed", "ohem"), [0],
        batch_size=32, G=16, warmup_epochs=2, total_epochs=22, lr=0.3,
    ),
    # No SGD: per-sample gradients, the conflict pair loop and file I/O.
    "analyze": Analyze,
}


def environment():
    import scipy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.backend_name(),
        "numba_imports": numba_imports,
    }


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Runner:
    """Times passes of one workload and checks each pass's outputs."""

    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None):
        """One pass, traced when a tracer is given; returns (wall seconds,
        per-op latencies, bytes left on disk, spans)."""
        out = self.work / f"pass{self.passes}"
        self.passes += 1
        self.attempted += self.workload.ops
        spans = None
        if tracer is not None:
            tracer.install()
        try:
            wall, latencies, result = self.workload.run_pass(out)
        except Exception:  # noqa: BLE001 - a failed pass counts its ops as failed
            traceback.print_exc()
            self.failed += self.workload.ops
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.take()
        try:
            self.failed += self.workload.check(out, result)
        except Exception:  # noqa: BLE001 - an unreadable output fails the pass
            traceback.print_exc()
            self.failed += self.workload.ops
        nbytes = dir_bytes(out)
        shutil.rmtree(out)
        return wall, latencies, nbytes, spans


def measure(runner, seconds):
    """Untraced passes until the next would end after `seconds`."""
    walls, latencies, nbytes = [], [], []
    start = time.monotonic()
    while True:
        got = runner.run()
        if got is not None:
            walls.append(got[0])
            # A training workload's op latency is its pass time per compare
            # cell; an analysis op is timed on its own.
            latencies += got[1] or [got[0] / runner.workload.ops]
            nbytes.append(got[2])
        elapsed = time.monotonic() - start
        if not walls or elapsed + statistics.median(walls) > seconds:
            break
    if not walls:
        return {}
    print(f"info: pass walls (s) {json.dumps(walls)}; {len(latencies)} op latency samples")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_ms_p50": {"value": 1e3 * float(np.percentile(latencies, 50)), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * float(np.percentile(latencies, 90)), "unit": "ms"},
        "output_bytes": {"value": statistics.median(nbytes), "unit": "bytes"},
    }


def measure_traced(runner, seconds, tracer, setup_spans, trace_path):
    """Untraced/traced pass pairs until the next pair would end after
    `seconds`; per-layer metrics count set-up once plus the mean pass."""
    untraced, traced, summaries, covered, n_spans, all_spans = [], [], [], [], [], []
    start = time.monotonic()
    while True:
        plain = runner.run()
        got = runner.run(tracer)
        if plain is None or got is None:
            break
        untraced.append(plain[0])
        traced.append(got[0])
        spans, counters = got[3]
        summaries.append(tracing.summarize(spans, counters))
        covered.append(tracing.root_seconds(spans) / got[0])
        n_spans.append(len(spans))
        all_spans.append(spans)
        elapsed = time.monotonic() - start
        if elapsed + (untraced[-1] + traced[-1]) > seconds:
            break
    if not traced:
        return {}
    total = tracing.combine(tracing.summarize(*setup_spans), summaries)
    wall = statistics.median(traced)
    plain_wall = statistics.median(untraced)
    metrics = tracing.layer_metrics(total)
    metrics.update({
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.untraced_wall_s": {"value": plain_wall, "unit": "s"},
        "trace.overhead_s": {"value": wall - plain_wall, "unit": "s"},
        "trace.covered_share": {"value": statistics.mean(covered), "unit": "ratio"},
        "trace.spans": {"value": statistics.mean(n_spans), "unit": "count"},
        "trace.passes": {"value": len(traced), "unit": "count"},
    })
    print(f"info: {len(traced)} traced passes, median wall {wall:.3f} s "
          f"(untraced {plain_wall:.3f} s); named spans cover "
          f"{100 * statistics.mean(covered):.1f}% of it")
    print("info: per traced pass, set-up spans added once")
    print(f"info: {'span':45s}{'calls':>9s}{'ms':>11s}{'self_ms':>11s}{'self/wall':>10s}")
    for name, e in sorted(total.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"info: {name:45s}{e['calls']:9.0f}{e['ms']:11.2f}{e['self_ms']:11.2f}"
              f"{e['self_ms'] / (10 * wall):9.2f}%")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({
            "summary": {k: {s: v for s, v in e.items() if s != "call_ms"}
                        for k, e in total.items()},
            "setup_spans": setup_spans[0],
            "pass_spans": all_spans,
        }, fh)
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True, help="scratch directory")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    args.work.mkdir(parents=True)
    workload.setup(args.seed, args.work)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload, args.work)
    if tracer is None:
        metrics = measure(runner, args.seconds)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        }
    else:
        tracer.uninstall()
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = measure_traced(runner, args.seconds, tracer, tracer.take(), trace_path)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment()}))
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
