"""Compare two sets of saved benchmark outputs.

    python3 perfbench/compare.py --base a1.txt a2.txt ... --new b1.txt ...

Each file is the stdout of one perfbench/run.py run of one workload.  For
every metric it prints each side's median and quartiles, the spread
(quartile distance over median) and the ratio new/base with its base.

Results can only be compared when they ran the same workload in the same
environment.  If the workload, the trace flag or any environment field
(Python, numpy and scipy versions, nproc, backend, whether numba imports)
differs between the files, it prints the differences, reports no ratio and
exits 1.  It also exits 1 when a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path):
    """(run record, result) of one saved run.  The run record holds the
    workload, seed, trace flag and environment."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    record = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            record = json.loads(line)
    return record, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)

    runs = {side: [load(f) for f in getattr(args, side)] for side in ("base", "new")}
    status = 0
    for key in ("workload", "trace", "environment"):
        seen = {json.dumps(rec.get(key), sort_keys=True)
                for side in runs.values() for rec, _ in side}
        if len(seen) != 1:
            print(f"runs differ in {key}; no ratio is reported:")
            for side, files in (("base", args.base), ("new", args.new)):
                for f, (rec, _) in zip(files, runs[side]):
                    print(f"  {side} {f}: {json.dumps(rec.get(key), sort_keys=True)}")
            return 1
    for side, files in (("base", args.base), ("new", args.new)):
        for f, (_, result) in zip(files, runs[side]):
            if not result["correct"]:
                print(f"{side} {f}: not correct ({result['failed']} of "
                      f"{result['attempted']} ops failed)")
                status = 1

    names = sorted({m for side in runs.values() for _, r in side for m in r["metrics"]})
    rec = runs["base"][0][0]
    print(f"workload {rec.get('workload')}, trace {rec.get('trace')}, "
          f"environment {json.dumps(rec.get('environment'), sort_keys=True)}")
    print(f"{'metric':52s}{'side':>5s}{'n':>4s}{'q1':>14s}{'median':>14s}{'q3':>14s}{'spread':>8s}")
    for name in names:
        medians = {}
        for side in ("base", "new"):
            values = [r["metrics"][name]["value"] for _, r in runs[side] if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            medians[side] = med
            spread = f"{(q3 - q1) / med:8.3f}" if med else f"{'-':>8s}"
            print(f"{name:52s}{side:>5s}{len(values):4d}{q1:14.6g}{med:14.6g}{q3:14.6g}{spread}")
        if len(medians) == 2 and medians["base"]:
            print(f"{'':52s}ratio new/base {medians['new'] / medians['base']:.4f} "
                  f"(base {medians['base']:.6g})")
    return status


if __name__ == "__main__":
    sys.exit(main())
