"""moscl benchmark entry point.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload runs in its own process
(workloads.py), started from source under src/.  With --trace 0 this first
starts SETUP_PROBES processes that only set the workload up, so that
setup_s is a median over several set-ups, then the measured process.  The
last line of stdout is the result JSON: correct, attempted, failed and
metrics.  The exit code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "rescore_wide", "analyze")
SETUP_PROBES = 2
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, work, deadline, setup_only=False):
    """Run one workload process; returns its stdout lines and parsed last
    line.  The process is killed and reaped if it outlives the deadline."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - t0
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} process exceeded the deadline") from exc
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{args.workload} process exited {proc.returncode} "
                         "without a result") from exc
    return lines[:-1], result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "moscl" / "__init__.py").is_file():
        print(f"perfbench: no moscl sources under {ROOT / 'src'}; "
              "run from the root of a moscl checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    setups = []
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                _, probe = spawn(args, work / f"probe{k}", deadline, setup_only=True)
                setups.append(probe["setup_s"])
        lines, result = spawn(args, work / "run", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        lines.append(f"info: setup_s samples {json.dumps(setups)}")
    for line in lines:
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
