"""Benchmark of the qfa toolkit: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts SETUP_RUNS fresh worker
processes: all but the last only set up (import, generate inputs, warm up)
and exit, and the last also runs the workload's tasks in a closed loop, one at
a time, until the task boundary nearest to S seconds.  Workers run with
OpenBLAS pinned to one thread.  With ``--trace 0`` the last line of output is
the end-to-end result; with ``--trace 1`` the worker wraps the public
functions of every qfa layer and the last line holds the per-layer metrics
instead.  Results and traces are also written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("composite-verify", "dfa-analyze", "dense-small")
SETUP_RUNS = 5          # setup_s is the median over this many fresh processes
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170     # a whole run must end within 180 s

# Pinned: on two cores OpenBLAS threads turn a ~1 ms dense step into ~260 ms
# now and then, which swamps every timing.  One task runs at a time, so a
# second thread has nothing to overlap with.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker(args, setup_only: bool) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--start", repr(start)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker for {args.workload} printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qfa toolkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfa", "__init__.py")):
        print(f"error: no qfa sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a qfa checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    setups = [worker(args, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    main_run = worker(args, setup_only=False)
    setups.append(main_run["setup_s"])
    tasks = main_run["task_s"]

    if args.trace:
        metrics = main_run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "task_s.p50": {"value": statistics.median(tasks), "unit": "s"},
            "tasks_per_s": {"value": len(tasks) / sum(tasks), "unit": "1/s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MiB"},
        }
    for failure in main_run["failures"]:
        print(f"FAILED task {failure['task']} {failure['op']}: {failure['error']}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_runs_s": setups, "task_s": tasks,
              "op_share": main_run["op_share"],
              "trace_file": main_run.get("trace_file")}
    print("detail " + json.dumps(detail))
    result = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
