"""fracspec benchmark.

    python3 bench/run.py --workload pipeline-n256 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout. It starts the worker (``worker.py``) with
the BLAS threads pinned, plus ``SETUP_PROBES`` fresh processes that only time
set-up, and prints every metric with its unit. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation once, traced, and reports the per-layer metrics, writing the spans
to ``.bench/trace-<workload>-s<seed>.json``. Every run leaves its record
(environment, operation times, metrics, failures) in ``.bench/runs/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import machine
import metrics

WORKLOADS = ("pipeline-n256", "powers-n256")
SETUP_PROBES = 6
# The worker starts no operation it expects to end after --seconds, but
# runs each operation at least once. A run is killed at PASS_SLACK times
# --seconds plus SETUP_ALLOWANCE_S for the set-up probes: 165 s at
# --seconds 45, room for operations three times as slow as today's.
PASS_SLACK = 3
SETUP_ALLOWANCE_S = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(machine.ROOT, ".bench")


def _args(argv):
    ap = argparse.ArgumentParser(description="fracspec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _worker(argv, env, deadline):
    """Run the worker to completion (killed at the deadline) and return the
    JSON object on its last line of output."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main(argv=None):
    args = _args(argv)
    deadline = time.monotonic() + PASS_SLACK * args.seconds + SETUP_ALLOWANCE_S
    if not os.path.isfile(os.path.join(machine.SRC, "fracspec", "__init__.py")):
        print(f"no fracspec package under {machine.SRC}; run from a checkout", file=sys.stderr)
        return 2

    env = machine.worker_env()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--work", work]
    try:
        probes = [_worker(common + ["--probe"], env, deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        run = _worker(common + ["--trace-out", os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")],
                      env, deadline)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(run["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(probes + [run["setup_s"]])
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if set(values) != set(units):
        print(f"metric set mismatch: {sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    with open(os.path.join(OUT, "runs", f"{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "env": run["env"], "setup_probes_s": probes,
                   "worker_setup_s": run["setup_s"], "times": run["times"], "phases": run["phases"],
                   "failures": run["failures"], "result": result}, fh, indent=1)
    print("env: " + json.dumps(run["env"]))
    for name, ts in run["times"].items():
        print(f"{name:22s} {len(ts):3d} x, median {statistics.median(ts):.3f} s: "
              + " ".join(f"{t:.3f}" for t in ts))
    print(", ".join(f"{k} {v:.3f} s" for k, v in run["phases"].items()))
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    for k in units:
        print(f"{k:44s} {values[k]:>14.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
