"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py pipeline-n256 powers-n256

Runs ``run.py`` ``RUNS`` times on each workload, one run at a time, with
seeds ``--first-seed``, ``--first-seed + 1``, ... and BENCHMARK.json's
``run_seconds``, and prints per metric the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json. The raw values go to
``.bench/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(machine.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        os.makedirs(os.path.join(machine.ROOT, ".bench"), exist_ok=True)
        with open(os.path.join(machine.ROOT, ".bench", f"spread-{workload}.json"), "w") as fh:
            json.dump(values, fh, indent=1)
        print(f"\n{workload}: {RUNS} runs, seeds {args.first_seed}..{args.first_seed + RUNS - 1}")
        print(f"{'metric':14s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"{name:14s} {med:12.6g} {share:11.4f} {bounds.get(name, float('nan')):6.2f}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
