"""Benchmark worker: all load comes from this one process, a closed loop with
one caller. ``run.py`` starts it with the BLAS thread count already pinned
in its environment, so the pin holds before numpy loads.

Prints one JSON object as its last line of standard output.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

import machine
import metrics
import reference
from tracer import Tracer, install, span_cost


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for artifacts and reports")
    ap.add_argument("--trace-out", help="where the traced run writes its spans")
    ap.add_argument("--probe", action="store_true",
                    help="only time set-up (import + input generation) and exit")
    return ap.parse_args(argv)


def _count(ops, failures):
    for op, why in ops:
        if why is not None:
            failures.append(f"{op}: {why}")
    return len(ops)


def _timed(op):
    t = time.perf_counter()
    out = op.run()
    return out, [time.perf_counter() - t]


def _phase(ops, budget, times, failures, ref):
    """Run ``ops`` round-robin, each at least once, and go on while the next
    one, at its median time so far, is expected to end within ``budget``
    seconds of the phase start. Appends each operation's wall time to
    ``times`` and returns the number of checked results."""
    clock = time.perf_counter
    start = clock()
    attempted = 0
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and clock() - start + statistics.median(times[op.name]) > budget:
            return attempted
        out, t = _timed(op)
        times[op.name] += t
        attempted += _count(op.check(out, ref), failures)


def main(argv=None):
    args = _args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != str(machine.BLAS_THREADS):
        print("start the worker through bench/run.py, which pins the BLAS threads", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.work)
    setup_s = time.perf_counter() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import fracspec

    if not os.path.abspath(fracspec.__file__).startswith(machine.SRC + os.sep):
        print(f"fracspec imported from {fracspec.__file__}, not from {machine.SRC}", file=sys.stderr)
        return 2

    ref = reference.load()
    failures = []
    attempted = 0
    times = {op.name: [] for op in wl.ops}
    if args.trace:
        tracer = Tracer()
        install(tracer)
        for op in wl.ops:
            with tracer.root(f"op.{op.name}"):
                out, times[op.name] = _timed(op)
            attempted += _count(op.check(out, ref), failures)
        if args.trace_out:
            tracer.dump(args.trace_out)
        values = metrics.per_layer(tracer, wl.ops, times, wl.artifact_bytes(), span_cost())
    else:
        start = time.perf_counter()
        for i, phase in enumerate(workloads.PHASES):
            # each phase gets an equal share of the time the earlier ones left
            budget = (args.seconds - (time.perf_counter() - start)) / (len(workloads.PHASES) - i)
            attempted += _phase([op for op in wl.ops if op.phase == phase], budget, times, failures, ref)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(wl.ops, times, peak_mb, attempted, len(failures))

    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": values,
        "times": times,
        "phases": metrics.phases(wl.ops, times),
        "env": machine.record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
