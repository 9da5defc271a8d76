"""Reference outcomes of the CLI workloads and the tolerance-aware comparison.

``reference.json`` holds, per workload and model, the build and verify exit
codes and every check of the verify report, recorded at the commit that
introduced the benchmark with one BLAS thread. A report matches when it has
the same checks in the same order with the same statuses, and every number
agrees with the reference within the tolerance of its own check (``RULES``).
Numbers are not compared by bytes: report digits move with the BLAS thread
count.

Re-record (only when a change is meant to move a verdict or a number):

    python3 bench/reference.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")

# Relative tolerance for numbers whose check states none (the "info"
# checks and the inputs to a verdict); it covers the 1e-8 Balakrishnan
# quadrature tolerance and the thread-count digits seen at n=256.
DEFAULT_RTOL = 1e-6
ABS_FLOOR = 1e-12

# (check, key) -> rule. ("abs", t): |x - ref| <= t, with t the check's own
# pass threshold, or the report's number of that name when t is a string.
# ("le", t): x <= t only; these numbers depend on the verify seed (random
# probes or a random test matrix), so the reference value is not comparable.
RULES = {
    ("semigroup-law", "max_defect"): ("abs", "tolerance"),
    ("semigroup-contraction", "max_norm_ratio"): ("le", 1 + 1e-10),
    ("gl-coefficient-identity", "max_rel_defect"): ("abs", 1e-8),
    ("gl-coefficient-identity", "table"): ("rel", 1e-8),
    ("gl-absolute-sum", "sum_abs"): ("rel", 1e-10),
    ("gl-absolute-sum", "rel_defect"): ("abs", 1e-10),
    ("balakrishnan-vs-spectral", "rel_frobenius"): ("le", 1e-8),
    ("generator-m-accretive", "worst_resolvent_slack"): ("abs", 1e-8),
    ("sectorial-factorization", "reconstruction_rel"): ("abs", 1e-10),
    ("realpart-resolvent-identity", "defect_factor1"): ("abs", 1e-8),
}


def load():
    with open(PATH) as fh:
        return json.load(fh)


def _close(got, want, rule, numbers, where, out):
    """Append to ``out`` where ``got`` disagrees with ``want`` under ``rule``."""
    if isinstance(want, (dict, list)):
        keys = list(want) if isinstance(want, dict) else range(len(want))
        same_shape = type(got) is type(want) and (
            set(got) == set(want) if isinstance(want, dict) else len(got) == len(want))
        if not same_shape:
            out.append(f"{where}: {str(got):.80} != {str(want):.80}")
            return
        for k in keys:
            _close(got[k], want[k], rule, numbers, f"{where}.{k}", out)
        return
    exact = (bool, str, type(None))
    if isinstance(want, exact) or isinstance(got, exact):
        if got != want:
            out.append(f"{where}: {got!r} != {want!r}")
        return
    kind, tol = rule
    if kind == "le":
        ok = got <= tol
    elif kind == "abs":
        ok = abs(got - want) <= (numbers[tol] if isinstance(tol, str) else tol)
    else:
        ok = math.isclose(got, want, rel_tol=tol, abs_tol=ABS_FLOOR)
    if not ok:
        out.append(f"{where}: {got!r} vs reference {want!r} ({kind} {tol})")


def compare_checks(got, want):
    """Mismatches between two lists of report checks, as readable strings."""
    out = []
    if [c["name"] for c in got] != [c["name"] for c in want]:
        return [f"check list {[c['name'] for c in got]} != {[c['name'] for c in want]}"]
    for g, w in zip(got, want):
        name = w["name"]
        if g["status"] != w["status"]:
            out.append(f"{name}: status {g['status']} != {w['status']}")
            continue
        numbers = w["numbers"]
        if set(g["numbers"]) != set(numbers):
            out.append(f"{name}: numbers {sorted(g['numbers'])} != {sorted(numbers)}")
            continue
        for key, ref in numbers.items():
            rule = RULES.get((name, key), ("rel", DEFAULT_RTOL))
            _close(g["numbers"][key], ref, rule, numbers, f"{name}.{key}", out)
    return out


def record():
    """Run each operation of the CLI workload once at seed 0 and write
    reference.json."""
    import tempfile

    import machine

    os.environ.update(machine.worker_env())  # before numpy loads
    sys.path.insert(0, machine.SRC)
    import workloads

    ref = {}
    for name in ("pipeline-n256",):
        models = ref[name] = {}
        with tempfile.TemporaryDirectory(dir=HERE) as work:
            for op in workloads.make(name, 0, work).ops:
                model, kind = op.name.split(".")
                out = op.run()
                models.setdefault(model, {})[f"{kind}_exit"] = out["exit"]
                if kind == "verify":
                    models[model]["checks"] = out["report"]["checks"]
        print(f"recorded {name}", file=sys.stderr)
    with open(PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
