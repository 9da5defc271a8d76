"""Command-line interface: ``fracspec build`` writes a model artifact and
``fracspec verify`` runs the checks of ``fracspec.checks`` on it.

fracspec build  --model kipriyanov1d --grid-n 128 --alpha 0.5 --out artifact.json
fracspec verify --out artifact.json --suite full --seed 0 --report report.json

The artifact is a single JSON file holding the model's inputs: its config and
the a11 and rho samples (for custom-matrix, the matrix). ``build`` and ``verify``
assemble the model from them with one function; ``build`` refuses a model with a
non-finite entry. Both files are strict JSON (shortest round-trip floats; "nan",
"inf", "-inf" as strings), the artifact compact and the report indented. The
report has one entry per check, plus CSV sidecars ``<report>.spectrum.csv``
(index, re, im, modulus) and ``<report>.boundary.csv`` (re, im).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import checks, transform
from .discretize import Grid1D, real_or_complex, sample_coefficient
from .errors import BadParameter, FracspecError
from .transform import Model

SCHEMA_ARTIFACT, SCHEMA_ARTIFACT_1 = "fracspec-artifact-2", "fracspec-artifact-1"
SCHEMA_REPORT = "fracspec-report-1"

# each paper model: its grid interval, the name of its builder in transform,
# and the config keys the builder takes after (grid, a11, rho). A model reads
# grid_n, rho and those keys; build refuses any other paper flag set off its default.
_PAPER_MODELS = {
    "kipriyanov1d": ((0.0, 1.0), "build_kipriyanov_1d", ("sigma", "alpha")),
    "riesz": ((-20.0, 20.0), "build_riesz_model", ("sigma", "alpha", "delta")),
    "difference": ((0.0, 1.0), "build_difference_model", ("lambda", "mu", "alpha")),
}
MODELS = (*_PAPER_MODELS, "custom-matrix")
SUITES = (*checks.SUITES, "full")

_PAPER_DEFAULTS = {"grid_n": 128, "alpha": 0.5, "sigma": 0.25, "lambda": 1.0,
                   "mu": None, "delta": 1.0, "rho": "const:0"}

# --- strict JSON (RFC 8259 has no NaN or Infinity tokens) ------------------

def _finite(obj):
    """``obj`` with each non-finite float spelled "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return str(float(obj))
    return obj


def _json(doc, **layout):
    """Strict JSON of ``doc``, arrays via ``tolist()``. ``layout`` holds json.dumps's
    indent and separators; only unindented text comes from the C encoder."""
    return json.dumps(_finite(doc), allow_nan=False, default=lambda a: a.tolist(),
                      **layout) + "\n"


def _complex_doc(v):
    return {"re": v.real, "im": v.imag}


def _complex_from_doc(doc):
    re, im = (np.asarray(doc[k], dtype=float) for k in ("re", "im"))
    return real_or_complex(re + 1j * im)


# --- configuration ----------------------------------------------------------

def _make_parser():
    p = argparse.ArgumentParser(prog="fracspec",
                                description="build and verify fractional-operator models")
    sub = p.add_subparsers(dest="command", required=True)
    q = sub.add_parser("build")
    q.add_argument("--model", default="kipriyanov1d", choices=MODELS)
    q.add_argument("--grid-n", type=int, default=_PAPER_DEFAULTS["grid_n"])
    q.add_argument("--alpha", type=float, default=_PAPER_DEFAULTS["alpha"])
    q.add_argument("--sigma", type=float, default=_PAPER_DEFAULTS["sigma"])
    q.add_argument("--lambda", type=float, default=_PAPER_DEFAULTS["lambda"])
    q.add_argument("--mu", type=float, default=_PAPER_DEFAULTS["mu"],
                   help="poisson shift length; default 4h, must be a multiple of h")
    q.add_argument("--delta", type=float, default=_PAPER_DEFAULTS["delta"])
    q.add_argument("--a11", default="const:1",
                   help="coefficient spec (const:c | sin | poly:c0,c1,... | CSV path); "
                        "matrix CSV path for custom-matrix")
    q.add_argument("--rho", default=_PAPER_DEFAULTS["rho"])
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, help="artifact path to write")
    # verify takes its model configuration from the artifact alone
    q = sub.add_parser("verify")
    q.add_argument("--out", help="artifact path to read")
    q.add_argument("--suite", default="full", choices=SUITES)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--report", help="verification report path; stdout when absent")
    return p


def _validate(args):
    """The checks about the command line itself; raises ValueError naming the
    flag. The ranges of the model parameters are the builders' to check."""
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if args.command == "verify":
        if not args.out:
            raise ValueError("verify needs --out pointing at a build artifact")
        return
    for key in ("alpha", "sigma", "lambda", "mu", "delta"):
        value = getattr(args, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{key} must be finite")
    reads = ("grid_n", "rho", *_PAPER_MODELS[args.model][2]) if args.model in _PAPER_MODELS else ()
    if given := ["--" + key.replace("_", "-") for key, default in _PAPER_DEFAULTS.items()
                 if key not in reads and getattr(args, key) != default]:
        raise ValueError(f"{args.model} takes no {', '.join(given)}")


def _config_doc(args):
    return {key: getattr(args, key) for key in ("model", "grid_n", "alpha", "sigma", "lambda",
                                                "mu", "delta", "a11", "rho", "seed")}


def _build_model(config, doc=None):
    """The model that ``config`` describes, and the artifact's data: the a11
    and rho samples, or the custom matrix. They are taken from ``doc`` (a
    loaded artifact) when it holds them, else from the config's specs."""
    doc = doc or {}
    if config["model"] == "custom-matrix":
        m = (_complex_from_doc(doc["matrix"]) if "matrix" in doc
             else real_or_complex(np.loadtxt(config["a11"], delimiter=",", dtype=complex, ndmin=2)))
        if not m.size or m.shape != (len(m), len(m)):
            raise ValueError("matrix must be square and non-empty")
        model, data = Model(m), {"matrix": _complex_doc(m)}
    else:
        interval, builder, keys = _PAPER_MODELS[config["model"]]
        grid = Grid1D(*interval, config["grid_n"])
        stored = doc.get("coefficients", {})
        a11, rho = (_complex_from_doc(stored[k]) if k in stored
                    else sample_coefficient(config[k], grid) for k in ("a11", "rho"))
        model = getattr(transform, builder)(grid, a11, rho, *(config[k] for k in keys))
        data = {"coefficients": {"a11": _complex_doc(a11), "rho": _complex_doc(rho)}}
    parts = [("matrix", model.L)]
    if model.spec is not None:
        parts += [("J", model.spec.J), ("G", model.spec.G), ("F", model.spec.F)]
    for what, m in [*parts, ("hplus", model.hplus)]:
        if m is not None and not np.isfinite(m).all():
            raise ValueError(f"{what} holds non-finite entries")
    return model, data


def cmd_build(args):
    config = _config_doc(args)
    try:
        _, data = _build_model(config)
        text = _json({"schema": SCHEMA_ARTIFACT, "config": config, **data}, separators=(",", ":"))
    except BadParameter as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (FracspecError, ValueError, OSError) as exc:
        print(f"assembly failed: {exc}", file=sys.stderr)
        return 3
    if not _write(args.out, text):
        return 2
    print(f"wrote artifact {args.out}")
    return 0


def _write(path, text):
    """Write ``text`` to ``path``; False, after saying why, when that fails."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _load_artifact(path):
    """Model and config of the artifact at ``path``, re-assembled. A schema-1
    artifact stores no samples (its matrices are not read), so a CSV path in its
    config must still exist."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") not in (SCHEMA_ARTIFACT, SCHEMA_ARTIFACT_1):
        raise ValueError("not a fracspec artifact")
    model, _ = _build_model(doc["config"], doc)
    return model, doc["config"]


def cmd_verify(args):
    try:
        model, config = _load_artifact(args.out)
    except (OSError, KeyError, TypeError, ValueError, FracspecError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 2
    if args.report and not _write(args.report, ""):  # fail before the checks run
        return 2

    ctx = checks.Context(model, args.seed)
    entries = checks.run(ctx, checks.SUITES if args.suite == "full" else (args.suite,))
    text = _json({"schema": SCHEMA_REPORT, "suite": args.suite, "seed": args.seed,
                  "config": config, "checks": entries}, indent=2)
    if not args.report:
        sys.stdout.write(text)
    elif not all(_write(path, body) for path, body in [(args.report, text),
                                                        *_sidecars(args.report, ctx)]):
        return 2

    statuses = {e["status"] for e in entries}
    if "error" in statuses:
        return 4
    return 0 if statuses <= {"pass", "info"} else 1


def _sidecars(report, ctx):
    """Paths and texts of the CSV files next to ``report``: the resolvent
    eigenvalues and the numerical-range boundary; none when no spectrum was
    computed."""
    if ctx.evals is None:
        return []
    rows = [f"{i},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}\n" for i, z in enumerate(ctx.evals)]
    boundary = () if ctx.boundary is None else ctx.boundary  # None when numerical-range erred
    points = [f"{z.real:.17g},{z.imag:.17g}\n" for z in boundary]
    return [(report + ".spectrum.csv", "".join(["index,re,im,modulus\n", *rows])),
            (report + ".boundary.csv", "".join(["re,im\n", *points]))]


def main(argv=None):
    args = _make_parser().parse_args(argv)
    try:
        _validate(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return cmd_build(args) if args.command == "build" else cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
