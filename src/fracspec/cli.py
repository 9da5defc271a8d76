"""Command-line interface: build model artifacts and run verification suites.

Usage
-----
fracspec build  --model kipriyanov1d --grid-n 128 --alpha 0.5 --out artifact.json
fracspec verify --out artifact.json --suite full --seed 0 --report report.json

The artifact is a single JSON file holding the assembled operator matrix,
its transform description, the grid, inner-product weights and model
parameters, with all floats serialized to 17 significant decimal digits.
The verify report is JSON with one entry per check
({name, paper_anchor, status, numbers}) plus CSV sidecars
``<report>.spectrum.csv`` (index, re, im, modulus) and
``<report>.boundary.csv`` (re, im).
"""

import argparse
import sys

import numpy as np

from . import diagnostics, fracpow, numcore, semigroup, transform
from .discretize import Grid1D, OperatorMatrix
from .errors import FracspecError
from .fracpow import BalakrishnanConfig
from .numcore import InnerProduct
from .transform import Model, TransformSpec

SCHEMA_ARTIFACT = "fracspec-artifact-1"
SCHEMA_REPORT = "fracspec-report-1"

MODELS = ("kipriyanov1d", "riesz", "difference", "custom-matrix")
SUITES = ("semigroup", "fracpow", "spectrum", "class", "full")

_GRID_ENDPOINTS = {"kipriyanov1d": (0.0, 1.0), "riesz": (-20.0, 20.0),
                   "difference": (0.0, 1.0), "custom-matrix": (0.0, 1.0)}

# --- deterministic JSON with 17-significant-digit decimals -----------------

def _dumps(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dumps(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dumps(v) for v in obj) + "]"
        items = [pad + "  " + _dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
        return format(x, ".17g")
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_doc(m):
    m = numcore.asmatrix(m).astype(complex)
    return {"re": [list(map(float, row)) for row in m.real],
            "im": [list(map(float, row)) for row in m.imag]}


def _matrix_from_doc(doc):
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


# --- configuration ----------------------------------------------------------

def _make_parser():
    p = argparse.ArgumentParser(prog="fracspec",
                                description="build and verify fractional-operator models")
    sub = p.add_subparsers(dest="command", required=True)
    q = sub.add_parser("build")
    q.add_argument("--model", default="kipriyanov1d", choices=MODELS)
    q.add_argument("--grid-n", type=int, default=128)
    q.add_argument("--alpha", type=float, default=0.5)
    q.add_argument("--sigma", type=float, default=0.25)
    q.add_argument("--lambda", dest="lam", type=float, default=1.0)
    q.add_argument("--mu", type=float, default=None,
                   help="poisson shift length; default 4h, must be a multiple of h")
    q.add_argument("--delta", type=float, default=1.0)
    q.add_argument("--a11", default="const:1",
                   help="coefficient spec (const:c | sin | poly:c0,c1,... | CSV path); "
                        "matrix CSV path for custom-matrix")
    q.add_argument("--rho", default="const:0")
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
    """Range checks; raises ValueError naming the offending field."""
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if args.command == "verify":
        return
    if args.grid_n < 4:
        raise ValueError("--grid-n must be at least 4")
    if args.model == "riesz":
        if not args.sigma / 2 + 0.75 < args.alpha < 1.0:
            raise ValueError("--alpha must satisfy sigma/2 + 3/4 < alpha < 1 for the riesz model")
    elif args.model != "custom-matrix" and not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie in (0, 1)")
    if not 0.0 <= args.sigma < 1.0:
        raise ValueError("--sigma must lie in [0, 1)")
    if args.lam <= 0:
        raise ValueError("--lambda must be positive")
    if args.mu is not None and args.mu <= 0:
        raise ValueError("--mu must be positive")
    if args.delta < 0:
        raise ValueError("--delta must be nonnegative")


def _config_doc(args):
    return {"model": args.model, "grid_n": args.grid_n, "alpha": args.alpha,
            "sigma": args.sigma, "lambda": args.lam, "mu": args.mu,
            "delta": args.delta, "a11": args.a11, "rho": args.rho,
            "seed": args.seed}


def _build_model(args):
    a, b = _GRID_ENDPOINTS[args.model]
    if args.model == "custom-matrix":
        m = np.loadtxt(args.a11, delimiter=",", dtype=complex, ndmin=2)
        n = m.shape[0]
        grid = Grid1D(0.0, 1.0, n)
        ip = InnerProduct.uniform(n)
        L = OperatorMatrix(m, grid, ip)
        return Model(L, TransformSpec(L, L, L, 0.0, ip), L), grid
    grid = Grid1D(a, b, args.grid_n)
    if args.model == "kipriyanov1d":
        return transform.build_kipriyanov_1d(grid, args.a11, args.rho, args.sigma, args.alpha), grid
    if args.model == "riesz":
        return transform.build_riesz_model(grid, args.a11, args.rho, args.sigma,
                                           args.alpha, args.delta), grid
    mu = args.mu if args.mu is not None else 4 * grid.h
    model = transform.build_difference_model(grid, args.a11, args.rho, args.lam, mu, args.alpha)
    return model, grid


def cmd_build(args):
    try:
        _validate(args)
    except (ValueError, FracspecError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        model, grid = _build_model(args)
    except (FracspecError, ValueError, OSError) as exc:
        print(f"assembly failed: {exc}", file=sys.stderr)
        return 3
    doc = {
        "schema": SCHEMA_ARTIFACT,
        "config": _config_doc(args),
        "grid": {"a": grid.a, "b": grid.b, "n": grid.n, "h": grid.h},
        "ip_weights": list(map(float, model.L.ip.weights)),
        "matrix": _matrix_doc(model.L.m),
        "transform": {
            "alpha": model.spec.alpha,
            "J": _matrix_doc(model.spec.J),
            "G": _matrix_doc(model.spec.G),
            "F": _matrix_doc(model.spec.F),
        },
        "hplus": _matrix_doc(model.hplus),
        "delta": model.delta,
        "sigma_const": model.sigma_const,
        "gamma_N": model.gamma_N,
        "norm_Q_inv": model.norm_Q_inv,
    }
    with open(args.out, "w") as fh:
        fh.write(_dumps(doc) + "\n")
    print(f"wrote artifact {args.out}")
    return 0


def _load_artifact(path):
    import json

    with open(path) as fh:
        doc = json.load(fh)
    g = doc["grid"]
    grid = Grid1D(g["a"], g["b"], g["n"])
    ip = InnerProduct(np.asarray(doc["ip_weights"], dtype=float))
    L = OperatorMatrix(_matrix_from_doc(doc["matrix"]), grid, ip)
    t = doc["transform"]
    spec = TransformSpec(
        OperatorMatrix(_matrix_from_doc(t["J"]), grid, ip),
        OperatorMatrix(_matrix_from_doc(t["G"]), grid, ip),
        OperatorMatrix(_matrix_from_doc(t["F"]), grid, ip),
        t["alpha"], ip)
    hplus = OperatorMatrix(_matrix_from_doc(doc["hplus"]), grid, ip)

    def _num(key):
        v = doc.get(key)
        return float("nan") if v is None or isinstance(v, str) else float(v)

    model = Model(L, spec, hplus, delta=_num("delta"), sigma_const=_num("sigma_const"),
                  gamma_N=_num("gamma_N"), norm_Q_inv=_num("norm_Q_inv"))
    return model, grid, doc["config"]


# --- verification checks ----------------------------------------------------

class _Checks:
    def __init__(self):
        self.entries = []
        self.errored = False

    def run(self, name, anchor, fn):
        try:
            status, numbers = fn()
        except Exception as exc:  # error is distinct from fail
            self.errored = True
            self.entries.append({"name": name, "paper_anchor": anchor,
                                 "status": "error", "numbers": {"message": str(exc)}})
            return
        self.entries.append({"name": name, "paper_anchor": anchor,
                             "status": status, "numbers": numbers})

    @property
    def all_ok(self):
        return all(e["status"] in ("pass", "info") for e in self.entries)


def _semigroup_spec_for(config, grid):
    model = config["model"]
    if model == "kipriyanov1d":
        return semigroup.SemigroupSpec("shift", grid)
    if model == "riesz":
        return semigroup.SemigroupSpec("gauss", grid)
    if model == "difference":
        mu = config["mu"] if config["mu"] is not None else 4 * grid.h
        return semigroup.SemigroupSpec("poisson", grid, lam=config["lambda"], mu=mu)
    return None


def _run_semigroup_suite(checks, config, grid, seed):
    spec = _semigroup_spec_for(config, grid)
    if spec is None:
        checks.run("semigroup-suite", "contraction-semigroup-lemmas",
                   lambda: ("info", {"message": "no semigroup attached to custom-matrix"}))
        return
    report = semigroup.verify_axioms(spec, seed=seed)
    law_tol = 1e-12 if spec.kind == "poisson" else 10 * grid.h

    checks.run("semigroup-law", "semigroup-property-T_sT_t=T_s+t", lambda: (
        "pass" if report.law_defect <= law_tol else "fail",
        {"max_defect": report.law_defect, "tolerance": law_tol}))
    checks.run("semigroup-contraction", "contraction-norm-bound", lambda: (
        "pass" if report.contraction_max <= 1 + 1e-10 else "fail",
        {"max_norm_ratio": report.contraction_max}))
    checks.run("semigroup-identity", "strong-continuity-at-zero", lambda: (
        "pass" if report.t0_identity_exact else "fail",
        {"t0_exact": report.t0_identity_exact, "continuity_defect": report.continuity_defect}))
    if spec.kind == "gauss":
        def yosida():
            x = grid.nodes
            f = np.exp(-(x**2))
            via_kernel = semigroup.yosida_resolvent(spec, 1.0, f)
            A = semigroup.generator_matrix(spec).m
            via_solve = np.linalg.solve(np.eye(grid.n) + A, f)
            rel = np.linalg.norm(via_kernel - via_solve) / np.linalg.norm(via_solve)
            return "info", {"rel_l2": float(rel)}

        checks.run("yosida-kernel-vs-solve", "yosida-resolvent-closed-kernel", yosida)


def _run_fracpow_suite(checks, config, seed):
    alpha = config["alpha"] if 0 < config["alpha"] < 1 else 0.5
    lam = config["lambda"] if config["model"] == "difference" else 1.0

    def gl_identity():
        K = 40
        c = fracpow.gl_coefficients(alpha, lam, K).c
        cp = fracpow.gl_coefficients_alt(alpha, lam, K)
        defect = np.abs(np.diff(cp) - c[1:]) / np.abs(c[1:])
        ok = bool(np.max(defect) <= 1e-8 and abs(cp[0] - c[0]) <= 1e-10 * abs(c[0]))
        table = [{"k": int(k), "C": float(c[k]), "C_prime": float(cp[k])} for k in range(K + 1)]
        return ("pass" if ok else "fail",
                {"alpha": alpha, "lambda": lam, "max_rel_defect": float(np.max(defect)),
                 "table": table})

    checks.run("gl-coefficient-identity", "grunwald-coefficient-telescoping", gl_identity)

    def abs_sum():
        total = fracpow.gl_abs_sum(alpha, lam)
        exact = 2.0 * lam**alpha
        rel = abs(total - exact) / exact
        return ("pass" if rel <= 1e-10 else "fail",
                {"sum_abs": total, "telescoped": exact, "rel_defect": rel})

    checks.run("gl-absolute-sum", "grunwald-series-absolute-sum", abs_sum)

    checks.run("lemma-constant", "negative-power-norm-constant", lambda: (
        "pass" if (fracpow.lemma_constant(0.5, 1.0) == 6.0
                   and fracpow.lemma_constant(0.5, 0.5) == 4.0) else "fail",
        {"C(0.5, 1.0)": fracpow.lemma_constant(0.5, 1.0),
         "C(0.5, 0.5)": fracpow.lemma_constant(0.5, 0.5)}))

    def balak_oracle():
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M = B @ B.conj().T + 8 * np.eye(8)
        ip = InnerProduct.uniform(8)
        got = fracpow.balakrishnan_power(M, BalakrishnanConfig(alpha), ip=ip, check=True)
        want = numcore.herm_power(M, alpha, ip)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        return "pass" if rel <= 1e-8 else "fail", {"rel_frobenius": float(rel), "alpha": alpha}

    checks.run("balakrishnan-vs-spectral", "balakrishnan-integral-representation", balak_oracle)


def _run_spectrum_suite(checks, model, grid, report_path):
    ip = model.L.ip
    L = model.L.m

    def maccr():
        rep = diagnostics.maccretive_check(model.spec.J, ip)
        return ("pass" if rep.passed else "fail",
                {"min_herm_eig": rep.min_herm_eig,
                 "worst_resolvent_slack": rep.worst_resolvent_slack})

    checks.run("generator-m-accretive", "resolvent-bound-m-accretivity", maccr)

    try:
        R = numcore.inverse(L)
        svals = numcore.singular_values(R, ip)
        evals = numcore.general_eigen(R)
    except (FracspecError, np.linalg.LinAlgError) as exc:
        checks.errored = True
        checks.entries.append({"name": "resolvent-spectrum", "paper_anchor": "resolvent-order-mu",
                               "status": "error", "numbers": {"message": str(exc)}})
        return

    state = {}

    def order():
        mu, r2 = diagnostics.order_estimate(svals)
        state["mu"] = mu
        return "info", {"mu": mu, "r2": r2}

    checks.run("order-estimate", "resolvent-order-mu", order)

    def schatten():
        mu = state.get("mu", 1.5)
        cls = diagnostics.schatten_classify(svals, mu)
        return "info", {"predicted_p": cls.predicted_p, "trace_class": cls.trace_class,
                        "sums": {str(k): v for k, v in cls.sums.items()}}

    checks.run("schatten-classification", "schatten-class-classification", schatten)

    sector = {}

    def sect():
        est = diagnostics.numerical_range(model.L, ip, 256)
        sector["est"] = est
        sector["origin"] = diagnostics.refit_sector(est, 0.0)
        return "info", {"vertex": est.vertex, "semi_angle": est.semi_angle,
                        "semi_angle_origin": sector["origin"].semi_angle}

    checks.run("numerical-range", "numerical-range-sector", sect)

    def h12():
        rep = diagnostics.verify_H1_H2(model.L, model.hplus, ip)
        return "pass" if rep.verdict else "fail", {"C1": rep.C1, "C2": rep.C2}

    checks.run("h1-h2-bounds", "embedded-space-form-bounds", h12)

    def factorize():
        H, B = diagnostics.sectorial_factorize(model.L, ip)
        Hh = numcore.herm_power(H, 0.5, ip)
        recon = Hh @ (np.eye(grid.n) + 1j * B) @ Hh
        rel = np.linalg.norm(recon - L) / np.linalg.norm(L)
        return "pass" if rel <= 1e-10 else "fail", {"reconstruction_rel": float(rel)}

    checks.run("sectorial-factorization", "accretive-operator-factorization", factorize)

    def realpart():
        rep = diagnostics.realpart_resolvent_check(model.L, ip)
        return ("pass" if rep.defect_factor1 <= 1e-8 else "fail",
                {"defect_factor1": rep.defect_factor1,
                 "defect_factor_half": rep.defect_factor_half})

    checks.run("realpart-resolvent-identity", "resolvent-real-part-identity", realpart)

    def completeness():
        est = sector.get("origin")  # the criterion's sector has vertex 0
        mu = state.get("mu")
        if est is None or mu is None:
            return "info", {"message": "sector or order unavailable"}
        ok = diagnostics.completeness_criterion(est, mu)
        return ("pass" if ok else "fail",
                {"theta": est.semi_angle, "mu": mu, "bound": float(np.pi * mu / 2)})

    checks.run("completeness-criterion", "root-vector-completeness-angle-condition", completeness)

    def asym():
        mu = state.get("mu")
        if mu is None:
            return "info", {"message": "order unavailable"}
        rep = diagnostics.asymptotics_check(evals, mu, 0.1)
        return ("pass" if rep.passed else "fail",
                {"max_value": rep.max_value, "trend_slope": rep.trend_slope})

    checks.run("eigenvalue-asymptotics", "eigenvalue-modulus-asymptotics", asym)

    if report_path:
        with open(report_path + ".spectrum.csv", "w") as fh:
            fh.write("index,re,im,modulus\n")
            for i, z in enumerate(evals):
                fh.write(f"{i},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}\n")
        est = sector.get("est")
        with open(report_path + ".boundary.csv", "w") as fh:
            fh.write("re,im\n")
            if est is not None:
                for z in est.boundary:
                    fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def _run_class_suite(checks, model, config):
    if config["model"] == "custom-matrix":
        checks.run("class-membership", "transform-class-hypothesis",
                   lambda: ("info", {"message": "no transform description for custom-matrix"}))
        return

    def membership():
        rep = transform.check_class(model.spec)
        numbers = {"gamma_G": rep.gamma_G, "C_alpha": rep.C_alpha,
                   "norm_J_inv": rep.norm_J_inv, "norm_F": rep.norm_F,
                   "margin": rep.margin, "member": rep.member}
        return ("pass" if rep.member else "fail"), numbers

    checks.run("class-membership", "transform-class-hypothesis", membership)

    if config["model"] == "difference":
        def h2_threshold():
            ok = model.gamma_N > model.h2_threshold
            return ("pass" if ok else "fail",
                    {"gamma_N": model.gamma_N, "sigma_const": model.sigma_const,
                     "norm_Q_inv": model.norm_Q_inv, "threshold": model.h2_threshold})

        checks.run("difference-h2-threshold", "perturbed-difference-model-bound", h2_threshold)


def cmd_verify(args):
    if not args.out:
        print("verify needs --out pointing at a build artifact", file=sys.stderr)
        return 2
    try:
        _validate(args)
    except (ValueError, FracspecError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        model, grid, config = _load_artifact(args.out)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 2

    checks = _Checks()
    suites = [args.suite] if args.suite != "full" else ["semigroup", "fracpow", "spectrum", "class"]
    if "semigroup" in suites:
        _run_semigroup_suite(checks, config, grid, args.seed)
    if "fracpow" in suites:
        _run_fracpow_suite(checks, config, args.seed)
    if "spectrum" in suites:
        _run_spectrum_suite(checks, model, grid, args.report)
    if "class" in suites:
        _run_class_suite(checks, model, config)

    doc = {"schema": SCHEMA_REPORT, "suite": args.suite, "seed": args.seed,
           "config": config, "checks": checks.entries}
    text = _dumps(doc) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if checks.errored:
        return 4
    return 0 if checks.all_ok else 1


def main(argv=None):
    args = _make_parser().parse_args(argv)
    if args.command == "build":
        return cmd_build(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
