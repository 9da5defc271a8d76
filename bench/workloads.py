"""The benchmark's workloads. Each is built from a seed by ``make`` and is a
list of operations through the package's public entry points only:
``cli.main`` for the build -> verify pipeline, and ``fracpow`` on
``semigroup`` generators for library callers.

An operation belongs to the ``make`` phase (build; or balakrishnan_power +
negative_power) or the ``use`` phase (verify; or balakrishnan_apply). Every
use operation reads only what the make phase left behind, so the worker can
repeat the operations of one phase as often as its time allows.

Import this module only after the BLAS thread count is pinned (the worker
does so): it imports numpy and fracspec.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from fracspec import cli, fracpow, semigroup
from fracspec.config import DEFAULT
from fracspec.discretize import Grid1D
from fracspec.fracpow import BalakrishnanConfig
from reference import compare_checks

# model -> build flags, as a user of the CLI would type them
CLI_MODELS = (
    ("kipriyanov1d", ["--alpha", "0.6", "--sigma", "0.3", "--a11", "const:1.0", "--rho", "const:0.1"]),
    ("riesz", ["--alpha", "0.9", "--rho", "const:0.1"]),
    ("difference", ["--rho", "const:0.1"]),
)

# generator kind, interval, alpha; the poisson shift is mu = 4h
GENERATORS = (
    ("shift", (0.0, 1.0), 0.6),
    ("gauss", (-20.0, 20.0), 0.9),
    ("poisson", (0.0, 1.0), 0.5),
)
APPLY_VECTORS = 8

PHASES = ("make", "use")


@dataclass
class Op:
    """One benchmark operation. ``run`` makes the call and returns its
    outcome; ``check(outcome, reference)`` turns it into ``(name, failure
    or None)`` pairs, one per checked result."""

    name: str
    phase: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


class CliWorkload:
    """For each model: ``fracspec build`` (make) and ``fracspec verify`` (use)."""

    def __init__(self, name, grid_n, suite, seed, work):
        self.name = name
        self.artifacts = []
        make, use = [], []
        for model, flags in CLI_MODELS:
            art = os.path.join(work, f"{model}.json")
            report = os.path.join(work, f"{model}.report.json")
            build = ["build", "--model", model, "--grid-n", str(grid_n), *flags,
                     "--seed", str(seed), "--out", art]
            verify = ["verify", "--out", art, "--suite", suite, "--seed", str(seed),
                      "--report", report]
            make.append(Op(f"{model}.build", "make", self._runner(build, art, None),
                           self._checker(model, "build")))
            use.append(Op(f"{model}.verify", "use", self._runner(verify, report, report),
                          self._checker(model, "verify")))
            self.artifacts.append(art)
        self.ops = make + use

    @staticmethod
    def _runner(argv, output, report):
        def run():
            _remove(output)
            code = cli.main(argv)
            return {"exit": code, "wrote": os.path.exists(output),
                    "report": _read_json(report) if report else None}
        return run

    def _checker(self, model, kind):
        def check(out, reference):
            want = reference[self.name][model]
            why = []
            if out["exit"] != want[f"{kind}_exit"]:
                why.append(f"exit {out['exit']}, expected {want[f'{kind}_exit']}")
            if kind == "build" and not out["wrote"]:
                why.append("no artifact written")
            if kind == "verify":
                if out["report"] is None:
                    why.append("no report written")
                else:
                    why += compare_checks(out["report"]["checks"], want["checks"])
            return [(f"{model}.{kind}", "; ".join(why) or None)]
        return check

    def artifact_bytes(self):
        return sum(os.path.getsize(a) for a in self.artifacts if os.path.exists(a))


def _array(x):
    """The matrix or vector behind an OperatorMatrix or GridFunction."""
    return np.asarray(getattr(x, "m", getattr(x, "values", x)))


class PowersWorkload:
    """balakrishnan_power + negative_power (make) and balakrishnan_apply on
    ``APPLY_VECTORS`` vectors (use), all with ``check=True``, on the three
    semigroup generators."""

    def __init__(self, name, n, seed):
        self.name = name
        rng = np.random.default_rng(seed)
        self.powers = {}   # kind -> A^alpha from the latest make operation
        self._oracle = {}
        make, use = [], []
        for kind, (a, b), alpha in GENERATORS:
            grid = Grid1D(a, b, n)
            mu = 4 * grid.h if kind == "poisson" else 0.0
            A = semigroup.generator_matrix(semigroup.SemigroupSpec(kind, grid, mu=mu))
            cfg = BalakrishnanConfig(alpha)
            vectors = rng.standard_normal((APPLY_VECTORS, n)) + 1j * rng.standard_normal((APPLY_VECTORS, n))
            make.append(Op(f"{kind}.power", "make", self._power(A, cfg),
                           self._check_power(kind, A, cfg.alpha)))
            use.append(Op(f"{kind}.apply", "use", self._apply(A, cfg, vectors),
                          self._check_apply(kind, vectors)))
        self.ops = make + use

    @staticmethod
    def _power(A, cfg):
        def run():
            return (fracpow.balakrishnan_power(A, cfg, check=True),
                    fracpow.negative_power(A, cfg, check=True))
        return run

    @staticmethod
    def _apply(A, cfg, vectors):
        def run():
            return [fracpow.balakrishnan_apply(A, f, cfg, check=True) for f in vectors]
        return run

    def _check_power(self, kind, A, alpha):
        """A^alpha against Schur-Pade (an independent route, computed once)
        and A^-alpha A^alpha against I, within the library's own quadrature
        tolerance."""
        def check(out, reference=None):
            tol = DEFAULT.quad_doubling_rel
            P, N = _array(out[0]), _array(out[1])
            self.powers[kind] = P
            if kind not in self._oracle:
                self._oracle[kind] = scipy.linalg.fractional_matrix_power(_array(A), alpha)
            want = self._oracle[kind]
            rel = np.linalg.norm(P - want) / np.linalg.norm(want)
            eye = np.eye(P.shape[0])
            rel_n = np.linalg.norm(N @ P - eye) / np.linalg.norm(eye)
            return [(f"{kind}.power", None if rel <= tol else f"vs Schur-Pade {rel:.3e} > {tol:g}"),
                    (f"{kind}.negative", None if rel_n <= tol else f"A^-a A^a - I {rel_n:.3e} > {tol:g}")]
        return check

    def _check_apply(self, kind, vectors):
        """Each apply against A^alpha f, with A^alpha from the make phase."""
        def check(out, reference=None):
            tol = DEFAULT.quad_doubling_rel
            P = self.powers[kind]
            pairs = []
            for i, (f, y) in enumerate(zip(vectors, out)):
                ref = P @ f
                rel = np.linalg.norm(_array(y) - ref) / np.linalg.norm(ref)
                pairs.append((f"{kind}.apply{i}", None if rel <= tol else f"vs A^a f {rel:.3e} > {tol:g}"))
            return pairs
        return check

    def artifact_bytes(self):
        return 0


def make(name, seed, work):
    if name == "pipeline-n256":
        return CliWorkload(name, 256, "full", seed, work)
    if name == "powers-n256":
        return PowersWorkload(name, 256, seed)
    raise ValueError(f"unknown workload {name!r}")
