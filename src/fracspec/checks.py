"""The checks ``fracspec verify`` runs: one table, in report order.

Each entry is ``(suite, name, paper_anchor, fn, gate)``. ``fn(ctx)`` returns
``(status, numbers)``, status pass | fail | info, with its verdict and
threshold written inside it; or None when the check does not apply to the
model, which writes no entry. ``run`` turns an exception into an ``error``
entry. A gate stores on ``ctx`` what later entries read; when it writes an
entry, the rest of its suite is skipped.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import diagnostics, fracpow, numcore, semigroup, transform
from .config import DEFAULT
from .fracpow import BalakrishnanConfig

SUITES = ("semigroup", "fracpow", "spectrum", "class")
Entry = namedtuple("Entry", "suite name paper_anchor fn gate", defaults=(False,))


@dataclass
class Context:
    """The model, its grid, config and seed, what earlier entries stored, and
    the factorizations of L that several entries read, each made on first use
    (an exception is not kept: the next reader raises it again)."""

    model: transform.Model
    grid: object
    config: dict
    seed: int = 0
    semigroup_spec: object = None  # by semigroup-suite
    axioms: object = None          # by semigroup-suite
    svals: object = None           # resolvent singular values, by resolvent-spectrum
    evals: object = None           # resolvent eigenvalues, by resolvent-spectrum
    mu: float = None               # by order-estimate
    sector: object = None          # numerical range about 0, by numerical-range

    @cached_property
    def resolvent(self):
        """L^-1."""
        return numcore.inverse(self.model.L)

    @cached_property
    def factors(self):
        """H^(1/2), H^(-1/2) and C of L = H^(1/2)(I + C)H^(1/2), H = Re L, C = -C^H."""
        return diagnostics.sectorial_factorize(self.model.L)


def semigroup_spec_for(config, grid):
    """The semigroup whose generator the model is built on; None for custom-matrix."""
    if config["model"] == "difference":
        mu = config["mu"] if config["mu"] is not None else 4 * grid.h
        return semigroup.SemigroupSpec("poisson", grid, lam=config["lambda"], mu=mu)
    kind = {"kipriyanov1d": "shift", "riesz": "gauss"}.get(config["model"])
    return kind and semigroup.SemigroupSpec(kind, grid)


def _verdict(ok):
    return "pass" if ok else "fail"


def _axioms(ctx):
    spec = semigroup_spec_for(ctx.config, ctx.grid)
    if spec is None:
        return "info", {"message": "no semigroup attached to custom-matrix"}
    ctx.semigroup_spec, ctx.axioms = spec, semigroup.verify_axioms(spec, seed=ctx.seed)


def _law(ctx):
    tol = 1e-12 if ctx.semigroup_spec.kind == "poisson" else 10 * ctx.grid.h
    return (_verdict(ctx.axioms.law_defect <= tol),
            {"max_defect": ctx.axioms.law_defect, "tolerance": tol})


def _contraction(ctx):
    ratio = ctx.axioms.contraction_max
    return _verdict(ratio <= 1 + 1e-10), {"max_norm_ratio": ratio}


def _identity(ctx):
    exact = ctx.axioms.t0_identity_exact
    return _verdict(exact), {"t0_exact": exact, "continuity_defect": ctx.axioms.continuity_defect}


def _yosida(ctx):
    spec = ctx.semigroup_spec
    if spec.kind != "gauss":
        return None
    f = np.exp(-(ctx.grid.nodes**2))
    via_kernel = semigroup.yosida_resolvent(spec, 1.0, f)
    via_solve = np.linalg.solve(np.eye(ctx.grid.n) + semigroup.generator_matrix(spec), f)
    return "info", {"rel_l2": float(np.linalg.norm(via_kernel - via_solve)
                                    / np.linalg.norm(via_solve))}


def _alpha_lambda(ctx):
    """The model's alpha (0.5 outside (0, 1)) and lambda (1 but for difference)."""
    c = ctx.config
    return (c["alpha"] if 0 < c["alpha"] < 1 else 0.5,
            c["lambda"] if c["model"] == "difference" else 1.0)


def _gl_identity(ctx):
    alpha, lam = _alpha_lambda(ctx)
    K = 40
    c = fracpow.gl_coefficients(alpha, lam, K)
    cp = fracpow.gl_coefficients_alt(alpha, lam, K)
    defect = np.abs(np.diff(cp) - c[1:]) / np.abs(c[1:])
    ok = np.max(defect) <= 1e-8 and abs(cp[0] - c[0]) <= 1e-10 * abs(c[0])
    table = [{"k": k, "C": float(c[k]), "C_prime": float(cp[k])} for k in range(K + 1)]
    return _verdict(ok), {"alpha": alpha, "lambda": lam,
                          "max_rel_defect": float(np.max(defect)), "table": table}


def _gl_abs_sum(ctx):
    alpha, lam = _alpha_lambda(ctx)
    total = fracpow.gl_abs_sum(alpha, lam)
    exact = 2.0 * lam**alpha
    rel = abs(total - exact) / exact
    return _verdict(rel <= 1e-10), {"sum_abs": total, "telescoped": exact, "rel_defect": rel}


def _lemma_constant(ctx):
    c1, c2 = fracpow.lemma_constant(0.5, 1.0), fracpow.lemma_constant(0.5, 0.5)
    return _verdict(c1 == 6.0 and c2 == 4.0), {"C(0.5, 1.0)": c1, "C(0.5, 0.5)": c2}


def _balakrishnan_oracle(ctx):
    alpha, _ = _alpha_lambda(ctx)
    rng = np.random.default_rng(ctx.seed)
    B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    M = B @ B.conj().T + 8 * np.eye(8)
    got = fracpow.balakrishnan_power(M, BalakrishnanConfig(alpha), check=True)
    want = numcore.herm_power(M, alpha)
    rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return _verdict(rel <= 1e-8), {"rel_frobenius": rel, "alpha": alpha}


def _maccretive(ctx):
    J = ctx.model.spec.J
    herm_min, slack = diagnostics.maccretive_check(J)
    ok = (herm_min >= -DEFAULT.accretive_floor_rel * np.linalg.norm(J)
          and slack <= DEFAULT.maccretive_slack)
    return _verdict(ok), {"min_herm_eig": herm_min, "worst_resolvent_slack": slack}


def _resolvent_spectrum(ctx):
    R = ctx.resolvent
    ctx.svals, ctx.evals = numcore.singular_values(R), numcore.general_eigen(R)


def _order(ctx):
    if ctx.svals.size < 16:  # too few for order_estimate's fit
        return "info", {"message": "need at least 16 singular values", "count": ctx.svals.size}
    ctx.mu, r2 = diagnostics.order_estimate(ctx.svals)
    return "info", {"mu": ctx.mu, "r2": r2}


def _schatten(ctx):
    if ctx.mu is None:
        return "info", {"message": "order unavailable"}
    cls = diagnostics.schatten_classify(ctx.svals, ctx.mu)
    return "info", {"predicted_p": cls.predicted_p, "trace_class": cls.trace_class,
                    "sums": {str(k): v for k, v in cls.sums.items()}}


def _numerical_range(ctx):
    est = diagnostics.numerical_range(ctx.model.L, 256)
    ctx.sector = diagnostics.refit_sector(est, 0.0)
    return "info", {"vertex": est.vertex, "semi_angle": est.semi_angle,
                    "semi_angle_origin": ctx.sector.semi_angle}


def _h1_h2(ctx):
    C1, C2 = diagnostics.verify_H1_H2(ctx.model.L, ctx.model.hplus)
    return _verdict(C2 > 0.0), {"C1": C1, "C2": C2}


def _factorization(ctx):
    L = ctx.model.L
    root, _, C = ctx.factors
    rel = float(np.linalg.norm(root @ (np.eye(len(L)) + C) @ root - L) / np.linalg.norm(L))
    return _verdict(rel <= 1e-10), {"reconstruction_rel": rel}


def _realpart(ctx):
    R = ctx.resolvent
    _, inv_root, C = ctx.factors
    defect1, defect_half = diagnostics.realpart_resolvent_check(R, inv_root, C)
    return _verdict(defect1 <= 1e-8), {"defect_factor1": defect1,
                                       "defect_factor_half": defect_half}


def _completeness(ctx):
    est, mu = ctx.sector, ctx.mu  # the criterion's sector has vertex 0
    if est is None or mu is None:
        return "info", {"message": "sector or order unavailable"}
    bound = float(np.pi * mu / 2)
    return _verdict(est.semi_angle < bound), {"theta": est.semi_angle, "mu": mu, "bound": bound}


def _asymptotics(ctx):
    if ctx.mu is None:
        return "info", {"message": "order unavailable"}
    max_value, slope = diagnostics.asymptotics_check(ctx.evals, ctx.mu, 0.1)
    return _verdict(slope < 0.0), {"max_value": max_value, "trend_slope": slope}


def _class_membership(ctx):
    if ctx.config["model"] == "custom-matrix":
        return "info", {"message": "no transform description for custom-matrix"}
    rep = transform.check_class(ctx.model.spec)
    return _verdict(rep.member), {"gamma_G": rep.gamma_G, "C_alpha": rep.C_alpha,
                                  "norm_J_inv": rep.norm_J_inv, "norm_F": rep.norm_F,
                                  "margin": rep.margin, "member": rep.member}


def _h2_threshold(ctx):
    if ctx.config["model"] != "difference":
        return None
    m = ctx.model
    return _verdict(m.gamma_N > m.h2_threshold), {
        "gamma_N": m.gamma_N, "sigma_const": m.sigma_const,
        "norm_Q_inv": m.norm_Q_inv, "threshold": m.h2_threshold}


ENTRIES = (
    Entry("semigroup", "semigroup-suite", "contraction-semigroup-lemmas", _axioms, gate=True),
    Entry("semigroup", "semigroup-law", "semigroup-property-T_sT_t=T_s+t", _law),
    Entry("semigroup", "semigroup-contraction", "contraction-norm-bound", _contraction),
    Entry("semigroup", "semigroup-identity", "strong-continuity-at-zero", _identity),
    Entry("semigroup", "yosida-kernel-vs-solve", "yosida-resolvent-closed-kernel", _yosida),
    Entry("fracpow", "gl-coefficient-identity", "grunwald-coefficient-telescoping", _gl_identity),
    Entry("fracpow", "gl-absolute-sum", "grunwald-series-absolute-sum", _gl_abs_sum),
    Entry("fracpow", "lemma-constant", "negative-power-norm-constant", _lemma_constant),
    Entry("fracpow", "balakrishnan-vs-spectral", "balakrishnan-integral-representation",
          _balakrishnan_oracle),
    Entry("spectrum", "generator-m-accretive", "resolvent-bound-m-accretivity", _maccretive),
    Entry("spectrum", "resolvent-spectrum", "resolvent-order-mu", _resolvent_spectrum, gate=True),
    Entry("spectrum", "order-estimate", "resolvent-order-mu", _order),
    Entry("spectrum", "schatten-classification", "schatten-class-classification", _schatten),
    Entry("spectrum", "numerical-range", "numerical-range-sector", _numerical_range),
    Entry("spectrum", "h1-h2-bounds", "embedded-space-form-bounds", _h1_h2),
    Entry("spectrum", "sectorial-factorization", "accretive-operator-factorization", _factorization),
    Entry("spectrum", "realpart-resolvent-identity", "resolvent-real-part-identity", _realpart),
    Entry("spectrum", "completeness-criterion", "root-vector-completeness-angle-condition",
          _completeness),
    Entry("spectrum", "eigenvalue-asymptotics", "eigenvalue-modulus-asymptotics", _asymptotics),
    Entry("class", "class-membership", "transform-class-hypothesis", _class_membership),
    Entry("class", "difference-h2-threshold", "perturbed-difference-model-bound", _h2_threshold),
)


def run(ctx, suites):
    """Report entries ``{name, paper_anchor, status, numbers}`` of the checks
    in ``suites``, in table order."""
    entries, skipped = [], set()
    for suite, name, anchor, fn, gate in ENTRIES:
        if suite not in suites or suite in skipped:
            continue
        try:
            result = fn(ctx)
        except Exception as exc:  # error is distinct from fail
            result = "error", {"exception": type(exc).__name__, "message": str(exc)}
        if result is not None:
            entries.append({"name": name, "paper_anchor": anchor,
                            "status": result[0], "numbers": result[1]})
            if gate:
                skipped.add(suite)
    return entries
