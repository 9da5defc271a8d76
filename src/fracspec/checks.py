"""The checks ``fracspec verify`` runs: one table, in report order.

``Context(model, seed)`` is the whole input: each check reads the parts it
needs from the ``Model``, and reports ``info`` when the model lacks them. Each
entry is ``(suite, name, paper_anchor, fn, gate)``. ``fn(ctx)`` returns
``(status, numbers)``, status pass | fail | info, with its verdict and
threshold written inside it; or None when the check does not apply to the
model, which writes no entry. ``run`` turns an exception into an ``error``
entry. A gate stores on ``ctx`` what later entries read; when it writes an
entry, the rest of its suite is skipped.
"""

from collections import namedtuple
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from . import diagnostics, fracpow, numcore, semigroup, transform
from .config import DEFAULT
from .fracpow import BalakrishnanConfig

SUITES = ("semigroup", "fracpow", "spectrum", "class")
Entry = namedtuple("Entry", "suite name paper_anchor fn gate", defaults=(False,))


@dataclass
class Context:
    """The model and seed, what earlier entries stored (keyword-only), and
    the factorizations of L that several entries read, each made on first use
    (an exception is not kept: the next reader raises it again)."""

    model: transform.Model
    seed: int = 0
    _: KW_ONLY
    axioms: object = None          # by semigroup-suite
    svals: object = None           # resolvent singular values, by resolvent-spectrum
    evals: object = None           # resolvent eigenvalues, by resolvent-spectrum
    mu: float = None               # by order-estimate
    boundary: object = None        # numerical-range boundary points, by numerical-range

    @cached_property
    def resolvent(self):
        """L^-1 and the singular values of L, descending."""
        return numcore.inverse(self.model.L)

    @cached_property
    def factors(self):
        """H^(1/2), H^(-1/2) and C of L = H^(1/2)(I + C)H^(1/2), H = Re L, C = -C^H."""
        return diagnostics.sectorial_factorize(self.model.L)


def _verdict(ok):
    return "pass" if ok else "fail"


def _axioms(ctx):
    spec = ctx.model.semigroup
    if spec is None:  # of the cli's models, custom-matrix alone has none
        return "info", {"message": "no semigroup attached to custom-matrix"}
    ctx.axioms = semigroup.verify_axioms(spec, seed=ctx.seed)


def _law(ctx):
    spec = ctx.model.semigroup
    tol = 1e-12 if spec.kind == "poisson" else 10 * spec.grid.h
    return (_verdict(ctx.axioms.law_defect <= tol),
            {"max_defect": ctx.axioms.law_defect, "tolerance": tol})


def _contraction(ctx):
    ratio = ctx.axioms.contraction_max
    return _verdict(ratio <= 1 + 1e-10), {"max_norm_ratio": ratio}


def _identity(ctx):
    exact = ctx.axioms.t0_identity_exact
    return _verdict(exact), {"t0_exact": exact, "continuity_defect": ctx.axioms.continuity_defect}


def _yosida(ctx):
    spec = ctx.model.semigroup
    if spec.kind != "gauss":
        return None
    f = np.exp(-(spec.grid.nodes**2))
    via_kernel = semigroup.yosida_resolvent(spec, 1.0, f)
    via_solve = np.linalg.solve(np.eye(spec.grid.n) + ctx.model.spec.J, f)
    return "info", {"rel_l2": float(np.linalg.norm(via_kernel - via_solve)
                                    / np.linalg.norm(via_solve))}


def _alpha_lambda(ctx):
    """The transform's alpha and a Poisson semigroup's lambda; else 0.5 and 1.0."""
    spec, sg = ctx.model.spec, ctx.model.semigroup
    return (spec.alpha if spec is not None else 0.5,
            sg.lam if sg is not None and sg.kind == "poisson" else 1.0)


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
    if ctx.model.spec is None:
        return "info", {"message": "model has no generator J"}
    J = ctx.model.spec.J
    herm_min, slack = diagnostics.maccretive_check(J)
    ok = (herm_min >= -DEFAULT.accretive_floor_rel * np.linalg.norm(J)
          and slack <= 1e-8)
    return _verdict(ok), {"min_herm_eig": herm_min, "worst_resolvent_slack": slack}


def _resolvent_spectrum(ctx):
    R, s = ctx.resolvent
    ctx.svals, ctx.evals = 1.0 / s[::-1], numcore.general_eigen(R)


def _order(ctx):
    if ctx.svals.size < 16:  # too few for order_estimate's fit
        return "info", {"message": "need at least 16 singular values", "count": ctx.svals.size}
    ctx.mu, r2 = diagnostics.order_estimate(ctx.svals)
    return "info", {"mu": ctx.mu, "r2": r2}


def _schatten(ctx):
    if ctx.mu is None:
        return "info", {"message": "order unavailable"}
    # the classification theorem: p = 1 for mu > 1, else any p > 2/mu. p = 2/mu
    # is keyed at 12 decimals, so a last-digit move of mu keeps the key
    p = 1.0 if ctx.mu > 1.0 else 2.0 / ctx.mu
    sums = {repr(round(q, 12)): float(np.sum(ctx.svals ** q)) for q in sorted({p, 1.0})}
    return "info", {"predicted_p": float(p), "trace_class": bool(ctx.mu > 1.0), "sums": sums}


def _numerical_range(ctx):
    ctx.boundary = pts = diagnostics.numerical_range(ctx.model.L)
    vertex = float(np.min(pts.real))
    return "info", {"vertex": vertex, "semi_angle": diagnostics.sector_angle(pts, vertex),
                    "semi_angle_origin": diagnostics.sector_angle(pts, 0.0)}


def _h1_h2(ctx):
    if ctx.model.hplus is None:
        return "info", {"message": "model has no h+ norm matrix"}
    C1, C2 = diagnostics.verify_H1_H2(ctx.model.L, ctx.model.hplus)
    return _verdict(C2 > 0.0), {"C1": C1, "C2": C2}


def _factorization(ctx):
    L = ctx.model.L
    root, _, C = ctx.factors
    rel = float(np.linalg.norm(root @ (np.eye(len(L)) + C) @ root - L) / np.linalg.norm(L))
    return _verdict(rel <= 1e-10), {"reconstruction_rel": rel}


def _realpart(ctx):
    R, _ = ctx.resolvent
    _, inv_root, C = ctx.factors
    defect1, defect_half = diagnostics.realpart_resolvent_check(R, inv_root, C)
    return _verdict(defect1 <= 1e-8), {"defect_factor1": defect1,
                                       "defect_factor_half": defect_half}


def _completeness(ctx):
    pts, mu = ctx.boundary, ctx.mu  # the criterion's sector has vertex 0
    if pts is None or mu is None:
        return "info", {"message": "sector or order unavailable"}
    bound = float(np.pi * mu / 2)
    # W(L) reaching Re z <= 0 lies in no sector about 0: fail, with the widest arg z
    inside = bool(np.min(pts.real) > 0)
    theta = (diagnostics.sector_angle(pts, 0.0) if inside
             else float(np.max(np.abs(np.angle(pts[pts != 0])), initial=0.0)))
    return _verdict(inside and theta < bound), {"theta": theta, "mu": mu, "bound": bound}


def _asymptotics(ctx):
    if ctx.mu is None:
        return "info", {"message": "order unavailable"}
    max_value, slope = diagnostics.asymptotics_check(ctx.evals, ctx.mu, 0.1)
    return _verdict(slope < 0.0), {"max_value": max_value, "trend_slope": slope}


def _class_membership(ctx):
    if ctx.model.spec is None:  # of the cli's models, custom-matrix alone has none
        return "info", {"message": "no transform description for custom-matrix"}
    gamma_G, C_alpha, norm_J_inv, norm_F = transform.check_class(ctx.model.spec)
    threshold = C_alpha * norm_J_inv * norm_F
    member = bool(gamma_G > threshold)
    return _verdict(member), {"gamma_G": gamma_G, "C_alpha": C_alpha,
                              "norm_J_inv": norm_J_inv, "norm_F": norm_F,
                              "margin": float(gamma_G - threshold), "member": member}


def _h2_threshold(ctx):
    m = ctx.model
    if m.gamma_N is None:
        return None
    threshold = m.sigma_const * m.norm_Q_inv**2
    return _verdict(m.gamma_N > threshold), {
        "gamma_N": m.gamma_N, "sigma_const": m.sigma_const,
        "norm_Q_inv": m.norm_Q_inv, "threshold": threshold}


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
