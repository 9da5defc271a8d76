"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold. Where ``fracspec verify`` makes
a verdict, the test runs that check from ``fracspec.checks`` on its own model
and asserts the check's status; a bound stricter than the check's is asserted
on the check's numbers."""

import time

import numpy as np
from scipy.special import gammaln

from fracspec import checks
from fracspec import diagnostics as dg
from fracspec import fracpow as fp
from fracspec import numcore as nc
from fracspec import transform as tf
from fracspec.cli import _build_model
from fracspec.cli import main as cli_main
from fracspec.discretize import Grid1D


def _report(k, msg):
    print(f"acceptance {k:02d}: PASS - {msg}")


def _run(ctx, *names):
    """(status, numbers) of the named checks, run in table order on ``ctx``;
    a gate's None included."""
    return {e.name: e.fn(ctx) for e in checks.ENTRIES if e.name in names}


def _matrix_context(M):
    """The check context verify builds for a custom matrix M."""
    model, _ = _build_model({"model": "custom-matrix"}, {"matrix": {"re": M.real, "im": M.imag}})
    return checks.Context(model)


def test_01_gl_coefficient_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for lam in (0.5, 1.0, 2.0):
            model = tf.build_difference_model(Grid1D(0.0, 1.0, 8), "const:1", "const:0", lam,
                                              None, alpha)
            ctx = checks.Context(model)
            status, numbers = _run(ctx, "gl-coefficient-identity")["gl-coefficient-identity"]
            assert status == "pass" and (numbers["alpha"], numbers["lambda"]) == (alpha, lam)
            first = numbers["table"][0]
            assert abs(first["C_prime"] - first["C"]) <= 1e-10
            worst = max(worst, numbers["max_rel_defect"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"GL identity max rel defect {worst:.2e} in {elapsed:.2f}s")


def test_02_balakrishnan_vs_spectral():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    B = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    A = B @ B.conj().T + 20 * np.eye(20)
    worst_pow, worst_inv = 0.0, 0.0
    for alpha in (0.25, 0.5, 0.75):
        cfg = fp.BalakrishnanConfig(alpha)
        P = np.asarray(fp.balakrishnan_power(A, cfg))
        ref = nc.herm_power(A, alpha)
        rel = np.linalg.norm(P - ref) / np.linalg.norm(ref)
        worst_pow = max(worst_pow, float(rel))
        assert rel <= 1e-6
        N = np.asarray(fp.negative_power(A, cfg))
        pair = np.linalg.norm(P @ N - np.eye(20))
        worst_inv = max(worst_inv, float(pair))
        assert pair <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"power rel {worst_pow:.2e}, inverse-pair {worst_inv:.2e} in {elapsed:.2f}s")


def test_03_semigroup_axioms():
    # law within 1e-12 (poisson) or 10h; contraction <= 1+1e-10 on 100 probes; T0 exact
    law = {}
    for grid, build in (
            (Grid1D(0.0, 1.0, 127),
             lambda g: tf.build_difference_model(g, "const:1", "const:0", 1.0, None, 0.5)),
            (Grid1D(-10.0, 10.0, 512),
             lambda g: tf.build_riesz_model(g, "const:1", "const:0", 0.25, 0.9)),
            (Grid1D(0.0, 1.0, 255),
             lambda g: tf.build_kipriyanov_1d(g, "const:1", "const:0", 0.25, 0.5))):
        model = build(grid)
        ctx = checks.Context(model)
        entries = {e["name"]: e for e in checks.run(ctx, ["semigroup"])}
        assert [e["status"] for e in entries.values() if e["status"] != "info"] == ["pass"] * 3
        law[model.semigroup.kind] = entries["semigroup-law"]["numbers"]["max_defect"]
    _report(3, f"law defects poisson {law['poisson']:.1e}, gauss {law['gauss']:.1e}; "
               f"contraction <= 1+1e-10 on 100 probes; T0 exact")


def test_04_closed_form_powers():
    g = Grid1D(0.0, 1.0, 1024)
    f = g.nodes**2 * (1.0 - g.nodes) ** 2
    march = tf.marchaud_power_check(0.5, g, f)
    assert march <= 0.02
    ga = Grid1D(-20.0, 20.0, 1024)
    riesz = tf.riesz_power_check(0.85, ga, np.exp(-ga.nodes**2))
    assert riesz <= 0.02
    _report(4, f"Marchaud rel {march:.2e}, Riesz-kernel rel {riesz:.2e}")


def test_05_sectorial_factorization():
    n = 30
    rng = np.random.default_rng(5)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (B + B.conj().T) / 2
    H = H @ H.conj().T / n + np.eye(n)
    K = rng.standard_normal((n, n))
    W = H + (K - K.T) / 2
    got = _run(_matrix_context(W), "sectorial-factorization", "realpart-resolvent-identity")
    assert [status for status, _ in got.values()] == ["pass", "pass"]
    rel = got["sectorial-factorization"][1]["reconstruction_rel"]  # <= 1e-10
    rep = got["realpart-resolvent-identity"][1]
    assert rep["defect_factor1"] <= 1e-10
    assert abs(rep["defect_factor_half"] - 0.5) <= 0.05  # the printed 1/2 misses Re R by half
    _report(5, f"reconstruction {rel:.1e}, factor-1 defect {rep['defect_factor1']:.1e}, "
               f"factor-1/2 defect {rep['defect_factor_half']:.3f}")


def _kipriyanov_resolvent_svals(n):
    g = Grid1D(0.0, np.pi, n)
    m = tf.build_kipriyanov_1d(g, "const:1.0", "const:0.0", 0.0, 0.5)
    R, _ = nc.inverse(m.L)
    return nc.singular_values(R)


def test_06_order_and_schatten():
    svals = _kipriyanov_resolvent_svals(512)
    mu, r2 = dg.order_estimate(svals)
    assert 1.9 <= mu <= 2.1
    assert r2 >= 0.999
    _, cls = _run(checks.Context(None, svals=svals, mu=mu),
                  "schatten-classification")["schatten-classification"]
    assert cls["predicted_p"] == 1.0 and cls["trace_class"]
    coarse = float(np.sum(_kipriyanov_resolvent_svals(256)))
    fine = cls["sums"]["1.0"]
    assert abs(fine - coarse) <= 0.05 * abs(fine)  # two-point refinement
    _report(6, f"mu {mu:.4f}, r2 {r2:.5f}, p=1, trace sums {coarse:.6f} -> {fine:.6f}")


def _eigenvalue_model(n):
    return tf.build_kipriyanov_1d(Grid1D(0.0, 1.0, n), "const:10.0", "const:0.1", 0.25, 0.5)


def test_07_eigenvalue_inequality():
    sups = []
    for n in (128, 256, 512):
        m = _eigenvalue_model(n)
        R_W, _ = nc.inverse(m.L)
        R_H, _ = nc.inverse(nc.hermitian_part(m.L))
        _, sup = dg.eigenvalue_inequality(R_W, R_H, p=1.0)
        assert np.isfinite(sup)
        sups.append(sup)
        ctx = checks.Context(m)
        got = _run(ctx, "resolvent-spectrum", "order-estimate", "eigenvalue-asymptotics")
        assert got["eigenvalue-asymptotics"][0] == "pass"
    spread = (max(sups) - min(sups)) / max(sups)
    assert spread <= 0.2
    _report(7, f"sup-ratios {', '.join(f'{s:.6f}' for s in sups)} (spread {spread:.1%}), "
               f"asymptotics pass at eps=0.1")


_COMPLETENESS = ("resolvent-spectrum", "order-estimate", "numerical-range", "completeness-criterion")


def test_08_completeness_criterion():
    m = _eigenvalue_model(256)
    status, good = _run(checks.Context(m),
                        *_COMPLETENESS)["completeness-criterion"]
    assert status == "pass"
    assert good["mu"] >= 1.9
    assert good["theta"] <= 0.05

    # adversarial control: semi-angle pi/3, and a resolvent with planted
    # s-numbers n^(-0.4)
    n = 64
    k = np.arange(1, n + 1, dtype=float)
    phases = np.where(k % 2 == 0, np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3))
    status, bad = _run(_matrix_context(np.diag(k**0.4 * phases)), *_COMPLETENESS)[
        "completeness-criterion"]
    assert status == "fail"
    assert abs(bad["mu"] - 0.4) <= 1e-10
    assert abs(bad["theta"] - np.pi / 3) <= 1e-2
    _report(8, f"theta {good['theta']:.2e} rad, mu {good['mu']:.3f}, verdict true; "
               f"control theta {bad['theta']:.3f} vs bound {bad['bound']:.3f} false")


def test_09_class_membership_flip():
    g = Grid1D(0.0, 1.0, 64)

    def membership(scale):
        m = tf.build_kipriyanov_1d(g, "const:1.0", f"const:{0.1 * scale}", 0.3, 0.6)
        return _run(checks.Context(m),
                    "class-membership")["class-membership"]

    status, base = membership(1.0)
    assert status == "pass"
    assert membership(100.0)[0] == "fail"
    threshold1 = base["C_alpha"] * base["norm_J_inv"] * base["norm_F"]  # at scale 1
    crossing = base["gamma_G"] / threshold1
    assert membership(crossing * 0.99)[0] == "pass"
    assert membership(crossing * 1.01)[0] == "fail"
    _report(9, f"margin {base['margin']:.3f} at base, x100 fails, "
               f"flip within 1% of analytic crossing scale {crossing:.3f}")


def test_10_difference_model_sigma():
    alpha, lam = 0.5, 1.0
    g = Grid1D(0.0, 1.0, 63)
    m = tf.build_difference_model(g, "const:0.0", "const:1.0", lam, 4 * g.h, alpha)
    # independent direct summation of |C_k| to 10^6 terms; the remainder past
    # K is the exact Gamma-ratio partial sum, which is below 1e-12 of itself
    K = 1_000_000
    k = np.arange(1, K, dtype=float)
    mags = np.empty(K)
    mags[0] = alpha * lam**alpha
    mags[1:] = mags[0] * np.exp(np.cumsum(np.log((k - alpha) / (k + 1.0))))
    tail = lam**alpha * np.exp(gammaln(K + 1 - alpha) - gammaln(K + 1) - gammaln(1 - alpha))
    direct = lam**alpha + np.sum(mags) + tail
    rel = abs(m.sigma_const - direct) / direct
    assert rel <= 1e-8

    thresh = m.sigma_const * m.norm_Q_inv**2  # the H2 threshold on gamma_N = nu
    hi = tf.build_difference_model(g, "const:0.0", "const:1.0", lam, 4 * g.h, alpha,
                                   nu=1.02 * thresh)
    lo = tf.build_difference_model(g, "const:0.0", "const:1.0", lam, 4 * g.h, alpha,
                                   nu=0.98 * thresh)
    verdicts = [_run(checks.Context(model),
                     "difference-h2-threshold")["difference-h2-threshold"][0] for model in (hi, lo)]
    assert verdicts == ["pass", "fail"]
    _report(10, f"sigma_const {m.sigma_const:.12f} vs direct {direct:.12f} "
                f"(rel {rel:.1e}); H2 verdict flips across gamma_N threshold")


def test_11_cli_determinism(tmp_path, capsys):
    art = tmp_path / "art.json"
    argv = ["build", "--model", "kipriyanov1d", "--grid-n", "32", "--alpha", "0.6",
            "--sigma", "0.3", "--a11", "const:1.0", "--rho", "const:0.1",
            "--seed", "11", "--out", str(art)]
    assert cli_main(argv) == 0
    blobs = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert cli_main(["verify", "--out", str(art), "--suite", "full",
                         "--seed", "11", "--report", str(rep)]) == 0
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()
    _report(11, f"two seeded verify runs byte-identical ({len(blobs[0])} bytes)")
