import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracspec import discretize as dz
from fracspec.errors import BadAlpha, BadParameter, CoefficientBoundViolated


def unit_grid(n):
    return dz.Grid1D(0.0, 1.0, n)


class TestGrid:
    def test_spacing_and_nodes(self):
        g = dz.Grid1D(0.0, 1.0, 9)
        assert np.isclose(g.h, 0.1)
        assert np.allclose(g.nodes, np.arange(1, 10) * 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            dz.Grid1D(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            dz.Grid1D(0.0, 1.0, 3)
        with pytest.raises(BadParameter, match="got a = 0.0, b = nan"):
            dz.Grid1D(0.0, float("nan"), 8)


class TestSampleCoefficient:
    def test_forms(self, tmp_path):
        g = unit_grid(6)
        assert np.allclose(dz.sample_coefficient("const:2.5", g), 2.5)
        assert np.allclose(dz.sample_coefficient("sin", g), np.sin(g.nodes))
        assert np.allclose(dz.sample_coefficient("poly:1,2,3", g),
                           1 + 2 * g.nodes + 3 * g.nodes**2)
        assert np.allclose(dz.sample_coefficient(4.0, g), 4.0)
        p = tmp_path / "coef.csv"
        np.savetxt(p, np.column_stack([g.nodes, g.nodes + 1]), delimiter=",")
        assert np.allclose(dz.sample_coefficient(str(p), g), g.nodes + 1)

    def test_csv_wrong_length(self, tmp_path):
        g = unit_grid(6)
        p = tmp_path / "coef.csv"
        np.savetxt(p, np.ones(4), delimiter=",")
        with pytest.raises(ValueError):
            dz.sample_coefficient(str(p), g)


class TestRiemannLiouville:
    def test_linear_exact(self):
        # product-trapezoid is exact on f(t) = t: I^a t = x^(a+1)/Gamma(a+2)
        g = unit_grid(64)
        for alpha in (0.3, 0.5, 0.9):
            out = dz.rl_integral_left(g, alpha) @ g.nodes
            exact = g.nodes ** (alpha + 1) / gamma(alpha + 2)
            assert np.max(np.abs(out - exact)) <= 1e-12

    def test_alpha_one_cumulative(self):
        g = unit_grid(32)
        out = dz.rl_integral_left(g, 1.0) @ g.nodes
        assert np.allclose(out, g.nodes**2 / 2, atol=1e-13)

    def test_quadrature_oracle_sin(self):
        g = unit_grid(128)
        alpha = 0.5
        out = dz.rl_integral_left(g, alpha) @ np.sin(np.pi * g.nodes)
        for i in (40, 80, 120):
            x = g.nodes[i]
            val, _ = quad(lambda s: np.sin(np.pi * s), 0.0, x,
                          weight="alg", wvar=(0.0, alpha - 1.0))
            assert abs(out[i] - val / gamma(alpha)) <= 5e-4 * abs(val / gamma(alpha))

    def test_right_is_transpose_and_mirror(self):
        g = unit_grid(24)
        L = dz.rl_integral_left(g, 0.4)
        R = L.T  # the right-sided integral
        out = R @ (1.0 - g.nodes)
        exact = (1.0 - g.nodes) ** 1.4 / gamma(2.4)
        assert np.max(np.abs(out - exact)) <= 1e-12

    def test_rejects_bad_alpha(self):
        g = unit_grid(8)
        for a in (0.0, 1.5, -0.2):
            with pytest.raises(BadAlpha):
                dz.rl_integral_left(g, a)


class TestMarchaud:
    def test_linear_exact(self):
        # f(t) = d - t is its own interpolant (incl. the zero extension),
        # so the scheme reproduces D^a (d-t) = (d-x)^(1-a)/Gamma(2-a) exactly
        g = unit_grid(64)
        for alpha in (0.25, 0.5, 0.75):
            out = dz.marchaud_right_derivative(g, alpha) @ (1.0 - g.nodes)
            exact = (1.0 - g.nodes) ** (1.0 - alpha) / gamma(2.0 - alpha)
            assert np.max(np.abs(out - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_constant_interior(self):
        # D^a of the indicator of (0, d): (d-x)^(-a)/Gamma(1-a); the zero
        # extension's last cell spoils only the far-right nodes
        alpha = 0.5
        rels = []
        for n, tol in ((256, 6e-3), (512, 3e-3)):
            g = unit_grid(n)
            out = dz.marchaud_right_derivative(g, alpha) @ np.ones(n)
            exact = (1.0 - g.nodes) ** -alpha / gamma(1.0 - alpha)
            m = int(0.8 * n)
            rel = np.max(np.abs(out[:m] - exact[:m]) / exact[:m])
            assert rel <= tol
            rels.append(rel)
        assert 1.6 <= rels[0] / rels[1] <= 2.4  # first-order in h

    def test_rejects_bad_alpha(self):
        g = unit_grid(8)
        for a in (0.0, 1.0):
            with pytest.raises(BadAlpha):
                dz.marchaud_right_derivative(g, a)


class TestAxisKernels:
    def test_riesz_decomposition(self):
        # B_b Gamma(b) (I_plus + I_minus) equals the two-sided potential
        g = dz.Grid1D(-5.0, 5.0, 40)
        beta = 0.6
        both = dz.riesz_potential(g, beta)
        minus = dz.rl_integral_left(g, beta)
        plus = minus.T  # f(x + s): the right-sided integral
        recon = dz.riesz_constant(beta) * gamma(beta) * (plus + minus)
        assert np.max(np.abs(both - recon)) <= 1e-12 * np.max(np.abs(both))

    def test_symmetry(self):
        g = dz.Grid1D(-3.0, 3.0, 30)
        M = dz.riesz_potential(g, 1.4)
        assert np.array_equal(M, M.T)

    def test_constant_value(self):
        assert np.isclose(dz.riesz_constant(0.5), 1.0 / np.sqrt(2.0 * np.pi))

    def test_gaussian_quadrature_oracle(self):
        g = dz.Grid1D(-20.0, 20.0, 399)
        beta = 0.6
        f = np.exp(-(g.nodes**2))
        out = dz.riesz_potential(g, beta) @ f
        i = 199  # x = 0
        assert abs(g.nodes[i]) < 1e-12
        half, _ = quad(lambda s: np.exp(-(s**2)), 0.0, 20.0,
                       weight="alg", wvar=(beta - 1.0, 0.0))
        exact = dz.riesz_constant(beta) * 2.0 * half
        assert abs(out[i] - exact) <= 2e-3 * abs(exact)

    def test_rejects_beta_one(self):
        g = unit_grid(8)
        with pytest.raises(BadAlpha):
            dz.riesz_potential(g, 1.0)
        with pytest.raises(BadAlpha):
            dz.rl_integral_left(g, 0.0)


class TestDifferenceOperators:
    def test_second_derivative_eigenpair(self):
        g = unit_grid(31)
        D2 = dz.second_derivative(g)
        for k in (1, 3):
            v = np.sin(k * np.pi * g.nodes)
            lam = -(2.0 - 2.0 * np.cos(k * np.pi * g.h)) / g.h**2
            assert np.max(np.abs(D2 @ v - lam * v)) <= 1e-10 * abs(lam)

    def test_first_difference(self):
        g = unit_grid(16)
        D1 = dz.first_difference(g)
        assert np.allclose(D1 @ g.nodes, 1.0)
        assert np.linalg.cond(D1) < 1e4


class TestEllipticAndForms:
    def test_constant_coefficient_eigenpair(self):
        g = unit_grid(31)
        W = dz.elliptic_1d(g, "const:1.0")
        v = np.sin(np.pi * g.nodes)
        lam = (2.0 - 2.0 * np.cos(np.pi * g.h)) / g.h**2
        assert np.max(np.abs(W @ v - lam * v)) <= 1e-10 * lam

    def test_self_adjoint_positive(self):
        g = unit_grid(20)
        W = dz.elliptic_1d(g, "poly:1,0.5").real
        assert np.allclose(W, W.T)
        assert np.linalg.eigvalsh(W)[0] > 0

    def test_bound_violation_reports_node(self):
        g = unit_grid(10)
        vals = np.ones(10)
        vals[7] = -0.5
        with pytest.raises(CoefficientBoundViolated) as ei:
            dz.elliptic_1d(g, vals)
        assert ei.value.node == 7

    def test_fourth_order_form_identity(self):
        g = dz.Grid1D(-1.0, 1.0, 24)
        a = 1.0 + g.nodes**2
        T = dz.fourth_order_weighted(g, a)
        D2 = dz.second_derivative(g)
        rng = np.random.default_rng(0)
        f, v = rng.standard_normal(24), rng.standard_normal(24)
        lhs = g.h * np.dot(T.real @ f, v)
        rhs = g.h * np.dot(a * (D2 @ f), D2 @ v)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_fourth_order_growth_bound(self):
        g = dz.Grid1D(-2.0, 2.0, 16)
        with pytest.raises(CoefficientBoundViolated):
            dz.fourth_order_weighted(g, "const:-1.0")

    def test_weighted_h2_positive_definite(self):
        g = dz.Grid1D(-2.0, 2.0, 20)
        N = dz.weighted_h2_matrix(g)
        assert np.allclose(N, N.T)
        assert np.linalg.eigvalsh(N)[0] >= 1.0 - 1e-10

    def test_weighted_h2_is_identity_plus_weighted_fourth_order(self):
        # the same bits as I + D2^T diag((1+|x|)^5) D2 assembled on its own
        g = dz.Grid1D(-20.0, 20.0, 64)
        D2 = dz.second_derivative(g)
        w = (1.0 + np.abs(g.nodes)) ** 5
        assert dz.weighted_h2_matrix(g).tobytes() == (np.eye(64) + D2.T @ (w[:, None] * D2)).tobytes()
