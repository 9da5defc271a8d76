import numpy as np
import pytest

from fracspec import checks
from fracspec import transform as tf
from fracspec.discretize import (
    Grid1D,
    elliptic_1d,
    first_difference,
    fourth_order_weighted,
    marchaud_right_derivative,
    riesz_constant,
    riesz_potential,
    rl_integral_left,
    sample_coefficient,
    second_derivative,
)
from fracspec.errors import BadAlpha, CoefficientBoundViolated, NegativeParameter
from fracspec.fracpow import gl_abs_sum, gl_power_matrix
from fracspec.semigroup import SemigroupSpec, generator_matrix


def unit_grid(n):
    return Grid1D(0.0, 1.0, n)


class TestSpecAndAssemble:
    def test_alpha_range(self):
        g = unit_grid(8)
        J = generator_matrix(SemigroupSpec("shift", g))
        G = np.diag(sample_coefficient("const:1.0", g))
        F = np.diag(sample_coefficient("const:0.0", g))
        with pytest.raises(BadAlpha):
            tf.TransformSpec(J, G, F, 1.0)
        with pytest.raises(BadAlpha):
            tf.TransformSpec(J, G, F, -0.1)
        with pytest.raises(BadAlpha):
            tf.TransformSpec(J, G, F, 0.0)

    def test_diagonal_oracle(self):
        # J, G, F all diagonal: Z = g j^2 + f j^alpha entrywise
        n = 6
        j = np.linspace(1.0, 3.0, n)
        gv = np.linspace(0.5, 2.0, n)
        fv = np.linspace(0.1, 0.4, n)
        spec = tf.TransformSpec(np.diag(j), np.diag(gv), np.diag(fv), 0.5)
        Z = tf.assemble(spec)
        expect = np.diag(gv * j**2 + fv * np.sqrt(j))
        assert np.max(np.abs(Z - expect)) <= 1e-9 * np.max(np.abs(expect))


def class_membership(spec):
    """(status, numbers) of the class-membership check on a model with ``spec``."""
    return checks._class_membership(checks.Context(tf.Model(None, spec)))


class TestCheckClass:
    def test_f_zero_membership(self):
        g = unit_grid(16)
        spec = tf.TransformSpec(
            generator_matrix(SemigroupSpec("shift", g)),
            np.diag(sample_coefficient("const:1.0", g)),
            np.diag(sample_coefficient("const:0.0", g)),
            0.5,
        )
        gamma_G, C_alpha, norm_J_inv, norm_F = tf.check_class(spec)
        assert norm_F == 0.0
        assert np.isclose(gamma_G, 1.0)
        assert np.isclose(C_alpha, 2.0 * norm_J_inv / 0.5 + 2.0)
        status, numbers = class_membership(spec)
        assert status == "pass" and numbers["member"] and numbers["margin"] == gamma_G

    def test_margin_linear_in_F_and_flip(self):
        g = unit_grid(16)
        J = generator_matrix(SemigroupSpec("shift", g))
        G = np.diag(sample_coefficient("const:1.0", g))

        def report(scale):
            F = np.diag(sample_coefficient(f"const:{scale}", g))
            return class_membership(tf.TransformSpec(J, G, F, 0.5))[1]

        r1, r2 = report(0.01), report(0.02)
        assert np.isclose(r2["norm_F"], 2 * r1["norm_F"], rtol=1e-10)
        thresh1 = r1["gamma_G"] - r1["margin"]
        crossing = r1["gamma_G"] / (thresh1 / 0.01)
        assert report(crossing * 0.99)["member"]
        assert not report(crossing * 1.01)["member"]


class TestKipriyanovModel:
    def test_parameter_validation(self):
        g = unit_grid(16)
        with pytest.raises(BadAlpha):
            tf.build_kipriyanov_1d(g, "const:1.0", "const:0.1", 1.2, 0.5)
        for alpha in (0.0, 1.0, float("nan")):  # refused by the Marchaud derivative it assembles
            with pytest.raises(BadAlpha):
                tf.build_kipriyanov_1d(g, "const:1.0", "const:0.1", 0.3, alpha)
        with pytest.raises(CoefficientBoundViolated):
            tf.build_kipriyanov_1d(g, "const:-1.0", "const:0.1", 0.3, 0.5)
        with pytest.raises(CoefficientBoundViolated):
            tf.build_kipriyanov_1d(g, "const:nan", "const:0.1", 0.3, 0.5)

    def test_rho_zero_reduces_to_elliptic(self):
        from fracspec.discretize import elliptic_1d

        g = unit_grid(32)
        m = tf.build_kipriyanov_1d(g, "const:1.0", "const:0.0", 0.3, 0.5)
        assert np.allclose(m.L, elliptic_1d(g, "const:1.0"), atol=1e-12)

    def test_direct_vs_transform_corner(self):
        # with rho = 0 the two assemblies differ exactly by the a11/h^2
        # corner entry of the discrete factorization J^H J
        g = unit_grid(24)
        c = 1.5
        m = tf.build_kipriyanov_1d(g, f"const:{c}", "const:0.0", 0.3, 0.5)
        Z = tf.assemble(m.spec)
        diff = m.L - Z
        expect = np.zeros((24, 24))
        expect[0, 0] = c / g.h**2
        assert np.max(np.abs(diff - expect)) <= 1e-9 * c / g.h**2

    def test_direct_vs_transform_on_data(self):
        # away from the corner the Marchaud matrix and the Balakrishnan
        # power of the shift generator agree to the scheme's consistency
        g = unit_grid(256)
        m = tf.build_kipriyanov_1d(g, "const:1.0", "const:0.1", 0.3, 0.6)
        Z = tf.assemble(m.spec)
        f = np.sin(np.pi * g.nodes) ** 2
        f[0] = 0.0
        rel = np.linalg.norm((m.L - Z) @ f) / np.linalg.norm(m.L @ f)
        assert rel <= 1e-2

    def test_membership_base_config(self):
        g = unit_grid(64)
        m = tf.build_kipriyanov_1d(g, "const:1.0", "const:0.1", 0.3, 0.6)
        status, numbers = class_membership(m.spec)
        assert status == "pass" and numbers["member"] and numbers["margin"] > 0


class TestRieszModel:
    def grid(self, n=128):
        return Grid1D(-20.0, 20.0, n)

    def test_alpha_constraint(self):
        g = self.grid(16)
        with pytest.raises(BadAlpha):
            tf.build_riesz_model(g, "const:1.0", "const:0.1", 0.2, 0.8)  # needs > 0.85

    @pytest.mark.parametrize("sigma,delta,error,match", [
        (0.2, -1.0, NegativeParameter, "needs delta >= 0, got delta = -1.0"),
        (0.2, float("nan"), NegativeParameter, "got delta = nan"),
        (1.0, 1.0, BadAlpha, r"sigma must lie in \[0, 1\), got 1.0"),
        (float("nan"), 1.0, BadAlpha, "got nan")])
    def test_parameter_validation(self, sigma, delta, error, match):
        # sigma is refused before the alpha window that reads it
        with pytest.raises(error, match=match):
            tf.build_riesz_model(self.grid(16), "const:1.0", "const:0.1", sigma, 0.95, delta)

    def test_rho_zero_symmetric_positive(self):
        g = self.grid(64)
        m = tf.build_riesz_model(g, "const:1.0", "const:0.0", 0.0, 0.9, delta=1.0)
        L = m.L.real
        assert np.allclose(L, L.T, atol=1e-10)
        assert np.linalg.eigvalsh(L)[0] >= 1.0 - 1e-8  # delta I floor

    def test_direct_vs_transform(self):
        g = self.grid(256)
        m = tf.build_riesz_model(g, "const:1.0", "const:0.05", 0.1, 0.9, delta=1.0)
        Z = tf.assemble(m.spec) + 1.0 * np.eye(g.n)  # delta I
        rel = np.linalg.norm(m.L - Z) / np.linalg.norm(m.L)
        assert rel <= 1e-3

    def test_fractional_integral_is_right_sided(self):
        # I^sigma_+ integrates f(x + s), so F = conv I^sigma_+ rho is upper
        # triangular with a nonzero strict upper part
        F = tf.build_riesz_model(self.grid(24), "const:1.0", "const:0.1", 0.3, 0.95).spec.F
        assert np.array_equal(F, np.triu(F))
        assert np.all(F[np.triu_indices(24, 1)] != 0)

    def test_h2_matrix_positive(self):
        g = self.grid(48)
        m = tf.build_riesz_model(g, "const:1.0", "const:0.05", 0.1, 0.9)
        w = np.linalg.eigvalsh(m.hplus.real)
        assert w[0] >= 1.0 - 1e-10


class TestDifferenceModel:
    def build(self, n=48, **kw):
        g = unit_grid(n)
        args = dict(a="const:1.0", b="const:0.5", lam=1.0, mu=4 * g.h, alpha=0.5, nu=1.0)
        args.update(kw)
        return g, tf.build_difference_model(g, **args)

    def test_sigma_constant_oracle(self):
        g, m = self.build()
        expect = 4.0 * 1.0 * 1.0 + 0.5 * gl_abs_sum(0.5, 1.0)
        assert np.isclose(m.sigma_const, expect, rtol=1e-12)
        assert np.isclose(m.gamma_N, 1.0)

    def test_h2_threshold(self):
        g, m = self.build()
        status, numbers = checks._h2_threshold(checks.Context(m))
        assert numbers["threshold"] == m.sigma_const * m.norm_Q_inv**2
        assert status == ("pass" if m.gamma_N > numbers["threshold"] else "fail")

    def test_zero_perturbation_is_quadratic_form(self):
        g, m = self.build(a="const:0.0", b="const:0.0")
        from fracspec.discretize import first_difference

        Q = first_difference(g)
        assert np.allclose(m.L, Q.conj().T @ Q, atol=1e-12)

    def test_accretive_at_base_config(self):
        g, m = self.build()
        H = (m.L + m.L.conj().T) / 2
        assert np.linalg.eigvalsh(H)[0] >= -1e-10

    def test_custom_nu_scales_gamma(self):
        g, m = self.build(nu=2.5)
        assert np.isclose(m.gamma_N, 2.5)


class TestCoefficientScaling:
    """The builders scale rows or columns by the coefficient samples: the
    values of the products with the dense diagonal matrices of the samples."""

    def test_kipriyanov(self):
        g = unit_grid(48)
        a, rho = sample_coefficient("poly:1,0.5", g), sample_coefficient("sin", g)
        m = tf.build_kipriyanov_1d(g, "poly:1,0.5", "sin", 0.3, 0.6)
        F = rl_integral_left(g, 0.3) @ np.diag(rho)
        assert np.array_equal(m.spec.F, F) and np.array_equal(m.spec.G, np.diag(a))
        assert np.array_equal(m.L, elliptic_1d(g, a) + F @ marchaud_right_derivative(g, 0.6))

    def test_riesz(self):
        g = Grid1D(-20.0, 20.0, 48)
        a, rho = sample_coefficient("poly:2,0.01", g), sample_coefficient("sin", g)
        m = tf.build_riesz_model(g, "poly:2,0.01", "sin", 0.1, 0.9)
        P = rl_integral_left(g, 0.1).T @ np.diag(rho)
        beta = 2.0 * (1.0 - 0.9)  # 0.19999999999999996, as the builder forms it
        L = fourth_order_weighted(g, a) + P @ riesz_potential(g, beta) @ second_derivative(g) + np.eye(48)
        conv = riesz_constant(2.0 - 2.0 * 0.9) / tf._riesz_power_scale(0.9)
        assert np.array_equal(m.L, L) and np.array_equal(m.spec.F, conv * P)
        assert np.array_equal(m.spec.G, np.diag(4.0 * a))

    def test_difference(self):
        g = unit_grid(48)
        a, b = sample_coefficient("poly:1,0.5", g), sample_coefficient("sin", g)
        m = tf.build_difference_model(g, "poly:1,0.5", "sin", 1.0, None, 0.5)
        A, Q = m.spec.J, first_difference(g)
        L = A.T @ np.diag(a) @ A + np.diag(b) @ gl_power_matrix(m.semigroup, 0.5) + Q.T @ Q
        assert np.array_equal(m.L, L)
        assert np.array_equal(m.spec.G, np.diag(a)) and np.array_equal(m.spec.F, np.diag(b))
