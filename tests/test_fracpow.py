import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from fracspec import fracpow as fp
from fracspec.discretize import Grid1D
from fracspec.errors import BadAlpha, NotAccretive, QuadratureNotConverged
from fracspec.numcore import herm_power
from fracspec.semigroup import SemigroupSpec, generator_matrix


def spd_matrix(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + (shift if shift is not None else n) * np.eye(n)


class TestBalakrishnan:
    def test_diagonal(self):
        A = np.diag([1.0, 4.0, 9.0])
        out = fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5))
        assert np.allclose(np.asarray(out), np.diag([1.0, 2.0, 3.0]), atol=1e-9)

    def test_identity_fixed_point(self):
        for alpha in (0.3, 0.7):
            out = fp.balakrishnan_power(np.eye(5), fp.BalakrishnanConfig(alpha))
            assert np.allclose(np.asarray(out), np.eye(5), atol=1e-10)

    def test_spectral_oracle(self):
        A = spd_matrix(20, 1)
        for alpha in (0.25, 0.5, 0.75):
            B = np.asarray(fp.balakrishnan_power(A, fp.BalakrishnanConfig(alpha)))
            ref = herm_power(A, alpha)
            assert np.linalg.norm(B - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_negative_power_oracle(self):
        A = spd_matrix(15, 2)
        alpha = 0.6
        N = np.asarray(fp.negative_power(A, fp.BalakrishnanConfig(alpha)))
        ref = herm_power(A, -alpha)
        assert np.linalg.norm(N - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_power_times_negative_power(self):
        A = spd_matrix(12, 3)
        cfg = fp.BalakrishnanConfig(0.45)
        P = np.asarray(fp.balakrishnan_power(A, cfg))
        N = np.asarray(fp.negative_power(A, cfg))
        assert np.linalg.norm(P @ N - np.eye(12)) <= 1e-8

    def test_apply_matches_matrix(self):
        A = spd_matrix(10, 4)
        cfg = fp.BalakrishnanConfig(0.5)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(10)
        via_apply = fp.balakrishnan_apply(A, f, cfg)
        via_matrix = np.asarray(fp.balakrishnan_power(A, cfg)) @ f
        assert np.allclose(via_apply, via_matrix, atol=1e-10)

    def test_semigroup_in_alpha(self):
        A = spd_matrix(10, 6)
        cfg3, cfg4 = fp.BalakrishnanConfig(0.3), fp.BalakrishnanConfig(0.4)
        cfg7 = fp.BalakrishnanConfig(0.7)
        lhs = np.asarray(fp.balakrishnan_power(A, cfg3)) @ np.asarray(fp.balakrishnan_power(A, cfg4))
        rhs = np.asarray(fp.balakrishnan_power(A, cfg7))
        assert np.linalg.norm(lhs - rhs) <= 1e-5 * np.linalg.norm(rhs)

    def test_commutes_with_A(self):
        A = spd_matrix(10, 7)
        B = np.asarray(fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5)))
        assert np.linalg.norm(A @ B - B @ A) <= 1e-8 * np.linalg.norm(A @ B)

    def test_nonnormal_accretive(self):
        # upper-triangular accretive: compare against the Schur-function power
        import scipy.linalg

        A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 4.0]])
        B = np.asarray(fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5)))
        ref = scipy.linalg.sqrtm(A)
        assert np.linalg.norm(B - ref) <= 1e-7 * np.linalg.norm(ref)

    def test_check_rejects_nonaccretive(self):
        A = np.diag([1.0, -2.0])
        with pytest.raises(NotAccretive):
            fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5), check=True)

    def test_doubling_guard_trips_on_coarse_rule(self):
        # a spectrum over 24 decades: halving the step twice still moves the
        # result by ~2e-6
        A = np.diag(np.geomspace(1e-12, 1e12, 9))
        with pytest.raises(QuadratureNotConverged):
            fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5), check=True)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("decades", [12, 14])
    def test_wide_spectrum_takes_a_third_level(self, decades, alpha, monkeypatch):
        # halving the step once moves the result by 6e-7..2e-5 here, though the
        # halved rule is right to 2e-10; the third level confirms it
        shifts = []
        solve = fp._ResolventSolver.solve
        monkeypatch.setattr(fp._ResolventSolver, "solve",
                            lambda self, lam, B: shifts.append(lam) or solve(self, lam, B))
        lam = np.geomspace(10.0 ** (-decades / 2), 10.0 ** (decades / 2), 9)
        P = fp.balakrishnan_power(np.diag(lam), fp.BalakrishnanConfig(alpha), check=True)
        assert np.max(np.abs(np.diag(P) - lam**alpha) / lam**alpha) <= 1e-9
        assert len(shifts) == 193 + 192 and len(set(shifts)) == len(shifts)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("decades", [4, 8, 12, 14])
    def test_checked_result_is_right_or_raises(self, decades, alpha):
        lam = np.geomspace(10.0 ** (-decades / 2), 10.0 ** (decades / 2), 9)
        try:
            P = fp.balakrishnan_power(np.diag(lam), fp.BalakrishnanConfig(alpha), check=True)
        except QuadratureNotConverged:
            return
        assert np.max(np.abs(np.diag(P) - lam**alpha) / lam**alpha) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_singular_matrix(self, alpha):
        # A^alpha of a singular A is still the integral of (l+A)^(-1) A
        A = np.diag([0.0, 1.0, 4.0])
        for check in (False, True):
            P = fp.balakrishnan_power(A, fp.BalakrishnanConfig(alpha), check=check)
            assert np.max(np.abs(P - np.diag([0.0, 1.0, 4.0**alpha]))) <= 1e-12

    def test_solve_count(self, monkeypatch):
        # halving the step reuses every coarse node
        shifts = []
        solve = fp._ResolventSolver.solve

        def counting(self, lam, B):
            shifts.append(lam)
            return solve(self, lam, B)

        monkeypatch.setattr(fp._ResolventSolver, "solve", counting)
        A, cfg = spd_matrix(6, 8), fp.BalakrishnanConfig(0.5)
        for call in (fp.balakrishnan_power, fp.negative_power):
            for check, limit in ((False, 100), (True, 200)):
                shifts.clear()
                call(A, cfg, check=check)
                assert 0 < len(shifts) <= limit
                assert len(set(shifts)) == len(shifts)

    def test_config_validation(self):
        with pytest.raises(BadAlpha):
            fp.BalakrishnanConfig(0.0)
        with pytest.raises(BadAlpha):
            fp.BalakrishnanConfig(1.0)


class TestBandedGenerators:
    """The paper's non-normal generators above n = 64, where the resolvent
    solves take the banded path, against Schur-Pade powers."""

    @pytest.mark.parametrize("kind, alpha", [("shift", 0.6), ("poisson", 0.5),
                                             ("shift", 0.02), ("shift", 0.98),
                                             ("gauss", 0.02), ("gauss", 0.98),
                                             ("poisson", 0.02), ("poisson", 0.98)])
    def test_power_and_negative_power(self, kind, alpha):
        grid = Grid1D(-20.0, 20.0, 96) if kind == "gauss" else Grid1D(0.0, 1.0, 96)
        A = generator_matrix(SemigroupSpec(kind, grid, mu=4 * grid.h if kind == "poisson" else 0.0))
        assert fp._ResolventSolver(A).banded
        cfg = fp.BalakrishnanConfig(alpha)
        P = fp.balakrishnan_power(A, cfg, check=True)
        want = scipy.linalg.fractional_matrix_power(A, alpha)
        assert np.linalg.norm(P - want) <= 1e-8 * np.linalg.norm(want)
        N = fp.negative_power(A, cfg, check=True)
        want = scipy.linalg.fractional_matrix_power(A, -alpha)
        assert np.linalg.norm(N - want) <= 1e-8 * np.linalg.norm(want)
        assert np.linalg.norm(N @ P - np.eye(96)) <= 1e-8 * np.linalg.norm(np.eye(96))
        f = np.sin(np.arange(96.0))
        assert np.allclose(fp.balakrishnan_apply(A, f, cfg), P @ f, rtol=0, atol=1e-8 * np.linalg.norm(P @ f))

    def test_smooth_vector_on_riesz_generator(self):
        # the riesz model's J on the smooth vector its transform check needs
        grid = Grid1D(-20.0, 20.0, 256)
        J = generator_matrix(SemigroupSpec("gauss", grid))
        f = np.sin(np.pi * (grid.nodes + 20.0) / 40.0) ** 2
        got = fp.balakrishnan_apply(J, f, fp.BalakrishnanConfig(0.9), check=True)
        want = scipy.linalg.fractional_matrix_power(J, 0.9) @ f
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestLemmaConstant:
    def test_spot_values(self):
        assert np.isclose(fp.lemma_constant(0.5, 1.0), 6.0)
        assert np.isclose(fp.lemma_constant(0.5, 0.5), 4.0)

    def test_diverges_at_ends(self):
        assert fp.lemma_constant(0.999, 1.0) > 1e3
        assert fp.lemma_constant(1e-4, 1.0) > 1e3

    def test_rejects_out_of_range(self):
        for a in (0.0, 1.0, -0.3):
            with pytest.raises(BadAlpha):
                fp.lemma_constant(a, 1.0)


class TestGLCoefficients:
    def test_first_values(self):
        c = fp.gl_coefficients(0.5, 1.0, 3)
        assert np.allclose(c, [1.0, -0.5, -0.125, -0.0625])

    def test_lambda_scaling(self):
        c1 = fp.gl_coefficients(0.4, 1.0, 10)
        c2 = fp.gl_coefficients(0.4, 3.0, 10)
        assert np.allclose(c2, 3.0**0.4 * c1)

    def test_signs_and_sum_to_zero(self):
        c = fp.gl_coefficients(0.3, 1.0, 200_000)
        assert c[0] > 0 and np.all(c[1:] < 0)
        # full series sums to (1-1)^a = 0; tail is O(K^-a)
        assert abs(np.sum(c)) <= 2.0 * 200_000**-0.3

    def test_partial_sum_closed_form(self):
        alpha, lam = 0.6, 2.0
        c = fp.gl_coefficients(alpha, lam, 50)
        for K in (1, 10, 50):
            assert np.isclose(np.sum(c[: K + 1]), fp.gl_partial_sum(alpha, lam, K), rtol=1e-12)

    def test_quadrature_route_matches_recurrence(self):
        for alpha in (0.25, 0.5, 0.75):
            c = fp.gl_coefficients(alpha, 1.0, 40)
            cp = fp.gl_coefficients_alt(alpha, 1.0, 40)
            # identities: C'_0 = C_0 and C'_(k+1) - C'_k = C_(k+1)
            assert abs(cp[0] - c[0]) <= 1e-12
            assert np.max(np.abs(np.diff(cp) - c[1:])) <= 1e-12

    def test_abs_sum_independent_oracle(self):
        # direct |C_k| summation to 10^6 plus the exact Gamma-ratio remainder
        alpha, lam = 0.35, 1.7
        K = 1_000_000
        # |C_1| = alpha lam^a, then |C_(k+1)| = |C_k| (k - alpha)/(k + 1),
        # accumulated in log space to dodge underflow
        k = np.arange(1, K, dtype=float)
        mags = np.empty(K)
        mags[0] = alpha * lam**alpha
        mags[1:] = mags[0] * np.exp(np.cumsum(np.log((k - alpha) / (k + 1.0))))
        tail = lam**alpha * np.exp(gammaln(K + 1 - alpha) - gammaln(K + 1) - gammaln(1 - alpha))
        oracle = lam**alpha + np.sum(mags) + tail
        assert np.isclose(fp.gl_abs_sum(alpha, lam), oracle, rtol=1e-10)

    def test_abs_sum_closed_value(self):
        # sum|C_k| = 2 C_0 - S_K + remainder = exactly 2 lam^a
        for alpha, lam in ((0.3, 1.0), (0.7, 2.5)):
            assert np.isclose(fp.gl_abs_sum(alpha, lam), 2.0 * lam**alpha, rtol=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(BadAlpha):
            fp.gl_coefficients(1.2, 1.0, 10)
        with pytest.raises(ValueError):
            fp.gl_coefficients(0.5, -1.0, 10)


class TestGLPower:
    def make_spec(self, n=63, m=1, lam=1.0):
        g = Grid1D(0.0, 1.0, n)
        return g, SemigroupSpec("poisson", g, lam=lam, mu=m * g.h)

    def test_impulse_recovers_coefficients(self):
        g, spec = self.make_spec()
        f = np.zeros(63)
        f[0] = 1.0
        out = fp.gl_power(spec, 0.5, f)
        c = fp.gl_coefficients(0.5, 1.0, 62)
        assert np.allclose(out.real, c, atol=1e-14)

    def test_matrix_matches_apply(self):
        g, spec = self.make_spec(n=40, m=2, lam=2.0)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(40)
        M = fp.gl_power_matrix(spec, 0.4)
        assert np.allclose(M @ f, fp.gl_power(spec, 0.4, f), atol=1e-12)

    def test_matches_balakrishnan(self):
        g, spec = self.make_spec(n=48, m=1, lam=1.5)
        A = generator_matrix(spec)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(48)
        gl = fp.gl_power(spec, 0.5, f)
        bk = fp.balakrishnan_apply(A, f, fp.BalakrishnanConfig(0.5))
        assert np.max(np.abs(gl - bk)) <= 1e-8 * np.max(np.abs(gl))

    def test_alpha_near_one_approaches_generator(self):
        g, spec = self.make_spec(n=32)
        A = generator_matrix(spec)
        f = np.sin(g.nodes)
        out = fp.gl_power(spec, 0.999, f)
        # A is lam (I - S); gl_power carries no 1/h scaling, compare to h*A
        target = g.h * 0 + (np.eye(32) * 1.0 - np.diag(np.ones(31), -1)) @ f
        assert np.max(np.abs(out - target)) <= 5e-3 * np.max(np.abs(target))

    def test_rejects_wrong_kind(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fp.gl_power(SemigroupSpec("shift", g), 0.5, np.ones(8))


class TestClosedFormRoutes:
    def test_riesz_power_constant_value(self):
        # K_a at a = 3/4: -Gamma(1/2) cos(3 pi/8) / (2^(-1/4) Gamma(1/4))
        from scipy.special import gamma

        a = 0.75
        expect = -gamma(2 * a - 1) * np.cos(a * np.pi / 2) / (2 ** (a - 1) * gamma(1 - a))
        assert np.isclose(fp.riesz_power_constant(a), expect)
        with pytest.raises(BadAlpha):
            fp.riesz_power_constant(0.4)

    def test_marchaud_route_agrees(self):
        g = Grid1D(0.0, 1.0, 255)
        f = np.sin(np.pi * g.nodes) ** 2
        assert fp.marchaud_power_check(0.5, g, f) <= 0.02

    def test_riesz_route_agrees(self):
        g = Grid1D(-20.0, 20.0, 511)
        f = np.exp(-g.nodes**2)
        assert fp.riesz_power_check(0.85, g, f) <= 0.02
        with pytest.raises(BadAlpha):
            fp.riesz_power_check(0.6, g, f)
