import numpy as np
import pytest

from fracspec import diagnostics as dg
from fracspec.errors import DegenerateFit, NotPositiveDefinite
from fracspec.numcore import InnerProduct, adjoint, herm_power, singular_values


def rand_accretive(n, seed, herm_floor=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (B + B.conj().T) / 2
    H = H @ H.conj().T / n + herm_floor * np.eye(n)
    K = rng.standard_normal((n, n))
    K = (K - K.T) / 2
    return H + K  # standard-Hermitian part H, skew part K


def unwhiten(M, ip):
    """Conjugate a standard-accretive matrix into ip-accretive coordinates."""
    s = np.sqrt(ip.weights)
    return M * (s[None, :] / s[:, None])


class TestNumericalRange:
    def test_hermitian_diagonal_is_segment(self):
        ip = InnerProduct.uniform(2)
        est = dg.numerical_range(np.diag([1.0, 3.0]), ip, n_angles=64)
        assert np.isclose(est.vertex, 1.0, atol=1e-10)
        assert est.semi_angle <= 1e-8
        assert np.max(est.boundary.real) <= 3.0 + 1e-10
        assert np.max(np.abs(est.boundary.imag)) <= 1e-10

    def test_nilpotent_disk(self):
        # numerical range of the 2x2 Jordan block is the disk of radius 1/2
        ip = InnerProduct.uniform(2)
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        est = dg.numerical_range(N, ip, n_angles=128)
        assert np.allclose(np.abs(est.boundary), 0.5, atol=1e-10)
        # Rayleigh-quotient sampling stays inside
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            assert abs(v.conj() @ N @ v) <= 0.5 + 1e-12

    def test_shift_equivariance(self):
        ip = InnerProduct.uniform(4)
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        e1 = dg.numerical_range(M, ip, n_angles=64)
        e2 = dg.numerical_range(M + 2.0 * np.eye(4), ip, n_angles=64)
        assert np.allclose(e2.boundary, e1.boundary + 2.0, atol=1e-8)

    def test_convexity_of_boundary_hull(self):
        # all Rayleigh samples lie in the hull of the support points
        from scipy.spatial import ConvexHull

        ip = InnerProduct.uniform(5)
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        est = dg.numerical_range(M, ip, n_angles=256)
        pts = np.column_stack([est.boundary.real, est.boundary.imag])
        hull = ConvexHull(pts)
        eqs = hull.equations
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            z = v.conj() @ M @ v
            assert np.all(eqs[:, 0] * z.real + eqs[:, 1] * z.imag + eqs[:, 2] <= 1e-6)

    def test_sector_angle_known(self):
        # diag(e^(i pi/4), e^(-i pi/4), 1): sector about 0 has theta = pi/4
        ip = InnerProduct.uniform(3)
        M = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4), 1.0])
        est = dg.numerical_range(M, ip, n_angles=512, vertex=0.0)
        assert abs(est.semi_angle - np.pi / 4) <= 1e-3

    def test_refit_sector(self):
        ip = InnerProduct.uniform(3)
        M = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 2.0])
        est = dg.numerical_range(M, ip, n_angles=256)
        about_origin = dg.refit_sector(est, 0.0)
        assert abs(about_origin.semi_angle - np.pi / 4) <= 1e-3
        assert about_origin.vertex == 0.0

    def test_rejects_few_angles(self):
        with pytest.raises(ValueError):
            dg.numerical_range(np.eye(2), InnerProduct.uniform(2), n_angles=4)


class TestH1H2:
    def test_identity_pair(self):
        ip = InnerProduct.uniform(6)
        rep = dg.verify_H1_H2(np.eye(6), np.eye(6), ip)
        assert rep.verdict
        assert np.isclose(rep.C1, 1.0) and np.isclose(rep.C2, 1.0)

    def test_diagonal_oracle(self):
        ip = InnerProduct.uniform(3)
        L = np.diag([2.0, 5.0, 3.0])
        N = np.diag([1.0, 2.0, 1.0])
        rep = dg.verify_H1_H2(L, N, ip)
        # whitened: diag(2, 2.5, 3)
        assert np.isclose(rep.C2, 2.0) and np.isclose(rep.C1, 3.0)

    def test_indefinite_form_fails(self):
        ip = InnerProduct.uniform(2)
        rep = dg.verify_H1_H2(np.diag([1.0, -1.0]), np.eye(2), ip)
        assert not rep.verdict

    def test_rejects_degenerate_norm(self):
        ip = InnerProduct.uniform(2)
        with pytest.raises(NotPositiveDefinite):
            dg.verify_H1_H2(np.eye(2), np.diag([1.0, 0.0]), ip)

    def test_not_positive_definite_names_eigenvalue_and_floor(self):
        ip = InnerProduct.uniform(2)
        with pytest.raises(NotPositiveDefinite) as err:
            dg.verify_H1_H2(np.eye(2), np.diag([2.0, -1.0]), ip)
        # floor = pd_floor_rel * ||N||_F = 1e-12 * sqrt(5)
        assert str(err.value) == "norm matrix min eigenvalue -1.000e+00 not above floor 2.236e-12"


class TestSectorialFactorization:
    def test_hermitian_gives_zero_B(self):
        ip = InnerProduct.uniform(5)
        W = rand_accretive(5, 3) .real
        W = (W + W.T) / 2 + 5 * np.eye(5)
        H, B = dg.sectorial_factorize(W, ip)
        assert np.allclose(H, W, atol=1e-10)
        assert np.max(np.abs(B)) <= 1e-10

    def test_reconstruction(self):
        for seed in (0, 1, 2):
            n = 30
            W0 = rand_accretive(n, seed)
            for ip in (InnerProduct.uniform(n),
                       InnerProduct(np.random.default_rng(seed).uniform(0.5, 2.0, n))):
                W = unwhiten(W0, ip)
                H, B = dg.sectorial_factorize(W, ip)
                # check in whitened coordinates: W = H^1/2 (I + iB) H^1/2
                root = ip.whiten(herm_power(H, 0.5, ip))
                recon = root @ (np.eye(n) + 1j * ip.whiten(B)) @ root
                assert np.linalg.norm(recon - ip.whiten(W)) <= 1e-10 * np.linalg.norm(W)

    def test_B_selfadjoint(self):
        n = 12
        ip = InnerProduct(np.random.default_rng(7).uniform(0.5, 2.0, n))
        W = unwhiten(rand_accretive(n, 7), ip)
        _, B = dg.sectorial_factorize(W, ip)
        assert np.linalg.norm(adjoint(B, ip) - B) <= 1e-10 * np.linalg.norm(B)

    def test_rejects_nonpositive_real_part(self):
        ip = InnerProduct.uniform(2)
        with pytest.raises(NotPositiveDefinite):
            dg.sectorial_factorize(np.diag([1.0, -1.0]), ip)


class TestResolventIdentity:
    def test_factor_one_holds(self):
        for seed in (0, 1):
            n = 20
            W = rand_accretive(n, seed)
            ip = InnerProduct.uniform(n)
            rep = dg.realpart_resolvent_check(W, ip)
            assert rep.defect_factor1 <= 1e-10
            assert abs(rep.defect_factor_half - 0.5) <= 0.1

    def test_hermitian_case(self):
        ip = InnerProduct.uniform(3)
        rep = dg.realpart_resolvent_check(np.diag([1.0, 2.0, 4.0]), ip)
        assert rep.defect_factor1 <= 1e-12
        assert np.isclose(rep.defect_factor_half, 0.5)


class TestOrderAndSchatten:
    def test_exact_power_law(self):
        i = np.arange(1, 101, dtype=float)
        mu, r2 = dg.order_estimate(i**-1.7)
        assert np.isclose(mu, 1.7, atol=1e-10)
        assert r2 >= 1.0 - 1e-12

    def test_degenerate_fit(self):
        with pytest.raises(DegenerateFit):
            dg.order_estimate(np.ones(50))
        with pytest.raises(ValueError):
            dg.order_estimate(np.ones(8))

    def test_dirichlet_resolvent_order(self):
        # -f'' on (0,1): resolvent singular values ~ (pi k)^-2, order 2
        from fracspec.discretize import Grid1D, second_derivative

        g = Grid1D(0.0, 1.0, 255)
        R = np.linalg.inv(-second_derivative(g).m.real)
        s = singular_values(R, g.ip())
        mu, r2 = dg.order_estimate(s, fraction=0.25)
        assert abs(mu - 2.0) <= 0.02
        assert r2 >= 0.9999

    def test_schatten_classification(self):
        s = np.arange(1, 65, dtype=float) ** -2.0
        rep = dg.schatten_classify(s, 2.0, extra_ps=(2.0,))
        assert rep.trace_class and rep.predicted_p == 1.0
        assert np.isclose(rep.sums[1.0], np.sum(s))
        rep2 = dg.schatten_classify(s, 0.5)
        assert not rep2.trace_class and np.isclose(rep2.predicted_p, 4.0)
        with pytest.raises(ValueError):
            dg.schatten_classify(s, 0.0)

    def test_refinement_surrogate(self):
        assert dg.refinement_converged(1.000, 1.001)
        assert not dg.refinement_converged(1.0, 2.0)


class TestEigenvalueInequalityAndAsymptotics:
    def test_equal_operators_ratio_one(self):
        M = np.diag([4.0, 2.0, 1.0])
        ip = InnerProduct.uniform(3)
        ratios, sup = dg.eigenvalue_inequality(M, M, ip)
        assert np.allclose(ratios, 1.0, atol=1e-12)
        assert np.isclose(sup, 1.0)

    def test_two_by_two(self):
        ip = InnerProduct.uniform(2)
        R_W = np.array([[1.0, 1.0], [0.0, 0.5]])
        R_H = np.diag([2.0, 1.0])
        ratios, sup = dg.eigenvalue_inequality(R_W, R_H, ip)
        assert np.isclose(ratios[0], 0.5)
        assert np.isclose(ratios[1], 1.5 / 3.0)
        assert sup <= 1.0

    def test_asymptotics_pass_and_fail(self):
        i = np.arange(1, 201, dtype=float)
        good = dg.asymptotics_check(i**-2.0, mu=2.0, eps=0.1)
        assert good.passed and good.trend_slope < 0
        bad = dg.asymptotics_check(i**-1.0, mu=2.0, eps=0.1)
        assert not bad.passed


class TestCompletenessAndMAccretive:
    def test_completeness_criterion(self):
        sector = dg.SectorEstimate(0.0, 0.1, np.array([1.0 + 0.0j]))
        assert dg.completeness_criterion(sector, 2.0)
        wide = dg.SectorEstimate(0.0, np.pi / 3, np.array([1.0 + 0.0j]))
        assert not dg.completeness_criterion(wide, 0.5)
        # boundary is strict
        edge = dg.SectorEstimate(0.0, np.pi / 4, np.array([1.0 + 0.0j]))
        assert not dg.completeness_criterion(edge, 0.5)

    def test_maccretive_pass(self):
        ip = InnerProduct.uniform(8)
        A = rand_accretive(8, 5)
        rep = dg.maccretive_check(A, ip)
        assert rep.passed and rep.min_herm_eig > 0

    def test_maccretive_fail(self):
        ip = InnerProduct.uniform(3)
        rep = dg.maccretive_check(-np.eye(3) * 0.001 + np.diag([1.0, 1.0, 0.0]) * 0, ip)
        assert not rep.passed

    def test_generator_is_maccretive(self):
        from fracspec.discretize import Grid1D
        from fracspec.semigroup import SemigroupSpec, generator_matrix

        g = Grid1D(0.0, 1.0, 31)
        for kind, kw in (("shift", {}), ("gauss", {}), ("poisson", {"lam": 2.0, "mu": 2 * g.h})):
            A = generator_matrix(SemigroupSpec(kind, g, **kw))
            rep = dg.maccretive_check(A, g.ip())
            assert rep.passed
