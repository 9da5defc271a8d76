import numpy as np
import pytest

from fracspec import checks
from fracspec import diagnostics as dg
from fracspec import numcore
from fracspec.cli import _build_model, _config_doc, _make_parser
from fracspec.discretize import Grid1D
from fracspec.errors import DegenerateFit, NoConvergence, NotPositiveDefinite
from fracspec.numcore import herm_power, singular_values
from fracspec.transform import build_kipriyanov_1d


def rand_accretive(n, seed, herm_floor=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (B + B.conj().T) / 2
    H = H @ H.conj().T / n + herm_floor * np.eye(n)
    K = rng.standard_normal((n, n))
    K = (K - K.T) / 2
    return H + K  # standard-Hermitian part H, skew part K


class TestNumericalRange:
    def test_hermitian_diagonal_is_segment(self):
        est = dg.numerical_range(np.diag([1.0, 3.0]), n_angles=64)
        assert np.isclose(est.vertex, 1.0, atol=1e-10)
        assert est.semi_angle <= 1e-8
        assert np.max(est.boundary.real) <= 3.0 + 1e-10
        assert np.max(np.abs(est.boundary.imag)) <= 1e-10

    def test_nilpotent_disk(self):
        # numerical range of the 2x2 Jordan block is the disk of radius 1/2
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        est = dg.numerical_range(N, n_angles=128)
        assert np.allclose(np.abs(est.boundary), 0.5, atol=1e-10)
        # Rayleigh-quotient sampling stays inside
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            assert abs(v.conj() @ N @ v) <= 0.5 + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        e1 = dg.numerical_range(M, n_angles=64)
        e2 = dg.numerical_range(M + 2.0 * np.eye(4), n_angles=64)
        assert np.allclose(e2.boundary, e1.boundary + 2.0, atol=1e-8)

    def test_convexity_of_boundary_hull(self):
        # all Rayleigh samples lie in the hull of the support points
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        est = dg.numerical_range(M, n_angles=256)
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
        M = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4), 1.0])
        est = dg.refit_sector(dg.numerical_range(M, n_angles=512), 0.0)
        assert abs(est.semi_angle - np.pi / 4) <= 1e-3

    def test_refit_sector(self):
        M = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 2.0])
        est = dg.numerical_range(M, n_angles=256)
        about_origin = dg.refit_sector(est, 0.0)
        assert abs(about_origin.semi_angle - np.pi / 4) <= 1e-3
        assert about_origin.vertex == 0.0

    def test_rejects_few_angles(self):
        with pytest.raises(ValueError):
            dg.numerical_range(np.eye(2), n_angles=4)

    @staticmethod
    def kipriyanov(n):
        grid = Grid1D(0.0, 1.0, n)
        return grid, build_kipriyanov_1d(grid, a11="const:1.0", rho="const:0.1",
                                         sigma=0.3, alpha=0.6)

    @staticmethod
    def difference(n):
        argv = ["build", "--model", "difference", "--grid-n", str(n), "--rho", "const:0.1",
                "--out", "unused.json"]
        return _build_model(_config_doc(_make_parser().parse_args(argv)))[0]

    @pytest.mark.parametrize("which", ["random-nonnormal-40", "kipriyanov1d-48", "difference-24"])
    def test_boundary_points_attain_the_support_function(self, which):
        # Re(e^(i phi) p) = lambda_max(Re(e^(i phi) M)) at every sampled angle,
        # whichever eigensolver picked the extreme point; difference-24 has a
        # triple top eigenvalue at phi = pi/2 and 3 pi/2 (flat edges of W(L)),
        # where the mirrored point is another point of the same edge
        if which == "kipriyanov1d-48":
            M = self.kipriyanov(48)[1].L
        elif which == "difference-24":
            M = self.difference(24).L
        else:
            rng = np.random.default_rng(5)
            M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        est = dg.numerical_range(M, n_angles=256)
        phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        for phi, p in zip(phis, est.boundary):
            top = np.linalg.eigvalsh(numcore.hermitian_part(np.exp(1j * phi) * M))[-1]
            assert abs((np.exp(1j * phi) * p).real - top) <= 1e-12 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("n_angles", [64, 17])
    def test_real_matrix_boundary_is_conjugate_symmetric(self, n_angles):
        b = dg.numerical_range(self.kipriyanov(32)[1].L, n_angles=n_angles).boundary
        j = np.arange(1, (n_angles - 1) // 2 + 1)  # all but phi = 0 and, for even n, pi
        assert np.array_equal(b[n_angles - j], b[j].conj())

    @staticmethod
    def count_solves(monkeypatch):
        calls = []

        def counting(H):
            calls.append(H)
            return numcore.top_eigvec(H)

        monkeypatch.setattr(dg, "top_eigvec", counting)
        return calls

    @pytest.mark.parametrize("n_angles, solves", [(64, 33), (17, 9)])
    def test_real_matrix_solves_half_the_angles(self, monkeypatch, n_angles, solves):
        M = self.kipriyanov(32)[1].L
        calls = self.count_solves(monkeypatch)
        dg.numerical_range(M, n_angles=n_angles)
        assert len(calls) == solves
        calls.clear()
        dg.numerical_range(M + 1e-3j * np.eye(len(M)), n_angles=n_angles)
        assert len(calls) == n_angles

    def test_complex_matrix_boundary_is_the_full_loop(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        want = []
        for phi in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            H = np.exp(1j * phi) * M
            v = numcore.top_eigvec((H + H.conj().T) / 2)
            want.append(v.conj() @ M @ v)
        assert np.array_equal(dg.numerical_range(M, n_angles=64).boundary, want)

    def test_does_not_run_full_eigh(self, monkeypatch):
        M = self.kipriyanov(32)[1].L
        want = dg.numerical_range(M, n_angles=64).boundary

        def refuse(*args, **kwargs):
            raise AssertionError("full eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert np.array_equal(dg.numerical_range(M, n_angles=64).boundary, want)

    def test_lapack_failure_is_no_convergence_error_entry(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(numcore.scipy.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            dg.numerical_range(np.diag([1.0, 2.0]), n_angles=16)
        grid, model = self.kipriyanov(24)
        entries = checks.run(checks.Context(model, grid, {"model": "kipriyanov1d"}), ("spectrum",))
        entry = next(e for e in entries if e["name"] == "numerical-range")
        assert (entry["status"], entry["numbers"]["exception"]) == ("error", "NoConvergence")


class TestH1H2:
    def test_lapack_failure_is_no_convergence_error_entry(self, monkeypatch):
        grid, model = TestNumericalRange.kipriyanov(24)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        entries = checks.run(checks.Context(model, grid, {"model": "kipriyanov1d"}), ("spectrum",))
        got = {e["name"]: (e["status"], e["numbers"].get("exception")) for e in entries}
        assert got["generator-m-accretive"] == ("error", "NoConvergence")
        assert got["h1-h2-bounds"] == ("error", "NoConvergence")

    def test_identity_pair(self):
        rep = dg.verify_H1_H2(np.eye(6), np.eye(6))
        assert rep.verdict
        assert np.isclose(rep.C1, 1.0) and np.isclose(rep.C2, 1.0)

    def test_diagonal_oracle(self):
        L = np.diag([2.0, 5.0, 3.0])
        N = np.diag([1.0, 2.0, 1.0])
        rep = dg.verify_H1_H2(L, N)
        # N^-1/2 L N^-1/2 = diag(2, 2.5, 3)
        assert np.isclose(rep.C2, 2.0) and np.isclose(rep.C1, 3.0)

    def test_indefinite_form_fails(self):
        rep = dg.verify_H1_H2(np.diag([1.0, -1.0]), np.eye(2))
        assert not rep.verdict

    def test_rejects_degenerate_norm(self):
        with pytest.raises(NotPositiveDefinite):
            dg.verify_H1_H2(np.eye(2), np.diag([1.0, 0.0]))

    def test_not_positive_definite_names_eigenvalue_and_floor(self):
        with pytest.raises(NotPositiveDefinite) as err:
            dg.verify_H1_H2(np.eye(2), np.diag([2.0, -1.0]))
        # floor = pd_floor_rel * ||N||_F = 1e-12 * sqrt(5)
        assert str(err.value) == "norm matrix min eigenvalue -1.000e+00 not above floor 2.236e-12"


class TestSectorialFactorization:
    def test_hermitian_gives_zero_B(self):
        W = rand_accretive(5, 3) .real
        W = (W + W.T) / 2 + 5 * np.eye(5)
        H, B = dg.sectorial_factorize(W)
        assert np.allclose(H, W, atol=1e-10)
        assert np.max(np.abs(B)) <= 1e-10

    def test_reconstruction(self):
        for seed in (0, 1, 2):
            n = 30
            W = rand_accretive(n, seed)
            H, B = dg.sectorial_factorize(W)
            # W = H^1/2 (I + iB) H^1/2
            root = herm_power(H, 0.5)
            recon = root @ (np.eye(n) + 1j * B) @ root
            assert np.linalg.norm(recon - W) <= 1e-10 * np.linalg.norm(W)

    def test_B_selfadjoint(self):
        n = 12
        W = rand_accretive(n, 7)
        _, B = dg.sectorial_factorize(W)
        assert np.linalg.norm(B.conj().T - B) <= 1e-10 * np.linalg.norm(B)

    def test_rejects_nonpositive_real_part(self):
        with pytest.raises(NotPositiveDefinite):
            dg.sectorial_factorize(np.diag([1.0, -1.0]))


class TestResolventIdentity:
    def test_factor_one_holds(self):
        for seed in (0, 1):
            n = 20
            W = rand_accretive(n, seed)
            rep = dg.realpart_resolvent_check(W)
            assert rep.defect_factor1 <= 1e-10
            assert abs(rep.defect_factor_half - 0.5) <= 0.1

    def test_hermitian_case(self):
        rep = dg.realpart_resolvent_check(np.diag([1.0, 2.0, 4.0]))
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
        R = np.linalg.inv(-second_derivative(g))
        s = singular_values(R)
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
        ratios, sup = dg.eigenvalue_inequality(M, M)
        assert np.allclose(ratios, 1.0, atol=1e-12)
        assert np.isclose(sup, 1.0)

    def test_two_by_two(self):
        R_W = np.array([[1.0, 1.0], [0.0, 0.5]])
        R_H = np.diag([2.0, 1.0])
        ratios, sup = dg.eigenvalue_inequality(R_W, R_H)
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
        A = rand_accretive(8, 5)
        rep = dg.maccretive_check(A)
        assert rep.passed and rep.min_herm_eig > 0

    def test_maccretive_fail(self):
        rep = dg.maccretive_check(-np.eye(3) * 0.001 + np.diag([1.0, 1.0, 0.0]) * 0)
        assert not rep.passed

    def test_generator_is_maccretive(self):
        from fracspec.discretize import Grid1D
        from fracspec.semigroup import SemigroupSpec, generator_matrix

        g = Grid1D(0.0, 1.0, 31)
        for kind, kw in (("shift", {}), ("gauss", {}), ("poisson", {"lam": 2.0, "mu": 2 * g.h})):
            A = generator_matrix(SemigroupSpec(kind, g, **kw))
            rep = dg.maccretive_check(A)
            assert rep.passed
