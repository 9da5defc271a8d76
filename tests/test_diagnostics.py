import numpy as np
import pytest

from fracspec import checks
from fracspec import diagnostics as dg
from fracspec import numcore
from fracspec.cli import _build_model, _config_doc, _make_parser
from fracspec.discretize import Grid1D
from fracspec.errors import DegenerateFit, NoConvergence, NotPositiveDefinite
from fracspec.numcore import inverse, singular_values
from fracspec.transform import Model, TransformSpec, build_kipriyanov_1d


def rand_accretive(n, seed, herm_floor=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (B + B.conj().T) / 2
    H = H @ H.conj().T / n + herm_floor * np.eye(n)
    K = rng.standard_normal((n, n))
    K = (K - K.T) / 2
    return H + K  # standard-Hermitian part H, skew part K


def run_check(name, ctx):
    """(status, numbers) of the verify check ``name`` on ``ctx``."""
    return next(e.fn(ctx) for e in checks.ENTRIES if e.name == name)


def matrix_context(L, hplus=None):
    """The check context verify builds for a custom matrix L, with the norm
    matrix ``hplus`` (default L) and no grid, which the spectrum checks do not
    read."""
    model = Model(L, TransformSpec(L, L, L, 0.0), L if hplus is None else hplus)
    return checks.Context(model, None, {"model": "custom-matrix"})


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

    @pytest.mark.parametrize("n_angles", [64, 18])
    def test_real_matrix_boundary_is_conjugate_symmetric(self, n_angles):
        b = dg.numerical_range(self.kipriyanov(32)[1].L, n_angles=n_angles).boundary
        j = np.arange(1, n_angles // 2)  # all but phi = 0 and pi
        assert np.array_equal(b[n_angles - j], b[j].conj())

    @staticmethod
    def count_reductions(monkeypatch):
        calls = []

        def counting(H):
            calls.append(H)
            return numcore.extreme_eigvecs(H)

        monkeypatch.setattr(dg, "extreme_eigvecs", counting)
        return calls

    @pytest.mark.parametrize("n_angles, reductions", [(64, 17), (18, 5)])
    def test_real_matrix_solves_half_the_angles(self, monkeypatch, n_angles, reductions):
        M = self.kipriyanov(32)[1].L
        calls = self.count_reductions(monkeypatch)
        dg.numerical_range(M, n_angles=n_angles)
        assert len(calls) == reductions
        calls.clear()
        dg.numerical_range(M + 1e-3j * np.eye(len(M)), n_angles=n_angles)
        assert len(calls) == n_angles // 2

    @staticmethod
    def dense_support_points(M, n_angles):
        """Support point at each angle from a full ``np.linalg.eigh`` of
        Re(e^(i phi) M): the Rayleigh quotient at its top eigenvector."""
        want = []
        for phi in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
            v = np.linalg.eigh(numcore.hermitian_part(np.exp(1j * phi) * M))[1][:, -1]
            want.append(v.conj() @ M @ v)
        return np.array(want)

    def test_complex_matrix_boundary_is_the_full_loop(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        want = self.dense_support_points(M, 64)
        got = dg.numerical_range(M, n_angles=64).boundary
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_angles", [64, 18])
    def test_paired_points_match_dense_eigh_at_every_angle(self, kind, n_angles):
        # each reduction fills two rows (phi + pi, or pi - phi for a real M);
        # a pairing index off by one puts a point at the wrong angle.
        # N = 18 is 2 mod 4, where no angle pairs with itself
        rng = np.random.default_rng(7)
        M = np.triu(rng.standard_normal((10, 10)), -1)  # non-normal
        if kind == "complex":
            M = M + 1j * np.triu(rng.standard_normal((10, 10)))
        want = self.dense_support_points(M, n_angles)
        got = dg.numerical_range(M, n_angles=n_angles).boundary
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(M, 2)

    def test_rejects_odd_angle_count(self):
        with pytest.raises(ValueError):
            dg.numerical_range(np.diag([1.0, 2.0]), n_angles=17)

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

        monkeypatch.setattr(numcore.scipy.linalg, "eigh_tridiagonal", fail)
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
        status, numbers = run_check("h1-h2-bounds", matrix_context(np.eye(6)))
        assert status == "pass"
        assert np.isclose(numbers["C1"], 1.0) and np.isclose(numbers["C2"], 1.0)

    def test_diagonal_oracle(self):
        L = np.diag([2.0, 5.0, 3.0])
        N = np.diag([1.0, 2.0, 1.0])
        C1, C2 = dg.verify_H1_H2(L, N)
        # N^-1/2 L N^-1/2 = diag(2, 2.5, 3)
        assert np.isclose(C2, 2.0) and np.isclose(C1, 3.0)

    def test_indefinite_form_fails(self):
        ctx = matrix_context(np.diag([1.0, -1.0]), hplus=np.eye(2))
        status, numbers = run_check("h1-h2-bounds", ctx)
        assert status == "fail" and np.isclose(numbers["C2"], -1.0)

    def test_rejects_degenerate_norm(self):
        with pytest.raises(NotPositiveDefinite):
            dg.verify_H1_H2(np.eye(2), np.diag([1.0, 0.0]))

    def test_not_positive_definite_names_eigenvalue_and_floor(self):
        with pytest.raises(NotPositiveDefinite) as err:
            dg.verify_H1_H2(np.eye(2), np.diag([2.0, -1.0]))
        # floor = n eps max|w| = 2 * 2.22e-16 * 2
        assert str(err.value) == "norm matrix min eigenvalue -1.000e+00 not above floor 8.882e-16"

    def test_riesz_512_norm_matrix_clears_the_rounding_floor(self):
        # the weighted-H2 norm matrix has lambda_min = 1.0015 and lambda_max =
        # 1.55e12: the floor n eps max|w| is 0.176, where 1e-12 ||N||_F (6.35)
        # rejected it
        argv = ["build", "--model", "riesz", "--grid-n", "512", "--alpha", "0.9",
                "--rho", "const:0.1", "--out", "unused.json"]
        model = _build_model(_config_doc(_make_parser().parse_args(argv)))[0]
        ctx = checks.Context(model, None, {"model": "riesz"})
        status, numbers = run_check("h1-h2-bounds", ctx)
        assert status == "pass"
        assert numbers["C1"] == pytest.approx(0.99691, rel=1e-4)
        assert numbers["C2"] == pytest.approx(2.4939e-7, rel=1e-4)


class TestFactorizationCache:
    def test_spectrum_suite_factors_L_once(self, monkeypatch):
        # one eigh of Re L (and one of the h+ norm matrix), one inverse of L
        # and one of I - C^2
        grid, model = TestNumericalRange.kipriyanov(32)
        calls = {"eigh": 0, "inv": 0}
        eigh, inv = numcore._eigh, np.linalg.inv

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(numcore, "_eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
        entries = checks.run(checks.Context(model, grid, {"model": "kipriyanov1d"}), ("spectrum",))
        assert "error" not in {e["status"] for e in entries}
        assert calls == {"eigh": 2, "inv": 2}


class TestSectorialFactorization:
    def test_hermitian_gives_zero_C(self):
        W = rand_accretive(5, 3) .real
        W = (W + W.T) / 2 + 5 * np.eye(5)
        root, inv_root, C = dg.sectorial_factorize(W)
        assert np.allclose(root @ root, W, atol=1e-10)
        assert np.allclose(root @ inv_root, np.eye(5), atol=1e-10)
        assert np.max(np.abs(C)) <= 1e-10

    def test_reconstruction(self):
        for seed in (0, 1, 2):
            n = 30
            W = rand_accretive(n, seed)
            root, _, C = dg.sectorial_factorize(W)
            # W = H^1/2 (I + C) H^1/2
            recon = root @ (np.eye(n) + C) @ root
            assert np.linalg.norm(recon - W) <= 1e-10 * np.linalg.norm(W)

    def test_C_skew_hermitian(self):
        n = 12
        W = rand_accretive(n, 7)
        _, _, C = dg.sectorial_factorize(W)
        assert np.linalg.norm(C.conj().T + C) <= 1e-10 * np.linalg.norm(C)

    def test_factors_keep_the_dtype(self):
        # the entrywise real part of this W is accretive too; its factors are real
        W = rand_accretive(12, 7)
        factors = dg.sectorial_factorize(W.real)
        assert all(X.dtype == np.float64 for X in factors)
        root, _, C = factors
        assert np.linalg.norm(root @ (np.eye(12) + C) @ root - W.real) <= 1e-10 * np.linalg.norm(W)
        assert dg.sectorial_factorize(W)[2].dtype == np.complex128

    def test_rejects_nonpositive_real_part(self):
        with pytest.raises(NotPositiveDefinite):
            dg.sectorial_factorize(np.diag([1.0, -1.0]))


class TestResolventIdentity:
    @staticmethod
    def defects(W):
        _, inv_root, C = dg.sectorial_factorize(W)
        return dg.realpart_resolvent_check(inverse(W), inv_root, C)

    def test_factor_one_holds(self):
        for seed in (0, 1):
            n = 20
            defect1, defect_half = self.defects(rand_accretive(n, seed))
            assert defect1 <= 1e-10
            assert abs(defect_half - 0.5) <= 0.1

    def test_hermitian_case(self):
        defect1, defect_half = self.defects(np.diag([1.0, 2.0, 4.0]))
        assert defect1 <= 1e-12
        assert np.isclose(defect_half, 0.5)


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
        rep = dg.schatten_classify(s, 2.0)
        assert rep.trace_class and rep.predicted_p == 1.0
        assert list(rep.sums) == [1.0] and np.isclose(rep.sums[1.0], np.sum(s))
        rep2 = dg.schatten_classify(s, 0.5)
        assert not rep2.trace_class and np.isclose(rep2.predicted_p, 4.0)
        with pytest.raises(ValueError):
            dg.schatten_classify(s, 0.0)


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
        # the check takes eps = 0.1
        i = np.arange(1, 201, dtype=float)
        status, good = run_check("eigenvalue-asymptotics",
                                 checks.Context(None, None, {}, evals=i**-2.0, mu=2.0))
        assert status == "pass" and good["trend_slope"] < 0
        status, bad = run_check("eigenvalue-asymptotics",
                                checks.Context(None, None, {}, evals=i**-1.0, mu=2.0))
        assert status == "fail" and bad["trend_slope"] > 0


class TestCompletenessAndMAccretive:
    def test_completeness_criterion(self):
        def status(theta, mu):
            sector = dg.SectorEstimate(0.0, theta, np.array([1.0 + 0.0j]))
            ctx = checks.Context(None, None, {}, sector=sector, mu=mu)
            return run_check("completeness-criterion", ctx)[0]

        assert status(0.1, 2.0) == "pass"
        assert status(np.pi / 3, 0.5) == "fail"
        # boundary is strict
        assert status(np.pi / 4, 0.5) == "fail"

    def test_maccretive_pass(self):
        A = rand_accretive(8, 5)
        status, numbers = run_check("generator-m-accretive", matrix_context(A))
        assert status == "pass" and numbers["min_herm_eig"] > 0

    def test_maccretive_fail(self):
        status, numbers = run_check("generator-m-accretive", matrix_context(-np.eye(3) * 0.001))
        assert status == "fail" and np.isclose(numbers["min_herm_eig"], -0.001)

    def test_generator_is_maccretive(self):
        from fracspec.discretize import Grid1D
        from fracspec.semigroup import SemigroupSpec, generator_matrix

        g = Grid1D(0.0, 1.0, 31)
        for kind, kw in (("shift", {}), ("gauss", {}), ("poisson", {"lam": 2.0, "mu": 2 * g.h})):
            A = generator_matrix(SemigroupSpec(kind, g, **kw))
            assert run_check("generator-m-accretive", matrix_context(A))[0] == "pass"
