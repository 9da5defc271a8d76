import numpy as np
import pytest
import scipy.linalg

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
    """The check context of a model with the matrix L, and the h+ norm matrix
    ``hplus`` if given (verify builds a custom matrix as L alone)."""
    return checks.Context(Model(L, hplus=hplus))


def generator_context(J):
    """The check context of a model L = J whose transform has the generator J."""
    return checks.Context(Model(J, TransformSpec(J, J, J, 0.5)))


class TestModelParts:
    """The checks read each part they need from the Model alone."""

    def test_only_the_readers_of_a_missing_part_change(self):
        # L alone, as verify builds a custom matrix, against L with the
        # stand-in parts J = G = F = hplus = L and alpha = 0.5: the entries that
        # read J, the h+ norm matrix or the transform are info, every other
        # entry is the same
        k = np.arange(1.0, 21.0)
        L = np.diag(k**2) + 0.3 * (np.eye(20, k=1) - np.eye(20, k=-1))
        bare = {e["name"]: e for e in checks.run(matrix_context(L), checks.SUITES)}
        stand_in = checks.Context(Model(L, TransformSpec(L, L, L, 0.5), L))
        full = {e["name"]: e for e in checks.run(stand_in, checks.SUITES)}
        readers = {"generator-m-accretive", "h1-h2-bounds", "class-membership"}
        assert list(bare) == list(full) and "difference-h2-threshold" not in bare
        for name in bare:
            if name in readers:
                assert bare[name]["status"] == "info" and "message" in bare[name]["numbers"]
                assert full[name]["status"] != "info"
            else:
                assert bare[name] == full[name]

    def test_context_takes_the_model_and_seed_alone(self):
        # the fields entries store are keyword-only, so a stale
        # Context(model, grid, config) raises instead of binding them
        model = Model(np.eye(4))
        with pytest.raises(TypeError):
            checks.Context(model, None, {"model": "custom-matrix"})
        assert checks.Context(model, 3).seed == 3


class TestNumericalRange:
    def test_hermitian_diagonal_is_segment(self):
        b = dg.numerical_range(np.diag([1.0, 3.0]))
        vertex = float(np.min(b.real))
        assert np.isclose(vertex, 1.0, atol=1e-10)
        assert dg.sector_angle(b, vertex) <= 1e-8
        assert np.max(b.real) <= 3.0 + 1e-10
        assert np.max(np.abs(b.imag)) <= 1e-10

    def test_nilpotent_disk(self):
        # numerical range of the 2x2 Jordan block is the disk of radius 1/2
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.abs(dg.numerical_range(N)), 0.5, atol=1e-10)
        # Rayleigh-quotient sampling stays inside
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            assert abs(v.conj() @ N @ v) <= 0.5 + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        b1 = dg.numerical_range(M)
        b2 = dg.numerical_range(M + 2.0 * np.eye(4))
        assert np.allclose(b2, b1 + 2.0, atol=1e-8)

    def test_convexity_of_boundary_hull(self):
        # all Rayleigh samples lie in the hull of the support points
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = dg.numerical_range(M)
        hull = ConvexHull(np.column_stack([b.real, b.imag]))
        eqs = hull.equations
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            z = v.conj() @ M @ v
            assert np.all(eqs[:, 0] * z.real + eqs[:, 1] * z.imag + eqs[:, 2] <= 1e-6)

    def test_sector_angle_known(self):
        # diag(e^(i pi/4), e^(-i pi/4), 1): sector about 0 has theta = pi/4
        M = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4), 1.0])
        assert abs(dg.sector_angle(dg.numerical_range(M), 0.0) - np.pi / 4) <= 1e-3

    def test_refit_sector(self):
        # the vertex of W(M) is 1; about the origin its sector has theta = pi/4
        M = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 2.0])
        assert abs(dg.sector_angle(dg.numerical_range(M), 0.0) - np.pi / 4) <= 1e-3

    @staticmethod
    def kipriyanov(n):
        return build_kipriyanov_1d(Grid1D(0.0, 1.0, n), a11="const:1.0", rho="const:0.1",
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
            M = self.kipriyanov(48).L
        elif which == "difference-24":
            M = self.difference(24).L
        else:
            rng = np.random.default_rng(5)
            M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        b = dg.numerical_range(M)
        assert b.shape == (dg.N_ANGLES,) == (256,)
        phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        for phi, p in zip(phis, b):
            top = np.linalg.eigvalsh(numcore.hermitian_part(np.exp(1j * phi) * M))[-1]
            assert abs((np.exp(1j * phi) * p).real - top) <= 1e-12 * np.linalg.norm(M, 2)

    # the pairing holds on any even grid: 256 is N_ANGLES, where pi/2 pairs
    # with itself; 18 is 2 mod 4, where no angle pairs with itself
    @pytest.mark.parametrize("n_angles", [256, 64, 18])
    def test_real_matrix_boundary_is_conjugate_symmetric(self, monkeypatch, n_angles):
        monkeypatch.setattr(dg, "N_ANGLES", n_angles)
        b = dg.numerical_range(self.kipriyanov(32).L)
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

    @pytest.mark.parametrize("n_angles, reductions", [(256, 65), (64, 17), (18, 5)])
    def test_real_matrix_solves_half_the_angles(self, monkeypatch, n_angles, reductions):
        # angles 0..pi/2 for a real L, 0..pi for a complex one
        monkeypatch.setattr(dg, "N_ANGLES", n_angles)
        M = self.kipriyanov(32).L
        calls = self.count_reductions(monkeypatch)
        dg.numerical_range(M)
        assert len(calls) == reductions
        calls.clear()
        dg.numerical_range(M + 1e-3j * np.eye(len(M)))
        assert len(calls) == n_angles // 2

    @staticmethod
    def dense_support_points(M, n_angles=256):
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
        got = dg.numerical_range(M)
        assert np.max(np.abs(got - self.dense_support_points(M))) <= 1e-12 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_angles", [256, 64, 18])
    def test_paired_points_match_dense_eigh_at_every_angle(self, monkeypatch, kind, n_angles):
        # each reduction fills two rows (phi + pi, or pi - phi for a real M);
        # a pairing index off by one puts a point at the wrong angle. At 256
        # and 64 the angle pi/2 pairs with itself; at 18 (2 mod 4) none does
        monkeypatch.setattr(dg, "N_ANGLES", n_angles)
        rng = np.random.default_rng(7)
        M = np.triu(rng.standard_normal((10, 10)), -1)  # non-normal
        if kind == "complex":
            M = M + 1j * np.triu(rng.standard_normal((10, 10)))
        got = dg.numerical_range(M)
        want = self.dense_support_points(M, n_angles)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(M, 2)

    def test_does_not_run_full_eigh(self, monkeypatch):
        M = self.kipriyanov(32).L
        want = dg.numerical_range(M)

        def refuse(*args, **kwargs):
            raise AssertionError("full eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert np.array_equal(dg.numerical_range(M), want)

    def test_lapack_failure_is_no_convergence_error_entry(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(numcore.scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(NoConvergence):
            dg.numerical_range(np.diag([1.0, 2.0]))
        model = self.kipriyanov(24)
        entries = checks.run(checks.Context(model), ("spectrum",))
        entry = next(e for e in entries if e["name"] == "numerical-range")
        assert (entry["status"], entry["numbers"]["exception"]) == ("error", "NoConvergence")


class TestH1H2:
    def test_lapack_failure_is_no_convergence_error_entry(self, monkeypatch):
        model = TestNumericalRange.kipriyanov(24)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        # J is read from its band, the whitened W by a dense eigensolve
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        monkeypatch.setattr(numcore.scipy.linalg, "eigvals_banded", fail)
        entries = checks.run(checks.Context(model), ("spectrum",))
        got = {e["name"]: (e["status"], e["numbers"].get("exception")) for e in entries}
        assert got["generator-m-accretive"] == ("error", "NoConvergence")
        assert got["h1-h2-bounds"] == ("error", "NoConvergence")

    def test_identity_pair(self):
        status, numbers = run_check("h1-h2-bounds", matrix_context(np.eye(6), hplus=np.eye(6)))
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

    def test_nan_input_raises_value_error(self):
        bad = np.diag([1.0, np.nan])
        for L, N in ((bad, np.eye(2)), (np.eye(2), bad)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                dg.verify_H1_H2(L, N)

    def test_riesz_512_norm_matrix_clears_the_rounding_floor(self):
        # the weighted-H2 norm matrix has lambda_min = 1.0015 and lambda_max =
        # 1.55e12: the floor n eps max|w| is 0.176, where 1e-12 ||N||_F (6.35)
        # rejected it
        argv = ["build", "--model", "riesz", "--grid-n", "512", "--alpha", "0.9",
                "--rho", "const:0.1", "--out", "unused.json"]
        model = _build_model(_config_doc(_make_parser().parse_args(argv)))[0]
        ctx = checks.Context(model)
        status, numbers = run_check("h1-h2-bounds", ctx)
        assert status == "pass"
        assert numbers["C1"] == pytest.approx(0.99691, rel=1e-4)
        assert numbers["C2"] == pytest.approx(2.4939e-7, rel=1e-4)


class TestFactorizationCache:
    def test_spectrum_suite_factors_L_once(self, monkeypatch):
        # one eigh of Re L (and one of the h+ norm matrix), one inverse of L,
        # one Cholesky factor of I - C^2, and seven SVDs: L's (which also gives
        # the resolvent's singular values), W's in h1-h2-bounds and five in
        # generator-m-accretive
        model = TestNumericalRange.kipriyanov(32)
        calls = {"eigh": 0, "inv": 0, "cholesky": 0, "svd": 0}
        eigh, inv = numcore._eigh, np.linalg.inv
        cho_factor, svdvals = scipy.linalg.cho_factor, scipy.linalg.svdvals

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(numcore, "_eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
        monkeypatch.setattr(scipy.linalg, "cho_factor", counted("cholesky", cho_factor))
        monkeypatch.setattr(scipy.linalg, "svdvals", counted("svd", svdvals))
        entries = checks.run(checks.Context(model), ("spectrum",))
        assert "error" not in {e["status"] for e in entries}
        assert calls == {"eigh": 2, "inv": 1, "cholesky": 1, "svd": 7}


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

    def test_nan_input_raises_value_error(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            dg.sectorial_factorize(np.diag([1.0, np.nan]))


class TestResolventIdentity:
    @staticmethod
    def defects(W):
        _, inv_root, C = dg.sectorial_factorize(W)
        return dg.realpart_resolvent_check(inverse(W)[0], inv_root, C)

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

    def test_order_and_trend_fit_one_line_over_the_leading_half(self):
        # one least-squares fit in log i over the leading fit_fraction: the
        # entries past the window move neither number
        i = np.arange(1, 201, dtype=float)
        s = i**-1.7 * (1.0 + 0.1 * np.sin(i))
        x, y = np.log(i[:100]), np.log(s[:100])
        (slope, _), (ss_res,), *_ = np.polyfit(x, y, 1, full=True)
        mu, r2 = dg.order_estimate(s)
        assert np.isclose(mu, -slope, rtol=1e-12, atol=0)
        assert np.isclose(r2, 1.0 - ss_res / np.sum((y - y.mean()) ** 2), rtol=1e-12, atol=0)
        _, trend = dg.asymptotics_check(s, mu, 0.1)
        assert np.isclose(trend, np.polyfit(x, (mu - 0.1) * x + y, 1)[0], rtol=1e-10, atol=0)
        tail = s.copy()
        tail[100:] *= 1.0 + i[100:]
        assert dg.order_estimate(tail) == (mu, r2)
        assert dg.asymptotics_check(tail, mu, 0.1)[1] == trend

    def test_degenerate_fit(self):
        with pytest.raises(DegenerateFit):
            dg.order_estimate(np.ones(50))
        with pytest.raises(ValueError):
            dg.order_estimate(np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_singular_values_refused(self, bad):
        s = np.arange(1, 33, dtype=float) ** -1.5
        s[3] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            dg.order_estimate(s)

    def test_dirichlet_resolvent_order(self):
        # -f'' on (0,1): resolvent singular values ~ (pi k)^-2, order 2
        from fracspec.discretize import Grid1D, second_derivative

        g = Grid1D(0.0, 1.0, 255)
        R = np.linalg.inv(-second_derivative(g))
        s = singular_values(R)
        mu, r2 = dg.order_estimate(s[:127])  # the fit's half: the leading 63
        assert abs(mu - 2.0) <= 0.02
        assert r2 >= 0.9999

    def test_schatten_classification(self):
        s = np.arange(1, 65, dtype=float) ** -2.0
        status, rep = run_check("schatten-classification", checks.Context(None, svals=s, mu=2.0))
        assert status == "info" and rep["trace_class"] and rep["predicted_p"] == 1.0
        assert list(rep["sums"]) == ["1.0"] and np.isclose(rep["sums"]["1.0"], np.sum(s))
        _, rep2 = run_check("schatten-classification", checks.Context(None, svals=s, mu=0.5))
        assert not rep2["trace_class"] and np.isclose(rep2["predicted_p"], 4.0)

    def test_schatten_key_survives_one_ulp_of_mu(self):
        # riesz n=24: 2/mu and 2/nextafter(mu) differ in the last digit
        s = np.arange(1, 65, dtype=float) ** -0.2
        mu = 2 / 15.204212141599925
        got = [run_check("schatten-classification",
                         checks.Context(None, svals=s, mu=m))[1]
               for m in (mu, float(np.nextafter(mu, 1.0)))]
        assert got[0]["predicted_p"] != got[1]["predicted_p"]
        assert list(got[0]["sums"]) == list(got[1]["sums"]) == ["1.0", "15.2042121416"]


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
                                 checks.Context(None, evals=i**-2.0, mu=2.0))
        assert status == "pass" and good["trend_slope"] < 0
        status, bad = run_check("eigenvalue-asymptotics",
                                checks.Context(None, evals=i**-1.0, mu=2.0))
        assert status == "fail" and bad["trend_slope"] > 0

    def test_asymptotics_names_too_few_eigenvalues(self):
        with pytest.raises(ValueError, match="need at least 8 eigenvalues, got 5"):
            dg.asymptotics_check(np.ones(5), 1.0, 0.1)


class TestCompletenessAndMAccretive:
    def test_completeness_criterion(self):
        def run(point, mu):
            # W(L) = the segment [1, point]: its sector about 0 has theta = arg(point)
            ctx = checks.Context(None, boundary=np.array([1.0 + 0.0j, point]), mu=mu)
            return run_check("completeness-criterion", ctx)

        assert run(np.exp(0.1j), 2.0)[0] == "pass"
        assert run(np.exp(1j * np.pi / 3), 0.5)[0] == "fail"
        # boundary is strict
        status, numbers = run(1.0 + 1.0j, 0.5)
        assert numbers["theta"] == numbers["bound"] == np.pi / 4 and status == "fail"

    def test_completeness_fails_when_w_reaches_the_left_half_plane(self):
        # Re L = diag(-0.5, 1..50) plus a skew part: W(L) reaches Re z = -0.5,
        # so no sector about 0 holds it, though a fit to the points with
        # Re z > 0 gives theta = 1.52 < pi mu / 2 = 3.31
        rng = np.random.default_rng(0)
        B = rng.standard_normal((24, 24))
        L = np.diag([-0.5, *np.linspace(1, 50, 23)]) + (B - B.T) / 2
        got = {e["name"]: e for e in checks.run(matrix_context(L), ("spectrum",))}
        assert got["numerical-range"]["numbers"]["vertex"] == pytest.approx(-0.5, rel=1e-12)
        entry = got["completeness-criterion"]
        assert entry["status"] == "fail"
        assert entry["numbers"]["theta"] == pytest.approx(np.pi, rel=1e-12)
        assert entry["numbers"]["theta"] < entry["numbers"]["bound"]

    def test_maccretive_pass(self):
        A = rand_accretive(8, 5)
        status, numbers = run_check("generator-m-accretive", generator_context(A))
        assert status == "pass" and numbers["min_herm_eig"] > 0

    def test_maccretive_fail(self):
        status, numbers = run_check("generator-m-accretive", generator_context(-np.eye(3) * 0.001))
        assert status == "fail" and np.isclose(numbers["min_herm_eig"], -0.001)

    def test_maccretive_fail_on_a_banded_generator(self, monkeypatch):
        # the Gauss generator shifted below zero: Re J has an eigenvalue of
        # about -0.007, read from J's band, with no dense eigensolve
        from fracspec.semigroup import SemigroupSpec, generator_matrix

        J = generator_matrix(SemigroupSpec("gauss", Grid1D(-20.0, 20.0, 64))) - 0.01 * np.eye(64)
        exact = np.linalg.eigvalsh(J)[0]
        assert -0.0075 < exact < -0.0065

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        status, numbers = run_check("generator-m-accretive", generator_context(J))
        assert status == "fail"
        assert abs(numbers["min_herm_eig"] - exact) <= 64 * np.finfo(float).eps * np.linalg.norm(J, 2)

    def test_generator_is_maccretive(self):
        from fracspec.discretize import Grid1D
        from fracspec.semigroup import SemigroupSpec, generator_matrix

        g = Grid1D(0.0, 1.0, 31)
        for kind, kw in (("shift", {}), ("gauss", {}), ("poisson", {"lam": 2.0, "mu": 2 * g.h})):
            A = generator_matrix(SemigroupSpec(kind, g, **kw))
            assert run_check("generator-m-accretive", generator_context(A))[0] == "pass"
