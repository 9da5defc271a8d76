import ast
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fracspec import numcore as nc
from fracspec.diagnostics import sectorial_factorize
from fracspec.errors import IllConditioned, NoConvergence, NotHermitian, NotPositiveDefinite


def rand_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (B + B.conj().T) / 2


def rand_spd(n, seed, shift=None):
    H = rand_hermitian(n, seed)
    return H @ H.conj().T + (shift if shift is not None else n) * np.eye(n)


class TestHermitianEigen:
    def test_diagonal(self):
        w, V = nc.hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_identity(self):
        w, V = nc.hermitian_eigen(np.eye(5))
        assert np.allclose(w, 1.0)
        gram = V.conj().T @ V
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_char_poly_oracle(self):
        # roots of the characteristic polynomial via the companion matrix
        M = rand_hermitian(8, 0)
        w, V = nc.hermitian_eigen(M)
        coeffs = np.poly(M)
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(w, roots, atol=1e-8)
        resid = np.linalg.norm(M @ V - V * w)
        assert resid <= 1e-10 * np.linalg.norm(M)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            nc.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGeneralEigen:
    def test_nilpotent(self):
        lam = nc.general_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(lam, 0.0)

    def test_triangular(self):
        lam = nc.general_eigen(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert np.allclose(lam, [3.0, 2.0])

    def test_trace_determinant_oracle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lam = nc.general_eigen(M)
        assert abs(np.sum(lam) - np.trace(M)) <= 1e-8 * np.linalg.norm(M)
        assert np.isclose(np.prod(lam), np.linalg.det(M), rtol=1e-8)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((7, 7))
        S = np.eye(7) + 0.1 * rng.standard_normal((7, 7))
        a = np.sort_complex(nc.general_eigen(M))
        b = np.sort_complex(nc.general_eigen(np.linalg.solve(S, M @ S)))
        assert np.allclose(a, b, atol=1e-7)

    def test_sorted_descending_modulus(self):
        lam = nc.general_eigen(np.diag([1.0, -3.0, 2.0]))
        assert np.all(np.diff(np.abs(lam)) <= 1e-14)


class TestSingularValues:
    def test_diagonal(self):
        s = nc.singular_values(np.diag([-3.0, 4.0]))
        assert np.allclose(s, [4.0, 3.0])

    def test_unitary(self):
        Q, _ = np.linalg.qr(rand_hermitian(6, 7) + 1j * rand_hermitian(6, 8))
        s = nc.singular_values(Q)
        assert np.allclose(s, 1.0)

    def test_matches_eigen_of_mstar_m(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        s = nc.singular_values(M)
        w, _ = nc.hermitian_eigen(M.conj().T @ M)
        assert np.allclose(np.sort(s**2), np.sort(w), rtol=1e-8)

    def test_frobenius_sum(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((8, 8))
        s = nc.singular_values(M)
        frob = np.linalg.norm(M) ** 2
        assert abs(np.sum(s**2) - frob) <= 1e-8 * frob

    def test_positive_hermitian_svals_equal_eigs(self):
        M = rand_spd(9, 11)
        s = nc.singular_values(M)
        w, _ = nc.hermitian_eigen(M)
        assert np.allclose(s, w[::-1], rtol=1e-9)


class TestAdjointSolveInverse:
    def test_solve_and_inverse(self):
        M = rand_spd(6, 15)
        M_inv, s = nc.inverse(M)
        assert np.allclose(M_inv @ M, np.eye(6), atol=1e-10)
        assert np.array_equal(s, nc.singular_values(M))  # the condition cap's SVD

    def test_ill_conditioned_rejected(self):
        M = np.diag([1.0, 1e-15])
        with pytest.raises(IllConditioned):
            nc.inverse(M)

    def test_inverse_norm_is_norm_of_inverse(self):
        rng = np.random.default_rng(16)
        for M in (rand_spd(6, 17), rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))):
            want = nc.op_norm(np.linalg.inv(M))
            assert abs(nc.inverse_norm(M) - want) <= 1e-12 * want

    def test_inverse_norm_rejects_singular(self):
        with pytest.raises(IllConditioned):
            nc.inverse_norm(np.diag([1.0] * 5 + [0.0]))


class TestExtremeEigvecs:
    def test_eigenvector_of_largest_eigenvalue(self):
        H = rand_spd(12, 18)
        v = nc.extreme_eigvecs(H)[1]
        lam = np.linalg.eigvalsh(H)[-1]
        assert np.isclose(np.linalg.norm(v), 1.0)
        assert np.allclose(H @ v, lam * v, atol=1e-10 * lam)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_both_ends_of_a_complex_hermitian_matrix(self, n):
        H = rand_hermitian(n, n)
        w = np.linalg.eigvalsh(H)
        scale = np.linalg.norm(H, 2)
        for v, lam in zip(nc.extreme_eigvecs(H), (w[0], w[-1])):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
            assert abs((v.conj() @ H @ v).real - lam) <= 1e-13 * scale
            assert np.linalg.norm(H @ v - lam * v) <= 1e-13 * scale

    def test_reduction_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(nc.scipy.linalg.lapack, "zhetrd", lambda H, **kw: (H, None, None, None, 1))
        with pytest.raises(NoConvergence):
            nc.extreme_eigvecs(rand_spd(5, 3))


class TestSpdCore:
    def test_herm_power_runs_one_eigh(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
        nc.herm_power(rand_spd(5, 4), 0.5)
        assert len(calls) == 1


class TestHermPower:
    def test_diagonal_sqrt(self):
        assert np.allclose(nc.herm_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_identity_any_power(self):
        for p in (-1.0, -0.3, 0.0, 0.7, 2.0):
            assert np.allclose(nc.herm_power(np.eye(4), p), np.eye(4))

    def test_inverse_pair_and_square(self):
        M = rand_spd(7, 16)
        P, N = nc.herm_power(M, 0.4), nc.herm_power(M, -0.4)
        assert np.linalg.norm(P @ N - np.eye(7)) <= 1e-9
        S = nc.herm_power(M, 0.5)
        assert np.linalg.norm(S @ S - M) <= 1e-9 * np.linalg.norm(M)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            nc.herm_power(np.diag([1.0, -1.0]), 0.5)

    @settings(deadline=None, max_examples=20)
    @given(a=st.floats(-1, 1), b=st.floats(-1, 1), seed=st.integers(0, 50))
    def test_additivity(self, a, b, seed):
        M = rand_spd(5, seed)
        lhs = nc.herm_power(M, a) @ nc.herm_power(M, b)
        rhs = nc.herm_power(M, a + b)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)


class TestLapackGate:
    """Every eigen and SVD driver runs through ``numcore._lapack``: a
    non-finite input raises ValueError, a LAPACK failure NoConvergence."""

    @pytest.mark.parametrize("call", [
        lambda M: nc.spd_powers(M, (0.5,)),
        lambda M: nc.herm_power(M, 0.5),
        nc.hermitian_eigen,
        nc.general_eigen,
        nc.singular_values,
        nc.extreme_eigvecs,
        nc.min_hermitian_eig,
        sectorial_factorize,
    ])
    def test_nan_input_raises_value_error(self, call):
        # a NaN, an inf on the diagonal, and a +inf/-inf pair across it (whose
        # sum in a Hermitian part is NaN) are refused before any arithmetic, so
        # under the error::RuntimeWarning filter no warning precedes the ValueError
        for plant in ({(1, 1): np.nan}, {(1, 1): np.inf}, {(0, 1): np.inf, (1, 0): -np.inf}):
            M = rand_spd(5, 4)
            for ij, v in plant.items():
                M[ij] = v
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(M)

    def test_general_eigen_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(NoConvergence, match="did not converge"):
            nc.general_eigen(np.eye(3))

    def test_linalg_error_is_caught_only_in_the_gate(self):
        caught = []
        for path in sorted(pathlib.Path(nc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for h in ast.walk(tree):
                if isinstance(h, ast.ExceptHandler) and h.type and "LinAlgError" in ast.unparse(h.type):
                    # the innermost function that holds the handler
                    fn = max((f for f in funcs if f.lineno <= h.lineno <= f.end_lineno),
                             key=lambda f: f.lineno, default=None)
                    caught.append((path.name, fn and fn.name))
        assert caught == [("numcore.py", "_lapack")]


def band_of_width(n, k, complex_, seed):
    """An n x n matrix, not Hermitian, with k diagonals on either side of the main one."""
    rng = np.random.default_rng(seed)
    M = np.zeros((n, n), complex if complex_ else float)
    for d in range(-k, k + 1):
        v = rng.standard_normal(n - abs(d))
        M += np.diag(v + 1j * rng.standard_normal(n - abs(d)) if complex_ else v, d)
    return M


def failing(*args, **kwargs):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


class TestMinHermitianEig:
    """The smallest eigenvalue of Re M, read from the band of a narrow M and
    by a dense eigensolve of a wide one."""

    N = 64  # the routes meet at band width k = N / 8

    @staticmethod
    def routes(monkeypatch):
        calls = []
        band, dense = scipy.linalg.eigvals_banded, np.linalg.eigvalsh
        monkeypatch.setattr(nc.scipy.linalg, "eigvals_banded",
                            lambda *a, **kw: calls.append("band") or band(*a, **kw))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: calls.append("dense") or dense(*a, **kw))
        return calls

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("k, route", [
        (0, "band"), (1, "band"), (4, "band"), (7, "band"), (8, "dense"), (63, "dense")])
    def test_band_and_dense_routes_agree(self, k, route, complex_, monkeypatch):
        M = band_of_width(self.N, k, complex_, seed=k)
        H = (M + M.conj().T) / 2
        dense = np.linalg.eigvalsh(H)[0]
        # the band of H in the lower form: row d holds diagonal -d
        hb = np.array([np.concatenate((np.diagonal(H, -d), np.zeros(d))) for d in range(k + 1)])
        band = scipy.linalg.eigvals_banded(hb, lower=True, select="i", select_range=(0, 0))[0]
        calls = self.routes(monkeypatch)
        got = nc.min_hermitian_eig(M)
        assert calls == [route]
        tol = self.N * np.finfo(float).eps * np.linalg.norm(M, 2)
        assert abs(got - dense) <= tol and abs(got - band) <= tol

    @pytest.mark.parametrize("complex_", [False, True])
    def test_diagonal_gives_min_real_part_exactly(self, complex_):
        rng = np.random.default_rng(3)
        d = rng.standard_normal(self.N) * 10.0 ** rng.uniform(-6, 6, self.N)
        G = np.diag(d + 1j * rng.standard_normal(self.N) if complex_ else d)
        assert nc.min_hermitian_eig(G) == d.min()

    @pytest.mark.parametrize("k", [1, 63])
    def test_non_finite_entry_raises(self, k):
        M = band_of_width(self.N, k, False, seed=1)
        M[0, k] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            nc.min_hermitian_eig(M)

    @pytest.mark.parametrize("k", [1, 63])
    def test_lapack_failure_is_no_convergence(self, k, monkeypatch):
        monkeypatch.setattr(nc.scipy.linalg, "eigvals_banded", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NoConvergence):
            nc.min_hermitian_eig(band_of_width(self.N, k, False, seed=2))


class TestScipyWrappers:
    """Every raw scipy wrapper fracspec calls, fetched as at the declared
    scipy floor (1.10) and at the newest release."""

    def test_raw_wrappers_exist(self):
        lapack = scipy.linalg.lapack
        for name in ("zhetrd", "zhetrd_lwork", "zunmqr"):
            assert callable(getattr(lapack, name))
        for dtype, prefix in ((np.float64, "d"), (np.complex128, "z")):
            driver = scipy.linalg.get_lapack_funcs("tbtrs", (np.zeros(1, dtype),))
            assert driver.typecode == prefix and callable(getattr(lapack, prefix + "tbtrs"))
        A = np.diag([1.0, 2.0, 3.0]) + np.eye(3, k=-2) + np.eye(3, k=1)
        assert scipy.linalg.bandwidth(A) == (2, 1)
