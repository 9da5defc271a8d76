import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspec import numcore as nc
from fracspec.errors import IllConditioned, NotHermitian, NotPositiveDefinite


def rand_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (B + B.conj().T) / 2


def rand_spd(n, seed, shift=None):
    H = rand_hermitian(n, seed)
    return H @ H.conj().T + (shift if shift is not None else n) * np.eye(n)


class TestHermitianEigen:
    def test_diagonal(self):
        ip = nc.InnerProduct.uniform(3)
        w, V = nc.hermitian_eigen(np.diag([3.0, 1.0, 2.0]), ip)
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_identity(self):
        ip = nc.InnerProduct.uniform(5)
        w, V = nc.hermitian_eigen(np.eye(5), ip)
        assert np.allclose(w, 1.0)
        gram = V.conj().T @ np.diag(ip.weights) @ V
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_char_poly_oracle(self):
        # roots of the characteristic polynomial via the companion matrix
        M = rand_hermitian(8, 0)
        ip = nc.InnerProduct.uniform(8)
        w, V = nc.hermitian_eigen(M, ip)
        coeffs = np.poly(M)
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(w, roots, atol=1e-8)
        resid = np.linalg.norm(M @ V - V * w)
        assert resid <= 1e-10 * np.linalg.norm(M)

    def test_weighted_orthonormality(self):
        rng = np.random.default_rng(3)
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 6))
        W = np.diag(ip.weights)
        M = np.linalg.inv(W) @ rand_hermitian(6, 4) @ W
        M = (M + nc.adjoint(M, ip)) / 2
        w, V = nc.hermitian_eigen(M, ip)
        assert np.allclose(V.conj().T @ W @ V, np.eye(6), atol=1e-10)

    def test_rejects_nonhermitian(self):
        ip = nc.InnerProduct.uniform(2)
        with pytest.raises(NotHermitian):
            nc.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), ip)


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
        s = nc.singular_values(np.diag([-3.0, 4.0]), nc.InnerProduct.uniform(2))
        assert np.allclose(s, [4.0, 3.0])

    def test_unitary(self):
        Q, _ = np.linalg.qr(rand_hermitian(6, 7) + 1j * rand_hermitian(6, 8))
        s = nc.singular_values(Q, nc.InnerProduct.uniform(6))
        assert np.allclose(s, 1.0)

    def test_matches_eigen_of_mstar_m(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 10))
        s = nc.singular_values(M, ip)
        w, _ = nc.hermitian_eigen(nc.adjoint(M, ip) @ M, ip)
        assert np.allclose(np.sort(s**2), np.sort(w), rtol=1e-8)

    def test_frobenius_sum(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((8, 8))
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 8))
        s = nc.singular_values(M, ip)
        frob = np.linalg.norm(ip.whiten(M)) ** 2
        assert abs(np.sum(s**2) - frob) <= 1e-8 * frob

    def test_positive_hermitian_svals_equal_eigs(self):
        M = rand_spd(9, 11)
        ip = nc.InnerProduct.uniform(9)
        s = nc.singular_values(M, ip)
        w, _ = nc.hermitian_eigen(M, ip)
        assert np.allclose(s, w[::-1], rtol=1e-9)


class TestAdjointSolveInverse:
    def test_adjoint_defining_identity(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 5))
        Ms = nc.adjoint(M, ip)
        for i in range(5):
            for j in range(5):
                f, g = np.eye(5)[i], np.eye(5)[j]
                assert np.isclose(ip.dot(M @ f, g), ip.dot(f, Ms @ g))

    def test_real_diagonal_selfadjoint_nonuniform(self):
        rng = np.random.default_rng(13)
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 6))
        D = np.diag(rng.standard_normal(6))
        assert np.allclose(nc.adjoint(D, ip), D)

    def test_involution(self):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ip = nc.InnerProduct(rng.uniform(0.5, 2.0, 6))
        assert np.linalg.norm(nc.adjoint(nc.adjoint(M, ip), ip) - M) <= 1e-14 * np.linalg.norm(M)

    def test_solve_and_inverse(self):
        M = rand_spd(6, 15)
        b = np.arange(6.0)
        x = nc.solve(M, b)
        assert np.allclose(M @ x, b)
        assert np.allclose(nc.inverse(M) @ M, np.eye(6), atol=1e-10)

    def test_ill_conditioned_rejected(self):
        M = np.diag([1.0, 1e-15])
        with pytest.raises(IllConditioned):
            nc.solve(M, np.ones(2))
        with pytest.raises(IllConditioned):
            nc.inverse(M)


class TestSpdCore:
    def test_unwhiten_inverts_whiten(self):
        ip = nc.InnerProduct(np.random.default_rng(3).uniform(0.5, 2.0, 6))
        M = rand_hermitian(6, 3)
        assert np.allclose(ip.unwhiten(ip.whiten(M)), M, rtol=1e-14, atol=0)

    def test_herm_power_runs_one_eigh(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
        nc.herm_power(rand_spd(5, 4), 0.5, nc.InnerProduct.uniform(5))
        assert len(calls) == 1


class TestHermPower:
    def test_diagonal_sqrt(self):
        ip = nc.InnerProduct.uniform(2)
        assert np.allclose(nc.herm_power(np.diag([4.0, 9.0]), 0.5, ip), np.diag([2.0, 3.0]))

    def test_identity_any_power(self):
        ip = nc.InnerProduct.uniform(4)
        for p in (-1.0, -0.3, 0.0, 0.7, 2.0):
            assert np.allclose(nc.herm_power(np.eye(4), p, ip), np.eye(4))

    def test_inverse_pair_and_square(self):
        M = rand_spd(7, 16)
        ip = nc.InnerProduct.uniform(7)
        P, N = nc.herm_power(M, 0.4, ip), nc.herm_power(M, -0.4, ip)
        assert np.linalg.norm(P @ N - np.eye(7)) <= 1e-9
        S = nc.herm_power(M, 0.5, ip)
        assert np.linalg.norm(S @ S - M) <= 1e-9 * np.linalg.norm(M)

    def test_rejects_indefinite(self):
        ip = nc.InnerProduct.uniform(2)
        with pytest.raises(NotPositiveDefinite):
            nc.herm_power(np.diag([1.0, -1.0]), 0.5, ip)

    @settings(deadline=None, max_examples=20)
    @given(a=st.floats(-1, 1), b=st.floats(-1, 1), seed=st.integers(0, 50))
    def test_additivity(self, a, b, seed):
        M = rand_spd(5, seed)
        ip = nc.InnerProduct.uniform(5)
        lhs = nc.herm_power(M, a, ip) @ nc.herm_power(M, b, ip)
        rhs = nc.herm_power(M, a + b, ip)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)
