from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from fracspec import checks, semigroup
from fracspec import fracpow as fp
from fracspec.discretize import Grid1D
from fracspec.errors import BadAlpha, NotAccretive, QuadratureNotConverged
from fracspec.numcore import herm_power
from fracspec.semigroup import SemigroupSpec, generator_matrix


def spd_matrix(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + (shift if shift is not None else n) * np.eye(n)


def generator(kind, n):
    grid = Grid1D(-20.0, 20.0, n) if kind == "gauss" else Grid1D(0.0, 1.0, n)
    return generator_matrix(SemigroupSpec(kind, grid, mu=4 * grid.h if kind == "poisson" else 0.0))


def count_solves(monkeypatch):
    """Record (shift, right-hand-side ndim) of every resolvent solve."""
    calls = []
    solve = fp._ResolventSolver.solve

    def counting(self, lam, B):
        calls.append((lam, np.ndim(B)))
        return solve(self, lam, B)

    monkeypatch.setattr(fp._ResolventSolver, "solve", counting)
    return calls


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
        shifts = count_solves(monkeypatch)
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
        shifts = count_solves(monkeypatch)
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
    """The paper's non-normal generators against Schur-Pade powers."""

    @pytest.mark.parametrize("kind, alpha", [("shift", 0.6), ("poisson", 0.5),
                                             ("shift", 0.02), ("shift", 0.98),
                                             ("gauss", 0.02), ("gauss", 0.98),
                                             ("poisson", 0.02), ("poisson", 0.98)])
    def test_power_and_negative_power(self, kind, alpha):
        A = generator(kind, 96)
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


def banded_matrix(lo, up, complex_, hermitian=False, n=96, seed=4):
    """A diagonally dominant n x n matrix with lo sub- and up superdiagonals."""
    rng = np.random.default_rng(seed)

    def draw(size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if complex_ else x

    A = np.diag(2.0 * (lo + up) + rng.random(n))
    for d in range(1, lo + 1):
        A = A + np.diag(draw(n - d), -d)
    for d in range(1, up + 1):
        A = A + (np.diag(np.diagonal(A, -d).conj(), d) if hermitian else np.diag(draw(n - d), d))
    return A


class TestBandedDrivers:
    """The band solver against a dense solve, for real and complex A and
    right-hand sides."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("lo, up, hermitian", [
        (1, 0, False), (0, 1, False), (4, 0, False), (1, 1, True), (1, 1, False), (2, 1, False)])
    def test_solve_matches_dense(self, lo, up, hermitian, complex_):
        A = banded_matrix(lo, up, complex_, hermitian)
        n = A.shape[0]
        solver = fp._ResolventSolver(A)
        # a real symmetric tridiagonal A = V diag(w) V^T is solved in its eigenbasis
        eigen = hermitian and not complex_
        assert (solver.V is not None) == eigen
        rng = np.random.default_rng(5)
        real = rng.standard_normal((n, n))
        cplx = real + 1j * rng.standard_normal((n, n))
        for lam in (1e-3, 1.0, 1e3):
            for B in (real[:, 0], cplx[:, 0], real, cplx):
                got = solver.V @ solver.solve(lam, solver.V.T @ B) if eigen else solver.solve(lam, B)
                want = np.linalg.solve(A + lam * np.eye(n), B)
                assert got.shape == B.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                if not complex_ and not np.iscomplexobj(B):
                    assert got.dtype == np.float64
        assert solver.real == (not complex_)
        if not complex_ and not eigen:
            assert solver.diag.dtype == solver.ab.dtype == np.float64
        herm_min = np.linalg.eigvalsh((A + A.conj().T) / 2)[0]
        assert abs(solver.herm_min - herm_min) <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    def test_gate_rejects_nonaccretive_band(self, kind):
        A = -generator(kind, 96)
        with pytest.raises(NotAccretive, match="Hermitian part has eigenvalue"):
            fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5), check=True)

    @staticmethod
    def neumann_below_zero(n=128):
        # the Neumann Laplacian shifted 1e-14 below zero, ten rounding steps of
        # its norm: it passes the gate, and l I + A is indefinite at the
        # smallest nodes (a shift of 1e-12 is no longer integrable to the
        # doubling gate's 1e-8)
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A[0, 0] = A[-1, -1] = 1.0
        return A - 1e-14 * np.eye(n)

    def test_semidefinite_tridiagonal_below_zero(self):
        A = self.neumann_below_zero()
        w, V = np.linalg.eigh(A)
        want = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        for check in (False, True):
            P = fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5), check=check)
            assert P.dtype == np.float64
            assert np.linalg.norm(P - want) <= 1e-8 * np.linalg.norm(want)


class TestDtype:
    """Results keep the dtype of A and f; an integer f is taken as float64.
    Between them the cases run every route: one column (powers of shift and
    poisson), the eigenbasis (real gauss) and the band (the rest)."""

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_results_keep_the_input_dtype(self, kind, dtype):
        n, cfg = 32, fp.BalakrishnanConfig(0.5)
        # + 0.5i I leaves the Hermitian part, so A stays m-accretive
        A = generator(kind, n) + (0.5j if dtype is np.complex128 else 0.0) * np.eye(n)
        f = np.arange(n)
        assert fp.balakrishnan_power(A, cfg).dtype == dtype
        assert fp.negative_power(A, cfg).dtype == dtype
        assert fp.balakrishnan_apply(A, f.astype(dtype), cfg).dtype == dtype
        assert fp.balakrishnan_apply(A, f, cfg).dtype == dtype
        assert np.array_equal(fp.balakrishnan_apply(A, f, cfg), fp.balakrishnan_apply(A, f * 1.0, cfg))
        grid = Grid1D(-20.0, 20.0, n) if kind == "gauss" else Grid1D(0.0, 1.0, n)
        spec = SemigroupSpec(kind, grid, mu=4 * grid.h if kind == "poisson" else 0.0)
        assert semigroup.apply(spec, 0.5, f.astype(dtype)).dtype == dtype
        assert semigroup.apply(spec, 0.5, f).dtype == np.float64
        if kind == "gauss":
            assert semigroup.yosida_resolvent(spec, 1.0, f.astype(dtype)).dtype == dtype
            assert semigroup.yosida_resolvent(spec, 1.0, f).dtype == np.float64


class TestDenseMatrices:
    """A dense A is the widest band of the one solver."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_dense_nonnormal_against_schur_pade(self, complex_):
        n, alpha = 96, 0.4
        rng = np.random.default_rng(11)
        G = rng.standard_normal((n, n))
        if complex_:
            G = (G + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        A = 3.0 * np.eye(n) + G / np.sqrt(n)
        assert np.linalg.eigvalsh((A + A.conj().T) / 2)[0] > 0
        assert np.linalg.norm(A @ A.conj().T - A.conj().T @ A) > 1.0
        cfg = fp.BalakrishnanConfig(alpha)
        P = fp.balakrishnan_power(A, cfg, check=True)
        want = scipy.linalg.fractional_matrix_power(A, alpha)
        assert np.linalg.norm(P - want) <= 1e-8 * np.linalg.norm(want)
        N = fp.negative_power(A, cfg, check=True)
        want_neg = scipy.linalg.fractional_matrix_power(A, -alpha)
        assert np.linalg.norm(N - want_neg) <= 1e-8 * np.linalg.norm(want_neg)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = fp.balakrishnan_apply(A, f, cfg, check=True)
        assert np.linalg.norm(got - want @ f) <= 1e-8 * np.linalg.norm(want @ f)


class TestHalvingRecurrence:
    """The checked result is the rule of the halved step, built from the
    coarser sum by the end-corrected recurrence."""

    @staticmethod
    def direct_rule(A, e, m, X=None):
        """The rule of step 0.1 / m for X = A (default), by a dense solve per node."""
        lam, w = fp._weights(e, m)
        n = A.shape[0]
        X = A if X is None else X
        return sum(wk * np.linalg.solve(lk * np.eye(n) + A, X) for lk, wk in zip(lam, w))

    # a small alpha leans on the first node's end correction, a large one on
    # the last node's
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_one_halving_is_the_step_005_rule(self, alpha, monkeypatch):
        A = spd_matrix(20, 1)
        shifts = count_solves(monkeypatch)
        P = fp.balakrishnan_power(A, fp.BalakrishnanConfig(alpha), check=True)
        assert len(shifts) == 193
        want = self.direct_rule(A, alpha, 2)
        assert np.linalg.norm(P - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_two_halvings_are_the_step_0025_rule(self, alpha, monkeypatch):
        A = np.diag(np.geomspace(1e-6, 1e6, 9))
        shifts = count_solves(monkeypatch)
        P = fp.balakrishnan_power(A, fp.BalakrishnanConfig(alpha), check=True)
        assert len(shifts) == 385
        want = self.direct_rule(A, alpha, 4)
        assert np.linalg.norm(P - want) <= 1e-14 * np.linalg.norm(want)


class TestEigenbasisRoute:
    """A real symmetric tridiagonal A (the Gauss generator) is diagonalized
    once, and the same rule runs on a vector of ones in its eigenbasis."""

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_same_rule_as_dense_solves(self, alpha):
        A, cfg = generator("gauss", 64), fp.BalakrishnanConfig(alpha)
        rule = TestHalvingRecurrence.direct_rule
        eye = np.eye(64)
        for check, m in ((False, 1), (True, 2)):
            P = fp.balakrishnan_power(A, cfg, check=check)
            want = rule(A, alpha, m)
            assert np.linalg.norm(P - want) <= 1e-12 * np.linalg.norm(want)
            N = fp.negative_power(A, cfg, check=check)
            want = rule(A, 1.0 - alpha, m, X=eye)
            assert np.linalg.norm(N - want) <= 1e-12 * np.linalg.norm(want)
            # a complex vector and matrix go through their real views
            F = np.exp(1j * np.outer(np.arange(64.0), [1.0, 0.3, 2.0]))
            for f in (F[:, 0], F):
                want = rule(A, alpha, m, X=A @ f)
                got = fp.balakrishnan_apply(A, f, cfg, check=check)
                assert got.shape == f.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_wide_tridiagonal_returns_the_rule_not_the_exact_power(self, alpha, monkeypatch):
        # eigenvalues from 1e-6 to 1e6: the step-0.1 rule is off the exact
        # power by 2e-8..3e-6, so only the rule itself matches to 1e-12
        d = np.geomspace(1e-6, 1e6, 24)
        off = 0.1 * np.sqrt(d[1:] * d[:-1])
        A = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
        w, V = np.linalg.eigh(A)
        exact = (V * w**alpha) @ V.T
        cfg, rule = fp.BalakrishnanConfig(alpha), TestHalvingRecurrence.direct_rule
        P = fp.balakrishnan_power(A, cfg)
        want = rule(A, alpha, 1)
        assert np.linalg.norm(P - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(P - exact) > 1e-9 * np.linalg.norm(exact)
        shifts, moves, moved = count_solves(monkeypatch), [], fp._moved
        monkeypatch.setattr(fp, "_moved", lambda *args: moves.append(moved(*args)) or moves[-1])
        P = fp.balakrishnan_power(A, cfg, check=True)
        assert len(shifts) == 385
        want = rule(A, alpha, 4)
        assert np.linalg.norm(P - want) <= 1e-12 * np.linalg.norm(want)
        # the gate measures the move of the matrix, as on the dense solves
        r1, r2 = rule(A, alpha, 1), rule(A, alpha, 2)
        dense = [np.linalg.norm(r2 - r1) / np.linalg.norm(r2), np.linalg.norm(want - r2) / np.linalg.norm(want)]
        assert np.allclose(moves, dense, rtol=1e-2, atol=1e-14)

    def test_eigenvectors_are_orthogonal(self):
        A = generator("gauss", 256)
        solver = fp._ResolventSolver(A)
        V, w = solver.V, solver.w
        assert np.linalg.norm(V.T @ V - np.eye(256)) <= 256 * np.finfo(float).eps
        assert np.linalg.norm(A @ V - V * w) <= 256 * np.finfo(float).eps * np.linalg.norm(A)
        assert solver.herm_min == w[0] > 0

    @staticmethod
    def count_routes(monkeypatch):
        """Count eigh_tridiagonal calls and calls of each band driver."""
        calls = Counter()
        eigh, fetch = fp.eigh_tridiagonal, fp.get_lapack_funcs

        def counted_eigh(*args, **kwargs):
            calls["eigh_tridiagonal"] += 1
            return eigh(*args, **kwargs)

        def counted_fetch(name, arrays):
            driver = fetch(name, arrays)

            def call(*args):
                calls[name] += 1
                return driver(*args)
            return call

        monkeypatch.setattr(fp, "eigh_tridiagonal", counted_eigh)
        monkeypatch.setattr(fp, "get_lapack_funcs", counted_fetch)
        return calls

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    def test_route_and_cost(self, kind, monkeypatch):
        calls = self.count_routes(monkeypatch)
        A, cfg = generator(kind, 256), fp.BalakrishnanConfig(0.5)
        for call in (fp.balakrishnan_power, fp.negative_power):
            calls.clear()
            call(A, cfg, check=True)
            if kind == "gauss":
                assert calls == {"eigh_tridiagonal": 1}
            else:
                assert calls == {"gbsv": 193}

    def test_oracle_matrix_stays_on_band_solver(self, monkeypatch):
        calls = self.count_routes(monkeypatch)
        ctx = checks.Context(None, None, {"model": "riesz", "alpha": 0.9}, seed=7)
        status, numbers = checks._balakrishnan_oracle(ctx)
        assert status == "pass" and numbers["rel_frobenius"] <= 1e-8
        assert calls["eigh_tridiagonal"] == 0 and calls["gbsv"] == 193


class TestToeplitzColumnRoute:
    """Powers of triangular-Toeplitz generators integrate one column."""

    @pytest.mark.parametrize("kind", ["shift", "poisson"])
    @pytest.mark.parametrize("n", [32, 96])
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_column_route_equals_matrix_route(self, kind, n, alpha, monkeypatch):
        A, cfg = generator(kind, n), fp.BalakrishnanConfig(alpha)
        assert fp._triangular_toeplitz(A) == ("upper" if kind == "shift" else "lower")
        for call in (fp.balakrishnan_power, fp.negative_power):
            for check in (False, True):
                got = call(A, cfg, check=check)
                with monkeypatch.context() as m:
                    m.setattr(fp, "_triangular_toeplitz", lambda A: None)
                    want = call(A, cfg, check=check)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["shift", "poisson"])
    def test_gate_measures_the_matrix_move(self, kind, monkeypatch):
        A, cfg = generator(kind, 96), fp.BalakrishnanConfig(0.5)
        moves = []
        moved = fp._moved
        monkeypatch.setattr(fp, "_moved", lambda *args: moves.append(moved(*args)) or moves[-1])
        for route in ("column", "matrix"):
            if route == "matrix":
                monkeypatch.setattr(fp, "_triangular_toeplitz", lambda A: None)
            for call in (fp.balakrishnan_power, fp.negative_power):
                call(A, cfg, check=True)
        column, matrix = moves[: len(moves) // 2], moves[len(moves) // 2 :]
        assert len(column) == len(matrix) == 2
        assert np.allclose(column, matrix, rtol=1e-3, atol=0)

    @pytest.mark.parametrize("kind, entry", [("shift", (3, 7)), ("poisson", (9, 2)),
                                             ("poisson", (0, 0))])
    def test_perturbed_copy_takes_matrix_route(self, kind, entry, monkeypatch):
        A = generator(kind, 96).copy()
        A[entry] += 1e-9
        assert fp._triangular_toeplitz(A) is None
        calls = count_solves(monkeypatch)
        P = fp.balakrishnan_power(A, fp.BalakrishnanConfig(0.5), check=True)
        assert calls and all(ndim == 2 for _, ndim in calls)
        want = scipy.linalg.fractional_matrix_power(A, 0.5)
        assert np.linalg.norm(P - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["shift", "poisson"])
    def test_checked_power_solves_vectors(self, kind, monkeypatch):
        A, cfg = generator(kind, 256), fp.BalakrishnanConfig(0.5)
        calls = count_solves(monkeypatch)
        for call in (fp.balakrishnan_power, fp.negative_power):
            calls.clear()
            call(A, cfg, check=True)
            assert all(ndim == 1 for _, ndim in calls)
            assert 0 < len(calls) == len({lam for lam, _ in calls}) <= 193

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    def test_poisson_power_matches_grunwald_at_bench_size(self, alpha):
        grid = Grid1D(0.0, 1.0, 256)
        spec = SemigroupSpec("poisson", grid, mu=4 * grid.h)
        P = fp.balakrishnan_power(generator_matrix(spec), fp.BalakrishnanConfig(alpha), check=True)
        want = fp.gl_power_matrix(spec, alpha)
        assert np.linalg.norm(P - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("alpha", [0.02, 0.6, 0.98])
    def test_shift_power_matches_schur_pade_at_bench_size(self, alpha):
        A, cfg = generator("shift", 256), fp.BalakrishnanConfig(alpha)
        P = fp.balakrishnan_power(A, cfg, check=True)
        want = scipy.linalg.fractional_matrix_power(A, alpha)
        assert np.linalg.norm(P - want) <= 1e-8 * np.linalg.norm(want)
        N = fp.negative_power(A, cfg, check=True)
        assert np.linalg.norm(N @ P - np.eye(256)) <= 1e-8 * np.linalg.norm(np.eye(256))


class TestNonFiniteInput:
    @pytest.mark.parametrize("n", [32, 128])
    def test_nan_vector_raises_on_both_paths(self, n):
        A = generator("shift", n)
        f = np.ones(n)
        f[n // 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            fp.balakrishnan_apply(A, f, fp.BalakrishnanConfig(0.5))


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

    @pytest.mark.parametrize("alpha, lam", [(0.02, 3.0), (0.5, 1.0), (0.98, 0.5)])
    def test_running_product_matches_recurrence_loop(self, alpha, lam):
        K = 100_000
        loop = np.empty(K + 1)
        loop[0] = lam**alpha
        for k in range(K):
            loop[k + 1] = loop[k] * (k - alpha) / (k + 1)
        # the loop rounds twice per factor and the running product three
        # times, so to first order they differ by at most 5 k eps
        k = np.maximum(np.arange(K + 1), 1)
        c = fp.gl_coefficients(alpha, lam, K)
        assert np.all(np.abs(c - loop) <= 5 * k * np.finfo(float).eps * np.abs(loop))

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
