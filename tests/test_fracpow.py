import ast
import dataclasses
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from fracspec import checks, semigroup
from fracspec import fracpow as fp
from fracspec.discretize import Grid1D
from fracspec.errors import BadAlpha, NegativeParameter, NotAccretive, QuadratureNotConverged
from fracspec.numcore import herm_power
from fracspec.semigroup import SemigroupSpec, generator_matrix
from fracspec.transform import (
    build_difference_model,
    marchaud_power_check,
    riesz_power_check,
    riesz_power_constant,
)

EPS = np.finfo(float).eps


def spd_matrix(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + (shift if shift is not None else n) * np.eye(n)


def generator(kind, n, lam=1.0):
    grid = Grid1D(-20.0, 20.0, n) if kind == "gauss" else Grid1D(0.0, 1.0, n)
    return generator_matrix(SemigroupSpec(kind, grid, lam, mu=4 * grid.h if kind == "poisson" else 0.0))


def count_solves(monkeypatch):
    """Record (shift, right-hand-side ndim) of every shift the resolvent
    solver is called on; one call takes many shifts. The solver kept from an
    earlier call is dropped, so the count does not depend on test order."""
    monkeypatch.setattr(fp, "_last", (None, None))
    calls = []
    solve = fp._ResolventSolver.solve

    def counting(self, lams, B):
        calls.extend((lam, np.ndim(B)) for lam in lams)
        return solve(self, lams, B)

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


def route(solver):
    """The route the solver took: "eigenbasis", "tbtrs" or "dense"."""
    if solver.V is not None:
        return "eigenbasis"
    return "dense" if solver.ab is None else "tbtrs"


def real_view(solver, B):
    """B as the solver takes it: a complex B for a real A as its real view,
    Re and Im side by side in n rows, as _balakrishnan passes it."""
    if solver.real and np.iscomplexobj(B):
        return np.ascontiguousarray(B).view(float).reshape(B.shape[0], -1)
    return B


class TestBandedDrivers:
    """The resolvent solver against a dense solve per shift, for real and
    complex A and right-hand sides, every shift of a call solved at once."""

    SHIFTS = np.array([1e-3, 1.0, 1e3])

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("lo, up, hermitian", [
        (1, 0, False), (0, 1, False), (4, 0, False), (1, 1, True), (1, 1, False), (2, 1, False)])
    def test_solve_matches_dense(self, lo, up, hermitian, complex_):
        A = banded_matrix(lo, up, complex_, hermitian)
        n = A.shape[0]
        solver = fp._ResolventSolver(A)
        # a real symmetric tridiagonal A = V diag(w) V^T is solved in its
        # eigenbasis, a triangular band by substitution, any other A densely
        eigen = hermitian and not complex_
        assert route(solver) == ("eigenbasis" if eigen else "tbtrs" if lo == 0 or up == 0 else "dense")
        rng = np.random.default_rng(5)
        real = rng.standard_normal((n, n))
        cplx = real + 1j * rng.standard_normal((n, n))
        for B in (real[:, 0], cplx[:, 0], real, cplx):
            if eigen:
                got = np.array([solver.V @ y for y in solver.solve(self.SHIFTS, solver.V.T @ B)])
            else:
                got = solver.solve(self.SHIFTS, real_view(solver, B))
                if np.iscomplexobj(B) and not complex_:
                    assert got.dtype == np.float64
                    got = np.ascontiguousarray(got).view(complex).reshape((self.SHIFTS.size,) + B.shape)
            assert got.shape == (self.SHIFTS.size,) + B.shape
            for lam, x in zip(self.SHIFTS, got):
                want = np.linalg.solve(A + lam * np.eye(n), B)
                assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            if not complex_ and not np.iscomplexobj(B):
                assert got.dtype == np.float64
        assert solver.real == (not complex_)
        if not complex_ and not eigen:
            assert (solver.A if solver.ab is None else solver.ab).dtype == np.float64
        herm_min = np.linalg.eigvalsh((A + A.conj().T) / 2)[0]
        assert abs(solver.herm_min - herm_min) <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("lo, up", [(4, 0), (0, 1)])
    def test_corners_keep_the_shifted_copies_apart(self, lo, up, complex_):
        # the entries of the band storage that no diagonal of A fills would
        # couple copy k to copy k + 1 once the copies lie side by side: a copy
        # of the solver with them set solves one shift right and several wrong
        A = banded_matrix(lo, up, complex_)
        n = A.shape[0]
        B = np.random.default_rng(6).standard_normal(n)
        solver = fp._ResolventSolver(A)
        corners = np.ones(solver.ab.shape, dtype=bool)
        for d in range(-lo, up + 1):
            corners[solver.diag_row - d, max(d, 0) : n + min(d, 0)] = False
        assert np.count_nonzero(corners) == lo * (lo + 1) // 2 + up * (up + 1) // 2
        assert not np.any(solver.ab[corners])
        want = [np.linalg.solve(A + lam * np.eye(n), B) for lam in self.SHIFTS]

        def worst(solver, shifts):
            got = solver.solve(shifts, B)
            return max(np.linalg.norm(x - want[i]) / np.linalg.norm(want[i]) for i, x in enumerate(got))

        assert worst(solver, self.SHIFTS) <= 1e-12
        solver.ab[corners] = 1.0
        assert worst(solver, self.SHIFTS[:1]) <= 1e-12
        assert worst(solver, self.SHIFTS) > 1e-3

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("lo, up, hermitian", [(4, 0, False), (0, 1, False), (1, 1, True), (2, 1, False)])
    def test_shifts_split_over_calls_as_in_one_call(self, lo, up, hermitian, complex_, monkeypatch):
        # n x n right-hand sides need (rows + n) n entries a shift, so the 97
        # shifts of a pass go to several calls under the entry cap
        A = banded_matrix(lo, up, complex_, hermitian)
        n = A.shape[0]
        solver = fp._ResolventSolver(A)
        X = real_view(solver, np.random.default_rng(7).standard_normal((n, n)) * (1 + 1j))
        lams, w = fp._weights(0.5, 1)
        whole = solver.solve(lams, X)
        calls = []
        solve = fp._ResolventSolver.solve
        monkeypatch.setattr(fp._ResolventSolver, "solve", lambda self, l, B: calls.append(l) or solve(self, l, B))
        total, first, last = fp._sum(solver, lams, w, X)
        assert len(calls) > 1 and np.array_equal(np.concatenate(calls), lams)
        assert max(l.size for l in calls) * (solver.rows + X.shape[1]) * n <= fp._CALL_ENTRIES
        want = np.tensordot(w, whole, 1)
        assert np.linalg.norm(total - want) <= 16 * EPS * np.linalg.norm(want)
        assert np.array_equal(first, whole[0]) and np.array_equal(last, whole[-1])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_singular_shifted_matrix_raises(self, complex_):
        # l = 1 makes the triangular T + l I, whose first diagonal entry is
        # then 0, and the dense copy B - I + l I, whose leading 2 x 2 block is
        # then singular, singular; the other shifted copies of the call do not
        # hide it
        shifts = np.array([0.5, 1.0, 2.0])
        c = 1j if complex_ else 1.0
        T = np.diag([-1.0, 2.0, 3.0]) + 0.5 * c * np.eye(3, k=1)
        B = np.array([[1.0, 2.0 * c, 0.0], [0.5 / c, 1.0, 0.0], [0.0, 3.0, 1.0]])
        for A, kind in ((T, "tbtrs"), (B - np.eye(3), "dense")):
            solver = fp._ResolventSolver(A)
            assert route(solver) == kind
            with pytest.raises(np.linalg.LinAlgError, match="[Ss]ingular"):
                solver.solve(shifts, np.ones(3))
            solver.solve(shifts[[0, 2]], np.ones(3))

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
    Between them the cases run the models' routes: one column (shift and
    poisson), the eigenbasis (real gauss) and dense copies (complex gauss)."""

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
    """An A that is neither a real symmetric tridiagonal nor a triangular band
    is solved as dense shifted copies, several to a call."""

    @pytest.mark.parametrize("n", [8, 96])
    def test_pass_takes_capped_calls(self, n, monkeypatch):
        # A^-a takes X = I: a shift adds (n rows + n columns) n entries, so a
        # pass of K shifts takes ceil(K / per_call) calls, 2 at n = 8 and 14
        # at n = 96 for the checked passes of 97 and 96 shifts
        A = 3.0 * np.eye(n) + np.random.default_rng(8).standard_normal((n, n)) / np.sqrt(n)
        routes = TestEigenbasisRoute.count_routes(monkeypatch)
        calls = []
        solve = fp._ResolventSolver.solve
        monkeypatch.setattr(fp._ResolventSolver, "solve", lambda self, l, B: calls.append(l.size) or solve(self, l, B))
        fp.negative_power(A, fp.BalakrishnanConfig(0.5), check=True)
        assert not routes and route(fp._last[1]) == "dense"
        per_call = fp._CALL_ENTRIES // (2 * n * n)
        assert sum(calls) == 193 and max(calls) <= per_call
        assert len(calls) == -(-97 // per_call) - (-96 // per_call) == (2 if n == 8 else 14)

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
        """Count eigh_tridiagonal calls and calls of each band driver. The
        solver kept from an earlier call is dropped: its set-up was not
        counted, and it would call an uncounted driver."""
        monkeypatch.setattr(fp, "_last", (None, None))
        calls = Counter()
        eigh, fetch = fp.eigh_tridiagonal, fp.get_lapack_funcs

        def counted_eigh(*args, **kwargs):
            calls["eigh_tridiagonal"] += 1
            return eigh(*args, **kwargs)

        def counted_fetch(name, arrays):
            driver = fetch(name, arrays)

            def call(*args, **kwargs):
                calls[name] += 1
                return driver(*args, **kwargs)
            return call

        monkeypatch.setattr(fp, "eigh_tridiagonal", counted_eigh)
        monkeypatch.setattr(fp, "get_lapack_funcs", counted_fetch)
        return calls

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    def test_route_and_cost(self, kind, monkeypatch):
        # a checked pass of 97 shifts, then 96, is one band-driver call each;
        # the shift and poisson generators are triangular, solved by
        # substitution. The three calls on one A diagonalize it once
        calls = self.count_routes(monkeypatch)
        A, cfg = generator(kind, 256), fp.BalakrishnanConfig(0.5)
        f = np.sin(np.arange(256.0)) * (1 + 1j)
        for i, call in enumerate((fp.balakrishnan_power, fp.negative_power,
                                  lambda A, cfg, check: fp.balakrishnan_apply(A, f, cfg, check))):
            calls.clear()
            call(A, cfg, check=True)
            if kind == "gauss":
                assert calls == ({"eigh_tridiagonal": 1} if i == 0 else {})
            else:
                assert calls == {"tbtrs": 2}

    def test_oracle_matrix_takes_dense_route(self, monkeypatch):
        # the 8 x 8 complex Hermitian oracle matrix is dense: neither
        # eigh_tridiagonal nor tbtrs
        model = build_difference_model(Grid1D(0.0, 1.0, 8), "const:1", "const:0", 1.0, None, 0.9)
        ctx = checks.Context(model, seed=7)
        calls = self.count_routes(monkeypatch)
        status, numbers = checks._balakrishnan_oracle(ctx)
        assert status == "pass" and numbers["rel_frobenius"] <= 1e-8
        assert not calls and route(fp._last[1]) == "dense"


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
        # lam scales the Poisson-difference generator alone. At lam = 1 the
        # coarse rule is already exact on it, and the moves compared would be
        # rounding; at lam = 1000 they are ~1e-8
        A, cfg = generator(kind, 96, lam=1000.0), fp.BalakrishnanConfig(0.5)
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

    @pytest.mark.parametrize("kind", ["shift", "poisson"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("cols", [None, 3])
    @pytest.mark.parametrize("check", [False, True])
    def test_apply_is_the_expanded_power_times_f(self, kind, complex_, cols, check):
        # shift is upper and poisson lower triangular Toeplitz: A^a f is the
        # column route's A^a times f, bit for bit, for a vector or a block
        A, cfg = generator(kind, 64), fp.BalakrishnanConfig(0.6)
        rng = np.random.default_rng(17)
        shape = (64,) if cols is None else (64, cols)
        f = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
        got = fp.balakrishnan_apply(A, f, cfg, check=check)
        want = fp.balakrishnan_power(A, cfg, check=check) @ f
        assert got.dtype == want.dtype and got.shape == shape
        assert np.array_equal(got, want)

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


def integral_by_shift(solver, X, e, check, weight=1.0):
    """fp._integral summed one shift at a time, out += w_k Y_k in node order,
    each shift solved by a call of its own."""
    def solutions(lams):
        for lam in lams:
            yield solver.solve(np.array([lam]), X)[0]

    lam, w = fp._weights(e, 1)
    ys = solutions(lam)
    first = next(ys)
    out = w[0] * first
    for k, last in enumerate(ys, 1):
        out += w[k] * last
    if not check:
        return out
    for m in (2, 4):
        lam, w_new = fp._weights(e, m)
        new = out / 2
        new += (w_new[0] - w[0] / 2) * first
        new += (w_new[-1] - w[-1] / 2) * last
        for k, Y in zip(range(1, lam.size, 2), solutions(lam[1::2])):
            new += w_new[k] * Y
        if fp._moved(new, out, weight) <= fp.DEFAULT.quad_doubling_rel:
            return new
        out, w = new, w_new
    raise QuadratureNotConverged("reference rule did not converge")


def count_setups(monkeypatch):
    """Count _ResolventSolver constructions, starting with no solver kept."""
    monkeypatch.setattr(fp, "_last", (None, None))
    calls = []
    init = fp._ResolventSolver.__init__
    monkeypatch.setattr(fp._ResolventSolver, "__init__", lambda self, A: calls.append(1) or init(self, A))
    return calls


class TestBlockedSum:
    """Each call's stacked solutions are contracted with their weights; the
    pass sums to a sum over one shift at a time, to rounding."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        f = rng.standard_normal(96) + 1j * rng.standard_normal(96)
        return {
            # eigenbasis: a vector of ones, weighed by the rows of V^T X
            "eigenbasis": (generator("gauss", 64), f[:64]),
            # tbtrs: the Toeplitz column, for the powers and the apply alike
            "tbtrs": (generator("poisson", 96), f),
            # a general band takes the dense route, real and complex
            "general": (banded_matrix(2, 1, False), f),
            "general-complex": (banded_matrix(2, 1, True), f.real),
            # a dense A, several shifts to a call
            "dense": (spd_matrix(24, 3), f[:24]),
            # a 1 x 1 A
            "scalar": (np.array([[2.5]]), f[:1]),
        }

    @pytest.mark.parametrize("case", ["eigenbasis", "tbtrs", "general", "general-complex", "dense", "scalar"])
    @pytest.mark.parametrize("check", [False, True])
    def test_bit_identical_to_a_sum_by_shift(self, case, check, monkeypatch):
        A, f = self.cases()[case]
        cfg = fp.BalakrishnanConfig(0.5)
        for call in (fp.balakrishnan_power, fp.negative_power,
                     lambda A, cfg, check: fp.balakrishnan_apply(A, f, cfg, check)):
            got = call(A, cfg, check=check)
            with monkeypatch.context() as m:
                m.setattr(fp, "_integral", integral_by_shift)
                want = call(A, cfg, check=check)
            assert got.dtype == want.dtype
            assert np.linalg.norm(got - want) <= 16 * EPS * np.linalg.norm(want)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("check", [False, True])
    def test_matrix_right_hand_side_split_over_calls(self, complex_, check, monkeypatch):
        # A^-a of a 96 x 96 general band takes X = I, and A^a f an n x n f: a
        # pass of 97 shifts goes to several calls under the entry cap
        A = banded_matrix(2, 1, complex_)
        F = np.random.default_rng(12).standard_normal((96, 96)) * (1 + 1j)
        cfg = fp.BalakrishnanConfig(0.7)
        calls = []
        solve = fp._ResolventSolver.solve
        monkeypatch.setattr(fp._ResolventSolver, "solve", lambda self, l, B: calls.append(l.size) or solve(self, l, B))
        for call in (fp.negative_power, lambda A, cfg, check: fp.balakrishnan_apply(A, F, cfg, check)):
            calls.clear()
            got = call(A, cfg, check=check)
            assert len(calls) > (2 if check else 1)
            with monkeypatch.context() as m:
                m.setattr(fp, "_integral", integral_by_shift)
                want = call(A, cfg, check=check)
            assert got.dtype == want.dtype
            assert np.linalg.norm(got - want) <= 16 * EPS * np.linalg.norm(want)


class TestSetupMemo:
    """Consecutive calls on a byte-identical matrix share one solver set-up."""

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    def test_vectors_one_after_another_set_up_once(self, kind, monkeypatch):
        A, cfg = generator(kind, 96), fp.BalakrishnanConfig(0.6)
        F = np.random.default_rng(13).standard_normal((96, 4))
        setups = count_setups(monkeypatch)
        got = [fp.balakrishnan_apply(A, f, cfg, check=True) for f in F.T]
        assert len(setups) == 1
        # the same numbers as a set-up of its own for each vector
        for f, y in zip(F.T, got):
            monkeypatch.setattr(fp, "_last", (None, None))
            assert np.array_equal(y, fp.balakrishnan_apply(A, f, cfg, check=True))
        assert len(setups) == 5

    def test_shift_power_negative_power_and_apply_share_the_transpose(self, monkeypatch):
        A, cfg = generator("shift", 96), fp.BalakrishnanConfig(0.5)
        setups = count_setups(monkeypatch)
        fp.balakrishnan_power(A, cfg, check=True)
        solver = fp._last[1]
        fp.negative_power(A, cfg, check=True)
        # A^a f integrates the column of A^a too, solving with the transpose
        fp.balakrishnan_apply(A, np.ones(96), cfg)
        assert len(setups) == 1 and fp._last[1] is solver
        assert fp._last[0] == (A.shape, A.dtype, A.T.tobytes())

    @pytest.mark.parametrize("kind", ["gauss", "poisson", "dense"])
    def test_matrix_changed_in_place_gets_a_new_setup(self, kind, monkeypatch):
        A = spd_matrix(24, 5) if kind == "dense" else generator(kind, 64).copy()
        cfg = fp.BalakrishnanConfig(0.5)
        setups = count_setups(monkeypatch)
        before = fp.balakrishnan_power(A, cfg, check=True)
        A *= 2.0
        after = fp.balakrishnan_power(A, cfg, check=True)
        assert len(setups) == 2 and not np.array_equal(after, before)
        monkeypatch.setattr(fp, "_last", (None, None))
        assert np.array_equal(after, fp.balakrishnan_power(A.copy(), cfg, check=True))

    def test_nan_is_rejected_after_a_good_call(self, monkeypatch):
        A0, cfg = generator("poisson", 64), fp.BalakrishnanConfig(0.5)
        A = A0.copy()
        setups = count_setups(monkeypatch)
        want = fp.balakrishnan_power(A, cfg)
        A[3, 3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            fp.balakrishnan_power(A, cfg)
        # the set-up on the NaN raised and replaced nothing: A restored
        # reuses the first call's solver
        A[3, 3] = A0[3, 3]
        assert np.array_equal(fp.balakrishnan_power(A, cfg), want)
        assert len(setups) == 2

    def test_gate_runs_on_every_call(self, monkeypatch):
        A, cfg = generator("gauss", 64), fp.BalakrishnanConfig(0.5)
        fp.balakrishnan_power(A, cfg)
        # a floor above herm_min / ||A|| rejects the A whose solver is kept
        monkeypatch.setattr(fp, "DEFAULT", dataclasses.replace(fp.DEFAULT, accretive_floor_rel=-1.0))
        with pytest.raises(NotAccretive):
            fp.balakrishnan_power(A, cfg)


class TestRuleMemo:
    """The quadrature rule is built once per (e, m), as read-only arrays."""

    def test_rule_is_kept_and_read_only(self):
        lam, w = fp._weights(0.37, 2)
        again = fp._weights(0.37, 2)
        assert again[0] is lam and again[1] is w
        assert not lam.flags.writeable and not w.flags.writeable

    def test_five_orders_at_three_steps_stay_kept(self):
        # A^a, A^-a and A^a f at a = 0.5, 0.6, 0.9 in turn read these 15 rules
        fp._weights.cache_clear()
        keys = [(e, m) for e in (0.1, 0.4, 0.5, 0.6, 0.9) for m in (1, 2, 4)]
        for key in keys * 2:
            fp._weights(*key)
        assert fp._weights.cache_info().misses == len(keys)

    @pytest.mark.parametrize("kind", ["shift", "gauss", "poisson"])
    def test_kept_rule_gives_the_bits_of_a_fresh_one(self, kind, monkeypatch):
        A, cfg = generator(kind, 256), fp.BalakrishnanConfig(0.3)
        f = np.sin(np.arange(256.0))
        for call in (fp.balakrishnan_power, fp.negative_power,
                     lambda A, cfg, check: fp.balakrishnan_apply(A, f, cfg, check)):
            for check in (False, True):
                got = call(A, cfg, check=check)
                with monkeypatch.context() as m:
                    m.setattr(fp, "_weights", fp._weights.__wrapped__)
                    want = call(A, cfg, check=check)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.3, 0.99])
    def test_partial_sum_at_the_abs_sum_depth_matches_mpmath(self, alpha):
        # at K = 10^5 a difference of log-Gammas near 1e6 would lose ~1e-10
        K, lam = 100_000, 1.7
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            want = float(mpmath.mpf(lam) ** a * mpmath.gamma(K + 1 - a)
                         / (mpmath.gamma(K + 1) * mpmath.gamma(1 - a)))
        assert fp.gl_partial_sum(alpha, lam, K) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3, 0.45])
    def test_quadrature_route_is_silent(self, alpha):
        # scipy's Gauss-Jacobi recurrence divides by zero at these orders
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cp = fp.gl_coefficients_alt(alpha, 1.0, 40)
        assert np.all(np.isfinite(cp))

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

    def test_rejects_nan_lambda(self):
        # NaN is not above 0: refused, not returned as NaN coefficients
        with pytest.raises(NegativeParameter, match="got lam = nan"):
            fp.gl_coefficients(0.5, float("nan"), 10)


class TestGLPower:
    def make_spec(self, n=63, m=1, lam=1.0):
        g = Grid1D(0.0, 1.0, n)
        return g, SemigroupSpec("poisson", g, lam=lam, mu=m * g.h)

    def test_impulse_recovers_coefficients(self):
        g, spec = self.make_spec()
        f = np.zeros(63)
        f[0] = 1.0
        out = fp.gl_power_matrix(spec, 0.5) @ f
        c = fp.gl_coefficients(0.5, 1.0, 62)
        assert np.allclose(out.real, c, atol=1e-14)

    def test_matches_balakrishnan(self):
        g, spec = self.make_spec(n=48, m=1, lam=1.5)
        A = generator_matrix(spec)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(48)
        gl = fp.gl_power_matrix(spec, 0.5) @ f
        bk = fp.balakrishnan_apply(A, f, fp.BalakrishnanConfig(0.5))
        assert np.max(np.abs(gl - bk)) <= 1e-8 * np.max(np.abs(gl))

    def test_alpha_near_one_approaches_generator(self):
        g, spec = self.make_spec(n=32)
        A = generator_matrix(spec)
        f = np.sin(g.nodes)
        out = fp.gl_power_matrix(spec, 0.999) @ f
        # A is lam (I - S); gl_power_matrix carries no 1/h scaling, compare to h*A
        target = g.h * 0 + (np.eye(32) * 1.0 - np.diag(np.ones(31), -1)) @ f
        assert np.max(np.abs(out - target)) <= 5e-3 * np.max(np.abs(target))

    def test_rejects_wrong_kind(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fp.gl_power_matrix(SemigroupSpec("shift", g), 0.5)


class TestClosedFormRoutes:
    def test_riesz_power_constant_value(self):
        # K_a at a = 3/4: -Gamma(1/2) cos(3 pi/8) / (2^(-1/4) Gamma(1/4))
        from scipy.special import gamma

        a = 0.75
        expect = -gamma(2 * a - 1) * np.cos(a * np.pi / 2) / (2 ** (a - 1) * gamma(1 - a))
        assert np.isclose(riesz_power_constant(a), expect)
        with pytest.raises(BadAlpha):
            riesz_power_constant(0.4)

    def test_marchaud_route_agrees(self):
        g = Grid1D(0.0, 1.0, 255)
        f = np.sin(np.pi * g.nodes) ** 2
        assert marchaud_power_check(0.5, g, f) <= 0.02

    def test_riesz_route_agrees(self):
        g = Grid1D(-20.0, 20.0, 511)
        f = np.exp(-g.nodes**2)
        assert riesz_power_check(0.85, g, f) <= 0.02
        with pytest.raises(BadAlpha):
            riesz_power_check(0.6, g, f)


def test_package_imports_are_config_errors_numcore():
    # fracpow holds matrix powers only: the closed forms that tie a power to a
    # model's kernel live in transform, so fracpow reads no model layer
    names = set()
    for node in ast.walk(ast.parse(open(fp.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fracspec":
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "fracspec"}
    assert names == {"config", "errors", "numcore"}
