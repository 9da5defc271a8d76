import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fracspec import checks
from fracspec import semigroup as sg
from fracspec.discretize import Grid1D
from fracspec.errors import (
    BadParameter,
    IncommensurateShift,
    NegativeParameter,
    NegativeTime,
    UnderResolvedTime,
)
from fracspec.transform import Model


def unit_grid(n):
    return Grid1D(0.0, 1.0, n)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            sg.SemigroupSpec("weird", unit_grid(8))

    def test_poisson_parameters(self):
        g = unit_grid(9)  # h = 0.1
        with pytest.raises(NegativeParameter):
            sg.SemigroupSpec("poisson", g, lam=-1.0, mu=0.1)
        with pytest.raises(IncommensurateShift):
            sg.SemigroupSpec("poisson", g, lam=1.0, mu=0.15)
        assert sg.SemigroupSpec("poisson", g, lam=1.0, mu=0.3).shift_steps == 3

    @pytest.mark.parametrize("lam,mu,error", [
        (float("nan"), 0.1, NegativeParameter), (1.0, float("nan"), NegativeParameter),
        (float("inf"), 0.1, NegativeParameter), (1.0, float("inf"), IncommensurateShift)])
    def test_non_finite_poisson_parameters(self, lam, mu, error):
        # NaN is not above 0, an infinite lam builds no generator, and an
        # infinite mu is no multiple of h
        with pytest.raises(error):
            sg.SemigroupSpec("poisson", unit_grid(9), lam=lam, mu=mu)

    def test_parameter_errors_are_value_errors(self):
        # one base for a refused parameter, a ValueError too
        with pytest.raises(BadParameter, match="got lam = 0.0, mu = 0.1"):
            sg.SemigroupSpec("poisson", unit_grid(9), lam=0.0, mu=0.1)
        with pytest.raises(ValueError, match="mu = 0.15 is not a positive multiple of h"):
            sg.SemigroupSpec("poisson", unit_grid(9), lam=1.0, mu=0.15)


class TestApply:
    def test_negative_time(self):
        spec = sg.SemigroupSpec("shift", unit_grid(8))
        with pytest.raises(NegativeTime):
            sg.apply(spec, -0.1, np.ones(8))

    @pytest.mark.parametrize("kind", sg.KINDS)
    def test_nan_time(self, kind):
        # and inf: no T_t of a finite grid stands for t = inf
        g = unit_grid(8)
        spec = sg.SemigroupSpec(kind, g, mu=g.h if kind == "poisson" else 0.0)
        for t in (float("nan"), float("inf")):
            with pytest.raises(NegativeTime, match=f"got {t}"):
                sg.apply(spec, t, np.ones(8))

    def test_time_zero_identity(self):
        spec = sg.SemigroupSpec("gauss", unit_grid(8))
        f = np.arange(8.0)
        assert np.array_equal(sg.apply(spec, 0.0, f), f)

    def test_shift_translates(self):
        g = unit_grid(9)  # nodes 0.1 .. 0.9
        spec = sg.SemigroupSpec("shift", g)
        f = g.nodes.copy()
        out = sg.apply(spec, 3 * g.h, f)
        assert np.allclose(out[:6], g.nodes[3:])
        assert np.allclose(out[6:], 0.0)

    def test_shift_weights_are_one_minus_frac_and_frac(self):
        # row i of T_t holds 1 - frac at i + steps and frac at i + steps + 1, bit for bit
        g = unit_grid(9)
        spec = sg.SemigroupSpec("shift", g)
        for t in (0.0125, 0.37 * g.h, 3.25 * g.h, 8.5 * g.h, 20 * g.h):
            steps, frac = divmod(t / g.h, 1.0)
            want = (1.0 - frac) * np.eye(9, k=int(steps)) + frac * np.eye(9, k=int(steps) + 1)
            assert sg.apply(spec, t, np.eye(9)).tobytes() == want.tobytes(), t

    def test_shift_interpolates_between_steps(self):
        g = unit_grid(9)
        spec = sg.SemigroupSpec("shift", g)
        f = g.nodes**2
        mid = sg.apply(spec, 1.5 * g.h, f)
        lo = sg.apply(spec, g.h, f)
        hi = sg.apply(spec, 2 * g.h, f)
        assert np.allclose(mid, (lo + hi) / 2)

    def test_gauss_spreads_gaussian(self):
        # heat kernel maps N(0, s^2) density to N(0, s^2 + t)
        g = Grid1D(-10.0, 10.0, 1023)
        spec = sg.SemigroupSpec("gauss", g)
        s2, t = 1.0, 0.5
        f = np.exp(-g.nodes**2 / (2 * s2)) / np.sqrt(2 * np.pi * s2)
        out = sg.apply(spec, t, f)
        exact = np.exp(-g.nodes**2 / (2 * (s2 + t))) / np.sqrt(2 * np.pi * (s2 + t))
        assert np.max(np.abs(out - exact)) <= 1e-5

    def test_gauss_underresolved_time(self):
        g = unit_grid(99)
        spec = sg.SemigroupSpec("gauss", g)
        with pytest.raises(UnderResolvedTime):
            sg.apply(spec, g.h**2 / 8, np.ones(99))

    def test_poisson_series(self):
        g = unit_grid(19)
        spec = sg.SemigroupSpec("poisson", g, lam=2.0, mu=g.h)
        f = np.zeros(19)
        f[10] = 1.0
        t = 0.7
        out = sg.apply(spec, t, f)
        from scipy.stats import poisson as pd
        # mass moves rightward: f(x - k mu)
        for k in range(5):
            assert out[10 + k] == pd.pmf(k, 2.0 * t)

    def test_poisson_huge_rate_is_zero(self):
        # at lam t = 1e12 every weight e^(-lam t) (lam t)^k / k! on 16 nodes
        # underflows; at 1e308 * 2 lam t overflows to inf, and the weights'
        # limit is still 0, not the NaN of inf - inf
        g = unit_grid(16)
        for lam, t in ((1e12, 1.0), (1e308, 2.0)):
            spec = sg.SemigroupSpec("poisson", g, lam=lam, mu=4 * g.h)
            for dtype in (float, complex):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = sg.apply(spec, t, np.ones(16, dtype))
                assert out.dtype == dtype and np.array_equal(out, np.zeros(16))

    def test_poisson_is_the_exponential_of_its_generator(self):
        # T_t = e^(-tJ): the truncated lower-triangular Toeplitz series is
        # exact; J^T, the wrong direction, is far off
        g = unit_grid(64)
        spec = sg.SemigroupSpec("poisson", g, lam=1.0, mu=4 * g.h)
        J = sg.generator_matrix(spec)
        for t in (0.1, 0.5, 1.0):
            T = sg.apply(spec, t, np.eye(g.n))
            for gen, lo, hi in ((J, 0.0, 1e-14), (J.T, 0.1, np.inf)):
                E = expm(-t * gen)
                assert lo <= np.linalg.norm(T - E) / np.linalg.norm(E) <= hi

    @pytest.mark.parametrize("kind", sg.KINDS)
    def test_block_matches_single_applies(self, kind):
        g = unit_grid(33)
        spec = sg.SemigroupSpec(kind, g, mu=2 * g.h if kind == "poisson" else 0.0)
        rng = np.random.default_rng(4)
        F = rng.standard_normal((33, 5)) + 1j * rng.standard_normal((33, 5))
        for t in (0.0, 0.37 * g.h, 0.3):
            block = sg.apply(spec, t, F)
            assert block.shape == F.shape
            for j in range(5):
                np.testing.assert_allclose(block[:, j], sg.apply(spec, t, F[:, j]),
                                           rtol=1e-14, atol=1e-15)


def poisson_impulse_response(n, m, rate):
    """T_t of a unit impulse at node 0 on a poisson grid with mu = m h, lam t = rate."""
    g = unit_grid(n)
    spec = sg.SemigroupSpec("poisson", g, lam=1.0, mu=m * g.h)
    f = np.zeros(n)
    f[0] = 1.0
    return sg.apply(spec, rate, f)


def scipy_poisson_series(n, m, rate):
    """The impulse response from scipy.stats: weight k at node k m for every
    k <= (n - 1) // m, zero elsewhere."""
    from scipy.stats import poisson

    kmax = (n - 1) // m
    out = np.zeros(n, dtype=complex)
    out[: m * kmax + 1 : m] = poisson.pmf(np.arange(kmax + 1), rate)
    return out


class TestPoissonWeights:
    """The weights are scipy.special expressions; they must give
    scipy.stats.poisson's pmf bit for bit at every k up to the grid's edge."""

    # every lam t that verify_axioms reaches at lam = 1: times, their pair
    # sums and the continuity time min(times) / 8
    AXIOM_RATES = (0.0125, 0.1, 0.2, 0.5, 0.6, 1.0, 1.1, 1.5, 2.0)

    @pytest.mark.parametrize("rate", AXIOM_RATES)
    def test_axiom_rates(self, rate):
        assert np.array_equal(poisson_impulse_response(200, 1, rate),
                              scipy_poisson_series(200, 1, rate))

    def test_rate_sweep(self):
        # up to lam t = 50 the series runs to the grid's edge, k = 199, with
        # no tail left out
        for rate in np.linspace(50.0, 0.0, 1201, endpoint=False):
            rate = float(rate)
            assert np.array_equal(poisson_impulse_response(200, 1, rate),
                                  scipy_poisson_series(200, 1, rate)), rate

    def test_grid_cap_binds(self):
        # 9 nodes with mu = 2h hold k <= 4, however large lam t
        out = poisson_impulse_response(9, 2, 40.0)
        assert np.array_equal(out, scipy_poisson_series(9, 2, 40.0))
        assert np.count_nonzero(out) == 5


class TestGenerator:
    def test_shift_difference_quotient(self):
        # A f = (f - T_h f)/h exactly at t = h
        g = unit_grid(31)
        spec = sg.SemigroupSpec("shift", g)
        f = np.sin(3 * g.nodes)
        A = sg.generator_matrix(spec)
        quotient = (f - sg.apply(spec, g.h, f)) / g.h
        assert np.allclose(A @ f, quotient, atol=1e-12)

    def test_poisson_exact_formula(self):
        g = unit_grid(15)
        spec = sg.SemigroupSpec("poisson", g, lam=3.0, mu=2 * g.h)
        A = sg.generator_matrix(spec)
        f = np.cos(g.nodes)
        shifted = np.zeros(15)
        shifted[2:] = f[:-2]
        assert np.allclose(A @ f, 3.0 * (f - shifted), atol=1e-13)

    def test_gauss_is_half_laplacian(self):
        g = unit_grid(63)
        A = sg.generator_matrix(sg.SemigroupSpec("gauss", g))
        v = np.sin(np.pi * g.nodes)
        lam = (2.0 - 2.0 * np.cos(np.pi * g.h)) / (2 * g.h**2)
        assert np.max(np.abs(A @ v - lam * v)) <= 1e-10 * lam

    def test_gauss_stencil_bits(self):
        # -D2 / 2 has the bits of the stencil -(1, -2, 1) / (2 h^2), signed zeros included
        for g in (unit_grid(63), Grid1D(-20.0, 20.0, 64)):
            n = g.n
            stencil = np.diag(np.ones(n - 1), -1) - 2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)
            A = sg.generator_matrix(sg.SemigroupSpec("gauss", g))
            assert A.tobytes() == (-stencil / (2 * g.h**2)).tobytes()

    def test_generator_matches_time_derivative(self):
        # -A f = lim (T_t f - f)/t, first order in t (Richardson pair)
        g = Grid1D(-8.0, 8.0, 511)
        spec = sg.SemigroupSpec("gauss", g)
        f = np.exp(-g.nodes**2)
        A = sg.generator_matrix(spec)
        errs = []
        for t in (4e-3, 2e-3):
            quot = (sg.apply(spec, t, f) - f) / t
            errs.append(np.max(np.abs(quot + A @ f)))
        assert errs[1] < errs[0]
        assert errs[1] <= 2e-2

    def test_accretive(self):
        for kind, kw in (("shift", {}), ("gauss", {}), ("poisson", {"lam": 1.5, "mu": 0.2})):
            g = unit_grid(9)
            A = sg.generator_matrix(sg.SemigroupSpec(kind, g, **kw))
            assert np.linalg.eigvalsh((A + A.T) / 2)[0] >= -1e-12


class TestYosida:
    def test_matches_direct_resolvent(self):
        g = Grid1D(-10.0, 10.0, 1023)
        spec = sg.SemigroupSpec("gauss", g)
        A = sg.generator_matrix(spec)
        f = np.exp(-g.nodes**2) * np.cos(g.nodes)
        errs = []
        for n_param in (4.0, 16.0):
            kern = sg.yosida_resolvent(spec, n_param, f)
            direct = n_param * np.linalg.solve(n_param * np.eye(g.n) + A, f)
            errs.append(np.max(np.abs(kern - direct)) / np.max(np.abs(f)))
        # trapezoid kernel error scales like (sqrt(2n) h)^2
        assert errs[0] <= 5e-4 and errs[1] <= 2e-3

    def test_approaches_identity(self):
        g = Grid1D(-10.0, 10.0, 511)
        spec = sg.SemigroupSpec("gauss", g)
        f = np.exp(-g.nodes**2)
        d_small = np.linalg.norm(sg.yosida_resolvent(spec, 10.0, f) - f)
        d_large = np.linalg.norm(sg.yosida_resolvent(spec, 100.0, f) - f)
        assert d_large < d_small / 2

    def test_kernel_mass_contracts(self):
        g = Grid1D(-5.0, 5.0, 200)
        spec = sg.SemigroupSpec("gauss", g)
        out = sg.yosida_resolvent(spec, 8.0, np.ones(200))
        defect = (np.sqrt(2.0 * 8.0) * g.h) ** 2 / 12  # trapezoid mass defect
        assert np.max(out.real) <= 1.0 + 2 * defect

    def test_errors(self):
        g = unit_grid(8)
        with pytest.raises(ValueError):
            sg.yosida_resolvent(sg.SemigroupSpec("shift", g), 1.0, np.ones(8))
        with pytest.raises(NegativeParameter):
            sg.yosida_resolvent(sg.SemigroupSpec("gauss", g), -1.0, np.ones(8))
        with pytest.raises(NegativeParameter, match="got nan"):
            sg.yosida_resolvent(sg.SemigroupSpec("gauss", g), float("nan"), np.ones(8))


class TestAxioms:
    def test_shift(self):
        g = unit_grid(255)
        rep = sg.verify_axioms(sg.SemigroupSpec("shift", g))
        assert rep.law_defect <= 10 * g.h
        assert rep.contraction_max <= 1.0 + 1e-10
        assert rep.t0_identity_exact

    def test_gauss(self):
        g = Grid1D(-10.0, 10.0, 255)
        rep = sg.verify_axioms(sg.SemigroupSpec("gauss", g))
        assert rep.contraction_max <= 1.0 + 1e-10 and rep.t0_identity_exact
        assert rep.law_defect <= 1e-10

    def test_poisson(self):
        g = unit_grid(127)
        rep = sg.verify_axioms(sg.SemigroupSpec("poisson", g, lam=1.0, mu=4 * g.h))
        assert rep.t0_identity_exact
        assert rep.law_defect <= 1e-12
        assert rep.contraction_max <= 1.0 + 1e-12

    def test_nan_semigroup_fails_the_law(self, monkeypatch):
        # a T_t that holds NaN: the law defect carries the NaN to a failing
        # verdict instead of reading 0
        g = unit_grid(16)
        spec = sg.SemigroupSpec("poisson", g, lam=1.0, mu=4 * g.h)
        monkeypatch.setattr(sg, "apply", lambda spec, t, f: np.full(np.shape(f), np.nan))
        rep = sg.verify_axioms(spec)
        entries = checks.run(checks.Context(Model(None, semigroup=spec)), ("semigroup",))
        assert np.isnan(rep.law_defect)
        law = next(e for e in entries if e["name"] == "semigroup-law")
        assert law["status"] == "fail" and np.isnan(law["numbers"]["max_defect"])

    @pytest.mark.parametrize("kind", sg.KINDS)
    def test_contraction_matches_per_probe_loop(self, kind):
        # the reference: each of the 100 probes drawn and applied on its own
        g = Grid1D(-10.0, 10.0, 63) if kind == "gauss" else unit_grid(63)
        spec = sg.SemigroupSpec(kind, g, mu=4 * g.h if kind == "poisson" else 0.0)
        rng = np.random.default_rng(3)
        want = 0.0
        for _ in range(100):
            fv = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            for t in (0.1, 0.5, 1.0):
                want = max(want, np.linalg.norm(sg.apply(spec, t, fv)) / np.linalg.norm(fv))
        assert sg.verify_axioms(spec, seed=3).contraction_max == pytest.approx(want, rel=1e-14)
