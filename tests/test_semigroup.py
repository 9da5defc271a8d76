import numpy as np
import pytest

from fracspec import semigroup as sg
from fracspec.config import DEFAULT
from fracspec.discretize import Grid1D
from fracspec.errors import (
    IncommensurateShift,
    NegativeParameter,
    NegativeTime,
    UnderResolvedTime,
)


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


class TestApply:
    def test_negative_time(self):
        spec = sg.SemigroupSpec("shift", unit_grid(8))
        with pytest.raises(NegativeTime):
            sg.apply(spec, -0.1, np.ones(8))

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


def poisson_impulse_response(n, m, rate):
    """T_t of a unit impulse at node 0 on a poisson grid with mu = m h, lam t = rate."""
    g = unit_grid(n)
    spec = sg.SemigroupSpec("poisson", g, lam=1.0, mu=m * g.h)
    f = np.zeros(n)
    f[0] = 1.0
    return sg.apply(spec, rate, f)


def scipy_poisson_series(n, m, rate):
    """The impulse response from scipy.stats: weight k at node k m for
    k <= min((n - 1) // m, isf(poisson_tail) + 1), zero elsewhere."""
    from scipy.stats import poisson

    kmax = min((n - 1) // m, int(poisson.isf(DEFAULT.poisson_tail, rate)) + 1)
    out = np.zeros(n, dtype=complex)
    out[: m * kmax + 1 : m] = poisson.pmf(np.arange(kmax + 1), rate)
    return out


class TestPoissonWeights:
    """The weights and tail cutoff are scipy.special expressions; they must
    give scipy.stats.poisson's pmf and isf bit for bit."""

    # every lam t that verify_axioms reaches at lam = 1: times, their pair
    # sums and the continuity time min(times) / 8
    AXIOM_RATES = (0.0125, 0.1, 0.2, 0.5, 0.6, 1.0, 1.1, 1.5, 2.0)

    @pytest.mark.parametrize("rate", AXIOM_RATES)
    def test_axiom_rates(self, rate):
        assert np.array_equal(poisson_impulse_response(200, 1, rate),
                              scipy_poisson_series(200, 1, rate))

    def test_rate_sweep(self):
        # at lam t = 50 the series ends at k = 114, inside 200 nodes, so the
        # tail rule binds
        for rate in np.linspace(50.0, 0.0, 1201, endpoint=False):
            rate = float(rate)
            assert np.array_equal(poisson_impulse_response(200, 1, rate),
                                  scipy_poisson_series(200, 1, rate)), rate

    def test_grid_cap_binds(self):
        # the tail rule keeps k <= 98 at lam t = 40; 9 nodes with mu = 2h hold k <= 4
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
