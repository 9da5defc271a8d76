"""The three concrete C0 contraction semigroups and their generators.

Kinds
-----
shift
    T_t f(x) = f(x + t), translation toward the left endpoint's far boundary;
    generator A = (f(x) - f(x+h))/h, the upwind discretization of -d/dr.
gauss
    Convolution with the heat kernel (2 pi t)^(-1/2) exp(-(x-s)^2 / 2t);
    generator A = -(1/2) d^2/dx^2.
poisson
    T_t f(x) = e^(-lam t) sum_k (lam t)^k / k! f(x - k mu);
    generator A = lam (f(x) - f(x - mu)).
    The weights come from scipy.special by the expression scipy.stats.poisson
    evaluates (its _logpmf), so they equal poisson.pmf bit for bit without
    importing scipy.stats. The one exception is a lam t that overflows to
    inf: there every weight is its limit 0, where the expression gives NaN.

On the grid each T_t is shift-invariant with zero extension, so ``apply``
forms it as one Toeplitz matrix from its first column and first row. The
Poisson sum runs over every k with k mu inside the grid: cutting a
lower-triangular Toeplitz matrix to the grid keeps products, so this T_t is
exactly e^(-tA) of the Poisson generator below.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gammaln, xlogy

from .discretize import Grid1D, second_derivative
from .errors import (
    IncommensurateShift,
    NegativeParameter,
    NegativeTime,
    UnderResolvedTime,
)

KINDS = ("shift", "gauss", "poisson")


@dataclass(frozen=True)
class SemigroupSpec:
    kind: str
    grid: Grid1D
    lam: float = 1.0   # poisson intensity
    mu: float = 0.0    # poisson shift length (multiple of h)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind == "poisson":
            # NaN is not above 0, and an infinite lam makes no generator
            if not (0 < self.lam < np.inf and self.mu > 0):
                raise NegativeParameter(f"poisson semigroup needs lam > 0 and mu > 0, "
                                        f"got lam = {self.lam}, mu = {self.mu}")
            self.shift_steps  # validates commensurability

    @property
    def shift_steps(self):
        """mu / h as an exact integer (poisson kind only)."""
        ratio = self.mu / self.grid.h
        m = round(ratio) if np.isfinite(ratio) else 0
        if m < 1 or abs(ratio - m) > 1e-9:
            raise IncommensurateShift(f"mu = {self.mu} is not a positive multiple of h = {self.grid.h}")
        return m


def apply(spec, t, f):
    """Apply T_t to the samples f, a vector or the k columns of an n x k array,
    in f's dtype (an integer f as float64)."""
    if not 0 <= t < np.inf:
        raise NegativeTime(f"semigroup time must be finite and >= 0, got {t}")
    v = np.asarray(f)
    v = v.astype(np.result_type(v, float), copy=False)
    if t == 0:
        return v.copy()
    n, h = spec.grid.n, spec.grid.h
    j = np.arange(n)
    if spec.kind == "shift":
        # row 0 is the interpolation hat at t / h: 1 - frac at j = steps, frac at steps + 1
        steps, frac = divmod(t / h, 1.0)
        row = np.where(j == steps, 1.0 - frac, np.where(j == steps + 1, frac, 0.0))
        col = np.where(j == 0, row[0], 0.0)
    elif spec.kind == "gauss":
        if t < h**2 / 4:
            raise UnderResolvedTime(f"t = {t} below resolvable floor h^2/4 = {h ** 2 / 4}")
        col = row = h / np.sqrt(2 * np.pi * t) * np.exp(-((h * j) ** 2) / (2 * t))
    else:
        m, rate = spec.shift_steps, spec.lam * t
        if rate == np.inf:
            return np.zeros_like(v)
        k = np.arange((n - 1) // m + 1)
        col = np.zeros(n)
        col[::m] = np.exp(xlogy(k, rate) - gammaln(k + 1) - rate)
        row = np.where(j == 0, col[0], 0.0)
    return toeplitz(col, row) @ v


def generator_matrix(spec):
    """The m-accretive generator A (the semigroup's generator is -A)."""
    n, h = spec.grid.n, spec.grid.h
    if spec.kind == "shift":
        return (np.eye(n) - np.diag(np.full(n - 1, 1.0), 1)) / h
    if spec.kind == "gauss":
        return -0.5 * second_derivative(spec.grid)
    m = spec.shift_steps
    return spec.lam * (np.eye(n) - np.diag(np.full(n - m, 1.0), -m))


def yosida_resolvent(spec, n_param, f):
    """J_n f = n (nI + A)^(-1) f for the Gauss generator, via its closed kernel
    J_n f(x) = sqrt(n/2) int f(s) exp(-sqrt(2n)|x - s|) ds."""
    if spec.kind != "gauss":
        raise ValueError("yosida_resolvent implements the Gauss-generator kernel")
    if not n_param > 0:
        raise NegativeParameter(f"Yosida parameter must be > 0, got {n_param}")
    grid = spec.grid
    d = grid.h * np.arange(grid.n)
    kernel = grid.h * np.sqrt(n_param / 2.0) * np.exp(-np.sqrt(2.0 * n_param) * d)
    return toeplitz(kernel) @ f


@dataclass(frozen=True)
class AxiomReport:
    law_defect: float          # max ||T_s T_t f - T_(s+t) f|| / ||f||
    contraction_max: float     # max ||T_t f|| / ||f|| over random probes
    continuity_defect: float   # ||T_t0 f - f|| / ||f|| at the smallest time
    t0_identity_exact: bool


def verify_axioms(spec, seed=0):
    """Check the C0-semigroup axioms at t = 0.1, 0.5 and 1 on a smooth probe and 100 random ones."""
    grid = spec.grid
    times = (0.1, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    x = grid.nodes
    smooth = np.exp(-((x - (grid.a + grid.b) / 2) ** 2)) * (x - grid.a) * (grid.b - x)

    # np.max, unlike Python's max, keeps a NaN, so a NaN T_t fails the verdict
    nrm = np.linalg.norm(smooth)
    law = np.max([np.linalg.norm(apply(spec, s, apply(spec, t, smooth)) - apply(spec, s + t, smooth)) / nrm
                  for s in times for t in times])

    z = rng.standard_normal((100, 2, grid.n))  # each probe's real, then imaginary part
    probes = (z[:, 0] + 1j * z[:, 1]).T
    norms = np.linalg.norm(probes, axis=0)
    contraction = np.max([np.linalg.norm(apply(spec, t, probes), axis=0) / norms for t in times])

    t0_exact = bool(np.array_equal(apply(spec, 0.0, smooth), smooth))

    t_small = max(min(times) / 8, grid.h**2 / 2 if spec.kind == "gauss" else 0.0)
    continuity = np.linalg.norm(apply(spec, t_small, smooth) - smooth) / nrm
    return AxiomReport(float(law), float(contraction), float(continuity), t0_exact)
