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
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.stats import poisson as poisson_dist

from .config import DEFAULT
from .discretize import Grid1D
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
            if self.lam <= 0 or self.mu <= 0:
                raise NegativeParameter("poisson semigroup needs lam > 0 and mu > 0")
            self.shift_steps  # validates commensurability

    @property
    def shift_steps(self):
        """mu / h as an exact integer (poisson kind only)."""
        ratio = self.mu / self.grid.h
        m = round(ratio)
        if m < 1 or abs(ratio - m) > 1e-9:
            raise IncommensurateShift(f"mu/h = {ratio!r} is not a positive integer")
        return m


def _shift_values(v, steps):
    """Values of f(x + steps*h) with zero extension (steps may be negative)."""
    out = np.zeros_like(v)
    n = v.size
    if steps >= n or steps <= -n:
        return out
    if steps >= 0:
        out[: n - steps] = v[steps:]
    else:
        out[-steps:] = v[: n + steps]
    return out


def apply(spec, t, f):
    """Apply T_t to the samples f."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be >= 0, got {t}")
    v = np.asarray(f, dtype=complex)
    grid = spec.grid
    if t == 0:
        out = v.copy()
    elif spec.kind == "shift":
        steps, frac = divmod(t / grid.h, 1.0)
        out = (1.0 - frac) * _shift_values(v, int(steps))
        if frac > 0:
            out += frac * _shift_values(v, int(steps) + 1)
    elif spec.kind == "gauss":
        if t < grid.h**2 / 4:
            raise UnderResolvedTime(f"t = {t} below resolvable floor h^2/4 = {grid.h ** 2 / 4}")
        d = grid.h * np.arange(grid.n)
        kernel = grid.h / np.sqrt(2 * np.pi * t) * np.exp(-(d**2) / (2 * t))
        out = toeplitz(kernel) @ v
    else:
        m = spec.shift_steps
        rate = spec.lam * t
        kmax = min((grid.n - 1) // m, int(poisson_dist.isf(DEFAULT.poisson_tail, rate)) + 1)
        weights = poisson_dist.pmf(np.arange(kmax + 1), rate)
        out = np.zeros_like(v)
        for k, w in enumerate(weights):
            out += w * _shift_values(v, -k * m)
    return out


def generator_matrix(spec):
    """The m-accretive generator A (the semigroup's generator is -A)."""
    n, h = spec.grid.n, spec.grid.h
    if spec.kind == "shift":
        return (np.eye(n) - np.diag(np.full(n - 1, 1.0), 1)) / h
    if spec.kind == "gauss":
        return -(np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n) + np.diag(np.full(n - 1, 1.0), 1)) / (2 * h**2)
    m = spec.shift_steps
    return spec.lam * (np.eye(n) - np.diag(np.full(n - m, 1.0), -m))


def yosida_resolvent(spec, n_param, f):
    """J_n f = n (nI + A)^(-1) f for the Gauss generator, via its closed kernel
    J_n f(x) = sqrt(n/2) int f(s) exp(-sqrt(2n)|x - s|) ds."""
    if spec.kind != "gauss":
        raise ValueError("yosida_resolvent implements the Gauss-generator kernel")
    if n_param <= 0:
        raise NegativeParameter(f"Yosida parameter must be > 0, got {n_param}")
    grid = spec.grid
    d = grid.h * np.arange(grid.n)
    kernel = grid.h * np.sqrt(n_param / 2.0) * np.exp(-np.sqrt(2.0 * n_param) * d)
    return toeplitz(kernel) @ np.asarray(f, dtype=complex)


@dataclass(frozen=True)
class AxiomReport:
    law_defect: float          # max ||T_s T_t f - T_(s+t) f|| / ||f||
    contraction_max: float     # max ||T_t f|| / ||f|| over random probes
    continuity_defect: float   # ||T_t0 f - f|| / ||f|| at the smallest time
    t0_identity_exact: bool


def verify_axioms(spec, times=(0.1, 0.5, 1.0), n_probes=100, seed=0):
    """Check the C0-semigroup axioms on random and smooth probes."""
    grid = spec.grid
    rng = np.random.default_rng(seed)
    x = grid.nodes
    smooth = np.exp(-((x - (grid.a + grid.b) / 2) ** 2)) * (x - grid.a) * (grid.b - x)

    law = 0.0
    nrm = np.linalg.norm(smooth)
    for s in times:
        for t in times:
            two = apply(spec, s, apply(spec, t, smooth))
            one = apply(spec, s + t, smooth)
            law = max(law, np.linalg.norm(two - one) / nrm)

    contraction = 0.0
    for _ in range(n_probes):
        fv = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        fn = np.linalg.norm(fv)
        for t in times:
            contraction = max(contraction, np.linalg.norm(apply(spec, t, fv)) / fn)

    t0 = apply(spec, 0.0, smooth)
    t0_exact = bool(np.array_equal(t0, smooth))

    t_small = max(min(times) / 8, grid.h**2 / 2 if spec.kind == "gauss" else 0.0)
    continuity = np.linalg.norm(apply(spec, t_small, smooth) - smooth) / nrm
    return AxiomReport(float(law), float(contraction), float(continuity), t0_exact)
