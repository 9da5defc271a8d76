"""Grids and dense matrix realizations of the concrete 1-D operators.

All operators act on interior-node samples with zero extension outside
[a, b].  The fractional integral/derivative matrices use product-trapezoidal
(L1) weights: the integrand's singular factor is integrated exactly against
the piecewise-linear interpolant on each cell, which makes every kernel a
Toeplitz profile plus (for the Marchaud derivative) a row-dependent diagonal.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma

from .errors import BadAlpha, CoefficientBoundViolated
from .numcore import InnerProduct


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior nodes on (a, b); h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need a < b")
        if self.n < 4:
            raise ValueError("need n >= 4 interior nodes")

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self):
        return self.a + self.h * np.arange(1, self.n + 1)

    def ip(self):
        """Uniform quadrature inner product approximating L2(a, b)."""
        return InnerProduct.uniform(self.n, self.h)


@dataclass(frozen=True)
class GridFunction:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise ValueError("values length must match grid size")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def sample(cls, grid, fn):
        return cls(grid, np.asarray([fn(x) for x in grid.nodes]))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix tagged with the grid and inner product it acts on."""

    m: np.ndarray
    grid: Grid1D
    ip: InnerProduct

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (self.grid.n, self.grid.n):
            raise ValueError("matrix shape must match grid size")
        object.__setattr__(self, "m", m)

    def __matmul__(self, f):
        if isinstance(f, GridFunction):
            return GridFunction(self.grid, self.m @ f.values)
        return self.m @ np.asarray(f)


def _values(f):
    """The complex samples of a GridFunction, or of a plain array-like."""
    return f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=complex)


def _like(x, values):
    """``values`` wrapped like ``x``: on x's grid when x is a GridFunction or
    an OperatorMatrix, bare otherwise."""
    if isinstance(x, GridFunction):
        return GridFunction(x.grid, values)
    if isinstance(x, OperatorMatrix):
        return OperatorMatrix(values, x.grid, x.ip)
    return values


def sample_coefficient(spec, grid):
    """Sample a coefficient given as "const:c", "sin", "poly:c0,c1,...",
    or a path to a CSV file (one value per node, last column used)."""
    if not isinstance(spec, str):
        return np.broadcast_to(np.asarray(spec, dtype=complex), (grid.n,)).copy()
    x = grid.nodes
    if spec.startswith("const:"):
        return np.full(grid.n, complex(spec[6:]))
    if spec == "sin":
        return np.sin(x).astype(complex)
    if spec.startswith("poly:"):
        coeffs = [complex(c) for c in spec[5:].split(",")]
        return sum(c * x**k for k, c in enumerate(coeffs)).astype(complex)
    data = np.atleast_2d(np.loadtxt(spec, delimiter=",", dtype=complex, ndmin=2))
    vals = data[:, -1]
    if vals.size != grid.n:
        raise ValueError(f"coefficient file has {vals.size} rows, grid has {grid.n} nodes")
    return vals


def _cell_moments(p, q, expo):
    """Integrals of u^expo and u^(expo+1) over [p, q], exact."""
    e1, e2 = expo + 1.0, expo + 2.0
    M0 = (q**e1 - p**e1) / e1
    M1 = (q**e2 - p**e2) / e2
    return M0, M1


def _axis_profile(grid, expo):
    """One-sided weights g_m for int_0^inf f(x+s) s^expo ds, expo in (-1, 1)."""
    n, h = grid.n, grid.h
    k = np.arange(n, dtype=float)
    M0, M1 = _cell_moments(k * h, (k + 1) * h, expo)
    near = ((k + 1) * h * M0 - M1) / h  # weight for the node nearer to x
    far = (M1 - k * h * M0) / h         # weight for the node farther from x
    g = np.empty(n)
    g[0] = near[0]
    g[1:] = near[1:] + far[:-1]
    return g


def rl_integral_left(grid, alpha):
    """Riemann-Liouville integral (1/Gamma(a)) int_0^x f(t)(x-t)^(a-1) dt.

    Lower-triangular Toeplitz product-trapezoidal weights; alpha = 1
    reduces to cumulative trapezoidal integration.
    """
    if not 0.0 < alpha <= 1.0:
        raise BadAlpha(f"rl_integral needs alpha in (0, 1], got {alpha}")
    c = _axis_profile(grid, alpha - 1.0)  # weights of f(x - m h), m = 0..n-1
    return OperatorMatrix(toeplitz(c, np.zeros(grid.n)) / gamma(alpha), grid, grid.ip())


def rl_integral_right(grid, alpha):
    """Right-sided twin: (1/Gamma(a)) int_x^d f(t)(t-x)^(a-1) dt."""
    return OperatorMatrix(rl_integral_left(grid, alpha).m.T.copy(), grid, grid.ip())


def marchaud_right_derivative(grid, alpha):
    """Marchaud-type truncated right fractional derivative.

    (a/Gamma(1-a)) int_x^d [f(x)-f(t)] (t-x)^(-a-1) dt + f(x)(d-x)^(-a)/Gamma(1-a),
    with the singular first cell [x, x+h] integrated analytically against the
    linear interpolant (the difference vanishes linearly there, so the cell
    integral is finite and the scheme keeps its O(h^(1-a)) consistency).
    """
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"marchaud derivative needs alpha in (0, 1), got {alpha}")
    n, h = grid.n, grid.h
    c = alpha / gamma(1.0 - alpha)
    first = h**-alpha / (1.0 - alpha)
    k = np.arange(1, n, dtype=float)
    p, q = k * h, (k + 1) * h
    M0 = (p**-alpha - q**-alpha) / alpha
    M1 = (q ** (1.0 - alpha) - p ** (1.0 - alpha)) / (1.0 - alpha)
    near = (q * M0 - M1) / h
    far = (M1 - p * M0) / h
    off = np.zeros(n)
    if n > 1:
        off[1] = -c * (first + near[0])
    if n > 2:
        off[2:] = -c * (near[1:] + far[:-1])
    W = toeplitz(np.zeros(n), off)
    dist = (n + 1 - np.arange(1, n + 1, dtype=float)) * h  # d - x_i
    diag = c * (first + np.concatenate(([0.0], np.cumsum(M0)))[n - np.arange(1, n + 1)])
    diag += dist**-alpha / gamma(1.0 - alpha)
    np.fill_diagonal(W, diag)
    return OperatorMatrix(W, grid, grid.ip())


def axis_kernel_both(grid, expo):
    """Symmetric matrix of int f(s) |s - x|^expo ds over the window.

    The diagonal counts the singular cell once per side.
    """
    g = _axis_profile(grid, expo)
    W = toeplitz(g)
    np.fill_diagonal(W, 2.0 * g[0])
    return W


def one_sided_potential(grid, beta, side="plus"):
    """Fractional integral on the axis: (1/Gamma(b)) int_0^inf f(x -+ s) s^(b-1) ds."""
    if not 0.0 < beta < 2.0:
        raise BadAlpha(f"one-sided potential needs beta in (0, 2), got {beta}")
    g = _axis_profile(grid, beta - 1.0) / gamma(beta)
    W = toeplitz(np.zeros(grid.n), g) if side == "plus" else toeplitz(g, np.zeros(grid.n))
    np.fill_diagonal(W, g[0])
    return OperatorMatrix(W, grid, grid.ip())


def riesz_constant(beta):
    """B_beta = 1 / (2 Gamma(beta) cos(beta pi / 2))."""
    return 1.0 / (2.0 * gamma(beta) * np.cos(beta * np.pi / 2.0))


def riesz_potential(grid, beta):
    """Riesz potential B_b int f(s) |s - x|^(b-1) ds on the truncated axis."""
    if not 0.0 < beta < 2.0 or beta == 1.0:
        raise BadAlpha(f"riesz potential needs beta in (0,1) or (1,2), got {beta}")
    return OperatorMatrix(riesz_constant(beta) * axis_kernel_both(grid, beta - 1.0),
                          grid, grid.ip())


def second_derivative(grid):
    """Centered second-difference d^2/dx^2 with zero-extension boundaries."""
    n, h = grid.n, grid.h
    D2 = (np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n) + np.diag(np.full(n - 1, 1.0), 1)) / h**2
    return OperatorMatrix(D2, grid, grid.ip())


def first_difference(grid):
    """Backward difference (f_i - f_(i-1))/h with Dirichlet boundary; invertible."""
    n, h = grid.n, grid.h
    D1 = (np.eye(n) - np.diag(np.full(n - 1, 1.0), -1)) / h
    return OperatorMatrix(D1, grid, grid.ip())


def _check_lower_bound(vals, bound, what):
    re = np.real(vals)
    b = np.broadcast_to(np.asarray(bound, dtype=float), re.shape)
    bad = np.flatnonzero(re <= b)
    if bad.size:
        i = int(bad[0])
        raise CoefficientBoundViolated(
            f"{what}: Re value {re[i]:.6g} at node {i} not above bound {b[i]:.6g}",
            node=i,
        )


def elliptic_1d(grid, a11, gamma_a=0.0):
    """Negated divergence-form operator -(a11 f')' with Dirichlet ends.

    Flux form with midpoint-averaged coefficient; self-adjoint and positive
    definite for real a11 >= gamma_a > 0.
    """
    a = sample_coefficient(a11, grid)
    _check_lower_bound(a, gamma_a, "elliptic_1d coefficient a11")
    n, h = grid.n, grid.h
    mid = np.empty(n + 1, dtype=complex)  # a at half-nodes, zero-order hold at ends
    mid[1:n] = (a[:-1] + a[1:]) / 2.0
    mid[0], mid[n] = a[0], a[-1]
    W = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    W[idx, idx] = (mid[:-1] + mid[1:]) / h**2
    W[idx[:-1], idx[:-1] + 1] = -mid[1:n] / h**2
    W[idx[1:], idx[1:] - 1] = -mid[1:n] / h**2
    return OperatorMatrix(W, grid, grid.ip())


def fourth_order_weighted(grid, a, gamma_a=0.0):
    """T = d^2/dx^2 (a d^2/dx^2 .) assembled as D2^T diag(a) D2.

    The discrete form identity (Tf, g) = (a f'', g'') then holds exactly
    under uniform weights.  Requires Re a(x) > gamma_a (1+|x|)^5 pointwise.
    """
    av = sample_coefficient(a, grid)
    bound = gamma_a * (1.0 + np.abs(grid.nodes)) ** 5
    _check_lower_bound(av, bound, "fourth_order coefficient a")
    D2 = second_derivative(grid).m.real
    return OperatorMatrix(D2.T @ (av[:, None] * D2), grid, grid.ip())


def multiply(grid, rho):
    """Multiplication operator: diagonal matrix of coefficient samples."""
    return OperatorMatrix(np.diag(sample_coefficient(rho, grid)), grid, grid.ip())


def weighted_h2_matrix(grid, lam=5):
    """Norm matrix of ||f||^2 + ||f''||^2 weighted by (1+|x|)^lam.

    Realizes the weighted Sobolev H_0^(2,lam) norm as a positive definite
    matrix N with ||f||_+^2 = (N f, f) under the grid inner product.
    """
    w = (1.0 + np.abs(grid.nodes)) ** lam
    D2 = second_derivative(grid).m.real
    return OperatorMatrix(np.eye(grid.n) + D2.T @ (w[:, None] * D2), grid, grid.ip())
