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

from .errors import BadAlpha, BadParameter, CoefficientBoundViolated
from .fracpow import BalakrishnanConfig


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior nodes on (a, b); h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise BadParameter(f"grid needs a < b, got a = {self.a}, b = {self.b}")
        if not self.n >= 4:
            raise BadParameter(f"grid needs n >= 4 interior nodes, got n = {self.n}")

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self):
        return self.a + self.h * np.arange(1, self.n + 1)


def real_or_complex(values):
    """``values`` as float64 when every imaginary part is exactly zero, else as
    complex128: the dtype every matrix built from them then keeps."""
    v = np.array(values, dtype=complex)
    return v if v.imag.any() else v.real.copy()


def sample_coefficient(spec, grid):
    """Sample a coefficient given as "const:c", "sin", "poly:c0,c1,...",
    or a path to a CSV file (one value per node, last column used)."""
    x = grid.nodes
    if not isinstance(spec, str):
        vals = np.broadcast_to(spec, (grid.n,))
    elif spec.startswith("const:"):
        vals = np.full(grid.n, complex(spec[6:]))
    elif spec == "sin":
        vals = np.sin(x)
    elif spec.startswith("poly:"):
        vals = sum(complex(c) * x**k for k, c in enumerate(spec[5:].split(",")))
    else:
        vals = np.loadtxt(spec, delimiter=",", dtype=complex, ndmin=2)[:, -1]
        if vals.size != grid.n:
            raise ValueError(f"coefficient file has {vals.size} rows, grid has {grid.n} nodes")
    return real_or_complex(vals)


def _cell_weights(h, k, e1, e2):
    """Product-trapezoidal weights of int u^(e1-1) f(u) du over the cells
    [k h, (k+1) h], f linear on each cell: (near, far, M0), the weights of each
    cell's end nearer to and farther from u = 0, and the exact integrals of
    u^(e1-1) over the cells. e2 = e1 + 1, rounded as the caller forms it."""
    p, q = k * h, (k + 1) * h
    M0 = (q**e1 - p**e1) / e1
    M1 = (q**e2 - p**e2) / e2
    return (q * M0 - M1) / h, (M1 - p * M0) / h, M0


def _axis_profile(grid, expo):
    """One-sided weights g_m for int_0^inf f(x+s) s^expo ds, expo in (-1, 1)."""
    n = grid.n
    near, far, _ = _cell_weights(grid.h, np.arange(n, dtype=float), expo + 1.0, expo + 2.0)
    g = np.empty(n)
    g[0] = near[0]
    g[1:] = near[1:] + far[:-1]
    return g


def rl_integral_left(grid, alpha):
    """Riemann-Liouville integral (1/Gamma(a)) int_0^x f(t)(x-t)^(a-1) dt, as
    lower-triangular Toeplitz weights; alpha = 1 reduces to cumulative
    trapezoidal integration. The transpose integrates f(x + s) instead of
    f(x - s): the right-sided integral."""
    if not 0.0 < alpha <= 1.0:
        raise BadAlpha(f"rl_integral needs alpha in (0, 1], got {alpha}")
    return toeplitz(_axis_profile(grid, alpha - 1.0) / gamma(alpha), np.zeros(grid.n))


def marchaud_right_derivative(grid, alpha):
    """Marchaud-type truncated right fractional derivative.

    (a/Gamma(1-a)) int_x^d [f(x)-f(t)] (t-x)^(-a-1) dt + f(x)(d-x)^(-a)/Gamma(1-a),
    with the singular first cell [x, x+h] integrated analytically against the
    linear interpolant (the difference vanishes linearly there, so the cell
    integral is finite and the scheme keeps its O(h^(1-a)) consistency).
    """
    BalakrishnanConfig(alpha)  # BadAlpha outside (0, 1)
    n, h = grid.n, grid.h
    c = alpha / gamma(1.0 - alpha)
    first = h**-alpha / (1.0 - alpha)
    # the cells [k h, (k+1) h] past the first, k = 1..n-1
    near, far, M0 = _cell_weights(h, np.arange(1, n, dtype=float), -alpha, 1.0 - alpha)
    off = np.zeros(n)
    off[1] = -c * (first + near[0])
    off[2:] = -c * (near[1:] + far[:-1])
    W = toeplitz(np.zeros(n), off)
    dist = (n + 1 - np.arange(1, n + 1, dtype=float)) * h  # d - x_i
    diag = c * (first + np.concatenate(([0.0], np.cumsum(M0)))[n - np.arange(1, n + 1)])
    diag += dist**-alpha / gamma(1.0 - alpha)
    np.fill_diagonal(W, diag)
    return W


def axis_kernel_both(grid, expo):
    """Symmetric matrix of int f(s) |s - x|^expo ds over the window.

    The diagonal counts the singular cell once per side.
    """
    g = _axis_profile(grid, expo)
    W = toeplitz(g)
    np.fill_diagonal(W, 2.0 * g[0])
    return W


def riesz_constant(beta):
    """B_beta = 1 / (2 Gamma(beta) cos(beta pi / 2))."""
    return 1.0 / (2.0 * gamma(beta) * np.cos(beta * np.pi / 2.0))


def riesz_potential(grid, beta):
    """Riesz potential B_b int f(s) |s - x|^(b-1) ds on the truncated axis."""
    if not 0.0 < beta < 2.0 or beta == 1.0:
        raise BadAlpha(f"riesz potential needs beta in (0,1) or (1,2), got {beta}")
    return riesz_constant(beta) * axis_kernel_both(grid, beta - 1.0)


def second_derivative(grid):
    """Centered second-difference d^2/dx^2 with zero-extension boundaries."""
    n, h = grid.n, grid.h
    return (np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n) + np.diag(np.full(n - 1, 1.0), 1)) / h**2


def first_difference(grid):
    """Backward difference (f_i - f_(i-1))/h with Dirichlet boundary; invertible."""
    n, h = grid.n, grid.h
    return (np.eye(n) - np.diag(np.full(n - 1, 1.0), -1)) / h


def _check_positive(vals, what):
    """Raise CoefficientBoundViolated at the first node where Re vals is not above 0."""
    re = np.real(vals)
    bad = np.flatnonzero(~(re > 0.0))  # NaN is not above 0
    if bad.size:
        i = int(bad[0])
        raise CoefficientBoundViolated(f"{what}: Re value {re[i]:.6g} at node {i} not above bound 0",
                                       node=i)


def elliptic_1d(grid, a11):
    """Negated divergence-form operator -(a11 f')' with Dirichlet ends.

    Flux form with midpoint-averaged coefficient; self-adjoint and positive
    definite for real a11 > 0.
    """
    a = sample_coefficient(a11, grid)
    _check_positive(a, "elliptic_1d coefficient a11")
    n, h = grid.n, grid.h
    # a at half-nodes, zero-order hold at ends
    mid = np.concatenate((a[:1], (a[:-1] + a[1:]) / 2.0, a[-1:]))
    off = -mid[1:n] / h**2
    return np.diag((mid[:-1] + mid[1:]) / h**2) + np.diag(off, 1) + np.diag(off, -1)


def fourth_order_weighted(grid, a):
    """T = d^2/dx^2 (a d^2/dx^2 .) assembled as D2^T diag(a) D2.

    The discrete form identity (Tf, g) = (a f'', g'') then holds exactly
    under uniform weights.  Requires Re a(x) > 0 pointwise.
    """
    av = sample_coefficient(a, grid)
    _check_positive(av, "fourth_order coefficient a")
    D2 = second_derivative(grid)
    return D2.T @ (av[:, None] * D2)


def weighted_h2_matrix(grid):
    """Norm matrix of ||f||^2 + ||f''||^2 weighted by (1+|x|)^5.

    Realizes the weighted Sobolev H_0^(2,5) norm as a positive definite
    matrix N with ||f||_+^2 = (N f, f) under the grid inner product.
    """
    return np.eye(grid.n) + fourth_order_weighted(grid, (1.0 + np.abs(grid.nodes)) ** 5)
