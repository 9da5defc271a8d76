"""Fractional powers of m-accretive matrices by independent routes.

Routes implemented:

1. Balakrishnan integral  A^a = (sin a pi / pi) int_0^inf l^(a-1) (l+A)^(-1) A dl,
   split at ``split`` with substitutions that remove both the endpoint
   singularity and the infinite tail, plus an analytic Neumann-series tail
   beyond ``outer_cap``.
2. Spectral calculus for Hermitian positive matrices (numcore.herm_power).
3. Grunwald-type series for the Poisson-difference generator.
4. Closed-form singular-integral matrices (Marchaud derivative for the shift
   generator, |s|^(1-2a) kernel on f'' for the Gauss generator).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, toeplitz
from scipy.special import gamma, gammaln, roots_jacobi

from .config import DEFAULT, Tolerances
from .discretize import (
    OperatorMatrix,
    _like,
    _values,
    axis_kernel_both,
    marchaud_right_derivative,
    riesz_constant,
    second_derivative,
)
from .errors import BadAlpha, NotAccretive, QuadratureNotConverged
from .numcore import InnerProduct, asmatrix, min_hermitian_eig
from .semigroup import SemigroupSpec, generator_matrix


@dataclass(frozen=True)
class BalakrishnanConfig:
    alpha: float
    split: float = 1.0
    nodes_inner: int = 200
    nodes_outer: int = 200
    outer_cap: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise BadAlpha(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.nodes_inner < 16 or self.nodes_outer < 16:
            raise ValueError("need at least 16 quadrature nodes per piece")
        if not 0.0 < self.split < self.outer_cap:
            raise ValueError("need 0 < split < outer_cap")

    def doubled(self):
        return BalakrishnanConfig(self.alpha, self.split, 2 * self.nodes_inner,
                                  2 * self.nodes_outer, self.outer_cap)


class _ResolventSolver:
    """Solves (l I + A) X = B, exploiting small bandwidth when present."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=complex)
        n = self.A.shape[0]
        r, c = np.nonzero(self.A)
        lo, up = int(np.max(r - c, initial=0)), int(np.max(c - r, initial=0))
        self.banded = n > 64 and (lo + up + 1) <= 8
        if self.banded:
            # LAPACK band storage, built once; each shift rewrites the diagonal row
            self.lo, self.up = lo, up
            self.ab = np.zeros((lo + up + 1, n), dtype=complex)
            for d in range(-lo, up + 1):
                self.ab[up - d, max(d, 0) : n + min(d, 0)] = np.diagonal(self.A, d)
            self.diag = self.ab[up].copy()

    def solve(self, lam, B):
        if not self.banded:
            M = self.A.copy()
            M[np.diag_indices_from(M)] += lam
            return np.linalg.solve(M, B)
        self.ab[self.up] = self.diag + lam
        return solve_banded((self.lo, self.up), self.ab, B)


def _gauss_nodes(a, b, m):
    x, w = np.polynomial.legendre.leggauss(m)
    return (b - a) / 2 * (x + 1) + a, (b - a) / 2 * w


def _stieltjes(solver, X, e, cfg):
    """(sin a pi / pi) int_0^inf l^(e-1) (l+A)^(-1) X dl, a = cfg.alpha.

    With e = a and X = A B this is A^a B; with e = 1 - a and X = B it is
    A^(-a) B (route 1 of the module docstring, for both signs).
    """
    acc = np.zeros_like(X)
    # inner piece (0, split): l = u^(1/e)
    u, w = _gauss_nodes(0.0, cfg.split**e, cfg.nodes_inner)
    for ui, wi in zip(u, w):
        acc += (wi / e) * solver.solve(ui ** (1.0 / e), X)
    # outer piece (split, cap): l = split * v^(-1/(1-e))
    v_cap = (cfg.split / cfg.outer_cap) ** (1.0 - e)
    v, w = _gauss_nodes(v_cap, 1.0, cfg.nodes_outer)
    s_fac = cfg.split**e / (1.0 - e)
    for vi, wi in zip(v, w):
        lam = cfg.split * vi ** (-1.0 / (1.0 - e))
        acc += (wi * s_fac * vi ** (-1.0 / (1.0 - e))) * solver.solve(lam, X)
    # tail beyond cap: int l^(e-1) l^(-j) (-A)^(j-1) X dl for j = 1..4
    term = X
    for j in range(1, 5):
        if j > 1:
            term = solver.A @ term
        acc += (-1.0) ** (j + 1) * cfg.outer_cap ** (e - j) / (j - e) * term
    return np.sin(cfg.alpha * np.pi) / np.pi * acc


def _balakrishnan(A, B, cfg, ip, check, tol, negative=False):
    """A^(+-alpha) B for m-accretive A (accretive in ``ip``, else in A's own
    inner product, else the uniform one); B = None stands for I.  With
    ``check`` the result of doubled nodes is returned, after checking that
    doubling moved it by at most ``quad_doubling_rel``."""
    Am = asmatrix(A).astype(complex)
    if ip is None:
        ip = getattr(A, "ip", None) or InnerProduct.uniform(Am.shape[0])
    herm_min = min_hermitian_eig(Am, ip)
    if herm_min < -tol.accretive_floor_rel * np.linalg.norm(Am):
        raise NotAccretive(f"Hermitian part has eigenvalue {herm_min:.3e}")
    B = np.eye(Am.shape[0], dtype=complex) if B is None else B
    e, X = (1.0 - cfg.alpha, B) if negative else (cfg.alpha, Am @ B)
    solver = _ResolventSolver(Am)
    out = _stieltjes(solver, X, e, cfg)
    if not check:
        return out
    fine = _stieltjes(solver, X, e, cfg.doubled())
    scale = np.linalg.norm(fine)
    moved = np.linalg.norm(fine - out) / scale if scale > 0 else 0.0
    if moved > tol.quad_doubling_rel:
        raise QuadratureNotConverged(f"node doubling moved the result by {moved:.3e}")
    return fine


def balakrishnan_power(A, cfg, ip=None, check=False, tol: Tolerances = DEFAULT):
    """A^alpha via the Balakrishnan integral; A must be m-accretive."""
    return _like(A, _balakrishnan(A, None, cfg, ip, check, tol))


def balakrishnan_apply(A, f, cfg, ip=None, check=False, tol: Tolerances = DEFAULT):
    """A^alpha f without forming the full power matrix."""
    return _like(f, _balakrishnan(A, _values(f), cfg, ip, check, tol))


def negative_power(A, cfg, ip=None, check=False, tol: Tolerances = DEFAULT):
    """A^(-alpha) via the Balakrishnan integral."""
    return _like(A, _balakrishnan(A, None, cfg, ip, check, tol, negative=True))


def lemma_constant(alpha, norm_J_inv):
    """C_(1-a) = 2 ||J^(-1)|| / (1-a) + 1/a, the negative-power norm bound."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    return 2.0 * norm_J_inv / (1.0 - alpha) + 1.0 / alpha


@dataclass(frozen=True)
class GLCoefficients:
    alpha: float
    lam: float
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))


def gl_coefficients(alpha, lam, K):
    """Grunwald-type coefficients C_0..C_K by the stable recurrence
    C_0 = lam^a, C_(k+1) = C_k (k - a) / (k + 1)."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    if lam <= 0 or K < 1:
        raise ValueError("need lam > 0 and K >= 1")
    c = np.empty(K + 1)
    c[0] = lam**alpha
    for k in range(K):
        c[k + 1] = c[k] * (k - alpha) / (k + 1)
    return GLCoefficients(alpha, lam, c)


def gl_coefficients_alt(alpha, lam, K, nodes=None, tol: Tolerances = DEFAULT):
    """C'_k = lam^(k+1) (sin a pi / pi) int_0^inf xi^(a-1) (xi+lam)^(-k-1) dxi,
    evaluated by Gauss-Jacobi quadrature after mapping onto (0, 1).

    Deliberately quadrature-based (no closed Gamma form) so the identity
    C'_(k+1) - C'_k = C_(k+1) is a genuine cross-check.
    """
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")

    def table(m):
        # xi = lam (1-t)/t maps the integral to lam^a int_0^1 (1-t)^(a-1) t^(k-a) dt;
        # with t = (1+y)/2 and the Gauss-Jacobi weight (1-y)^(a-1) (1+y)^(-a)
        # the remaining factor is the polynomial ((1+y)/2)^k, so the rule is
        # exact once 2m exceeds K.
        with np.errstate(invalid="ignore"):  # scipy's recurrence warms up with 0/0
            y, w = roots_jacobi(m, alpha - 1.0, -alpha)
        base = (1.0 + y) / 2.0
        pows = base[None, :] ** np.arange(K + 1)[:, None]
        return lam**alpha * np.sin(alpha * np.pi) / np.pi * (pows @ w)

    m = max(32, K // 2 + 8)
    coarse, fine = table(m), table(2 * m)
    if np.max(np.abs(fine - coarse)) > tol.quad_doubling_rel * np.max(np.abs(fine)):
        raise QuadratureNotConverged("Gauss-Jacobi node doubling moved C' beyond tolerance")
    return fine


def gl_partial_sum(alpha, lam, K):
    """S_K = sum_(k<=K) C_k = lam^a Gamma(K+1-a) / (K! Gamma(1-a)), exact."""
    return lam**alpha * np.exp(gammaln(K + 1 - alpha) - gammaln(K + 1) - gammaln(1 - alpha))


def gl_abs_sum(alpha, lam, K=100_000):
    """sum_k |C_k| summed by recurrence up to K with the telescoped remainder.

    Since C_k < 0 for k >= 1 and the full series sums to zero, the exact
    remainder past K is S_K itself, so the truncation tail is zero.
    """
    c = gl_coefficients(alpha, lam, K).c
    return float(c[0] - np.sum(c[1:]) + gl_partial_sum(alpha, lam, K))


def gl_power(spec, alpha, f, cfg=None):
    """A^alpha f for the Poisson-difference generator via the Grunwald series
    A^a f(x) = sum_k C_k f(x - k mu); exact on the grid (zero extension)."""
    if spec.kind != "poisson":
        raise ValueError("gl_power applies to the Poisson-difference semigroup")
    m = spec.shift_steps
    v = _values(f)
    n = v.size
    kmax = (n - 1) // m
    c = gl_coefficients(alpha, spec.lam, max(kmax, 1)).c
    out = c[0] * v.astype(complex)
    for k in range(1, kmax + 1):
        out[k * m :] += c[k] * v[: n - k * m]
    return _like(f, out)


def gl_power_matrix(spec, alpha):
    """Matrix of the Grunwald series sum_k C_k S_m^k on the grid."""
    m = spec.shift_steps
    n = spec.grid.n
    kmax = (n - 1) // m
    c = gl_coefficients(alpha, spec.lam, max(kmax, 1)).c
    col = np.zeros(n)
    col[: kmax * m + 1 : m] = c[: kmax + 1]
    return OperatorMatrix(toeplitz(col, np.zeros(n)), spec.grid, spec.grid.ip())


def riesz_power_constant(alpha):
    """K_a = -Gamma(2a-1) cos(a pi/2) / (2^(a-1) Gamma(1-a)), for a in (1/2, 1)."""
    if not 0.5 < alpha < 1.0:
        raise BadAlpha(f"K_alpha needs alpha in (1/2, 1), got {alpha}")
    return -gamma(2 * alpha - 1) * np.cos(alpha * np.pi / 2) / (2 ** (alpha - 1) * gamma(1 - alpha))


@dataclass(frozen=True)
class PowerComparison:
    balakrishnan: np.ndarray
    closed_form: np.ndarray
    rel_l2: float
    convention: str


def _rel_l2(u, v, ip, mask=None):
    if mask is not None:
        u, v = u[mask], v[mask]
        w = ip.weights[mask]
    else:
        w = ip.weights
    denom = np.sqrt(np.sum(w * np.abs(v) ** 2))
    return float(np.sqrt(np.sum(w * np.abs(u - v) ** 2)) / denom)


def marchaud_power_check(alpha, grid, f, cfg=None):
    """Shift-generator Balakrishnan power vs the Marchaud derivative matrix."""
    cfg = cfg or BalakrishnanConfig(alpha)
    A = generator_matrix(SemigroupSpec("shift", grid))
    v = _values(f)
    via_balak = balakrishnan_apply(A, v, cfg)
    via_closed = marchaud_right_derivative(grid, alpha).m @ v
    rel = _rel_l2(via_balak, via_closed, grid.ip())
    return PowerComparison(via_balak, via_closed, rel,
                           "truncated Marchaud right derivative, eps = h, analytic first cell")


def riesz_power_check(alpha, grid, f, cfg=None, interior_margin=0.1):
    """Gauss-generator Balakrishnan power vs K_a times the |s|^(1-2a) kernel
    applied to f''; valid for alpha in (3/4, 1)."""
    if not 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz power route needs alpha in (3/4, 1), got {alpha}")
    cfg = cfg or BalakrishnanConfig(alpha)
    A = generator_matrix(SemigroupSpec("gauss", grid))
    v = _values(f)
    via_balak = balakrishnan_apply(A, v, cfg)
    kernel = axis_kernel_both(grid, 1.0 - 2.0 * alpha)
    const = riesz_power_constant(alpha) * riesz_constant(alpha)
    via_closed = const * (kernel @ (second_derivative(grid).m @ v))
    margin = int(np.ceil(interior_margin * grid.n))
    mask = np.zeros(grid.n, dtype=bool)
    mask[margin : grid.n - margin] = True
    rel = _rel_l2(via_balak, via_closed, grid.ip(), mask)
    return PowerComparison(
        via_balak, via_closed, rel,
        "kernel |s|^(1-2a) with B_alpha normalization, applied to the second derivative")
