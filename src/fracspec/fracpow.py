"""Fractional powers of m-accretive matrices by independent routes.

Routes implemented:

1. Balakrishnan integral  A^a = (sin a pi / pi) int_0^inf l^(a-1) (l+A)^(-1) A dl,
   by the trapezoid rule in t for l = exp(sinh t) (Takahasi & Mori 1974; Hale,
   Higham & Trefethen, SIAM J. Numer. Anal. 46, 2008), with the slow decay at
   both ends subtracted in closed form. Halving the step keeps every node, so
   the convergence check solves only the new ones.
2. Spectral calculus for Hermitian positive matrices (numcore.herm_power).
3. Grunwald-type series for the Poisson-difference generator.
4. Closed-form singular-integral matrices (Marchaud derivative for the shift
   generator, |s|^(1-2a) kernel on f'' for the Gauss generator).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, toeplitz
from scipy.special import gamma, gammaln, roots_jacobi

from .config import DEFAULT
from .discretize import (
    axis_kernel_both,
    marchaud_right_derivative,
    riesz_constant,
    second_derivative,
)
from .errors import BadAlpha, NotAccretive, QuadratureNotConverged
from .numcore import min_hermitian_eig
from .semigroup import SemigroupSpec, generator_matrix


@dataclass(frozen=True)
class BalakrishnanConfig:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise BadAlpha(f"alpha must lie in (0, 1), got {self.alpha}")


# Trapezoid rule in t for l = exp(sinh t), |t| <= _NODES * _STEP (|log l| <= 60.75);
# the doubling check adds the odd nodes of step _STEP / 2, and if need be of _STEP / 4.
_STEP = 0.1
_NODES = 48


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


def _weights(e, m):
    """Nodes l_k and weights c_k of the rule of step _STEP / m, with
    sum_k c_k (l_k + A)^(-1) X ~ (sin e pi / pi) int_0^inf l^(e-1) (l+A)^(-1) X dl.

    In s = log l the integrand decays only like e^(e s) as s -> -inf and like
    e^((e-1) s) as s -> +inf, slowly for e near 0 or 1. The rule is applied
    to the integrand minus e^(e s) (1+l)^(-2) Y- and e^((e+1) s) (1+l)^(-2) Y+,
    which decays at rate >= 1 at both ends; Y- is the solve at the first node
    and Y+ is l times the solve at the last. Their exact integrals,
    (1-e) pi / sin(e pi) Y- and e pi / sin(e pi) Y+, are added back.
    """
    t = np.arange(-_NODES * m, _NODES * m + 1) * (_STEP / m)
    s = np.sinh(t)
    l = np.exp(s)
    c = np.sin(e * np.pi) / np.pi * (_STEP / m) * np.cosh(t) * np.exp(e * s)
    damp = np.exp(-2.0 * np.logaddexp(0.0, s))  # (1 + l)^(-2)
    low, high = np.sum(c * damp), np.sum(c * l * damp)
    c[0] += (1.0 - e) - low
    c[-1] += (e - high) * l[-1]
    return l, c


def _moved(fine, coarse):
    """Relative distance of ``coarse`` from ``fine``."""
    scale = np.linalg.norm(fine)
    return np.linalg.norm(fine - coarse) / scale if scale > 0 else 0.0


def _balakrishnan(A, B, cfg, check, negative=False):
    """A^(+-alpha) B for m-accretive A; B = None stands for I.  With
    ``check`` the result of step _STEP / 2 is returned if halving the step
    moved it by at most ``quad_doubling_rel``; else the step is halved once
    more, and that result is returned if it moved by at most as much."""
    Am = np.asarray(A, dtype=complex)
    herm_min = min_hermitian_eig(Am)
    if herm_min < -DEFAULT.accretive_floor_rel * np.linalg.norm(Am):
        raise NotAccretive(f"Hermitian part has eigenvalue {herm_min:.3e}")
    if negative:
        e, X = 1.0 - cfg.alpha, np.eye(Am.shape[0], dtype=complex) if B is None else B
    else:
        e, X = cfg.alpha, Am if B is None else Am @ B
    solver = _ResolventSolver(Am)
    coarse_w = _weights(e, 1)[1]
    lam, fine_w = _weights(e, 2)
    coarse, fine = np.zeros_like(X), np.zeros_like(X) if check else None
    # the coarse nodes are the even fine nodes
    for k in range(0, lam.size, 1 if check else 2):
        Y = solver.solve(lam[k], X)
        if k == 0:
            first = Y
        if k % 2 == 0:
            coarse += coarse_w[k // 2] * Y
        if check:
            fine += fine_w[k] * Y
    if not check:
        return coarse
    if _moved(fine, coarse) <= DEFAULT.quad_doubling_rel:
        return fine
    # the fine nodes are the even finest nodes, where the finest weights are
    # half the fine ones but for the end corrections
    lam, finest_w = _weights(e, 4)
    finest = fine / 2 + (finest_w[0] - fine_w[0] / 2) * first \
        + (finest_w[-1] - fine_w[-1] / 2) * Y
    for k in range(1, lam.size, 2):
        finest += finest_w[k] * solver.solve(lam[k], X)
    moved = _moved(finest, fine)
    if moved > DEFAULT.quad_doubling_rel:
        raise QuadratureNotConverged(f"node doubling moved the result by {moved:.3e}")
    return finest


def balakrishnan_power(A, cfg, check=False):
    """A^alpha via the Balakrishnan integral; A must be m-accretive."""
    return _balakrishnan(A, None, cfg, check)


def balakrishnan_apply(A, f, cfg, check=False):
    """A^alpha f without forming the full power matrix."""
    return _balakrishnan(A, np.asarray(f, dtype=complex), cfg, check)


def negative_power(A, cfg, check=False):
    """A^(-alpha) via the Balakrishnan integral."""
    return _balakrishnan(A, None, cfg, check, negative=True)


def lemma_constant(alpha, norm_J_inv):
    """C_(1-a) = 2 ||J^(-1)|| / (1-a) + 1/a, the negative-power norm bound."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    return 2.0 * norm_J_inv / (1.0 - alpha) + 1.0 / alpha


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
    return c


def gl_coefficients_alt(alpha, lam, K):
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
    if np.max(np.abs(fine - coarse)) > DEFAULT.quad_doubling_rel * np.max(np.abs(fine)):
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
    c = gl_coefficients(alpha, lam, K)
    return float(c[0] - np.sum(c[1:]) + gl_partial_sum(alpha, lam, K))


def gl_power(spec, alpha, f):
    """A^alpha f for the Poisson-difference generator via the Grunwald series
    A^a f(x) = sum_k C_k f(x - k mu); exact on the grid (zero extension)."""
    if spec.kind != "poisson":
        raise ValueError("gl_power applies to the Poisson-difference semigroup")
    m = spec.shift_steps
    v = np.asarray(f, dtype=complex)
    n = v.size
    kmax = (n - 1) // m
    c = gl_coefficients(alpha, spec.lam, max(kmax, 1))
    out = c[0] * v
    for k in range(1, kmax + 1):
        out[k * m :] += c[k] * v[: n - k * m]
    return out


def gl_power_matrix(spec, alpha):
    """Matrix of the Grunwald series sum_k C_k S_m^k on the grid."""
    m = spec.shift_steps
    n = spec.grid.n
    kmax = (n - 1) // m
    c = gl_coefficients(alpha, spec.lam, max(kmax, 1))
    col = np.zeros(n)
    col[: kmax * m + 1 : m] = c[: kmax + 1]
    return toeplitz(col, np.zeros(n))


def riesz_power_constant(alpha):
    """K_a = -Gamma(2a-1) cos(a pi/2) / (2^(a-1) Gamma(1-a)), for a in (1/2, 1)."""
    if not 0.5 < alpha < 1.0:
        raise BadAlpha(f"K_alpha needs alpha in (1/2, 1), got {alpha}")
    return -gamma(2 * alpha - 1) * np.cos(alpha * np.pi / 2) / (2 ** (alpha - 1) * gamma(1 - alpha))


def _rel_l2(u, v):
    return float(np.linalg.norm(u - v) / np.linalg.norm(v))


def marchaud_power_check(alpha, grid, f):
    """Relative l2 distance of the shift-generator Balakrishnan power from the
    truncated Marchaud right derivative (eps = h, analytic first cell)."""
    A = generator_matrix(SemigroupSpec("shift", grid))
    v = np.asarray(f, dtype=complex)
    via_balak = balakrishnan_apply(A, v, BalakrishnanConfig(alpha))
    via_closed = marchaud_right_derivative(grid, alpha) @ v
    return _rel_l2(via_balak, via_closed)


def riesz_power_check(alpha, grid, f):
    """Relative l2 distance, away from the ends (a tenth of the grid each), of
    the Gauss-generator Balakrishnan power from K_a times the |s|^(1-2a) kernel
    (B_alpha normalization) applied to f''; valid for alpha in (3/4, 1)."""
    if not 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz power route needs alpha in (3/4, 1), got {alpha}")
    A = generator_matrix(SemigroupSpec("gauss", grid))
    v = np.asarray(f, dtype=complex)
    via_balak = balakrishnan_apply(A, v, BalakrishnanConfig(alpha))
    kernel = axis_kernel_both(grid, 1.0 - 2.0 * alpha)
    const = riesz_power_constant(alpha) * riesz_constant(alpha)
    via_closed = const * (kernel @ (second_derivative(grid) @ v))
    margin = int(np.ceil(0.1 * grid.n))
    return _rel_l2(via_balak[margin : grid.n - margin], via_closed[margin : grid.n - margin])
