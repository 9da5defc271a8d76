"""Fractional powers of m-accretive matrices by independent routes.

Routes implemented:

1. Balakrishnan integral  A^a = (sin a pi / pi) int_0^inf l^(a-1) (l+A)^(-1) A dl,
   by the trapezoid rule in t for l = exp(sinh t) (Takahasi & Mori 1974; Hale,
   Higham & Trefethen, SIAM J. Numer. Anal. 46, 2008), with the slow decay at
   both ends subtracted in closed form. Halving the step keeps every node, so
   the convergence check solves only the new ones. A lower-triangular
   Toeplitz A (the shift and Poisson-difference generators, the first through
   its transpose) has lower-triangular Toeplitz resolvents and powers, so
   A^(+-a) is integrated on its first column (A e_1, or e_1 for the negative
   power) and then expanded. A real symmetric tridiagonal A = V diag(w) V^T
   (the Gauss generator) is diagonalized once; every resolvent is then
   1/(l + w) in that basis, so the rule runs on a vector of ones. Every other
   A is solved by gbsv in LAPACK band storage, its band read from its nonzeros
   and a real A kept real. The accretivity gate reads the smallest eigenvalue
   of the Hermitian part from w or from the same band.
2. Spectral calculus for Hermitian positive matrices (numcore.herm_power).
3. Grunwald-type series for the Poisson-difference generator.
4. Closed-form singular-integral matrices (Marchaud derivative for the shift
   generator, |s|^(1-2a) kernel on f'' for the Gauss generator).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvals_banded, get_lapack_funcs, toeplitz
from scipy.special import gamma, gammaln, roots_jacobi

from .config import DEFAULT
from .discretize import (
    axis_kernel_both,
    marchaud_right_derivative,
    riesz_constant,
    second_derivative,
)
from .errors import BadAlpha, NoConvergence, NotAccretive, QuadratureNotConverged
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
    """Solves (l I + A) X = B for shifts l > 0; a real A stays real.  A real
    symmetric tridiagonal A = V diag(w) V^T is diagonalized once, and then
    ``solve`` works in that basis: it divides B by l + w, and the caller
    transforms with ``V``.  Any other A is solved by ``gbsv`` in LAPACK band
    storage, the band widths read from A's nonzeros, and ``V`` is None.
    ``herm_min`` is the smallest eigenvalue of A's Hermitian part."""

    def __init__(self, A):
        # checked once here, so the solves need not check each shift
        A = np.asarray_chkfinite(A)
        A = A.astype(np.result_type(A, float), copy=False)
        n = A.shape[0]
        r, c = np.nonzero(A)
        lo, up = int(np.max(r - c, initial=0)), int(np.max(c - r, initial=0))
        self.real = not np.iscomplexobj(A)
        self.diag, self.V = np.diagonal(A).copy(), None
        try:
            if self.real and lo == up == 1 and np.array_equal(np.diagonal(A, -1), np.diagonal(A, 1)):
                self.w, self.V = eigh_tridiagonal(self.diag, np.diagonal(A, 1), check_finite=False)
                self.herm_min = float(self.w[0])
                return
            # else the smallest eigenvalue of the Hermitian part, from its band
            k = max(lo, up)
            hb = np.zeros((k + 1, n), dtype=A.dtype)
            for d in range(k + 1):
                hb[k - d, d:] = (np.diagonal(A, d) + np.diagonal(A, -d).conj()) / 2
            w = eigvals_banded(hb, select="i", select_range=(0, 0), check_finite=False)
            self.herm_min = float(w[0])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        self.lo, self.up = lo, up
        # LAPACK band storage with lo more rows on top for the fill-in of the
        # LU, built once; each shift rewrites the diagonal row
        self.ab = np.zeros((2 * lo + up + 1, n), dtype=A.dtype)
        for d in range(-lo, up + 1):
            self.ab[lo + up - d, max(d, 0) : n + min(d, 0)] = np.diagonal(A, d)
        self.gbsv = get_lapack_funcs("gbsv", (A,))

    def solve(self, lam, B):
        if self.V is not None:
            return (B.T / (lam + self.w)).T
        # a real band solves a complex B as the real columns [Re B, Im B] of one call
        split = self.real and np.iscomplexobj(B)
        rhs = np.stack([B.real, B.imag], -1) if split else B
        self.ab[self.lo + self.up] = self.diag + lam
        *_, x, info = self.gbsv(self.lo, self.up, self.ab, rhs.reshape(B.shape[0], -1))
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbsv")
        x = x.reshape(rhs.shape)
        return x[..., 0] + 1j * x[..., 1] if split else x


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


def _moved(fine, coarse, weight=1.0):
    """Relative distance of ``coarse`` from ``fine``, each entry weighed by ``weight``."""
    scale = np.linalg.norm(weight * fine)
    return np.linalg.norm(weight * (fine - coarse)) / scale if scale > 0 else 0.0


def _triangular_toeplitz(A):
    """"lower" if A is lower-triangular Toeplitz, "upper" if its transpose is, else None."""
    if not np.array_equal(A[1:, 1:], A[:-1, :-1]):
        return None
    # diagonal d of a Toeplitz A holds A[0, d] (d > 0) or A[-d, 0] throughout
    if not np.any(A[0, 1:]):
        return "lower"
    if not np.any(A[1:, 0]):
        return "upper"
    return None


def _balakrishnan(A, B, cfg, check, negative=False):
    """A^(+-alpha) B for m-accretive A in the dtype of A and B (B = None: I).
    The integral runs on one column for a triangular-Toeplitz A and B = None,
    and on ones in the eigenbasis of a real symmetric tridiagonal A."""
    A = np.asarray(A)
    side = None if B is not None else _triangular_toeplitz(A)
    # the Hermitian part of A^T has the eigenvalues of that of A
    low = A.T if side == "upper" else A
    solver = _ResolventSolver(low)
    if solver.herm_min < -DEFAULT.accretive_floor_rel * np.linalg.norm(A):
        raise NotAccretive(f"Hermitian part has eigenvalue {solver.herm_min:.3e}")
    e = 1.0 - cfg.alpha if negative else cfg.alpha
    n = A.shape[0]
    if side is not None:
        x = np.eye(n, 1)[:, 0] if negative else low[:, 0]
        # entry j of the column recurs n - j times in the matrix, so the
        # doubling gate weighs it by sqrt(n - j) to measure the matrix's move
        col = _integral(solver, x, e, check, weight=np.sqrt(np.arange(n, 0, -1)))
        out = toeplitz(col, np.zeros(n))
        return out if side == "lower" else out.T
    if B is None:
        X = np.eye(n) if negative else A
    else:
        X = B if negative else A @ B
    if solver.V is None:
        return _integral(solver, X, e, check)
    # the rule runs on ones, entry i weighed by the norm of row i of Y = V^T X
    # (V is orthogonal: the gate measures V diag(col) Y). A complex X enters as
    # its real view, Re and Im side by side, so every product is real
    cplx = np.iscomplexobj(X)
    X2 = (np.ascontiguousarray(X).view(float) if cplx else X).reshape(n, -1)
    # V^T I is V^T: the negative power of I needs no product
    Y = solver.V.T.copy() if B is None and negative else solver.V.T @ X2
    col = _integral(solver, np.ones(n), e, check, weight=np.sqrt(np.einsum("ij,ij->i", Y, Y)))
    Y *= col[:, None]
    Y = solver.V @ Y
    return (Y.view(complex) if cplx else Y).reshape(X.shape)


def _integral(solver, X, e, check, weight=1.0):
    """(sin e pi / pi) int_0^inf l^(e-1) (l+A)^(-1) X dl by the rule of step
    _STEP, solving with ``solver``.  With ``check`` the step is halved, at most
    twice, until a halving moves the result by at most ``quad_doubling_rel``;
    ``weight`` weighs the entries of the result in the measure of that move."""
    lam, w = _weights(e, 1)
    # the banded drivers take Fortran-ordered right-hand sides
    X = np.asfortranarray(X)
    first = last = solver.solve(lam[0], X)
    out = w[0] * first
    for k in range(1, lam.size):
        last = solver.solve(lam[k], X)
        out += w[k] * last
    if not check:
        return out
    for m in (2, 4):
        # the old nodes are the even new ones, where the new weights are half
        # the old but for the end corrections
        lam, w_new = _weights(e, m)
        new = out / 2
        new += (w_new[0] - w[0] / 2) * first
        new += (w_new[-1] - w[-1] / 2) * last
        for k in range(1, lam.size, 2):
            # scaled in place and released before the next solve allocates
            Y = solver.solve(lam[k], X)
            Y *= w_new[k]
            new += Y
            del Y
        moved = _moved(new, out, weight)
        if moved <= DEFAULT.quad_doubling_rel:
            return new
        out, w = new, w_new
    raise QuadratureNotConverged(f"node doubling moved the result by {moved:.3e}")


def balakrishnan_power(A, cfg, check=False):
    """A^alpha via the Balakrishnan integral; A must be m-accretive."""
    return _balakrishnan(A, None, cfg, check)


def balakrishnan_apply(A, f, cfg, check=False):
    """A^alpha f without forming the full power matrix."""
    f = np.asarray_chkfinite(f)
    return _balakrishnan(A, f.astype(np.result_type(f, float), copy=False), cfg, check)


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
    C_0 = lam^a, C_(k+1) = C_k (k - a) / (k + 1), as a running product."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    if lam <= 0 or K < 1:
        raise ValueError("need lam > 0 and K >= 1")
    k = np.arange(K)
    c0 = lam**alpha
    return np.concatenate(([c0], c0 * np.cumprod((k - alpha) / (k + 1))))


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
    v = np.asarray(f)
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
    via_balak = balakrishnan_apply(A, f, BalakrishnanConfig(alpha))
    via_closed = marchaud_right_derivative(grid, alpha) @ f
    return _rel_l2(via_balak, via_closed)


def riesz_power_check(alpha, grid, f):
    """Relative l2 distance, away from the ends (a tenth of the grid each), of
    the Gauss-generator Balakrishnan power from K_a times the |s|^(1-2a) kernel
    (B_alpha normalization) applied to f''; valid for alpha in (3/4, 1)."""
    if not 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz power route needs alpha in (3/4, 1), got {alpha}")
    A = generator_matrix(SemigroupSpec("gauss", grid))
    via_balak = balakrishnan_apply(A, f, BalakrishnanConfig(alpha))
    kernel = axis_kernel_both(grid, 1.0 - 2.0 * alpha)
    const = riesz_power_constant(alpha) * riesz_constant(alpha)
    via_closed = const * (kernel @ (second_derivative(grid) @ f))
    margin = int(np.ceil(0.1 * grid.n))
    return _rel_l2(via_balak[margin : grid.n - margin], via_closed[margin : grid.n - margin])
