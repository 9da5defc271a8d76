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
   power) and then expanded; ``balakrishnan_apply`` multiplies the expanded
   power by f, so the power and the apply share one set-up. The shifted
   solves are made by ``_ResolventSolver``, all the shifts of a pass
   together, as many to a call as a cap on the call's entries allows; each
   call's solutions are contracted with their weights. The rule of each
   (order, step) is built once, read-only, and the solver of the latest call
   is kept with the bytes of its matrix: a caller that applies A^a to one
   vector after another sets up once. A narrow band that is neither
   triangular nor real symmetric tridiagonal takes the dense copies: a
   checked ``balakrishnan_apply`` on a complex non-Hermitian tridiagonal at
   n=256 takes 0.36-0.43 s (one BLAS thread, 2 vCPUs); no model's generator
   is such a band.
2. Spectral calculus for Hermitian positive matrices (numcore.herm_power).
3. Grunwald-type series for the Poisson-difference generator.

The closed-form routes that cross-check route 1 on the models' generators
live in ``fracspec.transform``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import bandwidth, eigh_tridiagonal, get_lapack_funcs, toeplitz
from scipy.special import gamma, poch, roots_jacobi

from .config import DEFAULT
from .errors import BadAlpha, NegativeParameter, NotAccretive, QuadratureNotConverged
from .numcore import _lapack, min_hermitian_eig


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
# Entries of one call of the shifted solver: (rows + right-hand-side columns)
# x n x shifts, where a shift adds the band rows of a triangular A, or the n
# rows of a dense copy. 2^18 float64 entries are 2 MB: one pass of the rule on
# a banded generator and a few columns is one call, a matrix right-hand side
# or a dense A takes several
_CALL_ENTRIES = 2**18


class _ResolventSolver:
    """Solves (l I + A) X = B for shifts l > 0, all the shifts of one call at
    once; a real A takes a real B. The route is read from A's structure:
    a real symmetric tridiagonal A = V diag(w) V^T is diagonalized once, and
    ``solve`` divides B by l + w in that basis (the caller transforms with
    ``V``); a triangular band, its band widths read by ``bandwidth``, is held
    in LAPACK band storage, and the shifted copies of A are the diagonal
    blocks of one band matrix, solved by substitution (``tbtrs``); any other
    A is solved as n x n dense copies l I + A by one stacked
    ``np.linalg.solve``. ``herm_min`` is the smallest eigenvalue of A's
    Hermitian part, w[0] or by ``min_hermitian_eig``; ``rows`` is the number
    of rows a shift adds to a call (0 in the eigenbasis, n for a dense copy).
    A solver is read-only after ``__init__``."""

    def __init__(self, A):
        # a non-finite A is refused once here, by the gate of eigh_tridiagonal
        # or of min_hermitian_eig, so the solves need not check each shift
        A = A.astype(np.result_type(A, float), copy=False)
        n = A.shape[0]
        lo, up = bandwidth(A)
        self.real = not np.iscomplexobj(A)
        self.V = self.ab = None
        if self.real and lo == up == 1 and np.array_equal(np.diagonal(A, -1), np.diagonal(A, 1)):
            self.w, self.V = _lapack(eigh_tridiagonal, np.diagonal(A), np.diagonal(A, 1), check_finite=False)
            self.herm_min, self.rows = float(self.w[0]), 0
            return
        self.herm_min = min_hermitian_eig(A)
        if lo and up:
            # a copy: the caller may change A in place once the call returns
            self.A, self.rows = A.copy(), n
            return
        # LAPACK band storage of one copy of A, built once. Diagonal d fills
        # n - |d| of its row; the |d| entries left over are the corners that
        # would couple one shifted copy to the next when the copies are laid
        # side by side, and they stay zero
        self.ab = np.zeros((lo + up + 1, n), dtype=A.dtype)
        for d in range(-lo, up + 1):
            self.ab[up - d, max(d, 0) : n + min(d, 0)] = np.diagonal(A, d)
        self.rows, self.diag_row, self.uplo = self.ab.shape[0], up, "U" if lo == 0 else "L"
        self.tbtrs = get_lapack_funcs("tbtrs", (A,))

    def solve(self, lams, B):
        """(l I + A)^(-1) B for each shift l of ``lams``, stacked on a new first axis."""
        if self.V is not None:
            d = lams[:, None] + self.w
            return B / d[(...,) + (None,) * (B.ndim - 1)]
        n, K = B.shape[0], lams.size
        cols = B.reshape(n, -1)
        if self.ab is None:
            M = np.empty((K, n, n), dtype=self.A.dtype)
            M[...] = self.A
            M.reshape(K, -1)[:, :: n + 1] += lams[:, None]
            # b is (K, n, c) even for one column: numpy 1 and 2 read a b of
            # ndim one less than M's differently
            x = np.linalg.solve(M, np.broadcast_to(cols, (K,) + cols.shape))
            return x.reshape((K,) + B.shape)
        # copy k of A, shifted by lams[k], is diagonal block k of one K n x K n
        # band, and copy k of B is block k of its right-hand side; (rows, n, K)
        # and (n, K, cols) in Fortran order are those Fortran-ordered arrays
        ab = np.empty(self.ab.shape + (K,), dtype=self.ab.dtype, order="F")
        ab[...] = self.ab[..., None]
        ab = ab.reshape((self.rows, n * K), order="F")
        ab[self.diag_row] += np.repeat(lams, n)
        b = np.empty((n, K, cols.shape[1]), dtype=np.result_type(ab, cols), order="F")
        b[...] = cols[:, None, :]
        b = b.reshape((n * K, cols.shape[1]), order="F")
        x, info = self.tbtrs(ab, b, uplo=self.uplo, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of the band solver")
        return np.moveaxis(x.reshape((n, K, -1), order="F"), 1, 0).reshape((K,) + B.shape)


# The key of the latest call's matrix (shape, dtype and bytes) and its solver
_last = (None, None)


def _solver(A):
    """The resolvent solver of A: the latest call's if that call's matrix had
    the bytes of A, else a new one. A matrix changed in place gets a new one."""
    global _last
    key = (A.shape, A.dtype, A.tobytes())
    last_key, solver = _last
    if key != last_key:
        solver = _ResolventSolver(A)
        _last = (key, solver)
    return solver


@lru_cache(maxsize=15)  # 3 steps m for e = a, 1 - a at a = 0.6, 0.9 and e = 0.5
def _weights(e, m):
    """Nodes l_k and weights c_k of the rule of step _STEP / m, read-only, with
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
    l.flags.writeable = c.flags.writeable = False
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
    The integral runs on one column for a triangular-Toeplitz A, whose power
    is expanded and then multiplied by B, and on ones in the eigenbasis of a
    real symmetric tridiagonal A."""
    A = np.asarray(A)
    side = _triangular_toeplitz(A)
    # the Hermitian part of A^T has the eigenvalues of that of A
    low = A.T if side == "upper" else A
    solver = _solver(low)
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
        out = out if side == "lower" else out.T
        return out if B is None else out @ B
    if B is None:
        X = np.eye(n) if negative else A
    else:
        X = B if negative else A @ B
    # a real solver takes a complex X as its real view, Re and Im side by
    # side, so every solve and product is real
    cplx = solver.real and np.iscomplexobj(X)
    X2 = (np.ascontiguousarray(X).view(float) if cplx else X).reshape(n, -1)
    if solver.V is None:
        Y = _integral(solver, X2, e, check)
    else:
        # the rule runs on ones, entry i weighed by the norm of row i of
        # Y = V^T X (V is orthogonal: the gate measures V diag(col) Y); V^T I
        # is V^T, so the negative power of I needs no product
        Y = solver.V.T.copy() if B is None and negative else solver.V.T @ X2
        col = _integral(solver, np.ones(n), e, check, weight=np.sqrt(np.einsum("ij,ij->i", Y, Y)))
        Y *= col[:, None]
        Y = solver.V @ Y
    return (np.ascontiguousarray(Y).view(complex) if cplx else Y).reshape(X.shape)


def _sum(solver, lams, w, X):
    """(sum_k w_k (l_k + A)^(-1) X, the solution at the first shift, the
    solution at the last) over the shifts l_k of ``lams``. The shifts go to
    ``solver.solve`` in as few calls as keep each within _CALL_ENTRIES
    entries: (rows + columns) x n a shift, a dense copy's rows being n; each
    call's stacked solutions are contracted with their weights."""
    n = X.shape[0]
    step = max(1, _CALL_ENTRIES // ((solver.rows + X.size // n) * n))
    for i in range(0, lams.size, step):
        Y = solver.solve(lams[i : i + step], X)
        part = np.tensordot(w[i : i + step], Y, 1)
        if i == 0:
            out, first = part, Y[0].copy()
        else:
            out += part
    return out, first, Y[-1].copy()


def _integral(solver, X, e, check, weight=1.0):
    """(sin e pi / pi) int_0^inf l^(e-1) (l+A)^(-1) X dl by the rule of step
    _STEP, solving with ``solver``.  With ``check`` the step is halved, at most
    twice, until a halving moves the result by at most ``quad_doubling_rel``;
    ``weight`` weighs the entries of the result in the measure of that move."""
    lam, w = _weights(e, 1)
    out, first, last = _sum(solver, lam, w, X)
    if not check:
        return out
    for m in (2, 4):
        # the old nodes are the even new ones, where the new weights are half
        # the old but for the end corrections
        lam, w_new = _weights(e, m)
        odd = _sum(solver, lam[1::2], w_new[1::2], X)[0]
        new = out / 2 + (w_new[0] - w[0] / 2) * first + (w_new[-1] - w[-1] / 2) * last + odd
        moved = _moved(new, out, weight)
        if moved <= DEFAULT.quad_doubling_rel:
            return new
        out, w = new, w_new
    raise QuadratureNotConverged(f"node doubling moved the result by {moved:.3e}")


def balakrishnan_power(A, cfg, check=False):
    """A^alpha via the Balakrishnan integral; A must be m-accretive."""
    return _balakrishnan(A, None, cfg, check)


def balakrishnan_apply(A, f, cfg, check=False):
    """A^alpha f; a triangular-Toeplitz A forms A^alpha from its first column
    and multiplies it by f, any other A never forms the power matrix."""
    f = np.asarray_chkfinite(f)
    return _balakrishnan(A, f.astype(np.result_type(f, float), copy=False), cfg, check)


def negative_power(A, cfg, check=False):
    """A^(-alpha) via the Balakrishnan integral."""
    return _balakrishnan(A, None, cfg, check, negative=True)


def lemma_constant(alpha, norm_J_inv):
    """C_(1-a) = 2 ||J^(-1)|| / (1-a) + 1/a, the negative-power norm bound."""
    BalakrishnanConfig(alpha)  # BadAlpha outside (0, 1)
    return 2.0 * norm_J_inv / (1.0 - alpha) + 1.0 / alpha


def gl_coefficients(alpha, lam, K):
    """Grunwald-type coefficients C_0..C_K by the stable recurrence
    C_0 = lam^a, C_(k+1) = C_k (k - a) / (k + 1), as a running product."""
    BalakrishnanConfig(alpha)  # BadAlpha outside (0, 1)
    if not (lam > 0 and K >= 1):
        raise NegativeParameter(f"need lam > 0 and K >= 1, got lam = {lam}, K = {K}")
    k = np.arange(K)
    c0 = lam**alpha
    return np.concatenate(([c0], c0 * np.cumprod((k - alpha) / (k + 1))))


def gl_coefficients_alt(alpha, lam, K):
    """C'_k = lam^(k+1) (sin a pi / pi) int_0^inf xi^(a-1) (xi+lam)^(-k-1) dxi,
    evaluated by Gauss-Jacobi quadrature after mapping onto (0, 1).

    Deliberately quadrature-based (no closed Gamma form) so the identity
    C'_(k+1) - C'_k = C_(k+1) is a genuine cross-check.
    """
    BalakrishnanConfig(alpha)  # BadAlpha outside (0, 1)

    def table(m):
        # xi = lam (1-t)/t maps the integral to lam^a int_0^1 (1-t)^(a-1) t^(k-a) dt;
        # with t = (1+y)/2 and the Gauss-Jacobi weight (1-y)^(a-1) (1+y)^(-a)
        # the remaining factor is the polynomial ((1+y)/2)^k, so the rule is
        # exact once 2m exceeds K.
        # scipy's recurrence warms up with 0/0, and at some alpha with x/0
        with np.errstate(invalid="ignore", divide="ignore"):
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
    """S_K = sum_(k<=K) C_k = lam^a Gamma(K+1-a) / (K! Gamma(1-a)), exact; the
    ratio K! / Gamma(K+1-a) is the Pochhammer symbol (K+1-a)_a, formed
    without the difference of two large log-Gammas."""
    return lam**alpha / (poch(K + 1 - alpha, alpha) * gamma(1 - alpha))


def gl_abs_sum(alpha, lam):
    """sum_k |C_k| summed by recurrence up to K = 100000 with the telescoped remainder.

    Since C_k < 0 for k >= 1 and the full series sums to zero, the exact
    remainder past K is S_K itself, so the truncation tail is zero.
    """
    K = 100_000
    c = gl_coefficients(alpha, lam, K)
    return float(c[0] - np.sum(c[1:]) + gl_partial_sum(alpha, lam, K))


def gl_power_matrix(spec, alpha):
    """Matrix of the Grunwald series sum_k C_k S_m^k on the grid: A^a of the
    Poisson-difference generator, A^a f(x) = sum_k C_k f(x - k mu), exact on
    the grid (zero extension)."""
    if spec.kind != "poisson":
        raise ValueError("gl_power_matrix applies to the Poisson-difference semigroup")
    m = spec.shift_steps
    n = spec.grid.n
    kmax = (n - 1) // m
    c = gl_coefficients(alpha, spec.lam, max(kmax, 1))
    col = np.zeros(n)
    col[: kmax * m + 1 : m] = c[: kmax + 1]
    return toeplitz(col, np.zeros(n))
