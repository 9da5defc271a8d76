"""Dense real or complex linear algebra in the standard inner product.

Every model is discretized on a uniform grid, whose quadrature inner product
is h times the standard one, so adjoints, self-adjointness, singular values
and operator norms are the standard ones.  Operations take and return plain
ndarrays and keep their dtype, float64 (real arithmetic) or complex128.
"""

import numpy as np
import scipy.linalg

from .config import DEFAULT
from .errors import IllConditioned, NoConvergence, NotHermitian, NotPositiveDefinite


def hermitian_defect(M):
    """Relative departure of M from self-adjointness."""
    scale = np.linalg.norm(M)
    if scale == 0:
        return 0.0
    return float(np.linalg.norm(M - M.conj().T) / scale)


def hermitian_part(M):
    """Hermitian part (M + M^H) / 2."""
    return (M + M.conj().T) / 2


def _check_hermitian(M):
    """M, once it is checked to be self-adjoint."""
    defect = hermitian_defect(M)
    if defect > DEFAULT.hermitian_rel:
        raise NotHermitian(f"adjoint defect {defect:.3e} exceeds {DEFAULT.hermitian_rel:.1e}")
    return M


def _eigh(M):
    """Eigenpairs of the Hermitian part of M."""
    try:
        return np.linalg.eigh((M + M.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eigen(M):
    """Eigendecomposition of a self-adjoint matrix.

    Returns
    -------
    w : ndarray
        Real eigenvalues, ascending.
    V : ndarray
        Columns orthonormal, M V = V diag(w).
    """
    return _eigh(_check_hermitian(M))


def spd_powers(M, ps, what="matrix"):
    """H^p for each p in ``ps``, from one eigendecomposition of the Hermitian
    part H of M.

    H must be positive definite: its smallest eigenvalue has to exceed
    n eps max|w|, below which ``eigh`` cannot certify its sign; else
    :class:`NotPositiveDefinite` names ``what``, the eigenvalue and the floor.
    """
    w, V = _eigh(M)
    floor = w.size * np.finfo(w.dtype).eps * np.max(np.abs(w))
    if w[0] <= floor:
        raise NotPositiveDefinite(f"{what} min eigenvalue {w[0]:.3e} not above floor {floor:.3e}")
    return [(V * w**p) @ V.conj().T for p in ps]


def extreme_eigvecs(H):
    """Eigenvectors ``(bottom, top)`` of the smallest and the largest
    eigenvalue of the Hermitian matrix H, from one Householder reduction.

    H = Q T Q^H with T real tridiagonal (``zhetrd``, lower); the two
    eigenvectors of T come from bisection and inverse iteration (stebz +
    stein, as ``zheevr`` does for an index range), and Q is applied to both
    at once (``zunmqr`` on the reflectors below the subdiagonal, which is
    ``zunmtr`` for the lower triangle).
    """
    n = H.shape[0]
    if n == 1:
        return np.ones(1, complex), np.ones(1, complex)
    lapack = scipy.linalg.lapack
    work, info = lapack.zhetrd_lwork(n, lower=1)
    if info == 0:
        c, d, e, tau, info = lapack.zhetrd(H, lower=1, lwork=int(work.real))
    if info != 0:
        raise NoConvergence(f"zhetrd info={info}")
    Z = np.empty((n, 2), complex, order="F")
    try:
        for k, i in enumerate((0, n - 1)):
            Z[:, k] = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(i, i))[1][:, 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    reflectors = c[1:, : n - 1]
    _, work, info = lapack.zunmqr("L", "N", reflectors, tau, Z[1:], -1)
    if info == 0:
        Z[1:], _, info = lapack.zunmqr("L", "N", reflectors, tau, Z[1:], int(work[0].real))
    if info != 0:
        raise NoConvergence(f"zunmqr info={info}")
    return Z[:, 0], Z[:, 1]


def min_hermitian_eig(M):
    """Smallest eigenvalue of the Hermitian part of M."""
    try:
        return float(np.linalg.eigvalsh(hermitian_part(M))[0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def general_eigen(M):
    """All eigenvalues, sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, so reports are deterministic.  A real M's conjugate pairs are
    exact, so such a pair ties on modulus and lists +imag first.
    """
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    return lam[order]


def singular_values(M):
    """s-numbers of M, descending."""
    try:
        return scipy.linalg.svdvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def op_norm(M):
    """Operator norm (largest singular value)."""
    return float(singular_values(M)[0])


def _check_cond(M):
    """Singular values of M, once its condition number is under the cap."""
    s = singular_values(M)
    if s[-1] == 0 or s[0] / s[-1] > DEFAULT.cond_cap:
        cond = np.inf if s[-1] == 0 else s[0] / s[-1]
        raise IllConditioned(f"condition number {cond:.3e} exceeds cap {DEFAULT.cond_cap:.1e}")
    return s


def inverse(M):
    _check_cond(M)
    return np.linalg.inv(M)


def inverse_norm(M):
    """||M^-1|| = 1 / sigma_min(M), from one SVD, under the condition cap of ``inverse``."""
    return float(1.0 / _check_cond(M)[-1])


def herm_power(M, p):
    """M^p for self-adjoint positive definite M, via eigendecomposition."""
    return spd_powers(_check_hermitian(M), (p,))[0]
