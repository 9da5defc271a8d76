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


def hermitian_part(M):
    """Hermitian part (M + M^H) / 2."""
    return (M + M.conj().T) / 2


def _check_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _check_hermitian(M):
    """M, once it is finite and its relative departure from self-adjointness is checked."""
    _check_finite(M)
    scale = np.linalg.norm(M)
    defect = float(np.linalg.norm(M - M.conj().T) / scale) if scale != 0 else 0.0
    if defect > DEFAULT.hermitian_rel:
        raise NotHermitian(f"adjoint defect {defect:.3e} exceeds {DEFAULT.hermitian_rel:.1e}")
    return M


def _lapack(driver, *arrays, **options):
    """driver(*arrays, **options), the one gate of every eigen and SVD driver:
    a non-finite array raises ValueError, and a LAPACK failure NoConvergence."""
    _check_finite(*arrays)
    try:
        return driver(*arrays, **options)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _eigh(M):
    """Eigenpairs of the Hermitian part of M."""
    return _lapack(lambda A: np.linalg.eigh(hermitian_part(A)), M)


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

    The reduction overwrites H when H is a Fortran-ordered complex128 array
    (any other H is copied first), so a caller that keeps H passes a copy.
    """
    n = H.shape[0]
    if n == 1:
        return np.ones(1, complex), np.ones(1, complex)
    lapack = scipy.linalg.lapack
    work, info = lapack.zhetrd_lwork(n, lower=1)
    if info == 0:
        c, d, e, tau, info = lapack.zhetrd(H, lower=1, lwork=int(work.real), overwrite_a=1)
    if info != 0:
        raise NoConvergence(f"zhetrd info={info}")
    Z = np.empty((n, 2), complex, order="F")
    for k, i in enumerate((0, n - 1)):
        Z[:, k] = _lapack(scipy.linalg.eigh_tridiagonal, d, e, select="i", select_range=(i, i))[1][:, 0]
    reflectors = c[1:, : n - 1]
    _, work, info = lapack.zunmqr("L", "N", reflectors, tau, Z[1:], -1)
    if info == 0:
        Z[1:], _, info = lapack.zunmqr("L", "N", reflectors, tau, Z[1:], int(work[0].real))
    if info != 0:
        raise NoConvergence(f"zunmqr info={info}")
    return Z[:, 0], Z[:, 1]


def min_hermitian_eig(M):
    """Smallest eigenvalue of the Hermitian part of M: by ``eigvals_banded``
    on the band of Re M when M's band width k has 8 k < n (exact on a
    diagonal M), else by a dense ``eigvalsh``. With one BLAS thread on 2 vCPUs
    the band read was the faster up to k = n/6 to n/4 at n = 64 to 512, and
    took 0.2 ms against 3 ms at n = 256, k = 1."""
    _check_finite(M)
    n = M.shape[0]
    k = max(scipy.linalg.bandwidth(M))
    if 8 * k >= n:
        return float(_lapack(np.linalg.eigvalsh, hermitian_part(M))[0])
    hb = np.zeros((k + 1, n), dtype=np.result_type(M, float))
    for d in range(k + 1):
        hb[k - d, d:] = (np.diagonal(M, d) + np.diagonal(M, -d).conj()) / 2
    w = _lapack(scipy.linalg.eigvals_banded, hb, select="i", select_range=(0, 0), check_finite=False)
    return float(w[0])


def general_eigen(M):
    """All eigenvalues, sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, so reports are deterministic.  A real M's conjugate pairs are
    exact, so such a pair ties on modulus and lists +imag first.
    """
    lam = _lapack(np.linalg.eigvals, M)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    return lam[order]


def singular_values(M):
    """s-numbers of M, descending."""
    return _lapack(scipy.linalg.svdvals, M)


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
    """M^-1 and the singular values of M, descending (the condition cap's SVD)."""
    s = _check_cond(M)
    return np.linalg.inv(M), s


def inverse_norm(M):
    """||M^-1|| = 1 / sigma_min(M), from one SVD, under the condition cap of ``inverse``."""
    return float(1.0 / _check_cond(M)[-1])


def herm_power(M, p):
    """M^p for self-adjoint positive definite M, via eigendecomposition."""
    return spd_powers(_check_hermitian(M), (p,))[0]
