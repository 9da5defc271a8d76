"""Dense complex linear algebra w.r.t. weighted inner products.

All operations take plain ndarrays (or anything exposing a ``.m`` matrix
attribute) together with an :class:`InnerProduct` describing the weighted
inner product (f, g) = sum_i w_i f_i conj(g_i).  Weighted notions (adjoint,
self-adjointness, singular values, operator norm) are computed by whitening
with ``diag(sqrt(w))``, which turns the weighted problem into a standard one.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .errors import IllConditioned, NoConvergence, NotHermitian, NotPositiveDefinite


def asmatrix(M):
    """Return the underlying ndarray of a matrix-like object."""
    m = getattr(M, "m", M)
    return np.asarray(m)


@dataclass(frozen=True)
class InnerProduct:
    """Weighted inner product (f, g) = sum_i w_i f_i conj(g_i).

    Parameters
    ----------
    weights : ndarray
        Strictly positive quadrature weights, one per grid node.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not np.all(w > 0):
            raise ValueError("inner-product weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n, h=1.0):
        return cls(np.full(n, float(h)))

    @property
    def n(self):
        return self.weights.size

    def dot(self, f, g):
        return np.sum(self.weights * f * np.conj(g))

    def norm(self, f):
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2)))

    def whiten(self, M):
        """Return diag(sqrt(w)) M diag(1/sqrt(w))."""
        s = np.sqrt(self.weights)
        return asmatrix(M) * (s[:, None] / s[None, :])

    def unwhiten(self, M):
        """Inverse of :meth:`whiten`: diag(1/sqrt(w)) M diag(sqrt(w))."""
        s = np.sqrt(self.weights)
        return asmatrix(M) * (s[None, :] / s[:, None])

    def unwhiten_vecs(self, V):
        """Map standard-orthonormal columns back to ip-orthonormal ones."""
        return V / np.sqrt(self.weights)[:, None]


def adjoint(M, ip):
    """ip-adjoint W^{-1} M^H W, W = diag(ip.weights)."""
    M = asmatrix(M)
    w = ip.weights
    return M.conj().T * (w[None, :] / w[:, None])


def hermitian_defect(M, ip):
    """Relative departure of M from ip-self-adjointness."""
    M = asmatrix(M)
    scale = np.linalg.norm(M)
    if scale == 0:
        return 0.0
    return float(np.linalg.norm(M - adjoint(M, ip)) / scale)


def hermitian_part(M, ip):
    """ip-Hermitian part (M + adjoint(M)) / 2."""
    M = asmatrix(M)
    return (M + adjoint(M, ip)) / 2


def skew_part(M, ip):
    """ip-skew part (M - adjoint(M)) / (2i); self-adjoint w.r.t. ip."""
    M = asmatrix(M)
    return (M - adjoint(M, ip)) / 2j


def _whiten_hermitian(M, ip, tol):
    """ip.whiten(M), once M is checked to be ip-self-adjoint."""
    M = asmatrix(M)
    defect = hermitian_defect(M, ip)
    if defect > tol.hermitian_rel:
        raise NotHermitian(f"adjoint defect {defect:.3e} exceeds {tol.hermitian_rel:.1e}")
    return ip.whiten(M)


def _eigh(Ms):
    """Eigenpairs of the Hermitian part of an already-whitened matrix."""
    try:
        return np.linalg.eigh((Ms + Ms.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eigen(M, ip, tol: Tolerances = DEFAULT):
    """Eigendecomposition of an ip-self-adjoint matrix.

    Returns
    -------
    w : ndarray
        Real eigenvalues, ascending.
    V : ndarray
        Columns ip-orthonormal, M V = V diag(w).
    """
    w, V = _eigh(_whiten_hermitian(M, ip, tol))
    return w, ip.unwhiten_vecs(V)


def spd_power(Ms, p, tol: Tolerances = DEFAULT, what="matrix"):
    """Hs^p for the Hermitian part Hs of an already-whitened matrix Ms.

    Hs must be positive definite: its smallest eigenvalue has to exceed
    ``pd_floor_rel * ||Hs||_F``, else :class:`NotPositiveDefinite` names
    ``what``, the eigenvalue and the floor.
    """
    w, V = _eigh(Ms)
    floor = tol.pd_floor_rel * np.linalg.norm(w)  # ||Hs||_F = ||eigenvalues||_2
    if w[0] <= floor:
        raise NotPositiveDefinite(f"{what} min eigenvalue {w[0]:.3e} not above floor {floor:.3e}")
    return (V * w**p) @ V.conj().T


def min_hermitian_eig(M, ip):
    """Smallest eigenvalue of the ip-Hermitian part of M."""
    return float(np.linalg.eigvalsh(ip.whiten(hermitian_part(M, ip)))[0])


def general_eigen(M):
    """All eigenvalues, sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, so reports are deterministic.
    """
    M = asmatrix(M)
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    return lam[order]


def singular_values(M, ip):
    """s-numbers of M w.r.t. the weighted inner product, descending."""
    M = asmatrix(M)
    try:
        return scipy.linalg.svdvals(ip.whiten(M))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def op_norm(M, ip):
    """ip-operator norm (largest weighted singular value)."""
    return float(singular_values(M, ip)[0])


def _check_cond(M, tol: Tolerances):
    s = scipy.linalg.svdvals(M)
    if s[-1] == 0 or s[0] / s[-1] > tol.cond_cap:
        cond = np.inf if s[-1] == 0 else s[0] / s[-1]
        raise IllConditioned(f"condition number {cond:.3e} exceeds cap {tol.cond_cap:.1e}")


def solve(M, b, tol: Tolerances = DEFAULT):
    M = asmatrix(M)
    _check_cond(M, tol)
    return np.linalg.solve(M, b)


def inverse(M, tol: Tolerances = DEFAULT):
    M = asmatrix(M)
    _check_cond(M, tol)
    return np.linalg.inv(M)


def herm_power(M, p, ip, tol: Tolerances = DEFAULT):
    """M^p for ip-self-adjoint positive definite M, via eigendecomposition."""
    return ip.unwhiten(spd_power(_whiten_hermitian(M, ip, tol), p, tol))
