"""Spectral diagnostics: numerical range and sector angle, form bounds,
sectorial factorization, resolvent identity, order, eigenvalue inequality,
asymptotics, m-accretivity.

Every routine returns numbers; the verdicts on them are made in ``checks``.
"""

import numpy as np
import scipy.linalg

from .config import DEFAULT
from .errors import DegenerateFit
from .numcore import (
    extreme_eigvecs,
    general_eigen,
    hermitian_eigen,
    hermitian_part,
    inverse_norm,
    min_hermitian_eig,
    op_norm,
    spd_powers,
)


N_ANGLES = 256  # the boundary's angle grid, phi_j = 2 pi j / N_ANGLES


def numerical_range(M):
    """Boundary of the numerical range at the N_ANGLES angles phi_j, by the
    support-function method: point j is the Rayleigh quotient at the top
    eigenvector of H = Re(e^(i phi_j) M), the extreme point of Theta(M) in
    direction e^(i phi_j).

    Re(e^(i (phi + pi)) M) = -H, so the bottom eigenvector of H, from the
    same reduction, gives the point at phi + pi: only angles 0..pi are
    reduced. A real M also has Re(e^(i (pi - phi)) M) = -conj(H), so the point
    at pi - phi is the conjugate of the bottom one and the point at 2 pi - phi
    the conjugate of the one at phi: only angles 0..pi/2 are reduced.
    """
    phis = np.linspace(0.0, 2.0 * np.pi, N_ANGLES, endpoint=False)
    half = N_ANGLES // 2
    real = np.isrealobj(M)
    pts = np.empty(N_ANGLES, dtype=complex)
    Mc = M.astype(complex, copy=False)  # cast once, not in each Rayleigh product
    # every angle forms H in the same two buffers, and the reduction overwrites
    # H, so no angle allocates (or makes the allocator trim and regrow) n x n
    H = np.empty(M.shape, dtype=complex, order="F")
    T = np.empty(M.shape, dtype=complex, order="F")
    for j in range(half // 2 + 1 if real else half):
        np.multiply(np.exp(1j * phis[j]), M, out=H)
        np.add(H, np.conjugate(H, out=T).T, out=H)
        H /= 2
        bottom, top = extreme_eigvecs(H)
        pts[j] = top.conj() @ Mc @ top
        if not real:
            pts[j + half] = bottom.conj() @ Mc @ bottom
        elif 2 * j != half:
            pts[half - j] = (bottom.conj() @ Mc @ bottom).conj()
    if real:
        j = np.arange(1, half)
        pts[N_ANGLES - j] = pts[j].conj()
    return pts


def sector_angle(pts, vertex):
    """Half-angle of the smallest sector |arg(z - vertex)| <= theta holding
    the boundary points ``pts``; points with Re(z - vertex) at or below a
    rounding floor are left out."""
    rel = pts - float(vertex)
    spread = max(float(np.max(np.abs(rel))), 1.0)
    keep = rel.real > DEFAULT.sector_guard_rel * spread
    return float(np.max(np.abs(np.angle(rel[keep])))) if np.any(keep) else 0.0


def verify_H1_H2(L, hplus):
    """Form bounds (C1, C2) of L relative to the h+ norm matrix N.

    With W = N^(-1/2) L N^(-1/2): C2 = min eigenvalue of the Hermitian part
    of W (exact, not sampled); C1 = largest singular value of W.
    """
    S = spd_powers(hplus, (-0.5,), "norm matrix")[0]
    W = S @ L @ S
    C2 = min_hermitian_eig(W)
    return op_norm(W), C2


def sectorial_factorize(W):
    """H^(1/2), H^(-1/2) and C of W = H^(1/2)(I + C)H^(1/2), with H the
    Hermitian part of W (positive definite), from one eigendecomposition of H.
    C = H^(-1/2) (W - W^H)/2 H^(-1/2) = iB for Kato's self-adjoint B is
    skew-Hermitian, and real for a real W."""
    root, inv_root = spd_powers(W, (0.5, -0.5), "Hermitian part")
    return root, inv_root, inv_root @ ((W - W.conj().T) / 2) @ inv_root


def realpart_resolvent_check(R, S, C):
    """Relative defects of Re(R) = S(I - C^2)^(-1)S, for R = W^-1 and S, C
    the H^(-1/2) and C of ``sectorial_factorize(W)`` (I - C^2 = I + B^2 for
    C = iB): the factor-1 identity (which matrix algebra gives) and the
    printed factor-1/2 variant.  I - C^2 = I + C^H C >= I is solved by Cholesky."""
    X = hermitian_part(R)
    Y = S @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.eye(R.shape[0]) - C @ C), S)
    scale = np.linalg.norm(X)
    return float(np.linalg.norm(X - Y) / scale), float(np.linalg.norm(X - Y / 2) / scale)


def _loglog_fit(y):
    """Slope and r^2 of the least-squares line through (log i, y_i), i = 1..len(y)."""
    x = np.log(np.arange(1, y.size + 1, dtype=float))
    (slope, _), (ss_res,), *_ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - float(ss_res) / ss_tot if ss_tot > 0 else 1.0


def order_estimate(svals):
    """Order mu from the log-log slope of the leading singular values.

    Only the leading ``DEFAULT.fit_fraction`` of ``svals`` is used; the discrete
    tail is polluted by the discretization and excluded.
    """
    s = np.asarray(svals, dtype=float)
    if s.size < 16:
        raise ValueError("need at least 16 singular values")
    if not np.all(np.isfinite(s) & (s > 0)):
        raise ValueError("singular values must be positive and finite")
    m = max(8, int(s.size * DEFAULT.fit_fraction))
    y = np.log(s[:m])
    if np.ptp(y) < 1e-12:
        raise DegenerateFit("singular values carry no decay to fit")
    slope, r2 = _loglog_fit(y)
    return -slope, r2


def eigenvalue_inequality(R_W, R_H, p=1.0):
    """Ratio profile rho_n = sum_(i<=n)|l_i(R_W)|^p / sum_(i<=n) l_i(R_H)^p."""
    lw = np.abs(general_eigen(R_W)) ** p
    wh, _ = hermitian_eigen(R_H)
    lh = np.sort(wh)[::-1] ** p
    ratios = np.cumsum(lw) / np.cumsum(lh)
    return ratios, float(np.max(ratios))


def asymptotics_check(eigenvalues, mu, eps):
    """Largest value and log-log trend slope of i^(mu-eps)|l_i| over the leading
    ``DEFAULT.fit_fraction`` of the range; |l_i| = o(i^(-mu+eps)) wants a negative slope."""
    lam = np.abs(eigenvalues)
    if lam.size < 8:
        raise ValueError(f"need at least 8 eigenvalues, got {lam.size}")
    m = max(8, int(lam.size * DEFAULT.fit_fraction))
    seq = np.arange(1, m + 1, dtype=float) ** (mu - eps) * lam[:m]
    return float(np.max(seq)), _loglog_fit(np.log(np.maximum(seq, 1e-300)))[0]


def maccretive_check(A):
    """The two sides of the dual m-accretivity test: the smallest eigenvalue
    of the Hermitian part, and the worst slack t ||(A + t)^-1|| - 1 over
    t = 0.01, 0.1, 1, 10 and 100."""
    herm_min = min_hermitian_eig(A)
    slacks = (inverse_norm(A + t * np.eye(len(A))) * t - 1.0
              for t in (0.01, 0.1, 1.0, 10.0, 100.0))
    return herm_min, float(max(0.0, *slacks))
