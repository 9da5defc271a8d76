"""Spectral diagnostics: numerical range, form bounds, sectorial
factorization, resolvent identity, order, Schatten classification, eigenvalue
inequality, asymptotics, m-accretivity.

Every routine returns numbers; the verdicts on them are made in ``checks``.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import DegenerateFit
from .numcore import (
    extreme_eigvecs,
    general_eigen,
    hermitian_eigen,
    hermitian_part,
    inverse,
    inverse_norm,
    min_hermitian_eig,
    op_norm,
    spd_powers,
)


@dataclass(frozen=True)
class SectorEstimate:
    """Sector |arg(z - vertex)| <= semi_angle fitted around sampled boundary
    points of the numerical range."""

    vertex: float
    semi_angle: float
    boundary: np.ndarray


def numerical_range(M, n_angles=256):
    """Boundary of the numerical range by the support-function method.

    For each angle phi the extreme point of Theta(M) in direction e^(i phi)
    is the Rayleigh quotient at the top eigenvector of H = Re(e^(i phi) M).
    The fitted sector's vertex is the minimal real part of the boundary
    (``refit_sector`` takes another).

    Re(e^(i (phi + pi)) M) = -H, so the bottom eigenvector of H, from the
    same reduction, gives the point at phi + pi: only angles 0..pi are
    reduced, and ``n_angles`` must be even.  A real M also has
    Re(e^(i (pi - phi)) M) = -conj(H), so the point at pi - phi is the
    conjugate of the bottom one and the point at 2 pi - phi the conjugate of
    the one at phi: only angles 0..pi/2 are reduced.
    """
    if n_angles < 16 or n_angles % 2:
        raise ValueError("need an even n_angles >= 16")
    phis = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    half = n_angles // 2
    real = np.isrealobj(M)
    pts = np.empty(n_angles, dtype=complex)
    Mc = M.astype(complex, copy=False)  # cast once, not in each Rayleigh product
    for j in range(half // 2 + 1 if real else half):
        H = np.exp(1j * phis[j]) * M
        H = (H + H.conj().T) / 2
        bottom, top = extreme_eigvecs(H)
        pts[j] = top.conj() @ Mc @ top
        if not real:
            pts[j + half] = bottom.conj() @ Mc @ bottom
        elif 2 * j != half:
            pts[half - j] = (bottom.conj() @ Mc @ bottom).conj()
    if real:
        j = np.arange(1, half)
        pts[n_angles - j] = pts[j].conj()
    return _fit_sector(pts, np.min(pts.real))


def refit_sector(estimate, vertex):
    """Refit the sector of an existing boundary sample about a given vertex
    (e.g. the origin, as in the completeness criterion's sector)."""
    return _fit_sector(np.asarray(estimate.boundary), vertex)


def _fit_sector(pts, vertex):
    """Smallest sector about ``vertex`` holding the boundary points ``pts``."""
    rel = pts - float(vertex)
    spread = max(float(np.max(np.abs(rel))), 1.0)
    keep = rel.real > DEFAULT.sector_guard_rel * spread
    theta = float(np.max(np.abs(np.angle(rel[keep])))) if np.any(keep) else 0.0
    return SectorEstimate(float(vertex), theta, pts)


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
    printed factor-1/2 variant."""
    X = hermitian_part(R)
    Y = S @ inverse(np.eye(R.shape[0]) - C @ C) @ S
    scale = np.linalg.norm(X)
    return float(np.linalg.norm(X - Y) / scale), float(np.linalg.norm(X - Y / 2) / scale)


def order_estimate(svals, fraction=None):
    """Order mu from the log-log slope of the leading singular values.

    Only the first ``fraction`` of the spectrum is used; the discrete tail is
    polluted by the discretization and excluded.
    """
    s = np.asarray(svals, dtype=float)
    if s.size < 16:
        raise ValueError("need at least 16 singular values")
    if np.any(s <= 0):
        raise ValueError("singular values must be positive")
    m = max(8, int(s.size * (fraction if fraction is not None else DEFAULT.fit_fraction)))
    y = np.log(s[:m])
    if np.ptp(y) < 1e-12:
        raise DegenerateFit("singular values carry no decay to fit")
    x = np.log(np.arange(1, m + 1, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((A @ [slope, intercept] - y) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), float(r2)


@dataclass(frozen=True)
class SchattenClassification:
    mu: float
    predicted_p: float
    trace_class: bool
    sums: dict


def schatten_sum(svals, p):
    return float(np.sum(np.asarray(svals, dtype=float) ** p))


def schatten_classify(svals, mu):
    """Predicted minimal Schatten exponent per the classification theorem:
    p = 1 for mu > 1, else any p > 2/mu; with the sums at p = 1 and p."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    predicted = 1.0 if mu > 1.0 else 2.0 / mu
    ps = sorted({predicted, 1.0})
    sums = {p: schatten_sum(svals, p) for p in ps}
    return SchattenClassification(float(mu), float(predicted), bool(mu > 1.0), sums)


def eigenvalue_inequality(R_W, R_H, p=1.0):
    """Ratio profile rho_n = sum_(i<=n)|l_i(R_W)|^p / sum_(i<=n) l_i(R_H)^p."""
    lw = np.abs(general_eigen(R_W)) ** p
    wh, _ = hermitian_eigen(R_H)
    lh = np.sort(wh)[::-1] ** p
    ratios = np.cumsum(lw) / np.cumsum(lh)
    return ratios, float(np.max(ratios))


def asymptotics_check(eigenvalues, mu, eps, fraction=None):
    """Largest value and log-log trend slope of i^(mu-eps)|l_i| over the
    trusted leading range; |l_i| = o(i^(-mu+eps)) wants a negative slope."""
    lam = np.abs(eigenvalues)
    m = max(8, int(lam.size * (fraction if fraction is not None else DEFAULT.fit_fraction)))
    i = np.arange(1, m + 1, dtype=float)
    seq = i ** (mu - eps) * lam[:m]
    x = np.log(i)
    y = np.log(np.maximum(seq, 1e-300))
    return float(np.max(seq)), float(np.polyfit(x, y, 1)[0])


def maccretive_check(A, t_samples=(0.01, 0.1, 1.0, 10.0, 100.0)):
    """The two sides of the dual m-accretivity test: the smallest eigenvalue
    of the Hermitian part, and the worst slack t ||(A + t)^-1|| - 1 over the
    sampled t."""
    n = A.shape[0]
    herm_min = min_hermitian_eig(A)
    worst = 0.0
    for t in t_samples:
        worst = max(worst, inverse_norm(A + t * np.eye(n)) * t - 1.0)
    return herm_min, float(worst)
