"""Spectral diagnostics: numerical range, sectorial factorization, order,
Schatten classification, eigenvalue inequality, asymptotics, completeness.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import DegenerateFit
from .numcore import (
    general_eigen,
    hermitian_eigen,
    hermitian_part,
    inverse,
    inverse_norm,
    min_hermitian_eig,
    op_norm,
    skew_part,
    spd_power,
    top_eigvec,
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
    is the Rayleigh quotient at the top eigenvector of Re(e^(i phi) M).
    The fitted sector's vertex is the minimal real part of the boundary
    (``refit_sector`` takes another).

    A real M has Re(e^(-i phi) M) = conj Re(e^(i phi) M), so its boundary
    is conjugate-symmetric: only angles 0..pi are solved and the point at
    2 pi - phi is the conjugate of the point at phi.
    """
    if n_angles < 16:
        raise ValueError("need n_angles >= 16")
    phis = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    real = not M.imag.any()
    pts = np.empty(n_angles, dtype=complex)
    for j, phi in enumerate(phis[: n_angles // 2 + 1] if real else phis):
        H = np.exp(1j * phi) * M
        H = (H + H.conj().T) / 2
        v = top_eigvec(H)
        pts[j] = v.conj() @ M @ v
    if real:
        j = np.arange(1, (n_angles + 1) // 2)
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


@dataclass(frozen=True)
class H1H2Report:
    C1: float
    C2: float
    verdict: bool


def verify_H1_H2(L, hplus):
    """Form bounds of L relative to the h+ norm matrix N.

    With W = N^(-1/2) L N^(-1/2): C2 = min eigenvalue of the Hermitian part
    of W (exact, not sampled); C1 = largest singular value of W.
    """
    S = spd_power(hplus, -0.5, "norm matrix")
    W = S @ L @ S
    C2 = min_hermitian_eig(W)
    C1 = op_norm(W)
    return H1H2Report(C1, C2, bool(C2 > 0.0))


def _factor(W):
    """H = Re W, S = H^(-1/2) and B = S (Im W) S of W = H^(1/2)(I + iB)H^(1/2)."""
    H = hermitian_part(W)
    S = spd_power(H, -0.5, "Hermitian part")
    return H, S, S @ skew_part(W) @ S


def sectorial_factorize(W):
    """W = H^(1/2)(I + iB)H^(1/2) with H the Hermitian part and B
    self-adjoint; requires H positive definite."""
    H, _, B = _factor(W)
    return H, B


@dataclass(frozen=True)
class ResolventIdentityReport:
    defect_factor1: float
    defect_factor_half: float


def realpart_resolvent_check(W):
    """Compare Re(W^-1) with H^(-1/2)(I + B^2)^(-1)H^(-1/2).

    Reports the relative defect of the factor-1 identity (which matrix
    algebra gives) and of the printed factor-1/2 variant.
    """
    X = hermitian_part(inverse(W))
    _, S, B = _factor(W)
    Y = S @ inverse(np.eye(W.shape[0]) + B @ B) @ S
    scale = np.linalg.norm(X)
    return ResolventIdentityReport(
        float(np.linalg.norm(X - Y) / scale),
        float(np.linalg.norm(X - Y / 2) / scale),
    )


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


def refinement_converged(sum_coarse, sum_fine):
    """Two-point refinement surrogate for convergence of a Schatten sum."""
    return bool(abs(sum_fine - sum_coarse) <= DEFAULT.schatten_refine_rel * abs(sum_fine))


def schatten_classify(svals, mu, extra_ps=()):
    """Predicted minimal Schatten exponent per the classification theorem:
    p = 1 for mu > 1, else any p > 2/mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    predicted = 1.0 if mu > 1.0 else 2.0 / mu
    ps = sorted({predicted, 1.0, *extra_ps})
    sums = {p: schatten_sum(svals, p) for p in ps}
    return SchattenClassification(float(mu), float(predicted), bool(mu > 1.0), sums)


def eigenvalue_inequality(R_W, R_H, p=1.0):
    """Ratio profile rho_n = sum_(i<=n)|l_i(R_W)|^p / sum_(i<=n) l_i(R_H)^p."""
    lw = np.abs(general_eigen(R_W)) ** p
    wh, _ = hermitian_eigen(R_H)
    lh = np.sort(wh)[::-1] ** p
    ratios = np.cumsum(lw) / np.cumsum(lh)
    return ratios, float(np.max(ratios))


@dataclass(frozen=True)
class AsymptoticsReport:
    passed: bool
    max_value: float
    trend_slope: float


def asymptotics_check(eigenvalues, mu, eps, fraction=None):
    """Check |l_i| = o(i^(-mu+eps)): the sequence i^(mu-eps)|l_i| must be
    decreasing-trending over the trusted leading range."""
    lam = np.abs(np.asarray(eigenvalues, dtype=complex))
    m = max(8, int(lam.size * (fraction if fraction is not None else DEFAULT.fit_fraction)))
    i = np.arange(1, m + 1, dtype=float)
    seq = i ** (mu - eps) * lam[:m]
    x = np.log(i)
    y = np.log(np.maximum(seq, 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    return AsymptoticsReport(bool(slope < 0.0), float(np.max(seq)), slope)


def completeness_criterion(sector, mu):
    """Root-vector completeness criterion theta < pi mu / 2."""
    return bool(sector.semi_angle < np.pi * mu / 2.0)


@dataclass(frozen=True)
class MAccretiveReport:
    min_herm_eig: float
    worst_resolvent_slack: float
    passed: bool


def maccretive_check(A, t_samples=(0.01, 0.1, 1.0, 10.0, 100.0)):
    """Dual m-accretivity test: Hermitian part nonnegative and
    ||(A + t)^-1|| <= 1/t at each sampled t."""
    n = A.shape[0]
    herm_min = min_hermitian_eig(A)
    worst = 0.0
    for t in t_samples:
        nrm = inverse_norm(A + t * np.eye(n))
        worst = max(worst, nrm * t - 1.0)
    passed = (herm_min >= -DEFAULT.accretive_floor_rel * np.linalg.norm(A)
              and worst <= DEFAULT.maccretive_slack)
    return MAccretiveReport(herm_min, float(worst), bool(passed))
