"""Spectral diagnostics: numerical range, sectorial factorization, order,
Schatten classification, eigenvalue inequality, asymptotics, completeness.

All weighted notions are computed by whitening with diag(sqrt(w)); the
Rayleigh quotient and spectra are invariant under that similarity, so the
standard-inner-product routines apply verbatim to the whitened matrix.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DegenerateFit
from .numcore import (
    asmatrix,
    general_eigen,
    hermitian_eigen,
    hermitian_part,
    inverse,
    min_hermitian_eig,
    op_norm,
    skew_part,
    spd_power,
)


@dataclass(frozen=True)
class SectorEstimate:
    """Sector |arg(z - vertex)| <= semi_angle fitted around sampled boundary
    points of the numerical range."""

    vertex: float
    semi_angle: float
    boundary: np.ndarray


def _top_eigvec(H):
    _, V = np.linalg.eigh(H)
    return V[:, -1]


def numerical_range(M, ip, n_angles=256, vertex=None, tol: Tolerances = DEFAULT):
    """Boundary of the numerical range by the support-function method.

    For each angle phi the extreme point of Theta(M) in direction e^(i phi)
    is the Rayleigh quotient at the top eigenvector of Re(e^(i phi) M).
    The fitted sector uses the supplied vertex, or the minimal real part of
    the boundary when none is given.
    """
    if n_angles < 16:
        raise ValueError("need n_angles >= 16")
    Ms = ip.whiten(asmatrix(M))
    pts = np.empty(n_angles, dtype=complex)
    for j, phi in enumerate(np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)):
        H = np.exp(1j * phi) * Ms
        H = (H + H.conj().T) / 2
        v = _top_eigvec(H)
        pts[j] = v.conj() @ Ms @ v
    return _fit_sector(pts, np.min(pts.real) if vertex is None else vertex, tol)


def refit_sector(estimate, vertex, tol: Tolerances = DEFAULT):
    """Refit the sector of an existing boundary sample about a given vertex
    (e.g. the origin, as in the completeness criterion's sector)."""
    return _fit_sector(np.asarray(estimate.boundary), vertex, tol)


def _fit_sector(pts, vertex, tol):
    """Smallest sector about ``vertex`` holding the boundary points ``pts``."""
    rel = pts - float(vertex)
    spread = max(float(np.max(np.abs(rel))), 1.0)
    keep = rel.real > tol.sector_guard_rel * spread
    theta = float(np.max(np.abs(np.angle(rel[keep])))) if np.any(keep) else 0.0
    return SectorEstimate(float(vertex), theta, pts)


@dataclass(frozen=True)
class H1H2Report:
    C1: float
    C2: float
    verdict: bool


def verify_H1_H2(L, hplus, ip, tol: Tolerances = DEFAULT):
    """Form bounds of L relative to the h+ norm matrix.

    C2 = min eigenvalue of the h+-whitened Hermitian part (exact, not
    sampled); C1 = largest singular value of the h+-whitened L.
    """
    S = spd_power(ip.whiten(hplus), -0.5, tol, "norm matrix")
    W = S @ ip.whiten(L) @ S
    C2 = float(np.linalg.eigvalsh((W + W.conj().T) / 2)[0])
    C1 = float(np.linalg.svd(W, compute_uv=False)[0])
    return H1H2Report(C1, C2, bool(C2 > 0.0))


def _factor(W, ip, tol):
    """H = Re W, S = Hs^(-1/2) and the whitened B, Bs = S Ks S, of
    W = H^(1/2)(I + iB)H^(1/2); Hs, Ks are the whitened Re W, Im W."""
    H = hermitian_part(W, ip)
    S = spd_power(ip.whiten(H), -0.5, tol, "Hermitian part")
    return H, S, S @ ip.whiten(skew_part(W, ip)) @ S


def sectorial_factorize(W, ip, tol: Tolerances = DEFAULT):
    """W = H^(1/2)(I + iB)H^(1/2) with H the ip-Hermitian part and B
    ip-self-adjoint; requires H positive definite."""
    H, _, Bs = _factor(W, ip, tol)
    return H, ip.unwhiten(Bs)


@dataclass(frozen=True)
class ResolventIdentityReport:
    defect_factor1: float
    defect_factor_half: float
    norm_re_resolvent: float


def realpart_resolvent_check(W, ip, tol: Tolerances = DEFAULT):
    """Compare Re(W^-1) with H^(-1/2)(I + B^2)^(-1)H^(-1/2).

    Reports the relative defect of the factor-1 identity (which matrix
    algebra gives) and of the printed factor-1/2 variant.
    """
    Wm = asmatrix(W)
    X = hermitian_part(inverse(Wm), ip)
    _, S, Bs = _factor(Wm, ip, tol)
    Y = ip.unwhiten(S @ inverse(np.eye(Wm.shape[0]) + Bs @ Bs) @ S)
    scale = np.linalg.norm(X)
    return ResolventIdentityReport(
        float(np.linalg.norm(X - Y) / scale),
        float(np.linalg.norm(X - Y / 2) / scale),
        float(scale),
    )


def order_estimate(svals, fraction=None, tol: Tolerances = DEFAULT):
    """Order mu from the log-log slope of the leading singular values.

    Only the first ``fraction`` of the spectrum is used; the discrete tail is
    polluted by the discretization and excluded.
    """
    s = np.asarray(svals, dtype=float)
    if s.size < 16:
        raise ValueError("need at least 16 singular values")
    if np.any(s <= 0):
        raise ValueError("singular values must be positive")
    m = max(8, int(s.size * (fraction if fraction is not None else tol.fit_fraction)))
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


def refinement_converged(sum_coarse, sum_fine, tol: Tolerances = DEFAULT):
    """Two-point refinement surrogate for convergence of a Schatten sum."""
    return bool(abs(sum_fine - sum_coarse) <= tol.schatten_refine_rel * abs(sum_fine))


def schatten_classify(svals, mu, extra_ps=()):
    """Predicted minimal Schatten exponent per the classification theorem:
    p = 1 for mu > 1, else any p > 2/mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    predicted = 1.0 if mu > 1.0 else 2.0 / mu
    ps = sorted({predicted, 1.0, *extra_ps})
    sums = {p: schatten_sum(svals, p) for p in ps}
    return SchattenClassification(float(mu), float(predicted), bool(mu > 1.0), sums)


def eigenvalue_inequality(R_W, R_H, ip, p=1.0):
    """Ratio profile rho_n = sum_(i<=n)|l_i(R_W)|^p / sum_(i<=n) l_i(R_H)^p."""
    lw = np.abs(general_eigen(R_W)) ** p
    wh, _ = hermitian_eigen(R_H, ip)
    lh = np.sort(wh)[::-1] ** p
    ratios = np.cumsum(lw) / np.cumsum(lh)
    return ratios, float(np.max(ratios))


@dataclass(frozen=True)
class AsymptoticsReport:
    passed: bool
    max_value: float
    trend_slope: float


def asymptotics_check(eigenvalues, mu, eps, fraction=None, tol: Tolerances = DEFAULT):
    """Check |l_i| = o(i^(-mu+eps)): the sequence i^(mu-eps)|l_i| must be
    decreasing-trending over the trusted leading range."""
    lam = np.abs(np.asarray(eigenvalues, dtype=complex))
    m = max(8, int(lam.size * (fraction if fraction is not None else tol.fit_fraction)))
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


def maccretive_check(A, ip, t_samples=(0.01, 0.1, 1.0, 10.0, 100.0), tol: Tolerances = DEFAULT):
    """Dual m-accretivity test: Hermitian part nonnegative and
    ||(A + t)^-1|| <= 1/t at each sampled t."""
    Am = asmatrix(A)
    n = Am.shape[0]
    herm_min = min_hermitian_eig(Am, ip)
    worst = 0.0
    for t in t_samples:
        nrm = op_norm(inverse(Am + t * np.eye(n)), ip)
        worst = max(worst, nrm * t - 1.0)
    passed = (herm_min >= -tol.accretive_floor_rel * np.linalg.norm(Am)
              and worst <= tol.maccretive_slack)
    return MAccretiveReport(herm_min, float(worst), bool(passed))
