"""The transform Z^a_(G,F)(J) = J*GJ + FJ^a, the numbers of its class hypothesis
(``fracspec.checks`` writes the verdict), the three model operators, and the
closed forms that tie J^a to the shift and Gauss generators' kernels."""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .discretize import (
    axis_kernel_both,
    elliptic_1d,
    first_difference,
    fourth_order_weighted,
    marchaud_right_derivative,
    rl_integral_left,
    riesz_constant,
    riesz_potential,
    sample_coefficient,
    second_derivative,
    weighted_h2_matrix,
)
from .errors import BadAlpha, NegativeParameter
from .fracpow import (
    BalakrishnanConfig,
    balakrishnan_apply,
    balakrishnan_power,
    gl_power_matrix,
    lemma_constant,
)
from .numcore import inverse_norm, min_hermitian_eig, op_norm
from .semigroup import SemigroupSpec, generator_matrix


@dataclass(frozen=True)
class TransformSpec:
    """J, G and F as matrices, real when their data are, and the order alpha in (0, 1)."""

    J: np.ndarray
    G: np.ndarray
    F: np.ndarray
    alpha: float

    def __post_init__(self):
        BalakrishnanConfig(self.alpha)  # BadAlpha outside (0, 1)


def assemble(spec):
    """Z = J^H G J + F J^alpha, alpha in (0, 1), J^alpha the Balakrishnan power."""
    J, G, F = spec.J, spec.G, spec.F
    return J.conj().T @ G @ J + F @ balakrishnan_power(J, BalakrishnanConfig(spec.alpha))


def check_class(spec):
    """(gamma_G, C_alpha, ||J^-1||, ||F||) of the hypothesis gamma_G > C_alpha ||J^-1|| ||F||."""
    gamma_G = min_hermitian_eig(spec.G)
    norm_J_inv = inverse_norm(spec.J)
    norm_F = op_norm(spec.F)
    C_alpha = lemma_constant(1.0 - spec.alpha, norm_J_inv)
    return gamma_G, C_alpha, norm_J_inv, norm_F


@dataclass(frozen=True)
class Model:
    """Assembled model operator with the parts it is built from.

    L is the directly assembled matrix; spec describes the same operator as a
    transform Z^a_(G,F)(J); hplus is the positive definite norm matrix of the
    embedded space h+ used by the H1/H2 diagnostics; semigroup is the one J
    generates; sigma_const, gamma_N and norm_Q_inv are the H2 constants of the
    perturbed difference model. A part the model does not have is None. Every
    matrix is float64 when the model's data are real, complex128 otherwise.
    """

    L: np.ndarray
    spec: TransformSpec = None
    hplus: np.ndarray = None
    semigroup: SemigroupSpec = None
    sigma_const: float = None
    gamma_N: float = None
    norm_Q_inv: float = None


def _sigma_integral(grid, sigma):
    """The left RL integral of order sigma in [0, 1) as a matrix; I at sigma = 0."""
    if not 0.0 <= sigma < 1.0:
        raise BadAlpha(f"sigma must lie in [0, 1), got {sigma}")
    return rl_integral_left(grid, sigma) if sigma > 0 else np.eye(grid.n)


def build_kipriyanov_1d(grid, a11, rho, sigma, alpha):
    """1-D Kipriyanov-type model L = -T + J^sigma_(0+) rho D^alpha_(d-).

    The direct assembly uses the Dirichlet divergence-form stencil for -T;
    the transform description (J = shift generator, G = a11) reproduces it
    up to a single boundary entry, since the discrete factorization
    J^H J differs from the Dirichlet Laplacian in its first corner.
    """
    frac_in = _sigma_integral(grid, sigma)
    av, rhov = sample_coefficient(a11, grid), sample_coefficient(rho, grid)
    spec_sg = SemigroupSpec("shift", grid)
    J = generator_matrix(spec_sg)
    F = frac_in * rhov
    L = elliptic_1d(grid, av) + F @ marchaud_right_derivative(grid, alpha)
    return Model(L, TransformSpec(J, np.diag(av), F, alpha), J.conj().T @ J, spec_sg)


def build_riesz_model(grid, a, rho, sigma, alpha, delta=1.0):
    """Riesz-potential model L = T + I^sigma_+ rho I^(2(1-a)) f'' + delta I
    on a symmetric truncation of the axis, T = (d^2/dx^2)(a d^2/dx^2).

    The transform description uses J = Gauss generator, G = 4a (so that
    J^H G J = T via a f'' g'' = 4a (Jf)(Jg)), and F carrying the
    kernel-normalization conversion between I^(2(1-a)) and J^alpha.
    """
    # I^sigma_+ integrates f(x + s): the transpose of the left RL integral
    frac_in = _sigma_integral(grid, sigma).T
    if not sigma / 2.0 + 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz model needs sigma/2 + 3/4 < alpha < 1, got alpha = {alpha}")
    if not delta >= 0:
        raise NegativeParameter(f"riesz model needs delta >= 0, got delta = {delta}")
    av, rhov = sample_coefficient(a, grid), sample_coefficient(rho, grid)
    P = frac_in * rhov
    L = fourth_order_weighted(grid, av) \
        + P @ riesz_potential(grid, 2.0 * (1.0 - alpha)) @ second_derivative(grid) \
        + delta * np.eye(grid.n)
    spec_sg = SemigroupSpec("gauss", grid)
    J = generator_matrix(spec_sg)
    G = np.diag(4.0 * av)
    # J^alpha realizes K_a B_a x (|s|^(1-2a) kernel on f''); the model's
    # fractional term uses the I^(2(1-a)) normalization B_(2-2a) instead.
    conv = riesz_constant(2.0 - 2.0 * alpha) / _riesz_power_scale(alpha)
    return Model(L, TransformSpec(J, G, conv * P, alpha), weighted_h2_matrix(grid), spec_sg)


def build_difference_model(grid, a, b, lam, mu, alpha, nu=1.0):
    """Perturbed difference model L = Z^a_(aI,bI)(A) + Q*NQ with the
    Poisson-difference generator A of shift mu (None: 4h), N = nu I and Q the
    backward difference.

    sigma_const is the paper's perturbation bound 4 lam ||a|| + ||b|| sum|C_k|,
    with sum|C_k| = 2 lam^alpha in closed form (C_0 = lam^alpha, every later
    C_k is negative and the C_k sum to 0); the H2 hypothesis requires
    gamma_N > sigma_const ||Q^-1||^2.
    """
    spec_sg = SemigroupSpec("poisson", grid, lam=lam, mu=4 * grid.h if mu is None else mu)
    A = generator_matrix(spec_sg)
    av, bv = sample_coefficient(a, grid), sample_coefficient(b, grid)
    Q = first_difference(grid)
    QtQ = Q.T @ Q  # Q*NQ = nu Q^T Q, and gamma_N = min eig(nu I) = nu
    L = (A.conj().T * av) @ A + bv[:, None] * gl_power_matrix(spec_sg, alpha) + nu * QtQ
    sigma_const = 4.0 * lam * float(np.max(np.abs(av))) \
        + float(np.max(np.abs(bv))) * 2.0 * lam**alpha
    return Model(L, TransformSpec(A, np.diag(av), np.diag(bv), alpha), QtQ, spec_sg,
                 sigma_const=sigma_const, gamma_N=float(nu), norm_Q_inv=inverse_norm(Q))


def riesz_power_constant(alpha):
    """K_a = -Gamma(2a-1) cos(a pi/2) / (2^(a-1) Gamma(1-a)), for a in (1/2, 1)."""
    if not 0.5 < alpha < 1.0:
        raise BadAlpha(f"K_alpha needs alpha in (1/2, 1), got {alpha}")
    return -gamma(2 * alpha - 1) * np.cos(alpha * np.pi / 2) / (2 ** (alpha - 1) * gamma(1 - alpha))


def _riesz_power_scale(alpha):
    """K_a B_a: the Gauss generator's J^alpha is this times the |s|^(1-2a) kernel on f''."""
    return riesz_power_constant(alpha) * riesz_constant(alpha)


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
    via_closed = _riesz_power_scale(alpha) * (kernel @ (second_derivative(grid) @ f))
    margin = int(np.ceil(0.1 * grid.n))
    return _rel_l2(via_balak[margin : grid.n - margin], via_closed[margin : grid.n - margin])
