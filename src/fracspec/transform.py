"""The transform Z^a_(G,F)(J) = J*GJ + FJ^a and the three model operators."""

from dataclasses import dataclass

import numpy as np

from .discretize import (
    Grid1D,
    OperatorMatrix,
    _check_lower_bound,
    elliptic_1d,
    first_difference,
    fourth_order_weighted,
    marchaud_right_derivative,
    multiply,
    one_sided_potential,
    rl_integral_left,
    riesz_constant,
    riesz_potential,
    sample_coefficient,
    second_derivative,
    weighted_h2_matrix,
)
from .errors import BadAlpha
from .fracpow import (
    BalakrishnanConfig,
    balakrishnan_power,
    gl_abs_sum,
    gl_power_matrix,
    lemma_constant,
    riesz_power_constant,
)
from .numcore import InnerProduct, adjoint, asmatrix, inverse, min_hermitian_eig, op_norm
from .semigroup import SemigroupSpec, generator_matrix


@dataclass(frozen=True)
class TransformSpec:
    J: OperatorMatrix
    G: OperatorMatrix
    F: OperatorMatrix
    alpha: float
    ip: InnerProduct

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise BadAlpha(f"transform order must lie in [0, 1), got {self.alpha}")


@dataclass(frozen=True)
class ClassReport:
    gamma_G: float
    C_alpha: float
    norm_J_inv: float
    norm_F: float
    member: bool
    margin: float


def assemble(spec, cfg=None):
    """Z = adjoint(J) G J + F J^alpha; alpha = 0 uses J^0 = I."""
    J, G, F = asmatrix(spec.J), asmatrix(spec.G), asmatrix(spec.F)
    if spec.alpha == 0.0:
        Ja = np.eye(J.shape[0], dtype=complex)
    else:
        cfg = cfg or BalakrishnanConfig(spec.alpha)
        Ja = asmatrix(balakrishnan_power(J, cfg, ip=spec.ip))
    Z = adjoint(J, spec.ip) @ G @ J + F @ Ja
    if isinstance(spec.J, OperatorMatrix):
        return OperatorMatrix(Z, spec.J.grid, spec.ip)
    return Z


def check_class(spec):
    """Theorem-style membership test: gamma_G > C_alpha ||J^-1|| ||F||."""
    gamma_G = min_hermitian_eig(spec.G, spec.ip)
    norm_J_inv = op_norm(inverse(asmatrix(spec.J)), spec.ip)
    norm_F = op_norm(spec.F, spec.ip)
    C_alpha = lemma_constant(1.0 - spec.alpha, norm_J_inv) if spec.alpha > 0 else 1.0
    threshold = C_alpha * norm_J_inv * norm_F
    return ClassReport(gamma_G, C_alpha, norm_J_inv, norm_F,
                       bool(gamma_G > threshold), float(gamma_G - threshold))


@dataclass(frozen=True)
class Model:
    """Assembled model operator with its transform description.

    L is the directly assembled matrix; spec describes the same operator as a
    transform Z^a_(G,F)(J); hplus is the positive definite norm matrix of the
    embedded space h+ used by the H1/H2 diagnostics.
    """

    L: OperatorMatrix
    spec: TransformSpec
    hplus: OperatorMatrix
    delta: float = 0.0
    sigma_const: float = float("nan")
    gamma_N: float = float("nan")
    norm_Q_inv: float = float("nan")

    @property
    def h2_threshold(self):
        return self.sigma_const * self.norm_Q_inv**2


def build_kipriyanov_1d(grid, a11, rho, sigma, alpha, gamma_a=0.0):
    """1-D Kipriyanov-type model L = -T + J^sigma_(0+) rho D^alpha_(d-).

    The direct assembly uses the Dirichlet divergence-form stencil for -T;
    the transform description (J = shift generator, G = a11) reproduces it
    up to a single boundary entry, since the discrete factorization
    adjoint(J) J differs from the Dirichlet Laplacian in its first corner.
    """
    if not 0.0 <= sigma < 1.0:
        raise BadAlpha(f"sigma must lie in [0, 1), got {sigma}")
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    ip = grid.ip()
    J = generator_matrix(SemigroupSpec("shift", grid))
    G = multiply(grid, a11)
    _check_lower_bound(sample_coefficient(a11, grid), gamma_a, "kipriyanov coefficient a11")
    frac_in = rl_integral_left(grid, sigma).m if sigma > 0 else np.eye(grid.n)
    F = OperatorMatrix(frac_in @ multiply(grid, rho).m, grid, ip)
    L = elliptic_1d(grid, a11, gamma_a).m + F.m @ marchaud_right_derivative(grid, alpha).m
    hplus = adjoint(J, ip) @ J.m
    return Model(OperatorMatrix(L, grid, ip), TransformSpec(J, G, F, alpha, ip),
                 OperatorMatrix(hplus, grid, ip))


def build_riesz_model(grid, a, rho, sigma, alpha, delta=1.0, gamma_a=0.0):
    """Riesz-potential model L = T + I^sigma_+ rho I^(2(1-a)) f'' + delta I
    on a symmetric truncation of the axis, T = (d^2/dx^2)(a d^2/dx^2).

    The transform description uses J = Gauss generator, G = 4a (so that
    adjoint(J) G J = T via a f'' g'' = 4a (Jf)(Jg)), and F carrying the
    kernel-normalization conversion between I^(2(1-a)) and J^alpha.
    """
    if not 0.0 <= sigma < 1.0:
        raise BadAlpha(f"sigma must lie in [0, 1), got {sigma}")
    if not sigma / 2.0 + 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz model needs sigma/2 + 3/4 < alpha < 1, got alpha = {alpha}")
    ip = grid.ip()
    n = grid.n
    T = fourth_order_weighted(grid, a, gamma_a)
    frac_in = one_sided_potential(grid, sigma, "plus").m if sigma > 0 else np.eye(n)
    P = frac_in @ multiply(grid, rho).m
    L = T.m + P @ riesz_potential(grid, 2.0 * (1.0 - alpha)).m @ second_derivative(grid).m \
        + delta * np.eye(n)
    J = generator_matrix(SemigroupSpec("gauss", grid))
    G = multiply(grid, 4.0 * sample_coefficient(a, grid))
    # J^alpha realizes K_a B_a x (|s|^(1-2a) kernel on f''); the model's
    # fractional term uses the I^(2(1-a)) normalization B_(2-2a) instead.
    conv = riesz_constant(2.0 - 2.0 * alpha) / (riesz_power_constant(alpha) * riesz_constant(alpha))
    F = OperatorMatrix(conv * P, grid, ip)
    return Model(OperatorMatrix(L, grid, ip), TransformSpec(J, G, F, alpha, ip),
                 weighted_h2_matrix(grid), delta=delta)


def build_difference_model(grid, a, b, lam, mu, alpha, Q=None, nu=1.0):
    """Perturbed difference model L = Z^a_(aI,bI)(A) + Q*NQ with the
    Poisson-difference generator A; N = nu I by default, Q = backward
    difference by default.

    sigma_const is the paper's perturbation bound 4 lam ||a|| + ||b|| sum|C_k|;
    the H2 hypothesis requires gamma_N > sigma_const ||Q^-1||^2.
    """
    ip = grid.ip()
    spec_sg = SemigroupSpec("poisson", grid, lam=lam, mu=mu)
    A = generator_matrix(spec_sg)
    av = sample_coefficient(a, grid)
    bv = sample_coefficient(b, grid)
    Qm = asmatrix(Q) if Q is not None else first_difference(grid).m
    Nm = nu * np.eye(grid.n)
    glm = gl_power_matrix(spec_sg, alpha)
    L = adjoint(A, ip) @ np.diag(av) @ A.m + np.diag(bv) @ glm.m \
        + adjoint(Qm, ip) @ Nm @ Qm
    sigma_const = 4.0 * lam * float(np.max(np.abs(av))) \
        + float(np.max(np.abs(bv))) * gl_abs_sum(alpha, lam)
    gamma_N = min_hermitian_eig(Nm, ip)
    norm_Q_inv = op_norm(inverse(Qm), ip)
    tspec = TransformSpec(A, multiply(grid, a), multiply(grid, b), alpha, ip)
    return Model(OperatorMatrix(L, grid, ip), tspec, OperatorMatrix(adjoint(Qm, ip) @ Qm, grid, ip),
                 sigma_const=sigma_const, gamma_N=gamma_N, norm_Q_inv=norm_Q_inv)
