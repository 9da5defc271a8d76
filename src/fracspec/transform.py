"""The transform Z^a_(G,F)(J) = J*GJ + FJ^a and the three model operators."""

from dataclasses import dataclass

import numpy as np

from .discretize import (
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
from .numcore import inverse_norm, min_hermitian_eig, op_norm
from .semigroup import SemigroupSpec, generator_matrix


def _complex_fields(obj, *names):
    """Cast the named matrix fields of a frozen dataclass to complex128."""
    for name in names:
        object.__setattr__(obj, name, np.asarray(getattr(obj, name), dtype=complex))


@dataclass(frozen=True)
class TransformSpec:
    """J, G and F as complex128 matrices, and the order alpha."""

    J: np.ndarray
    G: np.ndarray
    F: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise BadAlpha(f"transform order must lie in [0, 1), got {self.alpha}")
        _complex_fields(self, "J", "G", "F")


@dataclass(frozen=True)
class ClassReport:
    gamma_G: float
    C_alpha: float
    norm_J_inv: float
    norm_F: float
    member: bool
    margin: float


def assemble(spec):
    """Z = J^H G J + F J^alpha; alpha = 0 uses J^0 = I."""
    J, G, F = spec.J, spec.G, spec.F
    if spec.alpha == 0.0:
        Ja = np.eye(J.shape[0], dtype=complex)
    else:
        Ja = balakrishnan_power(J, BalakrishnanConfig(spec.alpha))
    return J.conj().T @ G @ J + F @ Ja


def check_class(spec):
    """Theorem-style membership test: gamma_G > C_alpha ||J^-1|| ||F||."""
    gamma_G = min_hermitian_eig(spec.G)
    norm_J_inv = inverse_norm(spec.J)
    norm_F = op_norm(spec.F)
    C_alpha = lemma_constant(1.0 - spec.alpha, norm_J_inv) if spec.alpha > 0 else 1.0
    threshold = C_alpha * norm_J_inv * norm_F
    return ClassReport(gamma_G, C_alpha, norm_J_inv, norm_F,
                       bool(gamma_G > threshold), float(gamma_G - threshold))


@dataclass(frozen=True)
class Model:
    """Assembled model operator with its transform description.

    L is the directly assembled matrix; spec describes the same operator as a
    transform Z^a_(G,F)(J); hplus is the positive definite norm matrix of the
    embedded space h+ used by the H1/H2 diagnostics. L and hplus are complex128.
    """

    L: np.ndarray
    spec: TransformSpec
    hplus: np.ndarray
    delta: float = 0.0
    sigma_const: float = float("nan")
    gamma_N: float = float("nan")
    norm_Q_inv: float = float("nan")

    def __post_init__(self):
        _complex_fields(self, "L", "hplus")

    @property
    def h2_threshold(self):
        return self.sigma_const * self.norm_Q_inv**2


def build_kipriyanov_1d(grid, a11, rho, sigma, alpha):
    """1-D Kipriyanov-type model L = -T + J^sigma_(0+) rho D^alpha_(d-).

    The direct assembly uses the Dirichlet divergence-form stencil for -T;
    the transform description (J = shift generator, G = a11) reproduces it
    up to a single boundary entry, since the discrete factorization
    J^H J differs from the Dirichlet Laplacian in its first corner.
    """
    if not 0.0 <= sigma < 1.0:
        raise BadAlpha(f"sigma must lie in [0, 1), got {sigma}")
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    J = generator_matrix(SemigroupSpec("shift", grid))
    G = multiply(grid, a11)
    frac_in = rl_integral_left(grid, sigma) if sigma > 0 else np.eye(grid.n)
    F = frac_in @ multiply(grid, rho)
    L = elliptic_1d(grid, a11) + F @ marchaud_right_derivative(grid, alpha)
    return Model(L, TransformSpec(J, G, F, alpha), J.conj().T @ J)


def build_riesz_model(grid, a, rho, sigma, alpha, delta=1.0):
    """Riesz-potential model L = T + I^sigma_+ rho I^(2(1-a)) f'' + delta I
    on a symmetric truncation of the axis, T = (d^2/dx^2)(a d^2/dx^2).

    The transform description uses J = Gauss generator, G = 4a (so that
    J^H G J = T via a f'' g'' = 4a (Jf)(Jg)), and F carrying the
    kernel-normalization conversion between I^(2(1-a)) and J^alpha.
    """
    if not 0.0 <= sigma < 1.0:
        raise BadAlpha(f"sigma must lie in [0, 1), got {sigma}")
    if not sigma / 2.0 + 0.75 < alpha < 1.0:
        raise BadAlpha(f"riesz model needs sigma/2 + 3/4 < alpha < 1, got alpha = {alpha}")
    n = grid.n
    T = fourth_order_weighted(grid, a)
    frac_in = one_sided_potential(grid, sigma, "plus") if sigma > 0 else np.eye(n)
    P = frac_in @ multiply(grid, rho)
    L = T + P @ riesz_potential(grid, 2.0 * (1.0 - alpha)) @ second_derivative(grid) \
        + delta * np.eye(n)
    J = generator_matrix(SemigroupSpec("gauss", grid))
    G = multiply(grid, 4.0 * sample_coefficient(a, grid))
    # J^alpha realizes K_a B_a x (|s|^(1-2a) kernel on f''); the model's
    # fractional term uses the I^(2(1-a)) normalization B_(2-2a) instead.
    conv = riesz_constant(2.0 - 2.0 * alpha) / (riesz_power_constant(alpha) * riesz_constant(alpha))
    return Model(L, TransformSpec(J, G, conv * P, alpha), weighted_h2_matrix(grid), delta=delta)


def build_difference_model(grid, a, b, lam, mu, alpha, nu=1.0):
    """Perturbed difference model L = Z^a_(aI,bI)(A) + Q*NQ with the
    Poisson-difference generator A, N = nu I and Q the backward difference.

    sigma_const is the paper's perturbation bound 4 lam ||a|| + ||b|| sum|C_k|;
    the H2 hypothesis requires gamma_N > sigma_const ||Q^-1||^2.
    """
    spec_sg = SemigroupSpec("poisson", grid, lam=lam, mu=mu)
    A = generator_matrix(spec_sg)
    av = sample_coefficient(a, grid)
    bv = sample_coefficient(b, grid)
    Q = first_difference(grid)
    Nm = nu * np.eye(grid.n)
    L = A.conj().T @ np.diag(av) @ A + np.diag(bv) @ gl_power_matrix(spec_sg, alpha) \
        + Q.conj().T @ Nm @ Q
    sigma_const = 4.0 * lam * float(np.max(np.abs(av))) \
        + float(np.max(np.abs(bv))) * gl_abs_sum(alpha, lam)
    gamma_N = min_hermitian_eig(Nm)
    norm_Q_inv = inverse_norm(Q)
    tspec = TransformSpec(A, multiply(grid, a), multiply(grid, b), alpha)
    return Model(L, tspec, Q.conj().T @ Q,
                 sigma_const=sigma_const, gamma_N=gamma_N, norm_Q_inv=norm_Q_inv)
