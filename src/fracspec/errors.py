"""Exception hierarchy shared by all fracspec modules."""


class FracspecError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(FracspecError):
    """Matrix is not self-adjoint."""


class NotPositiveDefinite(FracspecError):
    """Matrix is not positive definite where positivity is required."""


class NotAccretive(FracspecError):
    """Hermitian part of the matrix has a negative eigenvalue."""


class NoConvergence(FracspecError):
    """An iterative eigenvalue/SVD routine failed to converge."""


class IllConditioned(FracspecError):
    """Condition number exceeds the configured cap."""


class BadParameter(FracspecError, ValueError):
    """A model parameter outside its admissible range; the message names it and its value."""


class BadAlpha(BadParameter):
    """Fractional order outside the admissible range."""


class CoefficientBoundViolated(FracspecError):
    """A coefficient function violates its pointwise lower bound."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NegativeTime(FracspecError):
    """Semigroup applied at t < 0."""


class UnderResolvedTime(FracspecError):
    """Gauss semigroup time too small for the grid to resolve the kernel."""


class IncommensurateShift(BadParameter):
    """Shift length is not an integer multiple of the grid spacing."""


class NegativeParameter(BadParameter):
    """A parameter required to be positive is not."""


class QuadratureNotConverged(FracspecError):
    """Node doubling changed a quadrature result beyond tolerance."""


class DegenerateFit(FracspecError):
    """Least-squares fit input carries no usable variation."""
