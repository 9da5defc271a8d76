"""fracspec: fractional powers and transforms of m-accretive operator
matrices, with spectral verification diagnostics."""

from .config import DEFAULT, Tolerances
from .discretize import Grid1D
from .fracpow import BalakrishnanConfig
from .semigroup import SemigroupSpec
from .transform import Model, TransformSpec

__all__ = [
    "DEFAULT",
    "Tolerances",
    "Grid1D",
    "BalakrishnanConfig",
    "SemigroupSpec",
    "Model",
    "TransformSpec",
]

__version__ = "0.1.0"
