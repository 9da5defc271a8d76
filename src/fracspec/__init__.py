"""fracspec: fractional powers and transforms of m-accretive operator
matrices, with spectral verification diagnostics."""

import os

# FRACSPEC_THREADS=n caps the BLAS threads. BLAS fixes its thread count when
# numpy loads, so the cap is applied here, before any module imports numpy.
if os.environ.get("FRACSPEC_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = os.environ["FRACSPEC_THREADS"]

from .config import DEFAULT, Tolerances
from .discretize import Grid1D
from .fracpow import BalakrishnanConfig
from .semigroup import SemigroupSpec
from .transform import ClassReport, Model, TransformSpec

__all__ = [
    "DEFAULT",
    "Tolerances",
    "Grid1D",
    "BalakrishnanConfig",
    "SemigroupSpec",
    "ClassReport",
    "Model",
    "TransformSpec",
]

__version__ = "0.1.0"
