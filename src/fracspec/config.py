"""Centralized numerical tolerances and caps.

Every threshold used by the library lives here, in ``DEFAULT``, which the
routines read directly. The values are fixed: no routine takes them per call,
so acceptance checks are deterministic.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # numcore
    hermitian_rel: float = 1e-10       # adjoint defect for "self-adjoint"
    cond_cap: float = 1e12
    # fracpow
    accretive_floor_rel: float = 1e-10
    quad_doubling_rel: float = 1e-8
    # semigroup
    poisson_tail: float = 1e-14
    # diagnostics
    fit_fraction: float = 0.5          # fraction of spectrum trusted in fits
    sector_guard_rel: float = 1e-12    # Re(z - vertex) floor for angle fit
    maccretive_slack: float = 1e-8


DEFAULT = Tolerances()
