"""Numerical tolerances and caps of the library routines.

They live here, in ``DEFAULT``, which the routines read directly; the
verdict thresholds of ``checks`` (a defect at most 1e-8 or 1e-10, say) are
written inline next to the verdict each decides. The values are fixed: no
routine takes them per call, so acceptance checks are deterministic.
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
    # diagnostics
    fit_fraction: float = 0.5          # fraction of spectrum trusted in fits
    sector_guard_rel: float = 1e-12    # Re(z - vertex) floor for angle fit


DEFAULT = Tolerances()
