"""A high-precision oracle for the spectrum-suite fixtures: numbers of a model
matrix computed in mpmath at ``DIGITS`` significant digits, independent of the
float64 code under test.

For a real L with H = (L + L^T)/2 positive definite and K = (L - L^T)/2,
W(L) lies in the sector |arg z| <= theta* about 0, where
tan theta* = ||H^(-1/2) K H^(-1/2)||_2 (the skew-symmetric C = H^(-1/2) K H^(-1/2)
is normal, so its numerical radius is its norm), and the sector's least real
part is lambda_min(H).
"""

import mpmath
import numpy as np

DIGITS = 50


def sector(L):
    """(lambda_min(H), theta*) of the real matrix L, as floats."""
    if not np.isrealobj(L):
        raise ValueError("the oracle takes a real matrix")
    with mpmath.workdps(DIGITS):
        A = mpmath.matrix(L.tolist())  # float64 entries convert exactly
        H, K = (A + A.T) / 2, (A - A.T) / 2
        E, Q = mpmath.eigsy(H)
        S = Q * mpmath.diag([1 / mpmath.sqrt(e) for e in E]) * Q.T
        C = S * K * S
        norm = mpmath.sqrt(max(mpmath.eigsy(C.T * C, eigvals_only=True)))
        return float(min(E)), float(mpmath.atan(norm))
