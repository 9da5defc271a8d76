"""Verdicts that the mathematics says cannot move: every spectrum-suite status
of a seeded sectorial matrix L is the same for c L (c > 0), for L^T, for the
complex128 copy of L, and for a real orthogonal Q L Q^T and a complex unitary
U L U^H."""

import numpy as np
import pytest

from fracspec import checks
from fracspec.transform import Model


def similar(L, complex_):
    """Q L Q^H with Q the seeded QR factor of a Gaussian matrix: real
    orthogonal, or complex unitary."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal(L.shape)
    if complex_:
        z = z + 1j * rng.standard_normal(L.shape)
    Q = np.linalg.qr(z)[0]
    return Q @ L @ Q.conj().T


MOVES = {
    "1e-6 L": lambda L: 1e-6 * L,
    "1e6 L": lambda L: 1e6 * L,
    "L^T": lambda L: L.T.copy(),
    "complex128 L": lambda L: L.astype(np.complex128),
    "Q L Q^T": lambda L: similar(L, False),
    "U L U^H": lambda L: similar(L, True),
}


def sectorial(seed, n=20):
    """diag(k^1.5) + 0.3 S + 0.2 U, k = 1..n, with S random skew and U random
    strictly upper."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    U = np.triu(rng.standard_normal((n, n)), 1)
    return np.diag(np.arange(1.0, n + 1) ** 1.5) + 0.3 * (B - B.T) / 2 + 0.2 * U


def statuses(L):
    """(name, status) of each spectrum-suite entry on the custom matrix L."""
    return [(e["name"], e["status"]) for e in checks.run(checks.Context(Model(L)), ("spectrum",))]


@pytest.mark.parametrize("seed", range(5))
def test_spectrum_statuses_survive_scaling_transpose_and_complex_copy(seed):
    L = sectorial(seed)
    want = statuses(L)
    assert "error" not in dict(want).values()
    for move, of in MOVES.items():
        assert statuses(of(L)) == want, move
