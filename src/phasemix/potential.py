"""Quartic confining potential and the associated Hamiltonian.

All quantities are dimensionless.  The potential family is hard-coded:

    Phi(x) = x**2 / 2 + epsilon * x**4 / 2,  epsilon >= 0.

``epsilon = 0`` is the harmonic (isochronous) control case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PotentialParams",
    "phi",
    "hamiltonian",
    "invert_phi",
    "invert_phi_squared",
]

@dataclass(frozen=True)
class PotentialParams:
    """Strength of the quartic perturbation."""

    epsilon: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def phi(params: PotentialParams, x):
    """Potential energy Phi(x); even in x, zero only at x = 0."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return 0.5 * x2 + 0.5 * params.epsilon * x2 * x2


def hamiltonian(params: PotentialParams, x, v):
    """Orbit energy H(x, v) = v**2/2 + Phi(x)."""
    v = np.asarray(v, dtype=float)
    return 0.5 * v * v + phi(params, x)


def invert_phi_squared(params: PotentialParams, h):
    """Square of the positive turning point: the unique y >= 0 with
    y/2 + eps*y**2/2 = h, returned as y = x**2.

    Solving the quadratic gives y = (sqrt(1 + 8*eps*h) - 1) / (2*eps);
    rationalizing the numerator yields the cancellation-free form
    y = 4h / (sqrt(1 + 8*eps*h) + 1), valid for every eps >= 0
    (at eps = 0 it reduces to y = 2h exactly).
    """
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise ValueError("energy must be >= 0")
    return 4.0 * h / (np.sqrt(1.0 + 8.0 * params.epsilon * h) + 1.0)


def invert_phi(params: PotentialParams, h):
    """Positive turning point x >= 0 with Phi(x) = h.

    Strictly increasing in h; exact round trip with :func:`phi` to
    near machine precision across [1e-6, 1e3].
    """
    return np.sqrt(invert_phi_squared(params, h))
