"""Potential family, Hamiltonian, and the turning-point inverse."""

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import PotentialParams, hamiltonian, invert_phi, phi
from phasemix.potential import invert_phi_squared


def test_phi_values(params):
    # Phi(1) = 1/2 + eps/2; Phi(2) = 2 + 8 eps
    npt.assert_allclose(phi(params, 1.0), 0.55, rtol=1e-15)
    npt.assert_allclose(phi(params, 2.0), 2.8, rtol=1e-15)
    assert phi(params, 0.0) == 0.0


def test_phi_even(params):
    x = np.linspace(-3.0, 3.0, 41)
    npt.assert_allclose(phi(params, x), phi(params, -x), rtol=1e-15)


def test_hamiltonian_harmonic(harmonic):
    # H = (x**2 + v**2)/2 for eps = 0
    npt.assert_allclose(hamiltonian(harmonic, 3.0, 4.0), 12.5, rtol=1e-15)


def test_invert_phi_round_trip(params):
    h = np.geomspace(1e-12, 1e6, 400)
    back = phi(params, invert_phi(params, h))
    npt.assert_allclose(back, h, rtol=5e-15)


def test_invert_phi_harmonic_exact(harmonic):
    h = np.geomspace(1e-9, 1e3, 100)
    npt.assert_allclose(invert_phi_squared(harmonic, h), 2.0 * h, rtol=0.0)


def test_invert_phi_monotone(params):
    h = np.linspace(0.0, 10.0, 1001)
    x = invert_phi(params, h)
    assert np.all(np.diff(x) > 0)
    assert x[0] == 0.0


def test_invert_phi_rejects_negative(params):
    with pytest.raises(ValueError):
        invert_phi(params, -0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(epsilon=-1e-3)
    with pytest.raises(ValueError):
        PotentialParams(epsilon=float("nan"))
