"""Hamiltonian flow: integrators, reversibility, and orbit periods."""

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import FlowSpec, PotentialParams, flow_map, hamiltonian, orbit_period

ADAPTIVE = FlowSpec(method="adaptive", tolerance=1e-12)


def test_harmonic_rotation(harmonic):
    # For eps = 0 the flow is a clockwise rotation of (x, v).
    t = 1.3
    x0, v0 = 0.7, -0.4
    x, v = flow_map(harmonic, x0, v0, t, ADAPTIVE)
    npt.assert_allclose(x, x0 * np.cos(t) + v0 * np.sin(t), atol=1e-10)
    npt.assert_allclose(v, -x0 * np.sin(t) + v0 * np.cos(t), atol=1e-10)


def test_energy_conservation_symplectic(params):
    spec = FlowSpec(method="symplectic", step=1e-3)
    x0 = np.array([0.3, 1.0, 1.5])
    v0 = np.array([0.5, -0.2, 0.0])
    h0 = hamiltonian(params, x0, v0)
    x, v = flow_map(params, x0, v0, 50.0, spec)
    # Velocity-Verlet: bounded O(step**2) energy oscillation, no drift.
    npt.assert_allclose(hamiltonian(params, x, v), h0, rtol=1e-5)


def test_symplectic_energy_bounded_long_run():
    # 100,000 steps on 16 random points: the energy error stays bounded.
    p = PotentialParams(0.1)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 16)
    v = rng.uniform(-1.0, 1.0, 16)
    h0 = hamiltonian(p, x, v)
    xs, vs = flow_map(p, x, v, 100.0, FlowSpec(method="symplectic", step=1e-3))
    npt.assert_allclose(hamiltonian(p, xs, vs), h0, rtol=1e-5)


def test_reversibility(params):
    x0, v0 = 1.1, 0.4
    for spec in (ADAPTIVE, FlowSpec(method="symplectic", step=5e-4)):
        x, v = flow_map(params, x0, v0, 7.0, spec)
        xb, vb = flow_map(params, x, v, -7.0, spec)
        npt.assert_allclose([xb, vb], [x0, v0], atol=1e-8)


def test_symplectic_matches_adaptive(params):
    x0, v0 = 0.9, -0.7
    xa, va = flow_map(params, x0, v0, 10.0, ADAPTIVE)
    xs, vs = flow_map(params, x0, v0, 10.0, FlowSpec(method="symplectic", step=1e-4))
    npt.assert_allclose([xs, vs], [xa, va], atol=1e-6)


def test_flow_preserves_shape(params):
    x = np.linspace(0.1, 1.0, 6).reshape(2, 3)
    v = np.zeros_like(x)
    xt, vt = flow_map(params, x, v, 0.5, ADAPTIVE)
    assert xt.shape == (2, 3) and vt.shape == (2, 3)
    xs, vs = flow_map(params, 0.5, 0.5, 0.5, ADAPTIVE)
    assert np.isscalar(xs) or np.ndim(xs) == 0


def test_harmonic_period(harmonic):
    for h in (0.25, 1.0, 4.0):
        npt.assert_allclose(orbit_period(harmonic, h), 2.0 * np.pi, rtol=1e-10)


def test_anharmonic_period_shrinks(params):
    # Stiffer-than-harmonic potential: larger orbits are faster.
    t1 = orbit_period(params, 0.5)
    t2 = orbit_period(params, 2.0)
    assert t2 < t1 < 2.0 * np.pi


def test_period_frozen_value(params):
    # Independently computed orbital period at eps = 0.1, h = 1.
    npt.assert_allclose(orbit_period(params, 1.0), 5.610769032243066, rtol=1e-9)


def test_flowspec_validation():
    with pytest.raises(ValueError):
        FlowSpec(method="rk4")
    with pytest.raises(ValueError):
        FlowSpec(method="symplectic", step=0.0)
    with pytest.raises(ValueError):
        FlowSpec(method="adaptive", tolerance=-1.0)


def test_orbit_period_rejects_nonpositive_energy(params):
    with pytest.raises(ValueError):
        orbit_period(params, 0.0)
